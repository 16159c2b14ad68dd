/**
 * @file
 * Runtime-dispatched SIMD kernels for the replay hot path.
 *
 * Two kinds of work in the batched replay loop vectorise cleanly:
 *
 *  1. The perceptron dot-product and training sweep: histBits
 *     independent +/-w accumulations (predict) and saturating +/-1
 *     adjustments (update) over a contiguous int16 weight row - the
 *     textbook SIMD target the ROADMAP names.
 *
 *  2. Class-lane stop collection: the decoded trace's `cls` lane is a
 *     flat byte array, and between two predictor-relevant events
 *     (conditional branches, and predicate defines when a predicate
 *     technique is armed) the loop only counts the classes it skips.
 *     A 32-lane compare+movemask pass gathers the indices of every
 *     interesting event and popcounts the skipped classes.
 *
 * Every kernel has a scalar implementation and (on x86-64 with
 * PABP_SIMD enabled) an AVX2 implementation that is BYTE-IDENTICAL:
 * the kernels are pure integer arithmetic, reassociated sums of
 * values that cannot overflow, so the result does not depend on the
 * lane width. tests/test_simd.cc pins scalar == AVX2 on randomised
 * inputs, and the fast-vs-reference replay equivalence suite runs the
 * whole engine over both levels.
 *
 * Dispatch is resolved at startup (CPUID), overridable for tests and
 * CI via forceLevel() or the PABP_SIMD environment variable
 * ("scalar" | "avx2"). With the PABP_SIMD CMake option OFF only the
 * scalar kernels are compiled and the dispatcher is a constant.
 */

#ifndef PABP_UTIL_SIMD_HH
#define PABP_UTIL_SIMD_HH

#include <cstddef>
#include <cstdint>

namespace pabp {
namespace simd {

/** Instruction-set tier a kernel dispatches to. */
enum class Level : std::uint8_t
{
    Scalar = 0,
    Avx2 = 1,
};

/** The tier kernels currently dispatch to. */
Level activeLevel();

/** True when the build contains AVX2 kernels and the CPU has AVX2. */
bool avx2Available();

/**
 * Override dispatch (tests, sanitizer stages, benchmarking the scalar
 * fallback). Forcing an unavailable tier falls back to the best
 * available one; returns the tier actually selected.
 */
Level forceLevel(Level level);

/** Human-readable name of a tier ("scalar", "avx2"). */
const char *levelName(Level level);

/**
 * Perceptron output: w[0] (bias) plus, for each history bit i in
 * [0, n), +w[i + 1] when bit i of @p hist is set else -w[i + 1].
 * Exact: every partial sum fits comfortably in int32 (n <= 63,
 * |w| <= 32767), so lane order cannot change the result.
 */
std::int32_t perceptronDot(const std::int16_t *w, std::uint64_t hist,
                           unsigned n);

/**
 * Perceptron training sweep: saturating-adjust w[0] toward @p taken
 * and each w[i + 1] toward (bit i of @p hist == @p taken), bounded to
 * [@p wmin, @p wmax]. Mirrors PerceptronPredictor::saturatingAdjust
 * lane for lane.
 */
void perceptronTrain(std::int16_t *w, std::uint64_t hist, unsigned n,
                     bool taken, std::int16_t wmax, std::int16_t wmin);

/**
 * @name Class-lane byte encoding
 * The scan kernels bake in the DecodedTrace::Class byte values so the
 * AVX2 compare constants are compile-time splats; the engine
 * static_asserts the real enum against these.
 * @{
 */
constexpr std::uint8_t classOther = 0;
constexpr std::uint8_t classCondBranch = 1;
constexpr std::uint8_t classUncondControl = 2;
constexpr std::uint8_t classPredDefine = 3;
/** @} */

/** What a whole-batch stop collection found. */
struct CollectResult
{
    /** CondBranch indices written to @p outBranches. */
    std::uint64_t branches = 0;
    /** PredDefine events in [begin, end) - collected into
     *  @p outDefines when defines are interesting, merely counted
     *  otherwise. */
    std::uint64_t defines = 0;
    /** Skipped UncondControl events in [begin, end). */
    std::uint64_t uncond = 0;
};

/**
 * Collect the events the batch loop must process over the whole
 * range in one pass: writes the index of every classCondBranch event
 * into @p outBranches and (when @p definesInteresting) every
 * classPredDefine index into @p outDefines - each buffer must have
 * room for `end - begin` entries - and counts the skipped classes.
 * For configurations where UncondControl and PredDefine events only
 * bump a counter, the count IS the processing. Splitting the two stop
 * kinds into separate ascending streams lets the batch loop consume
 * defines from a branch-major merge (a short inner run per branch)
 * instead of re-classifying a mixed stream one mispredicting test per
 * event. When @p definesInteresting is false @p outDefines may be
 * null; defines are then only counted. @p outUnconds follows the same
 * optional contract for UncondControl indices (needed when the engine
 * models taken-branch targets): null counts them, non-null (same
 * `end - begin` room) collects a third ascending stream.
 */
CollectResult collectStops(const std::uint8_t *cls, std::uint64_t begin,
                           std::uint64_t end, bool definesInteresting,
                           std::uint32_t *outBranches,
                           std::uint32_t *outDefines,
                           std::uint32_t *outUnconds = nullptr);

} // namespace simd
} // namespace pabp

#endif // PABP_UTIL_SIMD_HH
