#include "util/simd.hh"

#include <cstdlib>
#include <cstring>

#if defined(PABP_SIMD_ENABLED) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define PABP_SIMD_X86 1
#include <immintrin.h>
#else
#define PABP_SIMD_X86 0
#endif

namespace pabp {
namespace simd {

namespace {

// ---------------------------------------------------------------------
// Scalar kernels - the reference semantics every other tier must
// reproduce bit for bit.

std::int32_t
dotScalar(const std::int16_t *w, std::uint64_t hist, unsigned n)
{
    std::int32_t out = w[0];
    for (unsigned i = 0; i < n; ++i) {
        bool bit = (hist >> i) & 1;
        out += bit ? w[i + 1] : -w[i + 1];
    }
    return out;
}

inline void
adjustScalar(std::int16_t &w, bool up, std::int16_t wmax,
             std::int16_t wmin)
{
    if (up) {
        if (w < wmax)
            ++w;
    } else {
        if (w > wmin)
            --w;
    }
}

void
trainScalar(std::int16_t *w, std::uint64_t hist, unsigned n, bool taken,
            std::int16_t wmax, std::int16_t wmin)
{
    adjustScalar(w[0], taken, wmax, wmin);
    for (unsigned i = 0; i < n; ++i) {
        bool bit = (hist >> i) & 1;
        adjustScalar(w[i + 1], bit == taken, wmax, wmin);
    }
}

CollectResult
collectScalar(const std::uint8_t *cls, std::uint64_t begin,
              std::uint64_t end, bool definesInteresting,
              std::uint32_t *outBranches, std::uint32_t *outDefines,
              std::uint32_t *outUnconds)
{
    CollectResult r;
    for (std::uint64_t i = begin; i < end; ++i) {
        const std::uint8_t c = cls[i];
        if (c == classCondBranch) {
            outBranches[r.branches++] = static_cast<std::uint32_t>(i);
        } else if (c == classPredDefine) {
            if (definesInteresting)
                outDefines[r.defines] = static_cast<std::uint32_t>(i);
            ++r.defines;
        } else if (c == classUncondControl) {
            if (outUnconds)
                outUnconds[r.uncond] = static_cast<std::uint32_t>(i);
            ++r.uncond;
        }
    }
    return r;
}

#if PABP_SIMD_X86

// ---------------------------------------------------------------------
// AVX2 kernels. All integer arithmetic; sums are reassociated but the
// addends cannot overflow their accumulator, so the results are
// identical to the scalar tier.

/** 16 int16 lanes of +1/-1 selected by bits [16c, 16c+16) of hist. */
__attribute__((target("avx2"))) inline __m256i
historySigns16(std::uint64_t hist, unsigned chunk)
{
    const std::uint16_t part =
        static_cast<std::uint16_t>(hist >> (chunk * 16));
    const __m256i bits = _mm256_set1_epi16(static_cast<short>(part));
    const __m256i select = _mm256_setr_epi16(
        1 << 0, 1 << 1, 1 << 2, 1 << 3, 1 << 4, 1 << 5, 1 << 6, 1 << 7,
        static_cast<short>(1 << 8), static_cast<short>(1 << 9),
        static_cast<short>(1 << 10), static_cast<short>(1 << 11),
        static_cast<short>(1 << 12), static_cast<short>(1 << 13),
        static_cast<short>(1 << 14),
        static_cast<short>(static_cast<unsigned short>(1u << 15)));
    // set -> all-ones lane, clear -> zero lane.
    const __m256i mask = _mm256_cmpeq_epi16(
        _mm256_and_si256(bits, select), select);
    // all-ones -> +1, zero -> -1.
    const __m256i one = _mm256_set1_epi16(1);
    const __m256i minus_one = _mm256_set1_epi16(-1);
    return _mm256_blendv_epi8(minus_one, one, mask);
}

__attribute__((target("avx2"))) std::int32_t
dotAvx2(const std::int16_t *w, std::uint64_t hist, unsigned n)
{
    std::int32_t out = w[0];
    const unsigned chunks = n / 16;
    __m256i acc = _mm256_setzero_si256();
    for (unsigned c = 0; c < chunks; ++c) {
        const __m256i wv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(w + 1 + c * 16));
        // madd multiplies int16 lanes by +/-1 and sums adjacent pairs
        // into int32 lanes: exact, no saturation possible.
        acc = _mm256_add_epi32(
            acc, _mm256_madd_epi16(wv, historySigns16(hist, c)));
    }
    alignas(32) std::int32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), acc);
    for (int l = 0; l < 8; ++l)
        out += lanes[l];
    for (unsigned i = chunks * 16; i < n; ++i) {
        bool bit = (hist >> i) & 1;
        out += bit ? w[i + 1] : -w[i + 1];
    }
    return out;
}

__attribute__((target("avx2"))) void
trainAvx2(std::int16_t *w, std::uint64_t hist, unsigned n, bool taken,
          std::int16_t wmax, std::int16_t wmin)
{
    adjustScalar(w[0], taken, wmax, wmin);
    const unsigned chunks = n / 16;
    const __m256i taken_v =
        taken ? _mm256_set1_epi16(-1) : _mm256_setzero_si256();
    const __m256i wmax_v = _mm256_set1_epi16(wmax);
    const __m256i wmin_v = _mm256_set1_epi16(wmin);
    const __m256i all_ones = _mm256_set1_epi16(-1);
    for (unsigned c = 0; c < chunks; ++c) {
        std::int16_t *p = w + 1 + c * 16;
        const __m256i wv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
        const std::uint16_t part =
            static_cast<std::uint16_t>(hist >> (c * 16));
        const __m256i bits =
            _mm256_set1_epi16(static_cast<short>(part));
        const __m256i select = _mm256_setr_epi16(
            1 << 0, 1 << 1, 1 << 2, 1 << 3, 1 << 4, 1 << 5, 1 << 6,
            1 << 7, static_cast<short>(1 << 8),
            static_cast<short>(1 << 9), static_cast<short>(1 << 10),
            static_cast<short>(1 << 11), static_cast<short>(1 << 12),
            static_cast<short>(1 << 13), static_cast<short>(1 << 14),
            static_cast<short>(static_cast<unsigned short>(1u << 15)));
        const __m256i bit_mask = _mm256_cmpeq_epi16(
            _mm256_and_si256(bits, select), select);
        // up lane-mask: bit == taken (both masks are 0/all-ones).
        const __m256i up =
            _mm256_xor_si256(_mm256_xor_si256(bit_mask, taken_v),
                             all_ones);
        // Saturation gates: may move up iff w < wmax, down iff
        // w > wmin.
        const __m256i can_up = _mm256_cmpgt_epi16(wmax_v, wv);
        const __m256i can_dn = _mm256_cmpgt_epi16(wv, wmin_v);
        const __m256i apply = _mm256_or_si256(
            _mm256_and_si256(up, can_up),
            _mm256_andnot_si256(up, can_dn));
        // delta: +1 on up lanes, -1 (all-ones) on down lanes; masking
        // with apply leaves gated lanes at 0.
        const __m256i one = _mm256_set1_epi16(1);
        const __m256i delta =
            _mm256_blendv_epi8(_mm256_set1_epi16(-1), one, up);
        const __m256i nw =
            _mm256_add_epi16(wv, _mm256_and_si256(delta, apply));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), nw);
    }
    for (unsigned i = chunks * 16; i < n; ++i) {
        bool bit = (hist >> i) & 1;
        adjustScalar(w[i + 1], bit == taken, wmax, wmin);
    }
}

__attribute__((target("avx2"))) CollectResult
collectAvx2(const std::uint8_t *cls, std::uint64_t begin,
            std::uint64_t end, bool definesInteresting,
            std::uint32_t *outBranches, std::uint32_t *outDefines,
            std::uint32_t *outUnconds)
{
    CollectResult r;
    std::uint64_t i = begin;
    const __m256i branch_v = _mm256_set1_epi8(classCondBranch);
    const __m256i uncond_v = _mm256_set1_epi8(classUncondControl);
    const __m256i define_v = _mm256_set1_epi8(classPredDefine);
    for (; i + 32 <= end; i += 32) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(cls + i));
        const std::uint32_t unconds = static_cast<std::uint32_t>(
            _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, uncond_v)));
        const std::uint32_t defines = static_cast<std::uint32_t>(
            _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, define_v)));
        std::uint32_t branches = static_cast<std::uint32_t>(
            _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, branch_v)));
        if (outUnconds) {
            std::uint32_t u = unconds;
            while (u) {
                outUnconds[r.uncond++] = static_cast<std::uint32_t>(
                    i + static_cast<unsigned>(__builtin_ctz(u)));
                u &= u - 1;
            }
        } else {
            r.uncond += __builtin_popcount(unconds);
        }
        while (branches) {
            outBranches[r.branches++] = static_cast<std::uint32_t>(
                i + static_cast<unsigned>(__builtin_ctz(branches)));
            branches &= branches - 1;
        }
        if (definesInteresting) {
            std::uint32_t d = defines;
            while (d) {
                outDefines[r.defines++] = static_cast<std::uint32_t>(
                    i + static_cast<unsigned>(__builtin_ctz(d)));
                d &= d - 1;
            }
        } else {
            r.defines += __builtin_popcount(defines);
        }
    }
    const CollectResult tail =
        collectScalar(cls, i, end, definesInteresting,
                      outBranches + r.branches,
                      definesInteresting ? outDefines + r.defines
                                         : nullptr,
                      outUnconds ? outUnconds + r.uncond : nullptr);
    r.branches += tail.branches;
    r.uncond += tail.uncond;
    r.defines += tail.defines;
    return r;
}

#endif // PABP_SIMD_X86

Level
detectLevel()
{
#if PABP_SIMD_X86
    if (const char *env = std::getenv("PABP_SIMD")) {
        if (std::strcmp(env, "scalar") == 0)
            return Level::Scalar;
        if (std::strcmp(env, "avx2") == 0 &&
            __builtin_cpu_supports("avx2"))
            return Level::Avx2;
        // Unknown or unavailable request: fall through to detection.
    }
    if (__builtin_cpu_supports("avx2"))
        return Level::Avx2;
#endif
    return Level::Scalar;
}

Level currentLevel = detectLevel();

} // anonymous namespace

Level
activeLevel()
{
    return currentLevel;
}

bool
avx2Available()
{
#if PABP_SIMD_X86
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

Level
forceLevel(Level level)
{
    if (level == Level::Avx2 && !avx2Available())
        level = Level::Scalar;
    currentLevel = level;
    return currentLevel;
}

const char *
levelName(Level level)
{
    switch (level) {
      case Level::Scalar:
        return "scalar";
      case Level::Avx2:
        return "avx2";
    }
    return "?";
}

std::int32_t
perceptronDot(const std::int16_t *w, std::uint64_t hist, unsigned n)
{
#if PABP_SIMD_X86
    if (currentLevel == Level::Avx2)
        return dotAvx2(w, hist, n);
#endif
    return dotScalar(w, hist, n);
}

void
perceptronTrain(std::int16_t *w, std::uint64_t hist, unsigned n,
                bool taken, std::int16_t wmax, std::int16_t wmin)
{
#if PABP_SIMD_X86
    if (currentLevel == Level::Avx2) {
        trainAvx2(w, hist, n, taken, wmax, wmin);
        return;
    }
#endif
    trainScalar(w, hist, n, taken, wmax, wmin);
}

CollectResult
collectStops(const std::uint8_t *cls, std::uint64_t begin,
             std::uint64_t end, bool definesInteresting,
             std::uint32_t *outBranches, std::uint32_t *outDefines,
             std::uint32_t *outUnconds)
{
#if PABP_SIMD_X86
    if (currentLevel == Level::Avx2)
        return collectAvx2(cls, begin, end, definesInteresting,
                           outBranches, outDefines, outUnconds);
#endif
    return collectScalar(cls, begin, end, definesInteresting,
                         outBranches, outDefines, outUnconds);
}

} // namespace simd
} // namespace pabp
