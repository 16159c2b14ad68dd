/**
 * @file
 * Scalar-vs-AVX2 equivalence for the runtime-dispatched SIMD kernels
 * (util/simd.hh). Every kernel must be BYTE-IDENTICAL across tiers -
 * they are pure integer arithmetic - so each test runs the same
 * randomised inputs through both forceLevel() tiers and compares
 * exactly. On hosts without AVX2 (or with PABP_SIMD off) forcing the
 * AVX2 tier falls back to scalar and the comparisons are trivially
 * true; the dispatch tests still exercise the override plumbing.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "util/rng.hh"
#include "util/simd.hh"

namespace pabp {
namespace {

/** Restore the startup dispatch level when a test ends. */
class LevelGuard
{
  public:
    LevelGuard() : saved(simd::activeLevel()) {}
    ~LevelGuard() { simd::forceLevel(saved); }

  private:
    simd::Level saved;
};

TEST(SimdDispatch, ForceLevelRoundTrips)
{
    LevelGuard guard;
    EXPECT_EQ(simd::forceLevel(simd::Level::Scalar),
              simd::Level::Scalar);
    EXPECT_EQ(simd::activeLevel(), simd::Level::Scalar);
    const simd::Level got = simd::forceLevel(simd::Level::Avx2);
    if (simd::avx2Available())
        EXPECT_EQ(got, simd::Level::Avx2);
    else
        EXPECT_EQ(got, simd::Level::Scalar); // graceful fallback
    EXPECT_EQ(simd::activeLevel(), got);
}

TEST(SimdDispatch, LevelNames)
{
    EXPECT_STREQ(simd::levelName(simd::Level::Scalar), "scalar");
    EXPECT_STREQ(simd::levelName(simd::Level::Avx2), "avx2");
}

TEST(SimdPerceptron, DotMatchesAcrossLevels)
{
    LevelGuard guard;
    Rng rng(2024);
    for (int trial = 0; trial < 200; ++trial) {
        const unsigned n = 1 + rng.next() % 63;
        std::vector<std::int16_t> w(n + 1);
        for (auto &x : w)
            x = static_cast<std::int16_t>(rng.next()); // full range
        const std::uint64_t hist = rng.next();

        simd::forceLevel(simd::Level::Scalar);
        const std::int32_t scalar = simd::perceptronDot(w.data(), hist, n);
        simd::forceLevel(simd::Level::Avx2);
        const std::int32_t vec = simd::perceptronDot(w.data(), hist, n);
        ASSERT_EQ(scalar, vec) << "n=" << n << " hist=" << hist;
    }
}

TEST(SimdPerceptron, TrainMatchesAcrossLevels)
{
    LevelGuard guard;
    Rng rng(4096);
    for (int trial = 0; trial < 200; ++trial) {
        const unsigned n = 1 + rng.next() % 63;
        // The real predictor trains within [-2^(b-1), 2^(b-1)-1]; mix
        // in weights already pinned at the bounds so saturation lanes
        // are exercised, not just the interior.
        const std::int16_t wmax = 127, wmin = -128;
        std::vector<std::int16_t> w(n + 1);
        for (auto &x : w) {
            const std::uint32_t r = static_cast<std::uint32_t>(rng.next());
            if ((r & 7u) == 0)
                x = wmax;
            else if ((r & 7u) == 1)
                x = wmin;
            else
                x = static_cast<std::int16_t>(
                    static_cast<int>(r % 255) - 127);
        }
        const std::uint64_t hist = rng.next();
        const bool taken = (rng.next() & 1) != 0;

        std::vector<std::int16_t> ws = w, wv = w;
        simd::forceLevel(simd::Level::Scalar);
        simd::perceptronTrain(ws.data(), hist, n, taken, wmax, wmin);
        simd::forceLevel(simd::Level::Avx2);
        simd::perceptronTrain(wv.data(), hist, n, taken, wmax, wmin);
        ASSERT_EQ(ws, wv) << "n=" << n << " hist=" << hist
                          << " taken=" << taken;
    }
}

/** Random class lane biased towards long boring runs (like real
 *  traces: most events are Other). */
std::vector<std::uint8_t>
randomClassLane(Rng &rng, std::size_t n)
{
    std::vector<std::uint8_t> cls(n);
    for (auto &c : cls) {
        const std::uint32_t r = static_cast<std::uint32_t>(rng.next() % 16);
        if (r < 10)
            c = simd::classOther;
        else if (r < 12)
            c = simd::classUncondControl;
        else if (r < 14)
            c = simd::classPredDefine;
        else
            c = simd::classCondBranch;
    }
    return cls;
}

TEST(SimdScan, CollectStopsMatchesAcrossLevels)
{
    LevelGuard guard;
    Rng rng(1234);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t n = 1 + rng.next() % 500;
        const auto cls = randomClassLane(rng, n);
        const std::uint64_t begin = rng.next() % n;
        for (const bool defs : {false, true}) {
            std::vector<std::uint32_t> brS(n, 0xdeadbeefu), brV = brS;
            std::vector<std::uint32_t> dfS(n, 0xdeadbeefu), dfV = dfS;

            simd::forceLevel(simd::Level::Scalar);
            const simd::CollectResult s = simd::collectStops(
                cls.data(), begin, n, defs, brS.data(),
                defs ? dfS.data() : nullptr);
            simd::forceLevel(simd::Level::Avx2);
            const simd::CollectResult v = simd::collectStops(
                cls.data(), begin, n, defs, brV.data(),
                defs ? dfV.data() : nullptr);

            ASSERT_EQ(s.branches, v.branches);
            ASSERT_EQ(s.defines, v.defines);
            ASSERT_EQ(s.uncond, v.uncond);
            // Written prefixes match; untouched tails stay poisoned.
            ASSERT_EQ(brS, brV);
            if (defs) {
                ASSERT_EQ(dfS, dfV);
            }
        }
    }
}

TEST(SimdScan, CollectStopsUncondStreamIsOptionalAndExact)
{
    // The third (optional) output stream: UncondControl indices,
    // needed when the engine models taken-branch targets. Null means
    // count-only; non-null collects the exact ascending positions -
    // on every SIMD tier.
    LevelGuard guard;
    Rng rng(424242);
    for (int trial = 0; trial < 30; ++trial) {
        const std::size_t n = 1 + rng.next() % 400;
        const auto cls = randomClassLane(rng, n);
        const std::uint64_t begin = rng.next() % n;
        for (const bool defs : {false, true}) {
            std::vector<std::uint32_t> brS(n, 0xdeadbeefu), brV = brS;
            std::vector<std::uint32_t> dfS(n, 0xdeadbeefu), dfV = dfS;
            std::vector<std::uint32_t> ucS(n, 0xdeadbeefu), ucV = ucS;

            simd::forceLevel(simd::Level::Scalar);
            const simd::CollectResult s = simd::collectStops(
                cls.data(), begin, n, defs, brS.data(),
                defs ? dfS.data() : nullptr, ucS.data());
            // Count-only call on the same range must agree with the
            // collecting one.
            std::vector<std::uint32_t> brN(n), dfN(n);
            const simd::CollectResult counted = simd::collectStops(
                cls.data(), begin, n, defs, brN.data(),
                defs ? dfN.data() : nullptr, nullptr);
            simd::forceLevel(simd::Level::Avx2);
            const simd::CollectResult v = simd::collectStops(
                cls.data(), begin, n, defs, brV.data(),
                defs ? dfV.data() : nullptr, ucV.data());

            ASSERT_EQ(s.branches, v.branches);
            ASSERT_EQ(s.defines, v.defines);
            ASSERT_EQ(s.uncond, v.uncond);
            ASSERT_EQ(counted.uncond, s.uncond);
            ASSERT_EQ(brS, brV);
            ASSERT_EQ(ucS, ucV);

            std::vector<std::uint32_t> want;
            for (std::uint64_t i = begin; i < n; ++i)
                if (cls[i] == simd::classUncondControl)
                    want.push_back(static_cast<std::uint32_t>(i));
            ASSERT_EQ(s.uncond, want.size());
            for (std::size_t i = 0; i < want.size(); ++i)
                ASSERT_EQ(ucS[i], want[i]);
            // Untouched tail stays poisoned.
            if (want.size() < n) {
                ASSERT_EQ(ucS[want.size()], 0xdeadbeefu);
            }
        }
    }
}

TEST(SimdScan, CollectStopsAgreesWithScanClasses)
{
    // collectStops against the plainest possible reference: scan the
    // classes one byte at a time, collecting branch (and, when
    // defines are interesting, define) indices and counting the rest.
    // Run on both tiers.
    LevelGuard guard;
    Rng rng(5150);
    for (int trial = 0; trial < 30; ++trial) {
        const std::size_t n = 1 + rng.next() % 300;
        const std::uint64_t begin = rng.next() % n;
        const auto cls = randomClassLane(rng, n);
        for (const bool defs : {false, true}) {
            std::vector<std::uint32_t> wantBr, wantDf;
            std::uint64_t uncond = 0, defines = 0;
            for (std::uint64_t i = begin; i < n; ++i) {
                const auto idx = static_cast<std::uint32_t>(i);
                if (cls[i] == simd::classCondBranch)
                    wantBr.push_back(idx);
                else if (cls[i] == simd::classUncondControl)
                    ++uncond;
                else if (cls[i] == simd::classPredDefine) {
                    ++defines;
                    if (defs)
                        wantDf.push_back(idx);
                }
            }
            for (const simd::Level level :
                 {simd::Level::Scalar, simd::Level::Avx2}) {
                simd::forceLevel(level);
                std::vector<std::uint32_t> br(n), df(n);
                const simd::CollectResult got = simd::collectStops(
                    cls.data(), begin, n, defs, br.data(),
                    defs ? df.data() : nullptr);
                ASSERT_EQ(got.branches, wantBr.size());
                ASSERT_EQ(got.uncond, uncond);
                ASSERT_EQ(got.defines, defines);
                br.resize(wantBr.size());
                EXPECT_EQ(br, wantBr);
                if (defs) {
                    df.resize(wantDf.size());
                    EXPECT_EQ(df, wantDf);
                }
            }
        }
    }
}

} // anonymous namespace
} // namespace pabp
