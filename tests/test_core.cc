/**
 * @file
 * Tests for the paper's techniques: the delayed predicate file, the
 * squash false path filter (including its 100%-accuracy property over
 * random programs), predicate global update policies, and the engine.
 */

#include <gtest/gtest.h>

#include "bpred/gshare.hh"
#include "bpred/simple.hh"
#include "core/engine.hh"
#include "workloads/random_gen.hh"
#include "workloads/workload.hh"

namespace pabp {
namespace {

TEST(DelayedPredFile, InitialStateKnownFalseExceptP0)
{
    DelayedPredicateFile file(4);
    EXPECT_EQ(file.read(0), std::optional<bool>(true));
    EXPECT_EQ(file.read(5), std::optional<bool>(false));
}

TEST(DelayedPredFile, WriteInvisibleUntilDelayElapses)
{
    DelayedPredicateFile file(4);
    file.write(10, 3, true);
    file.advanceTo(12);
    EXPECT_FALSE(file.read(3).has_value()); // in flight
    file.advanceTo(14);
    EXPECT_EQ(file.read(3), std::optional<bool>(true));
}

TEST(DelayedPredFile, ExactBoundary)
{
    DelayedPredicateFile file(4);
    file.write(10, 3, true);
    file.advanceTo(13);
    EXPECT_FALSE(file.read(3).has_value());
    file.advanceTo(14); // 10 + 4 <= 14
    EXPECT_TRUE(file.read(3).has_value());
}

TEST(DelayedPredFile, ZeroDelayIsOracle)
{
    DelayedPredicateFile file(0);
    file.write(10, 3, true);
    file.advanceTo(11);
    EXPECT_EQ(file.read(3), std::optional<bool>(true));
}

TEST(DelayedPredFile, OverlappingWritesStayUnknown)
{
    DelayedPredicateFile file(4);
    file.write(10, 3, true);
    file.write(12, 3, false);
    file.advanceTo(15); // first resolved, second still in flight
    EXPECT_FALSE(file.read(3).has_value());
    file.advanceTo(16);
    EXPECT_EQ(file.read(3), std::optional<bool>(false)); // last wins
}

TEST(DelayedPredFile, P0WritesIgnored)
{
    DelayedPredicateFile file(2);
    file.write(1, 0, false);
    file.advanceTo(100);
    EXPECT_EQ(file.read(0), std::optional<bool>(true));
}

TEST(DelayedPredFile, NoopWriteBlocksWithoutChangingValue)
{
    DelayedPredicateFile file(4);
    file.write(10, 3, true);
    file.advanceTo(14);
    ASSERT_EQ(file.read(3), std::optional<bool>(true));
    file.writeNoop(20, 3);
    file.advanceTo(22);
    EXPECT_FALSE(file.read(3).has_value()); // pending define
    file.advanceTo(24);
    EXPECT_EQ(file.read(3), std::optional<bool>(true)); // unchanged
}

TEST(Sfpf, SquashesOnlyKnownFalseGuards)
{
    DelayedPredicateFile file(2);
    SquashFalsePathFilter sfpf(file);

    Inst br = makeBr(7, 3);
    EXPECT_TRUE(sfpf.shouldSquash(br)); // p3 known false initially

    file.write(0, 3, true);
    file.advanceTo(1);
    EXPECT_FALSE(sfpf.shouldSquash(br)); // in flight -> unknown
    file.advanceTo(5);
    EXPECT_FALSE(sfpf.shouldSquash(br)); // known true

    file.write(6, 3, false);
    file.advanceTo(10);
    EXPECT_TRUE(sfpf.shouldSquash(br)); // known false again
}

TEST(Sfpf, NeverSquashesUnconditionalOrNonBranches)
{
    DelayedPredicateFile file(2);
    SquashFalsePathFilter sfpf(file);
    EXPECT_FALSE(sfpf.shouldSquash(makeBr(7)));       // qp = p0
    EXPECT_FALSE(sfpf.shouldSquash(makeLoad(1, 2, 0, 3)));
}

/** Engine run helper over a compiled workload. */
EngineStats
runEngine(Workload &wl, bool if_convert, EngineConfig ecfg,
          BranchPredictor &pred, std::uint64_t steps = 0)
{
    CompileOptions copts;
    copts.ifConvert = if_convert;
    CompiledProgram cp = compileWorkload(wl, copts);
    Emulator emu(cp.prog);
    if (wl.init)
        wl.init(emu.state());
    PredictionEngine engine(pred, ecfg);
    runTrace(emu, engine, steps ? steps : wl.defaultSteps);
    return engine.stats();
}

// The filter's headline property: every squashed branch was indeed
// not taken. The engine pabp_asserts this on every squash; these
// tests additionally run the assertion over the whole suite and a
// random-program battery with several delays.
class SfpfAccuracy : public ::testing::TestWithParam<unsigned>
{};

TEST_P(SfpfAccuracy, HundredPercentOnSuite)
{
    for (const std::string &name : workloadNames()) {
        Workload wl = makeWorkload(name, 99);
        GSharePredictor pred(10);
        EngineConfig ecfg;
        ecfg.useSfpf = true;
        ecfg.availDelay = GetParam();
        EngineStats stats =
            runEngine(wl, true, ecfg, pred, 300000);
        // Squashed branches are a subset of false-guard branches.
        EXPECT_LE(stats.all.squashed, stats.all.falseGuard) << name;
    }
}

TEST_P(SfpfAccuracy, HundredPercentOnRandomPrograms)
{
    for (std::uint64_t seed = 300; seed < 310; ++seed) {
        Workload wl = makeRandomWorkload(seed);
        GSharePredictor pred(10);
        EngineConfig ecfg;
        ecfg.useSfpf = true;
        ecfg.availDelay = GetParam();
        runEngine(wl, true, ecfg, pred, 200000);
        // Reaching here means no squash-accuracy assertion fired.
    }
}

INSTANTIATE_TEST_SUITE_P(Delays, SfpfAccuracy,
                         ::testing::Values(0u, 1u, 4u, 8u, 16u, 64u));

TEST(Sfpf, OracleDelaySquashesAllFalseGuardsOfJumpExits)
{
    // With delay 0 every resolved-false guard is squashable; squash
    // count should be a large share of false-guard branches.
    Workload wl = makeWorkload("filter", 42);
    GSharePredictor pred(10);
    EngineConfig ecfg;
    ecfg.useSfpf = true;
    ecfg.availDelay = 0;
    EngineStats stats = runEngine(wl, true, ecfg, pred, 500000);
    EXPECT_GT(stats.all.falseGuard, 0u);
    EXPECT_EQ(stats.all.squashed, stats.all.falseGuard);
}

TEST(Sfpf, LargerDelaySquashesLess)
{
    Workload wl1 = makeWorkload("histogram", 7);
    Workload wl2 = makeWorkload("histogram", 7);
    GSharePredictor p1(10), p2(10);
    EngineConfig e1, e2;
    e1.useSfpf = e2.useSfpf = true;
    e1.availDelay = 0;
    e2.availDelay = 64;
    auto s1 = runEngine(wl1, true, e1, p1, 500000);
    auto s2 = runEngine(wl2, true, e2, p2, 500000);
    EXPECT_GT(s1.all.squashed, s2.all.squashed);
}

TEST(Sfpf, ConservativeTrackingSquashesNoMore)
{
    Workload wl1 = makeWorkload("filter", 9);
    Workload wl2 = makeWorkload("filter", 9);
    GSharePredictor p1(10), p2(10);
    EngineConfig e1, e2;
    e1.useSfpf = e2.useSfpf = true;
    e2.conservativeDefTracking = true;
    auto s1 = runEngine(wl1, true, e1, p1, 500000);
    auto s2 = runEngine(wl2, true, e2, p2, 500000);
    EXPECT_LE(s2.all.squashed, s1.all.squashed);
}

TEST(Pgu, RestoresIfConvertedCorrelation)
{
    // dchain's third branch repeats an earlier (now if-converted)
    // test; PGU must make it nearly perfectly predictable.
    Workload base = makeWorkload("dchain", 5);
    Workload with = makeWorkload("dchain", 5);
    GSharePredictor p1(12), p2(12);
    EngineConfig e1, e2;
    e2.usePgu = true;
    auto s1 = runEngine(base, true, e1, p1);
    auto s2 = runEngine(with, true, e2, p2);
    EXPECT_LT(s2.all.mispredictRate(), s1.all.mispredictRate() * 0.3);
}

TEST(Pgu, RegionOnlyPolicyInsertsFewerBits)
{
    Workload w1 = makeWorkload("dchain", 5);
    Workload w2 = makeWorkload("dchain", 5);
    GSharePredictor p1(12), p2(12);

    CompileOptions copts;
    CompiledProgram c1 = compileWorkload(w1, copts);
    CompiledProgram c2 = compileWorkload(w2, copts);

    EngineConfig e_all, e_region;
    e_all.usePgu = true;
    e_region.usePgu = true;
    e_region.pgu.source = PguSource::RegionCmps;

    Emulator m1(c1.prog), m2(c2.prog);
    w1.init(m1.state());
    w2.init(m2.state());
    PredictionEngine eng1(p1, e_all), eng2(p2, e_region);
    runTrace(m1, eng1, 400000);
    runTrace(m2, eng2, 400000);
    EXPECT_GT(eng1.pguBitsInserted(), eng2.pguBitsInserted());
    EXPECT_GT(eng2.pguBitsInserted(), 0u);
}

TEST(Pgu, DelayGatesTheBenefit)
{
    // With an enormous insertion delay the correlated bits arrive too
    // late and the benefit evaporates.
    Workload w1 = makeWorkload("dchain", 5);
    Workload w2 = makeWorkload("dchain", 5);
    GSharePredictor p1(12), p2(12);
    EngineConfig e_fast, e_slow;
    e_fast.usePgu = true;
    e_fast.pgu.delay = 4;
    e_slow.usePgu = true;
    e_slow.pgu.delay = 4096;
    auto s_fast = runEngine(w1, true, e_fast, p1);
    auto s_slow = runEngine(w2, true, e_slow, p2);
    EXPECT_LT(s_fast.all.mispredictRate(),
              s_slow.all.mispredictRate() * 0.5);
}

TEST(Engine, CountsClassesConsistently)
{
    Workload wl = makeWorkload("filter", 11);
    GSharePredictor pred(10);
    EngineConfig ecfg;
    ecfg.useSfpf = true;
    EngineStats stats = runEngine(wl, true, ecfg, pred, 400000);
    EXPECT_EQ(stats.all.branches,
              stats.region.branches + stats.normal.branches);
    EXPECT_EQ(stats.all.mispredicts,
              stats.region.mispredicts + stats.normal.mispredicts);
    EXPECT_EQ(stats.all.squashed,
              stats.region.squashed + stats.normal.squashed);
    EXPECT_GT(stats.region.branches, 0u);
    EXPECT_GT(stats.predicateDefines, 0u);
}

TEST(Engine, TrainOnSquashedAblationStillCorrect)
{
    Workload wl = makeWorkload("histogram", 21);
    GSharePredictor pred(10);
    EngineConfig ecfg;
    ecfg.useSfpf = true;
    ecfg.trainOnSquashed = true;
    EngineStats stats = runEngine(wl, true, ecfg, pred, 400000);
    EXPECT_GT(stats.all.squashed, 0u);
}

TEST(Engine, UnconditionalBranchesNotPredicted)
{
    Workload wl = makeWorkload("bsort", 2);
    StaticPredictor pred(true); // would mispredict every not-taken
    EngineConfig ecfg;
    EngineStats stats = runEngine(wl, false, ecfg, pred, 200000);
    EXPECT_GT(stats.uncondBranches, 0u);
    // Unconditional branches must not appear in the cond counts.
    EXPECT_LT(stats.all.branches, stats.insts);
}

} // namespace
} // namespace pabp
