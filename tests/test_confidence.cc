/**
 * @file
 * Tests for the JRS confidence estimator, the gshare aliasing
 * profiler, and the JRS-gated speculative squash path.
 */

#include <gtest/gtest.h>

#include "bpred/confidence.hh"
#include "bpred/gshare.hh"
#include "core/engine.hh"
#include "workloads/workload.hh"

namespace pabp {
namespace {

TEST(Confidence, StartsLow)
{
    ConfidenceEstimator conf(8);
    EXPECT_FALSE(conf.highConfidence(5));
}

TEST(Confidence, BuildsWithCorrectStreak)
{
    ConfidenceEstimator conf(8, 15, 15);
    for (int i = 0; i < 14; ++i) {
        conf.update(5, true);
        EXPECT_FALSE(conf.highConfidence(5)) << "after " << i + 1;
    }
    conf.update(5, true);
    EXPECT_TRUE(conf.highConfidence(5));
}

TEST(Confidence, SingleMissResets)
{
    ConfidenceEstimator conf(8, 15, 15);
    for (int i = 0; i < 20; ++i)
        conf.update(5, true);
    ASSERT_TRUE(conf.highConfidence(5));
    conf.update(5, false);
    EXPECT_FALSE(conf.highConfidence(5));
}

TEST(Confidence, ThresholdBelowMaxWorks)
{
    ConfidenceEstimator conf(8, 15, 4);
    for (int i = 0; i < 4; ++i)
        conf.update(9, true);
    EXPECT_TRUE(conf.highConfidence(9));
}

TEST(Confidence, StorageBits)
{
    ConfidenceEstimator conf(10, 15, 15);
    EXPECT_EQ(conf.storageBits(), 1024u * 4);
}

TEST(GShareProfiler, NoConflictsForSingleBranchConstantHistory)
{
    GSharePredictor pred(8);
    pred.enableConflictProfiling();
    for (int i = 0; i < 100; ++i) {
        pred.predict(7);
        pred.update(7, false); // constant history
    }
    EXPECT_EQ(pred.lookupCount(), 100u);
    EXPECT_EQ(pred.conflictCount(), 0u);
}

TEST(GShareProfiler, AliasingBranchesConflict)
{
    // Two PCs with identical low bits on a tiny table and constant
    // history hit the same entry alternately.
    GSharePredictor pred(4);
    pred.enableConflictProfiling();
    for (int i = 0; i < 50; ++i) {
        pred.predict(16);
        pred.update(16, false);
        pred.predict(32);
        pred.update(32, false);
    }
    EXPECT_GT(pred.conflictCount(), 50u);
}

TEST(GShareProfiler, DisabledByDefault)
{
    GSharePredictor pred(8);
    pred.predict(1);
    pred.update(1, true);
    EXPECT_EQ(pred.lookupCount(), 0u);
}

TEST(JrsGatedSpecSquash, RunsAndStaysReasonable)
{
    Workload wl = makeWorkload("filter", 31);
    CompileOptions copts;
    CompiledProgram cp = compileWorkload(wl, copts);

    GSharePredictor pred(12);
    EngineConfig ecfg;
    ecfg.useSfpf = true;
    ecfg.availDelay = 32; // starve the certain filter
    ecfg.useSpeculativeSquash = true;
    ecfg.specGate = EngineConfig::SpecGate::Jrs;
    PredictionEngine engine(pred, ecfg);
    Emulator emu(cp.prog);
    wl.init(emu.state());
    runTrace(emu, engine, 400000);

    const EngineStats &stats = engine.stats();
    EXPECT_GT(stats.specSquashed, 0u);
    // JRS gating keeps the wrong-squash share small on this workload.
    EXPECT_LT(static_cast<double>(stats.specSquashedWrong),
              0.1 * static_cast<double>(stats.specSquashed) + 1.0);
}

TEST(SquashFilter, ReducesTableTrafficAndMispredicts)
{
    // The filter removes squashed branches from the table entirely
    // (fewer lookups) and must not increase total mispredicts. The
    // aliasing *rate* of the residue may rise - the filter removes
    // the easy lookups - so absolute counts are the sound metric.
    struct Counts
    {
        std::uint64_t lookups;
        std::uint64_t mispredicts;
    };
    auto run = [](bool sfpf) {
        Workload wl = makeWorkload("histogram", 31);
        CompileOptions copts;
        CompiledProgram cp = compileWorkload(wl, copts);
        GSharePredictor pred(12);
        pred.enableConflictProfiling();
        EngineConfig ecfg;
        ecfg.useSfpf = sfpf;
        PredictionEngine engine(pred, ecfg);
        Emulator emu(cp.prog);
        wl.init(emu.state());
        runTrace(emu, engine, 400000);
        return Counts{pred.lookupCount(),
                      engine.stats().all.mispredicts};
    };
    Counts base = run(false);
    Counts with = run(true);
    EXPECT_LT(with.lookups, base.lookups);
    EXPECT_LE(with.mispredicts, base.mispredicts);
}

} // namespace
} // namespace pabp
