/**
 * @file
 * Cache model and pipeline timing tests: hit/miss behaviour, LRU,
 * deterministic cycle counts, and the qualitative timing laws the
 * speedup experiment depends on (penalty hurts, predictors help).
 */

#include <gtest/gtest.h>

#include <memory>

#include "bpred/factory.hh"
#include "mem/cache.hh"
#include "pipeline/pipeline.hh"
#include "workloads/workload.hh"

namespace pabp {
namespace {

TEST(Cache, ColdMissThenHit)
{
    Cache c(CacheConfig{4, 2, 2});
    EXPECT_FALSE(c.access(100));
    EXPECT_TRUE(c.access(100));
    EXPECT_TRUE(c.access(101)); // same line (4 words/line)
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, LineGranularity)
{
    Cache c(CacheConfig{4, 2, 2});
    c.access(0);
    EXPECT_TRUE(c.access(3));   // word 3, same 4-word line
    EXPECT_FALSE(c.access(4));  // next line
}

TEST(Cache, LruEviction)
{
    // One set (sets_log2=0), 2 ways, 1-word lines.
    Cache c(CacheConfig{0, 2, 0});
    c.access(1);
    c.access(2);
    c.access(1);       // 1 most recent
    c.access(3);       // evicts 2
    EXPECT_TRUE(c.access(1));
    EXPECT_FALSE(c.access(2));
}

TEST(Cache, CapacityAndMissRate)
{
    Cache c(CacheConfig{2, 2, 1});
    EXPECT_EQ(c.capacityWords(), 4u * 2 * 2);
    c.access(0);
    c.access(0);
    c.access(0);
    c.access(0);
    EXPECT_NEAR(c.missRate(), 0.25, 1e-9);
}

TEST(Cache, SequentialStreamMostlyHits)
{
    Cache c(CacheConfig{7, 4, 3}); // 8-word lines
    for (std::uint64_t a = 0; a < 1024; ++a)
        c.access(a);
    // 1 miss per 8-word line.
    EXPECT_EQ(c.misses(), 128u);
}

/** Run a workload through the pipeline with a given config. */
PipelineStats
runPipeline(const std::string &workload, bool if_convert,
            EngineConfig ecfg, PipelineConfig pcfg,
            std::uint64_t steps = 400000)
{
    Workload wl = makeWorkload(workload, 31);
    CompileOptions copts;
    copts.ifConvert = if_convert;
    CompiledProgram cp = compileWorkload(wl, copts);
    PredictorPtr pred = makePredictor("gshare", 12);
    ecfg.modelTargets = true; // the timing model requires the engine's BTB/RAS
    PredictionEngine engine(*pred, ecfg);
    Pipeline pipe(engine, pcfg);
    Emulator emu(cp.prog);
    if (wl.init)
        wl.init(emu.state());
    return pipe.run(emu, steps);
}

TEST(Pipeline, Deterministic)
{
    PipelineStats a =
        runPipeline("filter", true, EngineConfig{}, PipelineConfig{});
    PipelineStats b =
        runPipeline("filter", true, EngineConfig{}, PipelineConfig{});
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.insts, b.insts);
}

TEST(Pipeline, SplitRunsEqualOneRun)
{
    // The sweep advances Timed cells in heartbeat slices, so
    // run(a) then run(b) must leave every counter where run(a + b)
    // does - the pipeline's and the engine's. interp halts (after
    // about 2.04M instructions) inside its second run.
    struct Split
    {
        const char *workload;
        std::uint64_t first;
        std::uint64_t second;
    };
    for (const Split &split : {Split{"filter", 7, 60000},
                               Split{"bsort", 33333, 33333},
                               Split{"interp", 65536, 2000000}}) {
        SCOPED_TRACE(split.workload);
        Workload wl = makeWorkload(split.workload, 31);
        CompiledProgram cp = compileWorkload(wl, CompileOptions{});
        EngineConfig ecfg;
        ecfg.useSfpf = true;
        ecfg.usePgu = true;
        ecfg.modelTargets = true;
        const auto fresh = [&](PredictorPtr &pred,
                               std::unique_ptr<PredictionEngine> &engine,
                               std::unique_ptr<Pipeline> &pipe,
                               std::unique_ptr<Emulator> &emu) {
            pred = makePredictor("gshare", 12);
            engine = std::make_unique<PredictionEngine>(*pred, ecfg);
            pipe = std::make_unique<Pipeline>(*engine, PipelineConfig{});
            emu = std::make_unique<Emulator>(cp.prog);
            if (wl.init)
                wl.init(emu->state());
        };
        PredictorPtr pred_one, pred_two;
        std::unique_ptr<PredictionEngine> engine_one, engine_two;
        std::unique_ptr<Pipeline> pipe_one, pipe_two;
        std::unique_ptr<Emulator> emu_one, emu_two;
        fresh(pred_one, engine_one, pipe_one, emu_one);
        fresh(pred_two, engine_two, pipe_two, emu_two);

        const PipelineStats one =
            pipe_one->run(*emu_one, split.first + split.second);
        pipe_two->run(*emu_two, split.first);
        const PipelineStats two = pipe_two->run(*emu_two, split.second);

        EXPECT_GT(one.insts, split.first);
        EXPECT_EQ(two.insts, one.insts);
        EXPECT_EQ(two.cycles, one.cycles);
        EXPECT_EQ(two.icacheMisses, one.icacheMisses);
        EXPECT_EQ(two.dcacheMisses, one.dcacheMisses);
        EXPECT_EQ(two.l2Misses, one.l2Misses);
        EXPECT_EQ(two.btbMisses, one.btbMisses);
        EXPECT_EQ(two.rasHits, one.rasHits);
        EXPECT_EQ(two.rasMisses, one.rasMisses);
        EXPECT_EQ(two.mispredictStallCycles, one.mispredictStallCycles);
        EXPECT_EQ(engine_two->stats(), engine_one->stats());
        EXPECT_EQ(engine_two->branchProfile(), engine_one->branchProfile());
        EXPECT_EQ(engine_two->pguBitsInserted(),
                  engine_one->pguBitsInserted());
    }
}

TEST(Pipeline, IpcWithinPhysicalBounds)
{
    PipelineConfig pcfg;
    PipelineStats stats =
        runPipeline("histogram", true, EngineConfig{}, pcfg);
    EXPECT_GT(stats.ipc(), 0.1);
    EXPECT_LE(stats.ipc(), pcfg.issueWidth);
}

TEST(Pipeline, HigherMispredictPenaltyCostsCycles)
{
    PipelineConfig cheap, costly;
    cheap.mispredictPenalty = 2;
    costly.mispredictPenalty = 30;
    PipelineStats a = runPipeline("bsearch", false, EngineConfig{},
                                  cheap);
    PipelineStats b = runPipeline("bsearch", false, EngineConfig{},
                                  costly);
    EXPECT_GT(b.cycles, a.cycles);
}

TEST(Pipeline, BetterPredictorImprovesIpc)
{
    // static-nottaken vs gshare on a loop-heavy workload.
    Workload wl1 = makeWorkload("bsearch", 31);
    Workload wl2 = makeWorkload("bsearch", 31);
    CompileOptions copts;
    copts.ifConvert = false;
    CompiledProgram c1 = compileWorkload(wl1, copts);
    CompiledProgram c2 = compileWorkload(wl2, copts);

    PredictorPtr bad = makePredictor("static-nottaken", 1);
    PredictorPtr good = makePredictor("gshare", 12);
    EngineConfig ecfg;
    ecfg.modelTargets = true;
    PredictionEngine e1(*bad, ecfg);
    PredictionEngine e2(*good, ecfg);
    PipelineConfig pcfg;
    Pipeline p1(e1, pcfg), p2(e2, pcfg);
    Emulator m1(c1.prog), m2(c2.prog);
    PipelineStats s1 = p1.run(m1, 300000);
    PipelineStats s2 = p2.run(m2, 300000);
    EXPECT_GT(s2.ipc(), s1.ipc());
}

TEST(Pipeline, WiderIssueNeverSlower)
{
    PipelineConfig narrow, wide;
    narrow.issueWidth = 1;
    wide.issueWidth = 8;
    PipelineStats a =
        runPipeline("matrix", true, EngineConfig{}, narrow);
    PipelineStats b = runPipeline("matrix", true, EngineConfig{}, wide);
    EXPECT_GE(a.cycles, b.cycles);
}

TEST(Pipeline, CacheActivityRecorded)
{
    PipelineStats stats =
        runPipeline("listwalk", true, EngineConfig{}, PipelineConfig{});
    EXPECT_GT(stats.dcacheMisses, 0u);
}

TEST(Pipeline, L2AbsorbsMostL1Misses)
{
    PipelineConfig pcfg;
    pcfg.enableL2 = true;
    PipelineStats stats =
        runPipeline("listwalk", true, EngineConfig{}, pcfg);
    EXPECT_GT(stats.dcacheMisses, 0u);
    // A 32 KiB-class working set largely fits the L2.
    EXPECT_LT(stats.l2Misses, stats.dcacheMisses);
}

TEST(Pipeline, L2OffByDefaultAndNeutral)
{
    PipelineConfig off;
    PipelineStats base =
        runPipeline("listwalk", true, EngineConfig{}, off);
    EXPECT_EQ(base.l2Misses, 0u);

    // With L2 enabled, misses past the L2 can only add cycles
    // relative to the flat L1-miss model (same L1 latencies).
    PipelineConfig on;
    on.enableL2 = true;
    PipelineStats with = runPipeline("listwalk", true, EngineConfig{},
                                     on);
    EXPECT_GE(with.cycles, base.cycles);
}

TEST(Pipeline, MispredictStallsTracked)
{
    PipelineStats stats =
        runPipeline("bsearch", false, EngineConfig{}, PipelineConfig{});
    EXPECT_GT(stats.mispredictStallCycles, 0u);
}

TEST(Pipeline, SfpfPlusPguNeverSlowerOnPredicatedCode)
{
    EngineConfig off, on;
    on.useSfpf = true;
    on.usePgu = true;
    PipelineStats base =
        runPipeline("dchain", true, off, PipelineConfig{});
    PipelineStats enhanced =
        runPipeline("dchain", true, on, PipelineConfig{});
    EXPECT_LE(enhanced.cycles, base.cycles);
}

} // namespace
} // namespace pabp
