/**
 * @file
 * Cache model and pipeline timing tests: hit/miss behaviour, LRU,
 * deterministic cycle counts, the windowed Pipeline::run against
 * itself split anywhere and against the per-instruction
 * runReference, and the qualitative timing laws the speedup
 * experiment depends on (penalty hurts, predictors help).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bpred/factory.hh"
#include "fuzz/fuzz_gen.hh"
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

/** A program to time and the memory image it starts from. */
struct TimedProgram
{
    Program prog;
    StateInit init;
};

/** Suite workload @p name (seed 31, default compile), or - for
 *  "call_depth" - a fuzz-generated program wrapped in a chain of four
 *  nested procedures, so that calls and returns reach the RAS (the
 *  suite has none). */
TimedProgram
timedProgram(const std::string &name)
{
    if (name == "call_depth") {
        fuzz::FuzzProgramConfig gen;
        gen.callDepth = 4;
        gen.repeats = 400;
        fuzz::FuzzPrograms p = fuzz::buildFuzzPrograms(5, gen);
        return {p.converted.prog, p.body.init};
    }
    Workload wl = makeWorkload(name, 31);
    return {compileWorkload(wl, CompileOptions{}).prog, wl.init};
}

/** One engine + pipeline + emulator over @p tp, which must outlive
 *  it. */
struct TimedRun
{
    PredictorPtr pred;
    PredictionEngine engine;
    Pipeline pipe;
    Emulator emu;

    TimedRun(const TimedProgram &tp, const EngineConfig &ecfg,
             const PipelineConfig &pcfg, const EmuConfig &emu_cfg = {})
        : pred(makePredictor("gshare", 12)), engine(*pred, ecfg),
          pipe(engine, pcfg), emu(tp.prog, emu_cfg)
    {
        if (tp.init)
            tp.init(emu.state());
    }
};

/** Everything two timed runs must agree on. */
void
expectSameRun(const TimedRun &got, const TimedRun &want)
{
    const PipelineStats &a = got.pipe.stats();
    const PipelineStats &b = want.pipe.stats();
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.icacheMisses, b.icacheMisses);
    EXPECT_EQ(a.dcacheMisses, b.dcacheMisses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.btbMisses, b.btbMisses);
    EXPECT_EQ(a.rasHits, b.rasHits);
    EXPECT_EQ(a.rasMisses, b.rasMisses);
    EXPECT_EQ(a.mispredictStallCycles, b.mispredictStallCycles);
    EXPECT_TRUE(a == b);
    EXPECT_EQ(got.engine.stats(), want.engine.stats());
    EXPECT_EQ(got.engine.branchProfile(), want.engine.branchProfile());
    EXPECT_EQ(got.engine.pguBitsInserted(),
              want.engine.pguBitsInserted());
    EXPECT_EQ(got.emu.instsExecuted(), want.emu.instsExecuted());
    EXPECT_TRUE(got.emu.state().sameArchOutcome(want.emu.state()));
}

TEST(Pipeline, SplitRunsEqualOneRun)
{
    // The sweep advances Timed cells in heartbeat slices and run()
    // advances in windows of Pipeline::windowEvents events, so run(a)
    // then run(b) must leave every counter where run(a + b) does - the
    // pipeline's and the engine's - and both must equal the
    // per-instruction runReference(). interp halts (after about
    // 2.04M instructions) inside its second run; 4095 and 4097 cut
    // one event either side of a window boundary.
    struct Split
    {
        const char *workload;
        std::uint64_t first;
        std::uint64_t second;
        bool l2;
    };
    for (const Split &split : {Split{"filter", 7, 60000, false},
                               Split{"bsort", 33333, 33333, false},
                               Split{"interp", 65536, 2000000, false},
                               Split{"dchain", 4095, 20000, false},
                               Split{"fsm", 4097, 4095, false},
                               Split{"call_depth", 4097, 2000000, true}}) {
        SCOPED_TRACE(split.workload);
        const TimedProgram tp = timedProgram(split.workload);
        EngineConfig ecfg;
        ecfg.useSfpf = true;
        ecfg.usePgu = true;
        ecfg.modelTargets = true;
        // A shallow RAS overflows on the call chain, so both RAS
        // outcomes occur.
        ecfg.rasDepth = 2;
        PipelineConfig pcfg;
        pcfg.enableL2 = split.l2;

        TimedRun one(tp, ecfg, pcfg), two(tp, ecfg, pcfg),
            ref(tp, ecfg, pcfg);
        one.pipe.run(one.emu, split.first + split.second);
        two.pipe.run(two.emu, split.first);
        two.pipe.run(two.emu, split.second);
        ref.pipe.runReference(ref.emu, split.first + split.second);

        EXPECT_GT(one.pipe.stats().insts, split.first);
        expectSameRun(two, one);
        expectSameRun(one, ref);
        if (split.l2) {
            EXPECT_GT(one.pipe.stats().l2Misses, 0u);
            EXPECT_GT(one.pipe.stats().rasHits, 0u);
            EXPECT_GT(one.pipe.stats().rasMisses, 0u);
        }
    }
}

TEST(Pipeline, WindowsEndingOnATakenBranchMatchReference)
{
    // A three-instruction counting loop, 150002 events to its halt:
    // its taken branch is every third event from event 3, so event
    // 4095 - the last of the first window - is one. Budgets one event
    // either side of a window and past the halt, with no fuse and with
    // a fuse that stops the second window right after the taken branch
    // at event 4098. Each window's last next pc comes from endPc; a
    // wrong one would train the BTB with a target the per-instruction
    // reference never sees.
    TimedProgram tp;
    tp.prog.insts = {
        makeMovImm(1, 0),
        makeAluImm(Opcode::Add, 1, 1, 1),
        makeCmpImm(CmpRel::Lt, CmpType::Unc, 1, 2, 1, 50000),
        makeBr(1, 1),
        makeHalt(),
    };
    EngineConfig ecfg;
    ecfg.modelTargets = true;
    for (std::uint64_t fuse : {0u, 4099u}) {
        for (std::uint64_t budget : {4095u, 4096u, 4097u, 1000000u}) {
            SCOPED_TRACE("fuse " + std::to_string(fuse) + ", budget " +
                         std::to_string(budget));
            EmuConfig emu_cfg;
            emu_cfg.maxInsts = fuse;
            TimedRun one(tp, ecfg, PipelineConfig{}, emu_cfg);
            TimedRun ref(tp, ecfg, PipelineConfig{}, emu_cfg);
            one.pipe.run(one.emu, budget);
            ref.pipe.runReference(ref.emu, budget);
            expectSameRun(one, ref);
            EXPECT_GT(one.pipe.stats().btbMisses, 0u);
        }
    }
}

TEST(Pipeline, WindowedRunMatchesReference)
{
    // run() (record, decide, time per window) against runReference()
    // (step, process, time per instruction) across the technique
    // corners the Timed cells run and a non-default machine.
    std::vector<std::pair<std::string, EngineConfig>> configs;
    EngineConfig base;
    base.modelTargets = true;
    configs.emplace_back("base", base);
    EngineConfig both = base;
    both.useSfpf = true;
    both.usePgu = true;
    configs.emplace_back("+both", both);
    EngineConfig spec = both;
    spec.useSpeculativeSquash = true;
    spec.specGate = EngineConfig::SpecGate::Jrs;
    spec.availDelay = 5000;
    spec.pgu.delay = 5000;
    configs.emplace_back("+both+spec-jrs, delays past a window", spec);
    PipelineConfig narrow;
    narrow.issueWidth = 2;
    narrow.enableL2 = true;
    for (const char *wl : {"interp", "listwalk", "histogram",
                           "call_depth"}) {
        const TimedProgram tp = timedProgram(wl);
        for (const auto &[name, ecfg] : configs) {
            for (const PipelineConfig &pcfg : {PipelineConfig{}, narrow}) {
                SCOPED_TRACE(std::string(wl) + "/" + name +
                             (pcfg.enableL2 ? "/narrow+L2" : ""));
                TimedRun fast(tp, ecfg, pcfg), ref(tp, ecfg, pcfg);
                fast.pipe.run(fast.emu, 50000);
                ref.pipe.runReference(ref.emu, 50000);
                expectSameRun(fast, ref);
            }
        }
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
