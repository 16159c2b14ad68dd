/**
 * @file
 * Multi-context interleaved replay (core/multictx.hh, bench E21):
 * the schedule stream is deterministic and bounded, a 1-context
 * replay is byte-identical to the ordinary single-stream loop, fast
 * (batched decoded-trace) and reference (emulator) interleaved
 * replays agree per context across the schedule/sharing/tagging
 * grid, shared target structures suffer cross-context RAS
 * interference that partitioned ones do not, and the sweep runner
 * rejects the unsupported multi-context combinations with typed
 * errors while keeping fast and reference multi-context cells
 * byte-identical.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bpred/factory.hh"
#include "compiler/compile.hh"
#include "core/engine.hh"
#include "core/multictx.hh"
#include "isa/program.hh"
#include "sim/context_schedule.hh"
#include "sim/decoded_trace.hh"
#include "sim/emulator.hh"
#include "sim/trace_io.hh"
#include "sweep.hh"
#include "workloads/workload.hh"

namespace pabp {
namespace {

using bench::RunMode;
using bench::RunResult;
using bench::RunSpec;
using bench::SweepRunner;

// ---------------------------------------------------------------------
// Schedule stream: pure function of its config.

TEST(ContextSchedule, RoundRobinIsStrictRotationAtQuantum)
{
    ContextScheduleConfig cfg;
    cfg.contexts = 3;
    cfg.quantum = 17;
    ContextSchedule sched(cfg);
    for (unsigned i = 0; i < 9; ++i) {
        ContextSchedule::Slice s = sched.next();
        EXPECT_EQ(s.context, i % 3u) << i;
        EXPECT_EQ(s.length, 17u) << i;
    }
}

TEST(ContextSchedule, BurstyIsDeterministicAndBounded)
{
    ContextScheduleConfig cfg;
    cfg.contexts = 4;
    cfg.kind = ScheduleKind::Bursty;
    cfg.quantum = 64;
    cfg.seed = 7;

    ContextSchedule a(cfg), b(cfg);
    bool sawEveryContext[4] = {};
    for (unsigned i = 0; i < 500; ++i) {
        ContextSchedule::Slice sa = a.next();
        ContextSchedule::Slice sb = b.next();
        EXPECT_EQ(sa.context, sb.context) << i;
        EXPECT_EQ(sa.length, sb.length) << i;
        ASSERT_LT(sa.context, 4u) << i;
        EXPECT_GE(sa.length, 1u) << i;
        EXPECT_LE(sa.length, 128u) << i;
        sawEveryContext[sa.context] = true;
    }
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_TRUE(sawEveryContext[c]) << "context " << c
                                        << " never scheduled";

    // A different seed is a different stream.
    ContextScheduleConfig other = cfg;
    other.seed = 8;
    ContextSchedule d(other);
    ContextSchedule ref(cfg);
    bool differs = false;
    for (unsigned i = 0; i < 500 && !differs; ++i) {
        ContextSchedule::Slice sd = d.next();
        ContextSchedule::Slice sr = ref.next();
        differs = sd.context != sr.context || sd.length != sr.length;
    }
    EXPECT_TRUE(differs);
}

TEST(ContextSchedule, ParseAndNameRoundTrip)
{
    for (const char *name : {"rr", "round-robin"}) {
        Expected<ScheduleKind> kind = parseScheduleKind(name);
        ASSERT_TRUE(kind.ok()) << name;
        EXPECT_EQ(kind.value(), ScheduleKind::RoundRobin);
    }
    Expected<ScheduleKind> bursty = parseScheduleKind("bursty");
    ASSERT_TRUE(bursty.ok());
    EXPECT_EQ(bursty.value(), ScheduleKind::Bursty);
    EXPECT_STREQ(scheduleKindName(ScheduleKind::RoundRobin), "rr");
    EXPECT_STREQ(scheduleKindName(ScheduleKind::Bursty), "bursty");

    Expected<ScheduleKind> bad = parseScheduleKind("sporadic");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::InvalidArgument);
}

// ---------------------------------------------------------------------
// Replay fixtures: one compiled workload + recorded trace per
// context, plus a way to mint fresh emulators for the reference path.

constexpr std::uint64_t budget = 20000;

struct CtxFixture
{
    Workload wl;
    CompiledProgram cp;
    DecodedTrace trace;
};

CtxFixture
makeCtx(const std::string &name, std::uint64_t seed)
{
    CtxFixture f;
    f.wl = makeWorkload(name, seed);
    f.cp = compileWorkload(f.wl, CompileOptions{});
    Emulator emu(f.cp.prog);
    if (f.wl.init)
        f.wl.init(emu.state());
    f.trace = recordTrace(emu, budget);
    return f;
}

/** Hand-written call-loop context (no workload init): main calls a
 *  one-add leaf @p iterations times - well nested, so a private RAS
 *  of any reasonable depth never misses. @p pad leading nops shift
 *  every address, so two instances with different padding push
 *  DIFFERENT return addresses - a cross-context pop from a shared
 *  RAS then yields a visibly wrong target. */
CtxFixture
makeCallCtx(std::int64_t iterations, unsigned pad)
{
    Program p;
    p.name = "call-loop";
    for (unsigned i = 0; i < pad; ++i)
        p.insts.push_back(makeNop());
    const std::uint32_t b = pad;
    p.insts.push_back(makeMovImm(1, iterations));
    p.insts.push_back(makeCmpImm(CmpRel::Gt, CmpType::Unc, 1, 2, 1, 0));
    p.insts.push_back(makeBr(b + 7, 2));
    p.insts.push_back(makeCall(b + 8));
    p.insts.push_back(makeAluImm(Opcode::Sub, 1, 1, 1));
    p.insts.push_back(makeBr(b + 1));
    p.insts.push_back(makeNop());
    p.insts.push_back(makeHalt());
    p.insts.push_back(makeAluImm(Opcode::Add, 2, 2, 1));
    p.insts.push_back(makeRet());
    EXPECT_EQ(validateProgram(p), "");

    CtxFixture f;
    f.cp.prog = p;
    Emulator emu(f.cp.prog);
    f.trace = recordTrace(emu, budget);
    return f;
}

std::unique_ptr<Emulator>
freshEmulator(const CtxFixture &f)
{
    auto emu = std::make_unique<Emulator>(f.cp.prog);
    if (f.wl.init)
        f.wl.init(emu->state());
    return emu;
}

struct CtxOutcome
{
    std::uint64_t processed = 0;
    std::vector<EngineStats> stats;
    std::vector<BranchProfile> profiles;
    std::vector<std::uint64_t> pguBits;
};

CtxOutcome
collect(MultiContextReplayer &replayer, std::uint64_t processed)
{
    CtxOutcome out;
    out.processed = processed;
    for (unsigned c = 0; c < replayer.contexts(); ++c) {
        out.stats.push_back(replayer.engine(c).stats());
        out.profiles.push_back(replayer.engine(c).branchProfile());
        out.pguBits.push_back(replayer.engine(c).pguBitsInserted());
    }
    return out;
}

using CtxSet = std::vector<const CtxFixture *>;

CtxOutcome
runFast(const CtxSet &ctxs, const std::string &kind,
        const MultiCtxConfig &cfg)
{
    PredictorPtr pred = makePredictor(kind, 12);
    MultiContextReplayer replayer(*pred, cfg);
    std::vector<const DecodedTrace *> traces;
    for (const CtxFixture *f : ctxs)
        traces.push_back(&f->trace);
    return collect(replayer, replayer.replayDecoded(traces, budget));
}

CtxOutcome
runReference(const CtxSet &ctxs, const std::string &kind,
             const MultiCtxConfig &cfg)
{
    PredictorPtr pred = makePredictor(kind, 12);
    MultiContextReplayer replayer(*pred, cfg);
    std::vector<std::unique_ptr<Emulator>> owned;
    std::vector<Emulator *> emus;
    for (const CtxFixture *f : ctxs) {
        owned.push_back(freshEmulator(*f));
        emus.push_back(owned.back().get());
    }
    return collect(replayer, replayer.replayEmulated(emus, budget));
}

void
expectEquivalent(const CtxOutcome &ref, const CtxOutcome &fast)
{
    EXPECT_EQ(ref.processed, fast.processed);
    ASSERT_EQ(ref.stats.size(), fast.stats.size());
    for (std::size_t c = 0; c < ref.stats.size(); ++c) {
        SCOPED_TRACE("context " + std::to_string(c));
        EXPECT_EQ(ref.stats[c], fast.stats[c]);
        EXPECT_EQ(ref.profiles[c], fast.profiles[c]);
        EXPECT_EQ(ref.pguBits[c], fast.pguBits[c]);
        // Vacuity guard: every context must actually have run.
        EXPECT_GT(ref.stats[c].all.branches, 0u);
    }
}

MultiCtxConfig
multiCtxConfig(unsigned contexts, ScheduleKind kind, bool shared,
               unsigned tag_bits, std::uint64_t quantum = 96)
{
    MultiCtxConfig cfg;
    cfg.schedule.contexts = contexts;
    cfg.schedule.kind = kind;
    cfg.schedule.quantum = quantum;
    cfg.schedule.seed = 11;
    cfg.sharedHistory = shared;
    cfg.tagBits = tag_bits;
    cfg.engine.useSfpf = true;
    cfg.engine.usePgu = true;
    return cfg;
}

// ---------------------------------------------------------------------
// The N == 1 identity: a single-context replay IS the single-stream
// loop, bit for bit, with and without tag bits (context 0's tag mix
// is the identity).

TEST(MultiCtxReplay, SingleContextMatchesSingleStream)
{
    for (const char *wl : {"interp", "filter"}) {
        CtxFixture only = makeCtx(wl, 42);
        CtxSet ctxs = {&only};
        for (unsigned tag_bits : {0u, 2u}) {
            SCOPED_TRACE(std::string(wl) + "/tag" +
                         std::to_string(tag_bits));
            MultiCtxConfig cfg = multiCtxConfig(
                1, ScheduleKind::RoundRobin, true, tag_bits);

            CtxOutcome multi = runFast(ctxs, "gshare", cfg);

            PredictorPtr pred = makePredictor("gshare", 12);
            PredictionEngine engine(*pred, cfg.engine);
            std::uint64_t processed =
                engine.processBatch(only.trace, 0, only.trace.size());

            EXPECT_EQ(multi.processed, processed);
            ASSERT_EQ(multi.stats.size(), 1u);
            EXPECT_EQ(multi.stats[0], engine.stats());
            EXPECT_EQ(multi.profiles[0], engine.branchProfile());
            EXPECT_EQ(multi.pguBits[0], engine.pguBitsInserted());
            EXPECT_GT(engine.stats().all.branches, 0u);
        }
    }
}

// ---------------------------------------------------------------------
// Fast vs reference equivalence across the full interference grid:
// context count x schedule x history sharing x tag bits.

TEST(MultiCtxReplay, FastMatchesReferenceAcrossGrid)
{
    static const char *const names[] = {"interp", "bsort", "filter",
                                        "dchain"};
    std::vector<CtxFixture> pool;
    for (unsigned c = 0; c < 4; ++c)
        pool.push_back(makeCtx(names[c], 42 + c));

    for (unsigned n : {2u, 4u}) {
        CtxSet ctxs;
        for (unsigned c = 0; c < n; ++c)
            ctxs.push_back(&pool[c]);
        for (ScheduleKind kind :
             {ScheduleKind::RoundRobin, ScheduleKind::Bursty}) {
            for (bool shared : {true, false}) {
                for (unsigned tag_bits : {0u, 2u}) {
                    SCOPED_TRACE(
                        "n" + std::to_string(n) + "/" +
                        scheduleKindName(kind) +
                        (shared ? "/shared" : "/part") + "/tag" +
                        std::to_string(tag_bits));
                    MultiCtxConfig cfg =
                        multiCtxConfig(n, kind, shared, tag_bits);
                    expectEquivalent(
                        runReference(ctxs, "gshare", cfg),
                        runFast(ctxs, "gshare", cfg));
                }
            }
        }
    }
}

// Every context's engine replays its own trace contiguously from event
// 0, so however the schedule slices it, the engine reads that trace's
// one shared schedule for its predicate configuration. The slicing
// changes how the contexts interleave through the shared predictor,
// so the two quanta need not give the same stats; each must match the
// reference over live emulators.

TEST(MultiCtxReplay, QuantaReadOneSchedulePerTraceAndConfig)
{
    static const char *const names[] = {"interp", "bsort", "filter",
                                        "dchain"};
    std::vector<CtxFixture> pool;
    for (unsigned c = 0; c < 4; ++c)
        pool.push_back(makeCtx(names[c], 42 + c));

    std::vector<EngineConfig> configs(2);
    configs[0].useSfpf = true;
    configs[0].usePgu = true;
    configs[1].usePgu = true;
    std::vector<std::uint64_t> runs(pool.size(), 0);
    for (const EngineConfig &ecfg : configs) {
        for (unsigned n : {2u, 4u}) {
            CtxSet ctxs;
            for (unsigned c = 0; c < n; ++c)
                ctxs.push_back(&pool[c]);
            for (ScheduleKind kind :
                 {ScheduleKind::RoundRobin, ScheduleKind::Bursty}) {
                for (std::uint64_t quantum : {1024u, 65536u}) {
                    SCOPED_TRACE("n" + std::to_string(n) + "/" +
                                 scheduleKindName(kind) + "/q" +
                                 std::to_string(quantum) +
                                 (ecfg.useSfpf ? "/+both" : "/+pgu"));
                    MultiCtxConfig cfg =
                        multiCtxConfig(n, kind, true, 0, quantum);
                    cfg.engine = ecfg;
                    expectEquivalent(runReference(ctxs, "gshare", cfg),
                                     runFast(ctxs, "gshare", cfg));
                    for (unsigned c = 0; c < n; ++c)
                        ++runs[c];
                }
            }
        }
    }
    // One capture per (trace, armed config); every other engine that
    // replayed the trace hit it.
    for (std::size_t c = 0; c < pool.size(); ++c) {
        SCOPED_TRACE(names[c]);
        const ReplayScheduleCache::Counters traffic =
            pool[c].trace.schedCache->counters();
        EXPECT_EQ(traffic.inserts, configs.size());
        EXPECT_EQ(traffic.hits, runs[c] - configs.size());
    }
}

// TAGE's partitioned-history swap is the deepest export/import path
// (folded components plus packed history bytes), so it gets its own
// cell rather than riding the gshare grid.

TEST(MultiCtxReplay, TagePartitionedHistorySwapMatchesReference)
{
    CtxFixture a = makeCtx("interp", 42), b = makeCtx("fsm", 43);
    CtxSet ctxs = {&a, &b};
    MultiCtxConfig cfg =
        multiCtxConfig(2, ScheduleKind::Bursty, false, 0, 48);
    cfg.engine = EngineConfig{};
    expectEquivalent(runReference(ctxs, "tage", cfg),
                     runFast(ctxs, "tage", cfg));
}

TEST(MultiCtxReplay, ReplayIsDeterministic)
{
    CtxFixture a = makeCtx("interp", 42), b = makeCtx("bsort", 43);
    CtxFixture c = makeCtx("filter", 44);
    CtxSet ctxs = {&a, &b, &c};
    MultiCtxConfig cfg =
        multiCtxConfig(3, ScheduleKind::Bursty, true, 1, 64);

    CtxOutcome first = runFast(ctxs, "gshare", cfg);
    CtxOutcome second = runFast(ctxs, "gshare", cfg);
    expectEquivalent(first, second);
}

// ---------------------------------------------------------------------
// Target-structure interference: two well-nested call loops that
// never miss a private RAS. Partitioned mode keeps that guarantee
// per context; shared mode interleaves pushes and pops from both
// contexts through ONE stack, and the slice boundaries that split
// call/return pairs turn into misses. Fast and reference replay
// agree in both modes.

TEST(MultiCtxReplay, SharedRasSuffersInterferencePartitionedDoesNot)
{
    CtxFixture a = makeCallCtx(400, 0), b = makeCallCtx(300, 3);
    CtxSet ctxs = {&a, &b};

    for (bool shared : {true, false}) {
        SCOPED_TRACE(shared ? "shared" : "partitioned");
        // Bursty, not round-robin: a fixed quantum phase-locks the
        // two loops so their call/return pairs happen to never be
        // open at the same time; random burst lengths are what real
        // context switches look like anyway.
        MultiCtxConfig cfg = multiCtxConfig(
            2, ScheduleKind::Bursty, shared, 0, 8);
        cfg.engine = EngineConfig{};
        cfg.engine.modelTargets = true;
        cfg.engine.rasDepth = 16;

        CtxOutcome fast = runFast(ctxs, "gshare", cfg);
        expectEquivalent(runReference(ctxs, "gshare", cfg), fast);

        std::uint64_t hits = 0, misses = 0;
        for (const EngineStats &s : fast.stats) {
            hits += s.rasHits;
            misses += s.rasMisses;
        }
        EXPECT_GT(hits, 0u);
        if (shared)
            EXPECT_GT(misses, 0u)
                << "interleaving through one RAS must split "
                   "call/return pairs";
        else
            EXPECT_EQ(misses, 0u)
                << "a private RAS never misses on well-nested code";
    }
}

// ---------------------------------------------------------------------
// Sweep integration: unsupported combinations fail with typed
// errors; supported multi-context cells are byte-identical between
// the fast and reference strategies; a contexts == 1 spec keeps the
// historical fingerprint no matter what the other context knobs say.

RunSpec
multiCtxSpec(unsigned contexts, bool shared, bool fast)
{
    RunSpec spec;
    spec.workload = "interp";
    spec.engine.useSfpf = true;
    spec.engine.usePgu = true;
    spec.maxInsts = 15000;
    spec.fastReplay = fast;
    spec.captureMetrics = true;
    spec.context.contexts = contexts;
    spec.context.schedule = ScheduleKind::Bursty;
    spec.context.quantum = 128;
    spec.context.shared = shared;
    spec.context.tagBits = shared ? 0u : 1u;
    return spec;
}

TEST(MultiCtxSweep, RejectsCheckpointResumeAndTimedCells)
{
    SweepRunner runner(SweepRunner::Config{1, 0});

    RunSpec ckpt = multiCtxSpec(2, true, true);
    ckpt.checkpointEvery = 5000;
    EXPECT_EQ(runner.runOne(ckpt).status.code(),
              StatusCode::InvalidArgument);

    RunSpec resume = multiCtxSpec(2, true, true);
    resume.resumePath = "pabp.ckpt";
    EXPECT_EQ(runner.runOne(resume).status.code(),
              StatusCode::InvalidArgument);

    RunSpec timed = multiCtxSpec(2, true, true);
    timed.mode = RunMode::Timed;
    EXPECT_EQ(runner.runOne(timed).status.code(),
              StatusCode::InvalidArgument);
}

TEST(MultiCtxSweep, FastAndReferenceCellsAreByteIdentical)
{
    for (unsigned n : {2u, 4u}) {
        for (bool shared : {true, false}) {
            SCOPED_TRACE("n" + std::to_string(n) +
                         (shared ? "/shared" : "/part"));
            RunSpec fast = multiCtxSpec(n, shared, true);
            RunSpec ref = multiCtxSpec(n, shared, false);
            ASSERT_EQ(bench::specFingerprint(fast),
                      bench::specFingerprint(ref));

            SweepRunner runner(SweepRunner::Config{1, 0});
            RunResult fr = runner.runOne(fast);
            RunResult rr = runner.runOne(ref);
            ASSERT_TRUE(fr.status.ok()) << fr.status.toString();
            ASSERT_TRUE(rr.status.ok()) << rr.status.toString();

            EXPECT_EQ(fr.engine, rr.engine);
            EXPECT_EQ(fr.pguBits, rr.pguBits);
            ASSERT_EQ(fr.contexts.size(), n);
            ASSERT_EQ(rr.contexts.size(), n);
            for (unsigned c = 0; c < n; ++c) {
                SCOPED_TRACE("context " + std::to_string(c));
                EXPECT_EQ(fr.contexts[c].engine,
                          rr.contexts[c].engine);
                EXPECT_EQ(fr.contexts[c].profile,
                          rr.contexts[c].profile);
                EXPECT_EQ(fr.contexts[c].pguBits,
                          rr.contexts[c].pguBits);
                EXPECT_GT(fr.contexts[c].engine.all.branches, 0u);
            }
            EXPECT_FALSE(fr.metricsJson.empty());
            EXPECT_EQ(fr.metricsJson, rr.metricsJson);
        }
    }
}

TEST(MultiCtxSweep, ArmedWatchdogLeavesCellsByteIdentical)
{
    // The watchdog's stop predicate is checked between schedule
    // slices and never reshapes the schedule: a deadline that does
    // not fire must leave every byte where the unarmed cell put it.
    // Shared history and tables, so the interleaving shows.
    for (bool fast : {true, false}) {
        SCOPED_TRACE(fast ? "fast" : "reference");
        RunSpec plain = multiCtxSpec(2, true, fast);
        RunSpec armed = plain;
        armed.watchdogMillis = 10 * 60 * 1000;

        SweepRunner runner(SweepRunner::Config{1, 0});
        RunResult pr = runner.runOne(plain);
        RunResult ar = runner.runOne(armed);
        ASSERT_TRUE(pr.status.ok()) << pr.status.toString();
        ASSERT_TRUE(ar.status.ok()) << ar.status.toString();
        EXPECT_FALSE(pr.metricsJson.empty());
        EXPECT_EQ(ar.metricsJson, pr.metricsJson);
        EXPECT_EQ(ar.engine, pr.engine);
        ASSERT_EQ(ar.contexts.size(), 2u);
        ASSERT_EQ(pr.contexts.size(), 2u);
        for (unsigned c = 0; c < 2; ++c) {
            EXPECT_EQ(ar.contexts[c].engine, pr.contexts[c].engine);
            EXPECT_EQ(ar.contexts[c].profile, pr.contexts[c].profile);
        }
    }
}

TEST(MultiCtxSweep, SingleContextSpecKeepsHistoricalFingerprint)
{
    RunSpec plain;
    plain.workload = "interp";

    RunSpec tuned = plain;
    tuned.context.quantum = 7;
    tuned.context.schedule = ScheduleKind::Bursty;
    tuned.context.tagBits = 3;
    // contexts == 1: the cell runs the ordinary single-stream loop,
    // so the context knobs must not perturb the fingerprint (old
    // metrics filenames and checkpoint names stay valid).
    EXPECT_EQ(bench::specFingerprint(plain),
              bench::specFingerprint(tuned));

    RunSpec multi = plain;
    multi.context.contexts = 2;
    EXPECT_NE(bench::specFingerprint(plain),
              bench::specFingerprint(multi));
}

} // namespace
} // namespace pabp
