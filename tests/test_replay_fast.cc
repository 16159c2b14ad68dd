/**
 * @file
 * Fast-replay equivalence: PredictionEngine::processBatch over a
 * DecodedTrace must be bit-identical - stats, per-branch profile,
 * PGU bit count, checkpoint BYTES, exported metrics BYTES - to the
 * reference replayTrace() loop, across predictor kinds (the E2 axis) and
 * engine configurations (the E6 axis plus the speculative-squash
 * extension). Also pins the DecodedTrace lane packing against
 * RecordedTrace::materialise, the clamped cursor contracts of
 * processBatch and replayTraceFrom, the chunked-batch invariant, the
 * ProcessResult::specSquashed/squashed separation, and the sweep
 * runner's fast-vs-reference byte equality and trace-cache counters.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bpred/btb.hh"
#include "bpred/factory.hh"
#include "core/engine.hh"
#include "sim/decoded_trace.hh"
#include "sim/emulator.hh"
#include "sim/trace_io.hh"
#include "util/serialize.hh"
#include "sweep.hh"
#include "workloads/workload.hh"

namespace pabp {
namespace {

using bench::RunResult;
using bench::RunSpec;
using bench::SweepRunner;

// ---------------------------------------------------------------------
// Shared fixtures: one recorded + decoded trace per workload.

RecordedTrace
recordWorkload(const std::string &name, std::uint64_t max_insts)
{
    Workload wl = makeWorkload(name, 42);
    CompileOptions copts;
    CompiledProgram cp = compileWorkload(wl, copts);
    Emulator emu(cp.prog);
    if (wl.init)
        wl.init(emu.state());
    return recordTrace(emu, max_insts);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::string
tempPath(const std::string &name)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + info->name() + "_" + name;
}

/** The engine's checkpoint bytes (saveState): every queue, table and
 *  counter a resumed run would continue from. */
std::string
stateBytes(const PredictionEngine &engine)
{
    std::ostringstream os;
    StateSink sink(os);
    engine.saveState(sink);
    return os.str();
}

/** Everything the engine exposes after a replay. */
struct ReplayOutcome
{
    EngineStats stats;
    BranchProfile profile;
    std::uint64_t pguBits = 0;
    std::uint64_t processed = 0;
    std::string state;
};

ReplayOutcome
outcomeOf(const PredictionEngine &engine, std::uint64_t processed)
{
    ReplayOutcome out;
    out.processed = processed;
    out.stats = engine.stats();
    out.profile = engine.branchProfile();
    out.pguBits = engine.pguBitsInserted();
    out.state = stateBytes(engine);
    return out;
}

/** Reference replay of the first @p n events (default: all). */
ReplayOutcome
runReference(const RecordedTrace &trace, const std::string &kind,
             const EngineConfig &ecfg,
             std::uint64_t n = ~std::uint64_t{0})
{
    PredictorPtr pred = makePredictor(kind, 12);
    PredictionEngine engine(*pred, ecfg);
    const std::uint64_t processed = replayTrace(trace, engine, n);
    return outcomeOf(engine, processed);
}

/** One processBatch over the first @p n events (default: all). */
ReplayOutcome
runFast(const DecodedTrace &trace, const std::string &kind,
        const EngineConfig &ecfg, std::uint64_t n = ~std::uint64_t{0})
{
    PredictorPtr pred = makePredictor(kind, 12);
    PredictionEngine engine(*pred, ecfg);
    const std::uint64_t processed = engine.processBatch(trace, 0, n);
    return outcomeOf(engine, processed);
}

void
expectEquivalent(const ReplayOutcome &ref, const ReplayOutcome &fast)
{
    EXPECT_EQ(ref.processed, fast.processed);
    EXPECT_EQ(ref.stats, fast.stats);
    EXPECT_EQ(ref.profile, fast.profile);
    EXPECT_EQ(ref.pguBits, fast.pguBits);
    EXPECT_TRUE(ref.state == fast.state)
        << "checkpoint bytes differ (" << ref.state.size() << " vs "
        << fast.state.size() << " bytes)";
    // Guard against a vacuous pass: the trace must actually have
    // exercised the predictor.
    EXPECT_GT(ref.stats.all.branches, 0u);
}

// ---------------------------------------------------------------------
// Lane packing: DecodedTrace::materialise vs RecordedTrace.

TEST(DecodedTraceLanes, MaterialiseMatchesRecordedTrace)
{
    RecordedTrace trace = recordWorkload("interp", 30000);
    DecodedTrace dec = DecodedTrace::build(trace);
    ASSERT_EQ(dec.size(), trace.size());

    for (std::size_t i = 0; i < trace.size(); ++i) {
        DynInst a = trace.materialise(i);
        DynInst b = dec.materialise(i);
        ASSERT_EQ(a.seq, b.seq) << i;
        ASSERT_EQ(a.pc, b.pc) << i;
        ASSERT_EQ(a.guard, b.guard) << i;
        ASSERT_EQ(a.taken, b.taken) << i;
        ASSERT_EQ(a.isControl, b.isControl) << i;
        ASSERT_EQ(a.nextPc, b.nextPc) << i;
        ASSERT_EQ(a.cmpRel, b.cmpRel) << i;
        ASSERT_EQ(a.isMem, b.isMem) << i;
        ASSERT_EQ(a.numPredWrites, b.numPredWrites) << i;
        for (unsigned w = 0; w < a.numPredWrites; ++w) {
            ASSERT_EQ(a.predWrites[w].reg, b.predWrites[w].reg) << i;
            ASSERT_EQ(a.predWrites[w].value, b.predWrites[w].value)
                << i;
        }
        // The decoded trace owns a program COPY, so the pointers
        // differ by design; every static field the engine reads must
        // still agree.
        ASSERT_NE(a.inst, nullptr);
        ASSERT_NE(b.inst, nullptr);
        ASSERT_EQ(a.inst->op, b.inst->op) << i;
        ASSERT_EQ(a.inst->qp, b.inst->qp) << i;
        ASSERT_EQ(a.inst->imm, b.inst->imm) << i;
        ASSERT_EQ(a.inst->pdst1, b.inst->pdst1) << i;
        ASSERT_EQ(a.inst->pdst2, b.inst->pdst2) << i;
        ASSERT_EQ(a.inst->regionId, b.inst->regionId) << i;
        ASSERT_EQ(a.inst->regionBranch, b.inst->regionBranch) << i;
    }
}

TEST(DecodedTraceLanes, ClassLaneMatchesDispatchRules)
{
    RecordedTrace trace = recordWorkload("filter", 30000);
    DecodedTrace dec = DecodedTrace::build(trace);

    std::uint64_t seen[4] = {0, 0, 0, 0};
    for (std::size_t i = 0; i < dec.size(); ++i) {
        const Inst &inst = dec.inst(i);
        auto cls = static_cast<DecodedTrace::Class>(dec.cls[i]);
        ++seen[dec.cls[i]];
        switch (cls) {
          case DecodedTrace::Class::CondBranch:
            EXPECT_EQ(inst.op, Opcode::Br) << i;
            EXPECT_NE(inst.qp, 0) << i;
            break;
          case DecodedTrace::Class::UncondControl:
            EXPECT_TRUE(inst.isControl()) << i;
            EXPECT_FALSE(inst.op == Opcode::Br && inst.qp != 0) << i;
            break;
          case DecodedTrace::Class::PredDefine:
            EXPECT_TRUE(inst.op == Opcode::Cmp ||
                        inst.op == Opcode::PSet)
                << i;
            break;
          case DecodedTrace::Class::Other:
            EXPECT_FALSE(inst.isControl()) << i;
            EXPECT_FALSE(inst.writesPredicate()) << i;
            break;
        }
    }
    // An if-converted workload exercises every class.
    EXPECT_GT(seen[0], 0u);
    EXPECT_GT(seen[1], 0u);
    EXPECT_GT(seen[2], 0u);
    EXPECT_GT(seen[3], 0u);
}

// ---------------------------------------------------------------------
// Equivalence across the predictor axis (the E2 grid): every factory
// kind, base and fully-armed configs. Covers the devirtualised
// predictors (gshare, comb, perceptron, tage) and the generic
// fallback.

TEST(FastReplayEquivalence, EveryPredictorKind)
{
    static const char *const kinds[] = {
        "static-taken", "static-nottaken", "bimodal", "gshare",
        "gag",          "local",           "agree",   "yags",
        "perceptron",   "comb",            "tage"};

    for (const char *wl : {"interp", "bsort"}) {
        RecordedTrace trace = recordWorkload(wl, 40000);
        DecodedTrace dec = DecodedTrace::build(trace);
        for (const char *kind : kinds) {
            for (int armed = 0; armed < 2; ++armed) {
                SCOPED_TRACE(std::string(wl) + "/" + kind +
                             (armed ? "/+both" : "/base"));
                EngineConfig ecfg;
                ecfg.useSfpf = armed != 0;
                ecfg.usePgu = armed != 0;
                expectEquivalent(runReference(trace, kind, ecfg),
                                 runFast(dec, kind, ecfg));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Equivalence across the configuration axis (the E6 grid plus the
// extension knobs): "base" takes the unarmed batchLoop specialisation,
// every other cell the armed one, where each technique flag and each
// ablation is a run-time branch - so every one of them gets its own
// cell.

std::vector<std::pair<std::string, EngineConfig>>
configGrid()
{
    std::vector<std::pair<std::string, EngineConfig>> grid;
    EngineConfig base;
    grid.emplace_back("base", base);

    EngineConfig sfpf;
    sfpf.useSfpf = true;
    grid.emplace_back("+sfpf", sfpf);

    EngineConfig pgu;
    pgu.usePgu = true;
    grid.emplace_back("+pgu", pgu);

    EngineConfig both;
    both.useSfpf = true;
    both.usePgu = true;
    grid.emplace_back("+both", both);

    // Armed loop with no replay schedule: speculative squash alone
    // trains the guard predictor but never squashes (it needs the
    // SFPF's fetch-time view).
    EngineConfig spec_only;
    spec_only.useSpeculativeSquash = true;
    grid.emplace_back("+spec", spec_only);

    EngineConfig spec = sfpf;
    spec.useSpeculativeSquash = true;
    grid.emplace_back("+sfpf+spec", spec);

    EngineConfig spec_jrs = spec;
    spec_jrs.specGate = EngineConfig::SpecGate::Jrs;
    grid.emplace_back("+sfpf+spec-jrs", spec_jrs);

    EngineConfig all = both;
    all.useSpeculativeSquash = true;
    grid.emplace_back("+both+spec", all);

    EngineConfig train = both;
    train.trainOnSquashed = true;
    grid.emplace_back("+both+trainOnSquashed", train);

    EngineConfig conservative = both;
    conservative.conservativeDefTracking = true;
    grid.emplace_back("+both+conservative", conservative);

    EngineConfig pgu_region = both;
    pgu_region.pgu.source = PguSource::RegionCmps;
    grid.emplace_back("+both+regionCmps", pgu_region);

    EngineConfig pgu_writes = both;
    pgu_writes.pgu.value = PguValue::BothWrites;
    pgu_writes.pgu.includePSet = true;
    grid.emplace_back("+both+bothWrites+pset", pgu_writes);

    EngineConfig no_profile = both;
    no_profile.branchProfileCapacity = 0;
    grid.emplace_back("+both+noProfile", no_profile);
    return grid;
}

TEST(FastReplayEquivalence, EveryEngineConfig)
{
    for (const char *wl : {"bsort", "interp", "dchain", "filter",
                           "histogram"}) {
        RecordedTrace trace = recordWorkload(wl, 40000);
        DecodedTrace dec = DecodedTrace::build(trace);
        for (const auto &[name, ecfg] : configGrid()) {
            SCOPED_TRACE(std::string(wl) + "/" + name);
            expectEquivalent(runReference(trace, "gshare", ecfg),
                             runFast(dec, "gshare", ecfg));
        }
    }
}

// The history-carrying predictors with their own injectHistoryBits
// fast paths (perceptron's SIMD dot/train, yags' tagged tables through
// the generic fallback, comb and tage on their devirtualised arms,
// tage's folded-history re-fold) get the full configuration grid, not
// just the base/+both corners of EveryPredictorKind: every binding
// shares the armed loop's run-time technique branches, and each config
// arms a different slice of them and of the schedule-cache machinery.

TEST(FastReplayEquivalence, PerceptronAndYagsAcrossConfigs)
{
    for (const char *wl : {"interp", "fsm"}) {
        RecordedTrace trace = recordWorkload(wl, 40000);
        DecodedTrace dec = DecodedTrace::build(trace);
        for (const char *kind : {"perceptron", "yags", "comb",
                                 "tage"}) {
            for (const auto &[name, ecfg] : configGrid()) {
                SCOPED_TRACE(std::string(wl) + "/" + kind + "/" + name);
                expectEquivalent(runReference(trace, kind, ecfg),
                                 runFast(dec, kind, ecfg));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Target modelling: with EngineConfig::modelTargets armed, the BTB
// and RAS counters must be byte-identical between the reference and
// batched loops. This pins the Btb::lookup side-effect policy
// (bpred/btb.hh): exactly one counting lookup() plus one silent
// update() per taken transfer, in BOTH loops - an extra probe or a
// skipped update in either would desynchronise hits/misses (and LRU
// recency, hence future targets) between replay strategies.

TEST(FastReplayEquivalence, TargetStructureCountersMatchReference)
{
    for (const char *wl : {"interp", "bsort", "fsm"}) {
        SCOPED_TRACE(wl);
        RecordedTrace trace = recordWorkload(wl, 40000);
        DecodedTrace dec = DecodedTrace::build(trace);
        EngineConfig ecfg;
        ecfg.useSfpf = true;
        ecfg.usePgu = true;
        ecfg.modelTargets = true;

        PredictorPtr predA = makePredictor("gshare", 12);
        PredictionEngine ref(*predA, ecfg);
        replayTrace(trace, ref, trace.size());

        PredictorPtr predB = makePredictor("gshare", 12);
        PredictionEngine fast(*predB, ecfg);
        fast.processBatch(dec, 0, dec.size());

        EXPECT_EQ(ref.stats(), fast.stats());
        ASSERT_NE(ref.btb(), nullptr);
        ASSERT_NE(fast.btb(), nullptr);
        EXPECT_EQ(ref.btb()->hits(), fast.btb()->hits());
        EXPECT_EQ(ref.btb()->misses(), fast.btb()->misses());
        EXPECT_EQ(ref.ras()->pushes(), fast.ras()->pushes());
        EXPECT_EQ(ref.ras()->pops(), fast.ras()->pops());
        EXPECT_EQ(ref.ras()->overflows(), fast.ras()->overflows());
        EXPECT_EQ(ref.ras()->underflows(), fast.ras()->underflows());
        // Vacuity guard: the policy is only pinned if the BTB was
        // actually probed.
        EXPECT_GT(ref.btb()->hits() + ref.btb()->misses(), 0u);
    }
}

// ---------------------------------------------------------------------
// Replay-schedule cache: the first fast replay of a (range, config,
// entry state) captures a schedule in a define-only pass and
// publishes it on the trace; every later identical replay finds it
// (cached guards, word-at-a-time PGU drain, restored predicate-file
// exit state). Both must be bit-identical to the reference loop - and
// to each other - or the sweep use case (one trace, many predictors)
// silently simulates two different machines. The cache counters pin
// that the lookups really hit, so the equivalence is not vacuous.

TEST(FastReplayEquivalence, ScheduleCacheHitMatchesReference)
{
    for (const char *wl : {"interp", "fsm", "listwalk"}) {
        RecordedTrace trace = recordWorkload(wl, 40000);
        DecodedTrace dec = DecodedTrace::build(trace);
        for (const auto &[name, ecfg] : configGrid()) {
            SCOPED_TRACE(std::string(wl) + "/" + name);
            const bool schedules = ecfg.useSfpf || ecfg.usePgu;
            const ReplayOutcome ref =
                runReference(trace, "gshare", ecfg);
            const ReplayOutcome miss = runFast(dec, "gshare", ecfg);
            std::uint64_t hits = dec.schedCache->counters().hits;
            const ReplayOutcome hit = runFast(dec, "gshare", ecfg);
            EXPECT_EQ(dec.schedCache->counters().hits,
                      hits + (schedules ? 1 : 0));
            expectEquivalent(ref, miss);
            expectEquivalent(ref, hit);
            // A different predictor kind must reuse the same schedule
            // (it is predictor-independent) and still match ITS
            // reference.
            hits = dec.schedCache->counters().hits;
            expectEquivalent(runReference(trace, "perceptron", ecfg),
                             runFast(dec, "perceptron", ecfg));
            EXPECT_EQ(dec.schedCache->counters().hits,
                      hits + (schedules ? 1 : 0));
        }
    }
}

TEST(FastReplayEquivalence, ChunkedScheduleCacheHitMatches)
{
    // Chunked replay captures one schedule per chunk (keyed on the
    // carried predicate state); a second chunked pass hits every one.
    RecordedTrace trace = recordWorkload("interp", 40000);
    DecodedTrace dec = DecodedTrace::build(trace);
    EngineConfig ecfg;
    ecfg.useSfpf = true;
    ecfg.usePgu = true;

    const ReplayOutcome oneshot = runFast(dec, "gshare", ecfg);
    const std::uint64_t chunk = 7777;
    const std::uint64_t chunks = (dec.size() + chunk - 1) / chunk;
    ASSERT_GT(chunks, 1u);
    ASSERT_LE(chunks, ReplayScheduleCache::kMaxEntries - 1);
    for (int pass = 0; pass < 2; ++pass) {
        SCOPED_TRACE(pass == 0 ? "capture pass" : "hit pass");
        const ReplayScheduleCache::Counters before =
            dec.schedCache->counters();
        PredictorPtr pred = makePredictor("gshare", 12);
        PredictionEngine engine(*pred, ecfg);
        std::uint64_t cursor = 0;
        while (cursor < dec.size())
            cursor = engine.processBatch(dec, cursor, chunk);
        const ReplayScheduleCache::Counters after =
            dec.schedCache->counters();
        EXPECT_EQ(after.inserts - before.inserts,
                  pass == 0 ? chunks : 0u);
        EXPECT_EQ(after.hits - before.hits, pass == 0 ? 0u : chunks);
        EXPECT_EQ(after.evictions, 0u);
        EXPECT_EQ(engine.stats(), oneshot.stats);
        EXPECT_EQ(engine.branchProfile(), oneshot.profile);
        EXPECT_EQ(engine.pguBitsInserted(), oneshot.pguBits);
        EXPECT_TRUE(stateBytes(engine) == oneshot.state);
    }
}

TEST(FastReplayEquivalence, NoScheduleCacheMatchesReference)
{
    // A trace without a schedule cache still replays from a schedule:
    // each batch captures a local one and replays from it, unpublished.
    RecordedTrace trace = recordWorkload("interp", 40000);
    DecodedTrace dec = DecodedTrace::build(trace);
    dec.schedCache.reset();
    for (const auto &[name, ecfg] : configGrid()) {
        SCOPED_TRACE(name);
        const ReplayOutcome ref = runReference(trace, "gshare", ecfg);
        expectEquivalent(ref, runFast(dec, "gshare", ecfg));
        expectEquivalent(ref, runFast(dec, "gshare", ecfg));
    }
}

TEST(FastReplayEquivalence, ZeroDelayDefineAtBatchEndStaysInFlight)
{
    // The reference loop's last advanceTo/drainTo(endSeq) runs BEFORE
    // the event at endSeq, so a define there stays in flight - at
    // delay 0 too: its predicate write is still queued and its PGU
    // bit not yet injected when the batch returns. Batches ending on a
    // define, one-shot (capture, then hit) and chunked, must leave the
    // reference's bit count and checkpoint bytes at every delay.
    RecordedTrace trace = recordWorkload("interp", 40000);
    DecodedTrace dec = DecodedTrace::build(trace);
    std::vector<std::uint64_t> ends; // k with event k-1 a define
    for (std::uint64_t i = 1000; i < dec.size() && ends.size() < 3; ++i)
        if (dec.inst(i).writesPredicate())
            ends.push_back(i + 1);
    ASSERT_EQ(ends.size(), 3u);

    for (const unsigned delay : {0u, 1u, 8u}) {
        EngineConfig ecfg;
        ecfg.useSfpf = true;
        ecfg.usePgu = true;
        ecfg.availDelay = delay;
        ecfg.pgu.delay = delay;
        for (const std::uint64_t k : ends) {
            SCOPED_TRACE("delay " + std::to_string(delay) + ", k " +
                         std::to_string(k));
            const ReplayOutcome ref =
                runReference(trace, "gshare", ecfg, k);
            expectEquivalent(ref, runFast(dec, "gshare", ecfg, k));
            expectEquivalent(ref, runFast(dec, "gshare", ecfg, k));

            // The same boundary inside a chunked run.
            PredictorPtr pred = makePredictor("gshare", 12);
            PredictionEngine engine(*pred, ecfg);
            std::uint64_t cursor = engine.processBatch(dec, 0, k / 2);
            cursor = engine.processBatch(dec, cursor, k - cursor);
            expectEquivalent(ref, outcomeOf(engine, cursor));
        }
    }
}

// ---------------------------------------------------------------------
// Cursor contracts.

TEST(FastReplayEquivalence, ChunkedBatchesMatchOneShot)
{
    RecordedTrace trace = recordWorkload("interp", 40000);
    DecodedTrace dec = DecodedTrace::build(trace);
    EngineConfig ecfg;
    ecfg.useSfpf = true;
    ecfg.usePgu = true;

    ReplayOutcome oneshot = runFast(dec, "gshare", ecfg);

    // Deliberately awkward chunk size: chunks end mid-define-window,
    // so the deferred advance/drain sync at each batch boundary is
    // what keeps the state machines aligned.
    PredictorPtr pred = makePredictor("gshare", 12);
    PredictionEngine engine(*pred, ecfg);
    std::uint64_t cursor = 0;
    while (cursor < dec.size())
        cursor = engine.processBatch(dec, cursor, 7777);
    EXPECT_EQ(cursor, dec.size());
    EXPECT_EQ(engine.stats(), oneshot.stats);
    EXPECT_EQ(engine.branchProfile(), oneshot.profile);
    EXPECT_EQ(engine.pguBitsInserted(), oneshot.pguBits);
}

TEST(FastReplayEquivalence, ProcessBatchClampsPastTheEnd)
{
    RecordedTrace trace = recordWorkload("bsort", 5000);
    DecodedTrace dec = DecodedTrace::build(trace);
    PredictorPtr pred = makePredictor("gshare", 12);
    EngineConfig ecfg;
    ecfg.useSfpf = true;
    PredictionEngine engine(*pred, ecfg);

    engine.processBatch(dec, 0, dec.size());
    const EngineStats done = engine.stats();

    // At the end and past it: nothing processed, cursor returned
    // UNCHANGED (not yanked back to size()), no counter moves.
    EXPECT_EQ(engine.processBatch(dec, dec.size(), 100), dec.size());
    EXPECT_EQ(engine.processBatch(dec, dec.size() + 7, 100),
              dec.size() + 7);
    EXPECT_EQ(engine.stats(), done);
}

TEST(FastReplayEquivalence, ReplayTraceFromClampsPastTheEnd)
{
    // Regression for the resume-cursor clamp bug: replayTraceFrom
    // with first PAST the end used to misbehave instead of returning
    // the cursor unchanged - a resume positioned past a shorter trace
    // would silently re-run events.
    RecordedTrace trace = recordWorkload("bsort", 5000);
    PredictorPtr pred = makePredictor("gshare", 12);
    EngineConfig ecfg;
    PredictionEngine engine(*pred, ecfg);

    replayTrace(trace, engine, trace.size());
    const EngineStats done = engine.stats();

    EXPECT_EQ(replayTraceFrom(trace, engine, trace.size(), 100),
              trace.size());
    EXPECT_EQ(replayTraceFrom(trace, engine, trace.size() + 9, 100),
              trace.size() + 9);
    EXPECT_EQ(engine.stats(), done)
        << "a clamped replay must not process any event";
}

// ---------------------------------------------------------------------
// ProcessResult flag separation: a speculative squash is a GUESS and
// is never folded into the certain SFPF `squashed` flag.

TEST(ProcessResultFlags, SpecSquashedIsDistinctFromSquashed)
{
    RecordedTrace trace = recordWorkload("interp", 60000);
    EngineConfig ecfg;
    ecfg.useSfpf = true;
    ecfg.useSpeculativeSquash = true;
    PredictorPtr pred = makePredictor("gshare", 12);
    PredictionEngine engine(*pred, ecfg);

    std::uint64_t squashed = 0, spec = 0, spec_mispredicts = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        ProcessResult r = engine.process(trace.materialise(i));
        if (r.squashed || r.specSquashed) {
            EXPECT_TRUE(r.condBranch);
        }
        // Mutually exclusive by construction: the certain filter wins
        // and the speculative path only considers unresolved guards.
        EXPECT_FALSE(r.squashed && r.specSquashed) << i;
        if (r.squashed) {
            ++squashed;
            // Resolved-false guard: architecturally not-taken, so a
            // squash is never a mispredict.
            EXPECT_FALSE(r.mispredicted) << i;
        }
        if (r.specSquashed) {
            ++spec;
            spec_mispredicts += r.mispredicted;
        }
    }

    ASSERT_GT(squashed, 0u);
    ASSERT_GT(spec, 0u) << "config must actually exercise the "
                           "speculative path";
    EXPECT_EQ(squashed, engine.stats().all.squashed);
    EXPECT_EQ(spec, engine.stats().specSquashed);
    // The per-result flag is the only honest way to see speculative
    // wrongness at the pipeline interface; the aggregate agrees.
    EXPECT_EQ(spec_mispredicts, engine.stats().specSquashedWrong);
}

// ---------------------------------------------------------------------
// Sweep integration: the fast path is an execution strategy, not a
// configuration - identical fingerprints, identical metric BYTES.

std::vector<RunSpec>
sweepGrid(const std::string &dir, bool fast)
{
    std::vector<RunSpec> specs;
    for (const char *name : {"bsort", "interp", "dchain"}) {
        for (int armed = 0; armed < 2; ++armed) {
            RunSpec spec;
            spec.workload = name;
            spec.engine.useSfpf = armed != 0;
            spec.engine.usePgu = armed != 0;
            spec.maxInsts = 15000;
            spec.metricsDir = dir;
            spec.fastReplay = fast;
            specs.push_back(spec);
        }
    }
    return specs;
}

TEST(SweepFastReplay, MetricsFilesAreByteIdenticalToReference)
{
    const std::string fast_dir = tempPath("fast");
    const std::string ref_dir = tempPath("ref");
    std::vector<RunSpec> fast = sweepGrid(fast_dir, true);
    std::vector<RunSpec> ref = sweepGrid(ref_dir, false);

    SweepRunner fast_runner(SweepRunner::Config{1, 0});
    SweepRunner ref_runner(SweepRunner::Config{1, 0});
    std::vector<RunResult> fast_results = fast_runner.run(fast);
    std::vector<RunResult> ref_results = ref_runner.run(ref);

    for (std::size_t i = 0; i < fast.size(); ++i) {
        SCOPED_TRACE(fast[i].workload + "#" + std::to_string(i));
        ASSERT_TRUE(fast_results[i].status.ok())
            << fast_results[i].status.toString();
        ASSERT_TRUE(ref_results[i].status.ok())
            << ref_results[i].status.toString();
        EXPECT_EQ(fast_results[i].engine, ref_results[i].engine);
        EXPECT_EQ(fast_results[i].profile, ref_results[i].profile);
        EXPECT_EQ(fast_results[i].pguBits, ref_results[i].pguBits);

        // fastReplay is NOT a behaviour-defining field: both cells
        // share one fingerprint, hence one metrics filename, and the
        // exported bytes match exactly.
        const std::uint64_t fp = bench::specFingerprint(fast[i]);
        ASSERT_EQ(fp, bench::specFingerprint(ref[i]));
        const std::string fast_file =
            bench::metricsFilePath(fast_dir, fp);
        const std::string ref_file =
            bench::metricsFilePath(ref_dir, fp);
        EXPECT_EQ(readFile(fast_file), readFile(ref_file));
        std::remove(fast_file.c_str());
        std::remove(ref_file.c_str());
    }

    // The fast grid decodes each workload's trace once and shares it
    // across both configs; the reference grid never touches the
    // decoded-trace cache.
    EXPECT_EQ(fast_runner.cacheStats().records, 3u);
    EXPECT_EQ(fast_runner.cacheStats().traceHits, 3u);
    EXPECT_EQ(ref_runner.cacheStats().records, 0u);
    EXPECT_EQ(ref_runner.cacheStats().traceHits, 0u);
}

} // namespace
} // namespace pabp
