#include "fuzz/oracles.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "bpred/factory.hh"
#include "compiler/pred_verify.hh"
#include "core/checkpoint.hh"
#include "core/multictx.hh"
#include "pipeline/pipeline.hh"
#include "sim/trace_io.hh"
#include "sweep.hh"
#include "util/atomic_file.hh"
#include "util/journal.hh"
#include "util/metrics.hh"
#include "util/rng.hh"
#include "util/serialize.hh"
#include "util/stats.hh"

namespace pabp::fuzz {

namespace {

/** Oracle emulators: the generator masks every address into the
 *  (<= 4096 word) data window, so a small memory keeps the memory
 *  comparison in sameArchOutcome() cheap. */
constexpr std::size_t oracleMemWords = 1u << 16;

/** Halt fuse for the run-to-completion oracles. Every generated
 *  program terminates (all loops are counted); the fuse only bounds
 *  a would-be generator bug. */
constexpr std::uint64_t haltBudget = 16'000'000;

Status
diverged(std::string what)
{
    return statusError(StatusCode::Corrupt, std::move(what));
}

/** Shared per-case artifacts, built once and reused by the oracles. */
struct CaseContext
{
    FuzzPrograms progs;
    bool haveTrace = false;
    DecodedTrace trace; ///< converted program, c.maxInsts budget

    /** A fresh emulator on the converted program, initialised for
     *  the case's input seed - the live stream the trace records. */
    Emulator
    convertedEmulator() const
    {
        Emulator emu(progs.converted.prog, EmuConfig{oracleMemWords, 0});
        if (progs.body.init)
            progs.body.init(emu.state());
        return emu;
    }

    const DecodedTrace &
    traceFor(const FuzzCase &c)
    {
        if (!haveTrace) {
            Emulator emu = convertedEmulator();
            trace = recordTrace(emu, c.maxInsts);
            haveTrace = true;
        }
        return trace;
    }
};

Expected<PredictorPtr>
makeCasePredictor(const FuzzCase &c)
{
    return tryMakePredictor(c.predictor, c.sizeLog2);
}

/** Compact one-line digest of an EngineStats mismatch. */
std::string
statsDiff(const EngineStats &a, const EngineStats &b)
{
    std::ostringstream os;
    auto field = [&os](const char *name, std::uint64_t x,
                       std::uint64_t y) {
        if (x != y)
            os << " " << name << "=" << x << "/" << y;
    };
    field("insts", a.insts, b.insts);
    field("uncond", a.uncondBranches, b.uncondBranches);
    field("pdefs", a.predicateDefines, b.predicateDefines);
    field("branches", a.all.branches, b.all.branches);
    field("taken", a.all.taken, b.all.taken);
    field("mispredicts", a.all.mispredicts, b.all.mispredicts);
    field("squashed", a.all.squashed, b.all.squashed);
    field("falseGuard", a.all.falseGuard, b.all.falseGuard);
    field("region.branches", a.region.branches, b.region.branches);
    field("region.mispredicts", a.region.mispredicts,
          b.region.mispredicts);
    field("specSquashed", a.specSquashed, b.specSquashed);
    field("specSquashedWrong", a.specSquashedWrong,
          b.specSquashedWrong);
    field("btbTargetMisses", a.btbTargetMisses, b.btbTargetMisses);
    field("rasHits", a.rasHits, b.rasHits);
    field("rasMisses", a.rasMisses, b.rasMisses);
    std::string out = os.str();
    return out.empty() ? " (difference in a nested counter)" : out;
}

/** Serialised metric bytes of an engine - the strongest equality the
 *  replay oracle checks (docs/OBSERVABILITY.md byte-stable JSON). */
std::string
metricsBytes(PredictionEngine &engine)
{
    StatGroup group;
    engine.registerStats(group);
    MetricsExporter exporter;
    exporter.addGroup(group);
    std::ostringstream os;
    exporter.writeJson(os);
    return os.str();
}

/** Checkpoint bytes of an engine (saveState): every queue, table and
 *  counter a resumed run would continue from, so in-flight predicate
 *  writes and PGU bits are compared too. */
std::string
stateBytes(const PredictionEngine &engine)
{
    std::ostringstream os;
    StateSink sink(os);
    engine.saveState(sink);
    return os.str();
}

// ---------------------------------------------------------------------
// Oracle 1: if-conversion round trip.

Status
oracleIfConvert(const FuzzCase &c, CaseContext &ctx)
{
    (void)c;
    const FuzzPrograms &p = ctx.progs;
    std::string err = verifyFunction(p.body.fn);
    if (!err.empty())
        return diverged("generated IR fails verifyFunction: " + err);
    err = validateProgram(p.branchy.prog);
    if (!err.empty())
        return diverged("branchy lowering fails validateProgram: " +
                        err);
    err = validateProgram(p.converted.prog);
    if (!err.empty())
        return diverged(
            "if-converted lowering fails validateProgram: " + err);
    err = verifyPredicatedProgram(p.converted.prog);
    if (!err.empty())
        return diverged("if-converted lowering fails pred_verify: " +
                        err);

    auto runToHalt = [&](Emulator &emu) {
        if (p.body.init)
            p.body.init(emu.state());
        emu.run(haltBudget);
    };
    Emulator branchy(p.branchy.prog, EmuConfig{oracleMemWords, haltBudget});
    runToHalt(branchy);
    Emulator converted(p.converted.prog,
                       EmuConfig{oracleMemWords, haltBudget});
    runToHalt(converted);

    if (!branchy.state().halted)
        return diverged("branchy program did not halt in " +
                        std::to_string(haltBudget) + " insts");
    if (!converted.state().halted)
        return diverged("if-converted program did not halt in " +
                        std::to_string(haltBudget) + " insts");
    for (unsigned r = 0; r < numGprs; ++r)
        if (branchy.state().readGpr(r) != converted.state().readGpr(r))
            return diverged(
                "if-conversion changed r" + std::to_string(r) + ": " +
                std::to_string(branchy.state().readGpr(r)) + " vs " +
                std::to_string(converted.state().readGpr(r)));
    if (!branchy.state().sameArchOutcome(converted.state()))
        return diverged("if-conversion changed memory contents");
    return {};
}

// ---------------------------------------------------------------------
// Oracle 2: emulator-driven vs pipeline-driven engine, and the
// windowed pipeline vs its per-instruction reference run.

Status
oraclePipeline(const FuzzCase &c, CaseContext &ctx)
{
    const FuzzPrograms &p = ctx.progs;

    Expected<PredictorPtr> predA = makeCasePredictor(c);
    Expected<PredictorPtr> predB = makeCasePredictor(c);
    Expected<PredictorPtr> predC = makeCasePredictor(c);
    if (!predA.ok())
        return predA.status();
    if (!predB.ok())
        return predB.status();
    if (!predC.ok())
        return predC.status();

    // The pipeline requires an engine with target modelling armed;
    // arm it on EVERY engine so the compared stats (which include the
    // BTB/RAS counters) are produced by identical configurations.
    EngineConfig ecfg = c.engine;
    ecfg.modelTargets = true;

    PredictionEngine engineA(*predA.value(), ecfg);
    Emulator emuA(p.converted.prog, EmuConfig{oracleMemWords, 0});
    if (p.body.init)
        p.body.init(emuA.state());
    runTrace(emuA, engineA, c.maxInsts);

    PredictionEngine engineB(*predB.value(), ecfg);
    Emulator emuB(p.converted.prog, EmuConfig{oracleMemWords, 0});
    if (p.body.init)
        p.body.init(emuB.state());
    Pipeline pipe(engineB, PipelineConfig{});
    const PipelineStats windowed = pipe.run(emuB, c.maxInsts);

    PredictionEngine engineC(*predC.value(), ecfg);
    Emulator emuC(p.converted.prog, EmuConfig{oracleMemWords, 0});
    if (p.body.init)
        p.body.init(emuC.state());
    Pipeline refPipe(engineC, PipelineConfig{});
    const PipelineStats reference = refPipe.runReference(emuC, c.maxInsts);

    if (emuA.instsExecuted() != emuB.instsExecuted())
        return diverged(
            "pipeline retired a different instruction count: " +
            std::to_string(emuA.instsExecuted()) + " vs " +
            std::to_string(emuB.instsExecuted()));
    if (!emuA.state().sameArchOutcome(emuB.state()))
        return diverged("pipeline run diverged architecturally from "
                        "the bare emulator");
    if (!(engineA.stats() == engineB.stats()))
        return diverged("engine stats differ between emulator-driven "
                        "and pipeline-driven runs:" +
                        statsDiff(engineA.stats(), engineB.stats()));
    if (!(engineA.branchProfile() == engineB.branchProfile()))
        return diverged("per-branch profiles differ between "
                        "emulator-driven and pipeline-driven runs");
    if (!(windowed == reference))
        return diverged(
            "windowed pipeline timing differs from the per-instruction "
            "reference: cycles " +
            std::to_string(windowed.cycles) + " vs " +
            std::to_string(reference.cycles) + ", insts " +
            std::to_string(windowed.insts) + " vs " +
            std::to_string(reference.insts));
    if (!(engineC.stats() == engineB.stats()))
        return diverged("engine stats differ between the windowed and "
                        "the reference pipeline runs:" +
                        statsDiff(engineC.stats(), engineB.stats()));
    return {};
}

// ---------------------------------------------------------------------
// Oracle 3: reference replay vs fast batch replay.

Status
oracleReplay(const FuzzCase &c, CaseContext &ctx)
{
    const DecodedTrace &trace = ctx.traceFor(c);
    if (trace.size() == 0)
        return diverged("recorded trace is empty (generator bug)");

    Expected<PredictorPtr> predA = makeCasePredictor(c);
    Expected<PredictorPtr> predB = makeCasePredictor(c);
    if (!predA.ok())
        return predA.status();
    if (!predB.ok())
        return predB.status();

    // The reference engine runs off a live emulator, not the trace:
    // a recorder bug would otherwise feed both sides the same wrong
    // lanes and pass.
    PredictionEngine ref(*predA.value(), c.engine);
    Emulator live = ctx.convertedEmulator();
    std::uint64_t refProcessed = runTrace(live, ref, c.maxInsts);

    PredictionEngine fast(*predB.value(), c.engine);
    std::uint64_t fastProcessed = fast.processBatch(trace, 0, trace.size());

    if (refProcessed != fastProcessed)
        return diverged("processed-count mismatch: reference " +
                        std::to_string(refProcessed) + " vs fast " +
                        std::to_string(fastProcessed));
    if (!(ref.stats() == fast.stats()))
        return diverged("fast replay stats diverge from reference:" +
                        statsDiff(ref.stats(), fast.stats()));
    if (!(ref.branchProfile() == fast.branchProfile()))
        return diverged(
            "fast replay per-branch profile diverges from reference");
    if (ref.pguBitsInserted() != fast.pguBitsInserted())
        return diverged(
            "PGU bits inserted differ: reference " +
            std::to_string(ref.pguBitsInserted()) + " vs fast " +
            std::to_string(fast.pguBitsInserted()));
    if (metricsBytes(ref) != metricsBytes(fast))
        return diverged("exported metrics bytes differ between "
                        "reference and fast replay");
    const std::string refState = stateBytes(ref);
    if (refState != stateBytes(fast))
        return diverged("checkpoint bytes differ between reference "
                        "and fast replay");

    // The first fast replay captured the trace's replay schedule for
    // this configuration (sim/replay_schedule.hh); a second replay
    // takes the cache HIT path - shared guards, word-at-a-time PGU
    // drain, lazily settled predicate file - and must still match the
    // reference byte for byte.
    Expected<PredictorPtr> predC = makeCasePredictor(c);
    if (!predC.ok())
        return predC.status();
    PredictionEngine hit(*predC.value(), c.engine);
    const std::uint64_t hitProcessed =
        hit.processBatch(trace, 0, trace.size());
    if (refProcessed != hitProcessed)
        return diverged(
            "schedule-cache hit processed-count mismatch: reference " +
            std::to_string(refProcessed) + " vs hit " +
            std::to_string(hitProcessed));
    if (!(ref.stats() == hit.stats()))
        return diverged("schedule-cache hit replay stats diverge from "
                        "reference:" +
                        statsDiff(ref.stats(), hit.stats()));
    if (!(ref.branchProfile() == hit.branchProfile()))
        return diverged("schedule-cache hit replay per-branch profile "
                        "diverges from reference");
    if (ref.pguBitsInserted() != hit.pguBitsInserted())
        return diverged(
            "schedule-cache hit PGU bits differ: reference " +
            std::to_string(ref.pguBitsInserted()) + " vs hit " +
            std::to_string(hit.pguBitsInserted()));
    if (metricsBytes(ref) != metricsBytes(hit))
        return diverged("exported metrics bytes differ between "
                        "reference and schedule-cache hit replay");
    if (refState != stateBytes(hit))
        return diverged("checkpoint bytes differ between reference "
                        "and schedule-cache hit replay");

    // Chunked replay with a case-derived batch size: each engine
    // stays on the cold path and reads the shared schedule at its own
    // cursors, so awkward chunk boundaries (mid define-visibility
    // window) probe the batch-end PGU drain and queue commit and the
    // predicate-file settle the one-shot replay never crosses. Two
    // passes, each one schedule hit.
    const std::uint64_t chunk = 1 + (c.seed % 97) % trace.size();
    for (int pass = 0; pass < 2; ++pass) {
        Expected<PredictorPtr> predD = makeCasePredictor(c);
        if (!predD.ok())
            return predD.status();
        PredictionEngine chunked(*predD.value(), c.engine);
        std::uint64_t cursor = 0;
        while (cursor < trace.size())
            cursor = chunked.processBatch(trace, cursor, chunk);
        if (cursor != refProcessed)
            return diverged(
                "chunked replay cursor mismatch (chunk " +
                std::to_string(chunk) + ", pass " +
                std::to_string(pass) + "): reference " +
                std::to_string(refProcessed) + " vs " +
                std::to_string(cursor));
        if (!(ref.stats() == chunked.stats()))
            return diverged("chunked fast replay stats diverge from "
                            "reference (chunk " +
                            std::to_string(chunk) + ", pass " +
                            std::to_string(pass) + "):" +
                            statsDiff(ref.stats(), chunked.stats()));
        if (!(ref.branchProfile() == chunked.branchProfile()))
            return diverged(
                "chunked fast replay per-branch profile diverges "
                "from reference (chunk " +
                std::to_string(chunk) + ", pass " +
                std::to_string(pass) + ")");
        if (ref.pguBitsInserted() != chunked.pguBitsInserted())
            return diverged(
                "chunked fast replay PGU bits differ (chunk " +
                std::to_string(chunk) + ", pass " +
                std::to_string(pass) + ")");
        if (refState != stateBytes(chunked))
            return diverged(
                "chunked fast replay checkpoint bytes differ (chunk " +
                std::to_string(chunk) + ", pass " +
                std::to_string(pass) + ")");
    }

    // Off the cold path: a fresh engine loads the state of a reference
    // engine stopped at a case-derived cursor and replays the rest in
    // the same chunks, each batch a private capture from the state it
    // carries in - the capture/restore seams at odd chunk boundaries.
    const std::uint64_t resumeAt = streamSeed(c.seed, 0x4e5) % trace.size();
    Expected<PredictorPtr> predE = makeCasePredictor(c);
    Expected<PredictorPtr> predF = makeCasePredictor(c);
    if (!predE.ok() || !predF.ok())
        return predE.ok() ? predF.status() : predE.status();
    PredictionEngine head(*predE.value(), c.engine);
    replayTraceFrom(trace, head, 0, resumeAt);
    std::istringstream saved(stateBytes(head));
    StateSource src(saved);
    PredictionEngine resumed(*predF.value(), c.engine);
    PABP_TRY(resumed.loadState(src));
    std::uint64_t cursor = resumeAt;
    while (cursor < trace.size())
        cursor = resumed.processBatch(trace, cursor, chunk);
    const std::pair<bool, const char *> checks[] = {
        {cursor == refProcessed, "processed count"},
        {ref.stats() == resumed.stats(), "stats"},
        {ref.branchProfile() == resumed.branchProfile(), "profile"},
        {ref.pguBitsInserted() == resumed.pguBitsInserted(), "PGU bits"},
        {metricsBytes(ref) == metricsBytes(resumed), "metrics bytes"},
        {refState == stateBytes(resumed), "checkpoint bytes"}};
    for (const auto &[same, what] : checks)
        if (!same)
            return diverged(std::string("fast replay ") + what +
                            " differ from reference after a resume at " +
                            std::to_string(resumeAt) + " (chunk " +
                            std::to_string(chunk) + ")");
    return {};
}

/** A scratch file of case @p c under RunEnv::scratchDir, named by the
 *  case: "pabp-fuzz-<16 hex><suffix>". */
std::string
scratchPath(const FuzzCase &c, const RunEnv &env, const char *suffix)
{
    char fp[17];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(
                      configFingerprint(c.gen) ^ c.seed));
    return env.scratchDir + "/pabp-fuzz-" + fp + suffix;
}

/** The bytes of the file at @p path. */
Expected<std::string>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return statusError(StatusCode::IoError,
                           "cannot open " + path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Removes a scratch file on every exit, PABP_TRY returns too. */
struct RemoveOnExit
{
    const std::string &path;
    ~RemoveOnExit() { std::remove(path.c_str()); }
};

// ---------------------------------------------------------------------
// Oracle 4: checkpoint/resume vs straight-through.

Status
oracleCheckpoint(const FuzzCase &c, CaseContext &ctx, const RunEnv &env)
{
    const DecodedTrace &trace = ctx.traceFor(c);
    if (trace.size() == 0)
        return diverged("recorded trace is empty (generator bug)");

    // The replay entry point under test, with the optional harness
    // self-check: reintroduce the PR-4 clamp bug (a past-the-end
    // cursor yanked back to trace.size()) to prove the oracle and
    // the shrinker catch it.
    auto replayFrom = [&env](const DecodedTrace &t,
                             PredictionEngine &e, std::uint64_t first,
                             std::uint64_t max) -> std::uint64_t {
        if (env.injectClampBug && first >= t.size())
            return t.size();
        return replayTraceFrom(t, e, first, max);
    };

    Expected<PredictorPtr> preds[3] = {makeCasePredictor(c),
                                       makeCasePredictor(c),
                                       makeCasePredictor(c)};
    for (const auto &p : preds)
        if (!p.ok())
            return p.status();

    PredictionEngine straight(*preds[0].value(), c.engine);
    replayFrom(trace, straight, 0, trace.size());

    const std::string ckpt = scratchPath(c, env, ".ckpt");
    const RemoveOnExit removeCkpt{ckpt};

    PredictionEngine first(*preds[1].value(), c.engine);
    std::uint64_t half = trace.size() / 2;
    std::uint64_t pos = replayFrom(trace, first, 0, half);
    PABP_TRY(saveCheckpoint(ckpt,
                            CheckpointRefs{nullptr, &first, &pos}));

    PredictionEngine resumed(*preds[2].value(), c.engine);
    std::uint64_t resumedPos = 0;
    PABP_TRY(loadCheckpoint(
        ckpt, CheckpointRefs{nullptr, &resumed, &resumedPos}));
    if (resumedPos != pos)
        return diverged("restored stream position " +
                        std::to_string(resumedPos) +
                        " != saved position " + std::to_string(pos));
    replayFrom(trace, resumed, resumedPos, trace.size());

    if (!(straight.stats() == resumed.stats()))
        return diverged(
            "checkpoint/resume stats diverge from straight-through:" +
            statsDiff(straight.stats(), resumed.stats()));
    if (!(straight.branchProfile() == resumed.branchProfile()))
        return diverged("checkpoint/resume per-branch profile "
                        "diverges from straight-through");

    // Clamped-cursor contract: a resume cursor past the end of a
    // (shorter) trace processes nothing and comes back UNCHANGED -
    // yanking it backwards silently re-runs events (the PR-4 bug).
    const std::uint64_t past = trace.size() + 3;
    EngineStats before = resumed.stats();
    std::uint64_t got = replayFrom(trace, resumed, past, 1000);
    if (got != past)
        return diverged(
            "replayTraceFrom moved a past-the-end cursor: gave " +
            std::to_string(past) + ", got back " +
            std::to_string(got) + " (trace size " +
            std::to_string(trace.size()) + ")");
    if (!(resumed.stats() == before))
        return diverged("replayTraceFrom with a past-the-end cursor "
                        "changed engine stats:" +
                        statsDiff(before, resumed.stats()));
    return {};
}

// ---------------------------------------------------------------------
// Oracle 5: corrupted-trace robustness.

/** One corruption recipe applied to the serialised bytes. */
struct CorruptSpec
{
    unsigned flips = 0;
    std::uint64_t rngSeed = 0;
    unsigned truncate = 0;
};

std::string
corrupt(const std::string &bytes, const CorruptSpec &spec)
{
    std::string out = bytes;
    if (spec.truncate > 0) {
        std::size_t cut =
            spec.truncate >= out.size() ? 0 : out.size() - spec.truncate;
        out.resize(cut);
    }
    if (!out.empty()) {
        Rng rng(spec.rngSeed ? spec.rngSeed : 0xc0ffee);
        for (unsigned i = 0; i < spec.flips; ++i) {
            std::size_t byte = rng.below(out.size());
            out[byte] = static_cast<char>(
                static_cast<unsigned char>(out[byte]) ^
                (1u << rng.below(8)));
        }
    }
    return out;
}

bool
sameProgram(const Program &a, const Program &b)
{
    if (a.insts.size() != b.insts.size())
        return false;
    for (std::size_t i = 0; i < a.insts.size(); ++i)
        if (!(encode(a.insts[i]) == encode(b.insts[i])))
            return false;
    return true;
}

/** Whether the first @p n events of @p a and @p b agree in every lane,
 *  in the define tables their predicate writes derive from, and in
 *  the next pc of event n - 1, which is the only next pc no lane
 *  holds. Both traces must hold at least @p n events. */
bool
sameEvents(const DecodedTrace &a, const DecodedTrace &b, std::size_t n)
{
    auto same = [n](const auto &x, const auto &y) {
        return std::equal(x.begin(), x.begin() + n, y.begin());
    };
    return same(a.pcs, b.pcs) && same(a.cls, b.cls) &&
        same(a.flags, b.flags) && a.defines == b.defines &&
        (n == 0 || a.nextPc(n - 1) == b.nextPc(n - 1));
}

Status
checkCorrupted(const DecodedTrace &original, const std::string &bytes,
               const CorruptSpec &spec)
{
    auto describe = [&spec]() {
        return std::to_string(spec.flips) + " flip(s), truncate " +
            std::to_string(spec.truncate) + ", rng seed " +
            std::to_string(spec.rngSeed);
    };

    // Strict read: either a typed error or - if the corruption was
    // somehow undetectable - byte-identical content. Anything else is
    // silent divergence.
    {
        std::istringstream in(bytes);
        Expected<DecodedTrace> strict = readTrace(in);
        if (strict.ok()) {
            const DecodedTrace &t = strict.value();
            if (!sameProgram(t.prog, original.prog) ||
                t.size() != original.size() ||
                !sameEvents(t, original, t.size()))
                return diverged("strict read of a corrupted trace "
                                "returned Ok with DIFFERENT content (" +
                                describe() + ")");
        }
    }

    // Salvage read: a typed error, or a valid prefix of the original
    // events over an intact program.
    {
        std::istringstream in(bytes);
        TraceReadOptions opts;
        opts.salvage = true;
        TraceReadInfo info;
        Expected<DecodedTrace> salvaged = readTrace(in, opts, &info);
        if (salvaged.ok()) {
            const DecodedTrace &s = salvaged.value();
            if (!sameProgram(s.prog, original.prog))
                return diverged(
                    "salvage returned Ok with a corrupted program "
                    "section (" + describe() + ")");
            if (s.size() > original.size())
                return diverged("salvage returned MORE events than "
                                "were written (" + describe() + ")");
            if (!sameEvents(s, original, s.size()))
                return diverged("salvaged events are not a prefix of "
                                "the original (" + describe() + ")");
        }
    }
    return {};
}

Status
oracleTrace(const FuzzCase &c, CaseContext &ctx)
{
    const DecodedTrace &trace = ctx.traceFor(c);
    std::ostringstream os;
    writeTrace(trace, os);
    const std::string bytes = os.str();

    std::vector<CorruptSpec> schedule;
    if (c.corruptFlips > 0 || c.corruptTruncate > 0) {
        schedule.push_back(
            {c.corruptFlips, c.corruptSeed, c.corruptTruncate});
    } else {
        // Default schedule, derived from the case seed: single flip,
        // burst of flips, tail truncation, and both at once.
        std::uint64_t s = c.seed ^ 0x77ace;
        schedule.push_back({1, s + 1, 0});
        schedule.push_back({3, s + 2, 0});
        schedule.push_back(
            {0, s + 3,
             static_cast<unsigned>(1 + bytes.size() / 8)});
        schedule.push_back({1, s + 4, 7});
    }
    for (const CorruptSpec &spec : schedule)
        PABP_TRY(checkCorrupted(trace, corrupt(bytes, spec), spec));
    return {};
}

// ---------------------------------------------------------------------
// Oracle 6: sweep-cell fast vs reference (oracle reuse of runOne).

/** Cells @p fast and @p ref agree on everything they report. */
Status
sameSweepCell(const bench::RunResult &fast, const bench::RunResult &ref,
              const std::string &leg)
{
    if (!fast.status.ok())
        return diverged(leg + " sweep cell failed under fast replay: " +
                        fast.status.toString());
    if (!ref.status.ok())
        return diverged(leg + " sweep cell failed under reference "
                        "replay: " + ref.status.toString());
    if (!(fast.engine == ref.engine))
        return diverged(leg + " sweep cell stats differ between fast "
                        "and reference replay:" +
                        statsDiff(ref.engine, fast.engine));
    if (!(fast.profile == ref.profile))
        return diverged(leg + " sweep cell per-branch profiles differ "
                        "between fast and reference replay");
    if (fast.pguBits != ref.pguBits)
        return diverged(leg + " sweep cell PGU bit counts differ: fast " +
                        std::to_string(fast.pguBits) +
                        " vs reference " + std::to_string(ref.pguBits));
    return {};
}

Status
oracleSweep(const FuzzCase &c, CaseContext &ctx, const RunEnv &env)
{
    bench::RunSpec spec;
    spec.workload = ctx.progs.body.name; // unique: fuzz-<seed>-<fp>
    FuzzProgramConfig gen = c.gen;
    spec.factory = [gen](std::uint64_t seed) {
        return makeFuzzWorkload(seed, gen);
    };
    spec.seed = c.seed;
    spec.predictor = c.predictor;
    spec.sizeLog2 = c.sizeLog2;
    spec.ifConvert = true;
    spec.engine = c.engine;
    spec.compile = fuzzCompileOptions(c.gen, true);
    spec.maxInsts = c.maxInsts;

    bench::SweepRunner runner(bench::SweepRunner::Config{1, 0});
    spec.fastReplay = true;
    bench::RunResult fast = runner.runOne(spec);
    spec.fastReplay = false;
    bench::RunResult ref = runner.runOne(spec);
    PABP_TRY(sameSweepCell(fast, ref, "replay"));

    // The checkpointing leg: the same cell saving at a case-derived
    // interval drives its own emulator, in LiveWindow windows under
    // fast replay and through runTrace otherwise. Both must report
    // the same cell and leave the same final checkpoint bytes.
    spec.checkpointEvery = 1 + streamSeed(c.seed, 0xc4e) % c.maxInsts;
    const std::string fast_base = scratchPath(c, env, "-fast.ckpt");
    const std::string ref_base = scratchPath(c, env, "-ref.ckpt");
    const std::uint64_t fp = bench::specFingerprint(spec);
    const std::string fast_ckpt =
        bench::derivedCheckpointPath(fast_base, fp);
    const std::string ref_ckpt = bench::derivedCheckpointPath(ref_base, fp);
    const RemoveOnExit removeFast{fast_ckpt};
    const RemoveOnExit removeRef{ref_ckpt};
    spec.fastReplay = true;
    spec.checkpointPath = fast_base;
    fast = runner.runOne(spec);
    spec.fastReplay = false;
    spec.checkpointPath = ref_base;
    ref = runner.runOne(spec);
    const std::string leg =
        "checkpointing (every " + std::to_string(spec.checkpointEvery) +
        ")";
    PABP_TRY(sameSweepCell(fast, ref, leg));
    Expected<std::string> fast_bytes = readFileBytes(fast_ckpt);
    if (!fast_bytes.ok())
        return fast_bytes.status();
    Expected<std::string> ref_bytes = readFileBytes(ref_ckpt);
    if (!ref_bytes.ok())
        return ref_bytes.status();
    if (fast_bytes.value() != ref_bytes.value())
        return diverged(leg + " sweep cell final checkpoint bytes "
                        "differ between fast and reference replay (" +
                        std::to_string(fast_bytes.value().size()) +
                        " vs " + std::to_string(ref_bytes.value().size()) +
                        " bytes)");
    return {};
}

// ---------------------------------------------------------------------
// Oracle 7: corrupted results-journal robustness (the PABPJRN1
// mirror of the trace oracle; util/journal.hh).

/** Deterministic journal image synthesised from the case seed - the
 *  journal's content does not depend on simulation, so the oracle
 *  fabricates records instead of running cells. */
std::string
synthesizeJournal(const FuzzCase &c,
                  std::vector<JournalRecord> &records)
{
    Rng rng(c.seed ^ 0x9a11);
    const unsigned count = 2 + static_cast<unsigned>(rng.below(5));
    records.clear();
    for (unsigned i = 0; i < count; ++i) {
        JournalRecord rec;
        rec.kind = rng.below(4) == 0 ? JournalRecord::Kind::Quarantine
                                     : JournalRecord::Kind::Result;
        rec.fingerprint = rng.next();
        rec.attempts = 1 + static_cast<std::uint32_t>(rng.below(3));
        rec.statusCode = rec.kind == JournalRecord::Kind::Quarantine
            ? static_cast<std::uint8_t>(StatusCode::Corrupt)
            : 0;
        for (unsigned col = 0; col < 6; ++col)
            rec.columns.push_back(rng.next());
        rec.blob = rec.kind == JournalRecord::Kind::Quarantine
            ? std::string("synthetic quarantine ") + std::to_string(i)
            : std::string("{\"cell\":") + std::to_string(i) + "}";
        records.push_back(rec);
    }
    std::ostringstream os;
    writeJournalHeader(os, JournalHeader{});
    for (const JournalRecord &rec : records)
        appendJournalRecord(os, rec);
    return os.str();
}

Status
checkCorruptedJournal(const std::vector<JournalRecord> &original,
                      const std::string &bytes, const CorruptSpec &spec,
                      const RunEnv &env, const FuzzCase &c)
{
    auto describe = [&spec]() {
        return std::to_string(spec.flips) + " flip(s), truncate " +
            std::to_string(spec.truncate) + ", rng seed " +
            std::to_string(spec.rngSeed);
    };

    // Strict read: a typed error, or - if the corruption was
    // undetectable - identical records.
    {
        Expected<std::vector<JournalRecord>> strict =
            readJournalImage(bytes);
        if (strict.ok() && !(strict.value() == original))
            return diverged("strict read of a corrupted journal "
                            "returned Ok with DIFFERENT records (" +
                            describe() + ")");
    }

    // Salvage read: a typed error (header damage), or a prefix of
    // the original records.
    {
        JournalReadOptions opts;
        opts.salvage = true;
        JournalReadInfo info;
        Expected<std::vector<JournalRecord>> salvaged =
            readJournalImage(bytes, opts, nullptr, &info);
        if (salvaged.ok()) {
            const std::vector<JournalRecord> &s = salvaged.value();
            if (s.size() > original.size())
                return diverged("journal salvage returned MORE "
                                "records than were written (" +
                                describe() + ")");
            for (std::size_t i = 0; i < s.size(); ++i)
                if (!(s[i] == original[i]))
                    return diverged(
                        "salvaged journal record " +
                        std::to_string(i) +
                        " is not a prefix of the original (" +
                        describe() + ")");
        }
    }

    // Writer adoption: open() on the damaged file either fails with
    // a typed error or truncates to a valid prefix - and a second
    // open sees exactly what the first left behind (idempotence).
    const std::string path = scratchPath(c, env, ".pabpj");
    PABP_TRY(atomicWriteFile(path, bytes));
    std::vector<JournalRecord> first_seen;
    Expected<JournalWriter> first =
        JournalWriter::open(path, JournalHeader{}, &first_seen);
    Status verdict;
    if (first.ok()) {
        first.value().close();
        if (first_seen.size() > original.size()) {
            verdict = diverged("JournalWriter::open adopted MORE "
                               "records than were written (" +
                               describe() + ")");
        } else {
            std::vector<JournalRecord> second_seen;
            Expected<JournalWriter> second =
                JournalWriter::open(path, JournalHeader{},
                                    &second_seen);
            if (!second.ok()) {
                verdict = diverged(
                    "journal re-open after salvage truncation "
                    "failed: " + second.status().toString() + " (" +
                    describe() + ")");
            } else {
                second.value().close();
                if (!(second_seen == first_seen))
                    verdict = diverged(
                        "journal salvage truncation is not "
                        "idempotent (" + describe() + ")");
            }
        }
    }
    std::remove(path.c_str());
    return verdict;
}

Status
oracleJournal(const FuzzCase &c, const RunEnv &env)
{
    std::vector<JournalRecord> records;
    const std::string bytes = synthesizeJournal(c, records);

    std::vector<CorruptSpec> schedule;
    if (c.corruptFlips > 0 || c.corruptTruncate > 0) {
        schedule.push_back(
            {c.corruptFlips, c.corruptSeed, c.corruptTruncate});
    } else {
        // Mirror of the trace oracle's default schedule: single flip,
        // burst, tail truncation, and both at once.
        std::uint64_t s = c.seed ^ 0x77ace;
        schedule.push_back({1, s + 1, 0});
        schedule.push_back({3, s + 2, 0});
        schedule.push_back(
            {0, s + 3,
             static_cast<unsigned>(1 + bytes.size() / 8)});
        schedule.push_back({1, s + 4, 7});
    }
    for (const CorruptSpec &spec : schedule)
        PABP_TRY(checkCorruptedJournal(records, corrupt(bytes, spec),
                                       spec, env, c));
    return {};
}

// ---------------------------------------------------------------------
// Oracle 8: multi-context replay (core/multictx.hh). With
// contexts == 1 a 1-context replayer must be byte-identical to the
// ordinary single-stream batch loop - the schedule machinery adds
// nothing. With contexts > 1 the fast (trace-lane) and reference
// (live-emulator) interleaved replays must agree context for context,
// and a repeated fast run, advanced in case-derived uneven pieces that
// cut schedule slices, must reproduce the one-call run exactly.

Status
oracleMultiCtx(const FuzzCase &c, CaseContext &ctx)
{
    MultiCtxConfig mcfg;
    mcfg.schedule.contexts = c.contexts ? c.contexts : 1;
    mcfg.schedule.kind = c.ctxSchedule;
    mcfg.schedule.quantum = c.ctxQuantum ? c.ctxQuantum : 1;
    mcfg.schedule.seed = c.ctxSeed;
    mcfg.sharedHistory = c.ctxShared;
    mcfg.tagBits = c.ctxTagBits;
    mcfg.engine = c.engine;
    const unsigned n = mcfg.schedule.contexts;

    if (n == 1) {
        const DecodedTrace &trace = ctx.traceFor(c);
        if (trace.size() == 0)
            return diverged("recorded trace is empty (generator bug)");

        Expected<PredictorPtr> predA = makeCasePredictor(c);
        Expected<PredictorPtr> predB = makeCasePredictor(c);
        if (!predA.ok())
            return predA.status();
        if (!predB.ok())
            return predB.status();

        MultiContextReplayer replayer(*predA.value(), mcfg, {&trace},
                                      c.maxInsts);
        replayer.advance(UINT64_MAX);

        PredictionEngine single(*predB.value(), c.engine);
        single.processBatch(trace, 0, trace.size());

        PredictionEngine &only = replayer.engine(0);
        if (!(only.stats() == single.stats()))
            return diverged(
                "1-context replay stats diverge from the "
                "single-stream loop:" +
                statsDiff(single.stats(), only.stats()));
        if (!(only.branchProfile() == single.branchProfile()))
            return diverged("1-context replay per-branch profile "
                            "diverges from the single-stream loop");
        if (only.pguBitsInserted() != single.pguBitsInserted())
            return diverged("1-context replay PGU bits differ from "
                            "the single-stream loop");
        if (metricsBytes(only) != metricsBytes(single))
            return diverged("1-context replay metrics bytes differ "
                            "from the single-stream loop");
        return {};
    }

    // Context k replays the shared converted program from input seed
    // c.seed + k (the same per-context seeding the sweep uses; the
    // generator's init closure depends only on (seed, dataWindow)).
    std::vector<DecodedTrace> traces;
    for (unsigned k = 0; k < n; ++k) {
        Emulator emu(ctx.progs.converted.prog,
                     EmuConfig{oracleMemWords, 0});
        makeFuzzWorkload(c.seed + k, c.gen).init(emu.state());
        traces.push_back(recordTrace(emu, c.maxInsts));
        if (traces.back().size() == 0)
            return diverged("recorded trace for context " +
                            std::to_string(k) +
                            " is empty (generator bug)");
    }
    std::vector<const DecodedTrace *> lanes;
    for (const DecodedTrace &t : traces)
        lanes.push_back(&t);

    Expected<PredictorPtr> preds[3] = {makeCasePredictor(c),
                                       makeCasePredictor(c),
                                       makeCasePredictor(c)};
    for (const auto &p : preds)
        if (!p.ok())
            return p.status();

    MultiContextReplayer fast(*preds[0].value(), mcfg, lanes, c.maxInsts);
    const std::uint64_t fastTotal = fast.advance(UINT64_MAX);

    std::vector<std::unique_ptr<Emulator>> emus;
    std::vector<Emulator *> emuPtrs;
    for (unsigned k = 0; k < n; ++k) {
        emus.push_back(std::make_unique<Emulator>(
            ctx.progs.converted.prog, EmuConfig{oracleMemWords, 0}));
        makeFuzzWorkload(c.seed + k, c.gen).init(emus.back()->state());
        emuPtrs.push_back(emus.back().get());
    }
    MultiContextReplayer ref(*preds[1].value(), mcfg, emuPtrs,
                             c.maxInsts);
    const std::uint64_t refTotal = ref.advance(UINT64_MAX);

    // Context for context: stats, profile, PGU bits, metrics bytes.
    const auto agree = [n](MultiContextReplayer &a, std::uint64_t aTotal,
                           MultiContextReplayer &b, std::uint64_t bTotal,
                           const std::string &between) -> Status {
        if (aTotal != bTotal)
            return diverged("multi-context processed-count mismatch "
                            "between " + between + ": " +
                            std::to_string(aTotal) + " vs " +
                            std::to_string(bTotal));
        for (unsigned k = 0; k < n; ++k) {
            PredictionEngine &x = a.engine(k);
            PredictionEngine &y = b.engine(k);
            const std::string who =
                between + " for context " + std::to_string(k);
            if (!(x.stats() == y.stats()))
                return diverged("multi-context stats diverge between " +
                                who + ":" + statsDiff(x.stats(), y.stats()));
            if (!(x.branchProfile() == y.branchProfile()))
                return diverged("multi-context per-branch profile "
                                "diverges between " + who);
            if (x.pguBitsInserted() != y.pguBitsInserted())
                return diverged("multi-context PGU bits diverge between " +
                                who);
            if (metricsBytes(x) != metricsBytes(y))
                return diverged("multi-context metrics bytes diverge "
                                "between " + who);
        }
        return {};
    };
    PABP_TRY(agree(ref, refTotal, fast, fastTotal,
                   "reference and fast replay"));

    // Determinism: the same lanes + schedule reproduce themselves,
    // however the advances split the schedule slices.
    MultiContextReplayer again(*preds[2].value(), mcfg, lanes,
                               c.maxInsts);
    Rng pieces(streamSeed(c.seed, 0x5c1));
    std::uint64_t againTotal = 0;
    for (;;) {
        const std::uint64_t piece =
            1 + pieces.below(2 * mcfg.schedule.quantum);
        const std::uint64_t ran = again.advance(piece);
        againTotal += ran;
        if (ran < piece)
            break;
    }
    return agree(fast, fastTotal, again, againTotal,
                 "one-call and piecewise fast replay");
}

Status
runOracleWith(Oracle oracle, const FuzzCase &c, const RunEnv &env,
              CaseContext &ctx)
{
    switch (oracle) {
      case Oracle::IfConvert: return oracleIfConvert(c, ctx);
      case Oracle::Pipeline: return oraclePipeline(c, ctx);
      case Oracle::Replay: return oracleReplay(c, ctx);
      case Oracle::Checkpoint: return oracleCheckpoint(c, ctx, env);
      case Oracle::Trace: return oracleTrace(c, ctx);
      case Oracle::Sweep: return oracleSweep(c, ctx, env);
      case Oracle::Journal: return oracleJournal(c, env);
      case Oracle::MultiCtx: return oracleMultiCtx(c, ctx);
    }
    return statusError(StatusCode::InvalidArgument,
                       "unknown oracle id");
}

} // anonymous namespace

Expected<CaseOutcome>
runCase(const FuzzCase &fuzz_case, const RunEnv &env)
{
    // Reject setup problems before any oracle runs, so a typo'd
    // predictor name is a usage error (exit 2), not a "divergence".
    Expected<PredictorPtr> probe = makeCasePredictor(fuzz_case);
    if (!probe.ok())
        return probe.status();
    if (fuzz_case.maxInsts == 0)
        return statusError(StatusCode::InvalidArgument,
                           "fuzz case: max_insts must be > 0");

    CaseContext ctx;
    ctx.progs = buildFuzzPrograms(fuzz_case.seed, fuzz_case.gen);

    CaseOutcome outcome;
    const Oracle order[] = {Oracle::IfConvert, Oracle::Pipeline,
                            Oracle::Replay, Oracle::Checkpoint,
                            Oracle::Trace, Oracle::Sweep,
                            Oracle::Journal, Oracle::MultiCtx};
    for (Oracle o : order) {
        if (!(fuzz_case.oracles & static_cast<unsigned>(o)))
            continue;
        outcome.oraclesRun |= static_cast<unsigned>(o);
        Status verdict = runOracleWith(o, fuzz_case, env, ctx);
        if (!verdict.ok())
            outcome.failures.push_back(FuzzReport{o, verdict});
    }
    return outcome;
}

} // namespace pabp::fuzz
