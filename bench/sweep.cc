#include "sweep.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>

#include "bpred/factory.hh"
#include "bpred/gshare.hh"
#include "core/checkpoint.hh"
#include "core/multictx.hh"
#include "sim/emulator.hh"
#include "util/fnv.hh"
#include "util/metrics.hh"
#include "util/options.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"

namespace pabp::bench {

namespace {

std::uint64_t
resolvedCompileSeed(const RunSpec &spec)
{
    return spec.compileSeed.value_or(spec.seed);
}

void
hashCompileOptions(Fnv1a &fnv, const CompileOptions &copts,
                   bool if_convert)
{
    fnv.b(if_convert);
    fnv.b(copts.simplifyCfg);
    fnv.u32(copts.heuristics.maxBlocks);
    fnv.u32(copts.heuristics.maxBodyInsts);
    fnv.d(copts.heuristics.minWeightRatio);
    fnv.u64(copts.heuristics.minSeedExec);
    fnv.d(copts.heuristics.minSeedMispredictRatio);
    fnv.b(copts.lowering.sinkExits);
    fnv.u64(copts.profileSteps);
}

void
hashEngineConfig(Fnv1a &fnv, const EngineConfig &e)
{
    fnv.b(e.useSfpf);
    fnv.b(e.usePgu);
    fnv.u32(e.availDelay);
    fnv.u32(static_cast<std::uint32_t>(e.pgu.source));
    fnv.u32(static_cast<std::uint32_t>(e.pgu.value));
    fnv.b(e.pgu.includePSet);
    fnv.u32(e.pgu.delay);
    fnv.b(e.trainOnSquashed);
    fnv.b(e.conservativeDefTracking);
    fnv.b(e.useSpeculativeSquash);
    fnv.u32(e.pvpEntriesLog2);
    fnv.u32(static_cast<std::uint32_t>(e.specGate));
    fnv.u32(e.jrsEntriesLog2);
    // Target-modelling fields fold in only when armed, so every
    // direction-only spec keeps the fingerprint (and checkpoint /
    // metrics file names) it had before the knob existed.
    if (e.modelTargets) {
        fnv.b(e.modelTargets);
        fnv.u32(e.btbSetsLog2);
        fnv.u32(e.btbWays);
        fnv.u32(e.rasDepth);
    }
}

void
hashCacheConfig(Fnv1a &fnv, const CacheConfig &c)
{
    fnv.u32(c.setsLog2);
    fnv.u32(c.ways);
    fnv.u32(c.lineWordsLog2);
}

void
hashPipelineConfig(Fnv1a &fnv, const PipelineConfig &p)
{
    fnv.u32(p.issueWidth);
    fnv.u32(p.mispredictPenalty);
    fnv.u32(p.takenBubble);
    fnv.u32(p.btbMissPenalty);
    fnv.u32(p.aluLatency);
    fnv.u32(p.mulLatency);
    fnv.u32(p.divLatency);
    fnv.u32(p.loadHitLatency);
    fnv.u32(p.loadMissLatency);
    fnv.u32(p.icacheMissPenalty);
    hashCacheConfig(fnv, p.icache);
    hashCacheConfig(fnv, p.dcache);
    fnv.b(p.enableL2);
    hashCacheConfig(fnv, p.l2);
    fnv.u32(p.memoryLatency);
}

/** Compiled-program cache key: everything that determines the
 *  program bytes (workload id, compile seed, compile options). */
std::string
programCacheKey(const RunSpec &spec)
{
    Fnv1a copt_hash;
    hashCompileOptions(copt_hash, spec.compile, spec.ifConvert);
    return spec.workload + ":" +
        std::to_string(resolvedCompileSeed(spec)) + ":" +
        std::to_string(copt_hash.value());
}

/** Measurement seed of context @p c of a cell (c = 0 for an ordinary
 *  cell): the contexts of a multi-context cell are independent draws
 *  of the same workload. */
std::uint64_t
contextSeed(const RunSpec &spec, unsigned c)
{
    return spec.seed + c;
}

/** Trace cache key. Recording is deterministic in (program,
 *  measurement seed, budget): the same key always yields the same
 *  events, so the trace is shared read-only like the program. */
std::string
traceCacheKey(const RunSpec &spec, std::uint64_t seed)
{
    return programCacheKey(spec) + ":" + std::to_string(seed) + ":" +
        std::to_string(spec.maxInsts) + ":decoded";
}

/** The cell belongs to another shard (RunSpec::shard) and is skipped
 *  in place. */
bool
skippedByShard(const RunSpec &spec)
{
    return spec.shard.count > 1 &&
        shardOf(specFingerprint(spec), spec.shard.count) !=
        spec.shard.index;
}

/** Trace-mode cells that replay shared decoded traces through the
 *  batched engine loop. Checkpointing or resuming cells drive their
 *  own emulator (in LiveWindow windows under fast replay): mid-run
 *  checkpoints serialise emulator state the decoded trace does not
 *  carry. */
bool
replaysDecodedTrace(const RunSpec &spec)
{
    return spec.mode == RunMode::Trace && spec.fastReplay &&
        spec.checkpointEvery == 0 && spec.resumePath.empty();
}

/**
 * Every trace key a cell consumes, each once - the single source of
 * truth for the trace demand count. A cell only ever calls
 * decodedFor() with one of these keys: context c of a replaying cell
 * with contextSeed(spec, c), and a characterized single-context cell
 * with spec.seed. Over-counting would only delay a release;
 * under-counting would free a trace a later cell records again.
 */
std::vector<std::string>
traceKeysOf(const RunSpec &spec)
{
    std::vector<std::string> keys;
    if (skippedByShard(spec))
        return keys;
    if (replaysDecodedTrace(spec)) {
        for (unsigned c = 0; c < std::max(1u, spec.context.contexts); ++c)
            keys.push_back(traceCacheKey(spec, contextSeed(spec, c)));
    } else if (spec.characterize && spec.context.contexts <= 1) {
        keys.push_back(traceCacheKey(spec, spec.seed));
    }
    return keys;
}

/**
 * Record-ahead dispatch order over a grid whose cell i consumes trace
 * keys @p keys[i] (docs/PARALLEL.md). A "leader" is the first cell of
 * at least one key; it records that trace. Leaders go out in grid
 * order but up to @p window leaders early: before a non-leader that
 * follows t leaders in grid order, leaders up to t + window are
 * submitted. Every other cell keeps its grid order. So on a
 * workload-major grid the next @p window traces are recording while
 * the repeats of the current one replay, and a grid whose leaders
 * already come first is dispatched unchanged.
 */
std::vector<std::size_t>
recordAheadOrder(const std::vector<std::vector<std::string>> &keys,
                 std::size_t window)
{
    std::set<std::string_view> seen;
    std::vector<std::size_t> leaders;
    std::vector<std::size_t> others;
    std::vector<std::size_t> leadersBefore; ///< per entry of others
    for (std::size_t i = 0; i < keys.size(); ++i) {
        bool leads = false;
        for (const std::string &key : keys[i])
            leads = seen.insert(key).second || leads;
        if (leads) {
            leaders.push_back(i);
        } else {
            others.push_back(i);
            leadersBefore.push_back(leaders.size());
        }
    }

    std::vector<std::size_t> order;
    order.reserve(keys.size());
    std::size_t next = 0;
    for (std::size_t j = 0; j < others.size(); ++j) {
        const std::size_t due =
            std::min(leaders.size(), leadersBefore[j] + window);
        while (next < due)
            order.push_back(leaders[next++]);
        order.push_back(others[j]);
    }
    while (next < leaders.size())
        order.push_back(leaders[next++]);
    return order;
}

/** Build the spec's workload for the given input seed. */
Expected<Workload>
materialiseWorkload(const RunSpec &spec, std::uint64_t seed)
{
    if (spec.factory)
        return spec.factory(seed);
    if (spec.workload.empty())
        return Status(StatusCode::InvalidArgument,
                      "run spec names no workload");
    const std::vector<std::string> known = workloadNames();
    if (std::find(known.begin(), known.end(), spec.workload) ==
        known.end())
        return Status(StatusCode::NotFound,
                      "unknown workload: " + spec.workload);
    return makeWorkload(spec.workload, seed);
}

/** A fresh emulator of @p program, its memory image initialised from
 *  the spec's workload at input seed @p seed: the one way a cell
 *  starts an emulator, to record a trace, to run its own reference or
 *  Timed loop, or as one context of a multi-context reference cell. */
Expected<std::unique_ptr<Emulator>>
startEmulator(const RunSpec &spec, const CompiledProgram &program,
              std::uint64_t seed)
{
    Expected<Workload> wl = materialiseWorkload(spec, seed);
    if (!wl.ok())
        return wl.status();
    auto emu = std::make_unique<Emulator>(program.prog);
    if (wl.value().init)
        wl.value().init(emu->state());
    return emu;
}

/** How an exception leaked by a cell's code fails the cell. */
Status
unhandledException(const std::exception &e)
{
    return Status(StatusCode::Corrupt,
                  std::string("unhandled exception in sweep cell: ") +
                      e.what());
}

/** Resume outcomes that mean "start this cell fresh" rather than
 *  "this cell failed": the file is missing (the interrupted sweep
 *  never got to checkpoint this cell) or it belongs to a different
 *  configuration (fingerprint/section mismatch). Damage - CRC, bad
 *  magic, truncation - stays an error. */
bool
resumeFallsBackToFresh(const Status &status)
{
    return status.code() == StatusCode::IoError ||
        status.code() == StatusCode::InvalidArgument ||
        // A checkpoint written by an older format version is not
        // damage: the format comment in core/checkpoint.cc promises
        // runners restart such cells from scratch.
        status.code() == StatusCode::VersionMismatch;
}

/** Wall-clock deadline for one cell attempt (RunSpec::watchdogMillis).
 *  Unarmed (0), it never expires and the cell loops run unsliced. */
struct CellDeadline
{
    explicit CellDeadline(std::uint32_t millis)
        : armed(millis > 0),
          at(std::chrono::steady_clock::now() +
             std::chrono::milliseconds(millis))
    {}

    bool
    expired() const
    {
        return armed && std::chrono::steady_clock::now() >= at;
    }

    const bool armed;
    const std::chrono::steady_clock::time_point at;
};

/** NOTE: deliberately free of wall-clock-dependent detail (how many
 *  instructions ran varies run to run) - the text lands in quarantine
 *  journal records, whose bytes must converge across interrupted and
 *  clean campaigns (bench/sweep_service.hh). */
Status
deadlineStatus(const RunSpec &spec)
{
    return Status(StatusCode::DeadlineExceeded,
                  "cell '" + spec.workload + "' overran its " +
                      std::to_string(spec.watchdogMillis) +
                      " ms watchdog deadline");
}

/** The consumer of a single-context cell: advance(n) runs up to n more
 *  instructions and returns how many ran. Fewer than n means the
 *  stream ended: the workload halted or the trace ran out. */
using CellAdvance = std::function<std::uint64_t(std::uint64_t n)>;

/**
 * The one loop every single-context cell runs. Each slice is the
 * smallest of the remaining budget, the distance to the next
 * checkpoint (when @p save is set) and the heartbeat (when the
 * watchdog is armed); an unarmed, uncheckpointed cell therefore
 * advances its whole budget in one call. @p done is the count
 * already run (a resumed cell's cursor) and is advanced in place.
 * @p save writes a checkpoint every RunSpec::checkpointEvery
 * instructions and once more where the cell ends.
 */
Status
runCellLoop(const RunSpec &spec, const CellAdvance &advance,
            std::uint64_t &done, const std::function<Status()> &save)
{
    const CellDeadline deadline(spec.watchdogMillis);
    const std::uint64_t every = save ? spec.checkpointEvery : 0;
    std::uint64_t sinceSave = 0;
    while (done < spec.maxInsts) {
        std::uint64_t slice = spec.maxInsts - done;
        if (deadline.armed)
            slice = std::min(slice, heartbeatInsts);
        if (every)
            slice = std::min(slice, every - sinceSave);
        const std::uint64_t ran = advance(slice);
        done += ran;
        sinceSave += ran;
        const bool ended = ran < slice;
        if (every &&
            (ended || sinceSave == every || done == spec.maxInsts)) {
            Status saved = save();
            if (!saved.ok())
                return saved;
            sinceSave = 0;
        }
        if (ended)
            break;
        if (deadline.expired())
            return deadlineStatus(spec);
    }
    return Status();
}

/** A cell's predictor, with a typed handle on it when the cell
 *  profiles gshare conflicts (RunSpec::profileConflicts). */
struct CellPredictor
{
    PredictorPtr owned;
    GSharePredictor *gshare = nullptr;
};

/** Build the spec's predictor; a bad spec fails the cell with a typed
 *  error instead of aborting the whole sweep from a worker. */
Expected<CellPredictor>
makeCellPredictor(const RunSpec &spec)
{
    CellPredictor made;
    if (!spec.profileConflicts) {
        Expected<PredictorPtr> pred =
            tryMakePredictor(spec.predictor, spec.sizeLog2);
        if (!pred.ok())
            return pred.status();
        made.owned = std::move(pred.value());
        return made;
    }
    if (spec.predictor != "gshare")
        return Status(StatusCode::InvalidArgument,
                      "conflict profiling requires the gshare "
                      "predictor, got: " + spec.predictor);
    auto g = std::make_unique<GSharePredictor>(spec.sizeLog2);
    g->enableConflictProfiling();
    made.gshare = g.get();
    made.owned = std::move(g);
    return made;
}

void
accumulateClassStats(BranchClassStats &into,
                     const BranchClassStats &from)
{
    into.branches += from.branches;
    into.taken += from.taken;
    into.mispredicts += from.mispredicts;
    into.squashed += from.squashed;
    into.falseGuard += from.falseGuard;
}

/** Field-wise sum, the across-context aggregate of a multi-context
 *  cell (RunResult::engine). */
void
accumulateEngineStats(EngineStats &into, const EngineStats &from)
{
    into.insts += from.insts;
    into.uncondBranches += from.uncondBranches;
    into.predicateDefines += from.predicateDefines;
    accumulateClassStats(into.all, from.all);
    accumulateClassStats(into.region, from.region);
    accumulateClassStats(into.normal, from.normal);
    into.specSquashed += from.specSquashed;
    into.specSquashedWrong += from.specSquashedWrong;
    into.btbTargetMisses += from.btbTargetMisses;
    into.rasHits += from.rasHits;
    into.rasMisses += from.rasMisses;
}

/** The spec.* identity keys every cell's metrics document carries. */
void
exportSpecKeys(MetricsExporter &ex, const RunSpec &spec)
{
    ex.setText("spec.workload", spec.workload);
    ex.setText("spec.predictor", spec.predictor);
    ex.setText("spec.mode", spec.mode == RunMode::Timed ? "timed" : "trace");
    ex.setInt("spec.size_log2", spec.sizeLog2);
    ex.setInt("spec.seed", spec.seed);
    ex.setInt("spec.compile_seed", resolvedCompileSeed(spec));
    ex.setInt("spec.max_insts", spec.maxInsts);
    const std::uint64_t fp = specFingerprint(spec);
    char fp_hex[17];
    std::snprintf(fp_hex, sizeof(fp_hex), "%016llx",
                  static_cast<unsigned long long>(fp));
    ex.setText("spec.fingerprint", fp_hex);
}

/**
 * Build one finished cell's metrics document
 * (docs/OBSERVABILITY.md). The engine must still be alive: the export
 * snapshots the StatGroup the engine registers its gauges into, which
 * is also what pins the registry path itself in every metrics-enabled
 * sweep.
 *
 * RunResult::resumed is deliberately NOT exported: the resume
 * equivalence contract promises a resumed run's metrics file is
 * byte-identical to an uninterrupted one's. Neither are the
 * robustness knobs or attempt counts - a cell that needed a retry
 * must still measure (and serialise) identically to one that did not.
 */
MetricsExporter
buildCellMetrics(const RunSpec &spec, const RunResult &result,
                 PredictionEngine &engine)
{
    MetricsExporter ex;
    exportSpecKeys(ex, spec);

    StatGroup group;
    engine.registerStats(group);
    ex.addGroup(group);
    ex.setReal("engine.mpki", engine.stats().mpki());
    engine.branchProfile().exportTo(ex);
    if (result.predictability) {
        // RunSpec::characterize: the workload-character metrics plus
        // the H2P cross-reference against THIS cell's own profile -
        // "are the hard branches the low-predictability ones?"
        // answered per cell (default cutoffs never fail classifyH2p).
        exportPredictability(ex, *result.predictability);
        Expected<H2pClassification> cls =
            classifyH2p(engine.branchProfile());
        if (cls.ok())
            aggregatePredictabilityByTier(ex, cls.value(),
                                          *result.predictability);
    }

    ex.setInt("compile.num_regions", result.numRegions);
    ex.setInt("compile.num_region_branches", result.numRegionBranches);

    if (spec.mode == RunMode::Timed) {
        const PipelineStats &p = result.pipe;
        ex.setInt("pipeline.insts", p.insts);
        ex.setInt("pipeline.cycles", p.cycles);
        ex.setInt("pipeline.icache_misses", p.icacheMisses);
        ex.setInt("pipeline.dcache_misses", p.dcacheMisses);
        ex.setInt("pipeline.l2_misses", p.l2Misses);
        ex.setInt("pipeline.btb_misses", p.btbMisses);
        ex.setInt("pipeline.ras_hits", p.rasHits);
        ex.setInt("pipeline.ras_misses", p.rasMisses);
        ex.setInt("pipeline.mispredict_stall_cycles",
                  p.mispredictStallCycles);
        ex.setReal("pipeline.ipc", p.ipc());
    }

    return ex;
}

/**
 * Metrics document for a multi-context cell. Per-context numbers go
 * under "ctx<N>.*" and the across-context aggregate under "engine.*";
 * per-PC profiles stay in RunResult::contexts, where benches consume
 * them directly (e.g. the per-tier H2P deltas in E21).
 */
MetricsExporter
buildMultiCtxMetrics(const RunSpec &spec, const RunResult &result)
{
    MetricsExporter ex;
    exportSpecKeys(ex, spec);
    ex.setInt("spec.contexts", spec.context.contexts);
    ex.setText("spec.ctx_schedule",
               scheduleKindName(spec.context.schedule));
    ex.setInt("spec.ctx_quantum", spec.context.quantum);
    ex.setInt("spec.ctx_seed", spec.context.scheduleSeed);
    ex.setInt("spec.ctx_shared", spec.context.shared ? 1 : 0);
    ex.setInt("spec.ctx_tag_bits", spec.context.tagBits);

    ex.setInt("compile.num_regions", result.numRegions);
    ex.setInt("compile.num_region_branches", result.numRegionBranches);

    const auto exportStats = [&](const std::string &prefix,
                                 const EngineStats &s,
                                 std::uint64_t pgu_bits) {
        ex.setInt(prefix + "insts", s.insts);
        ex.setInt(prefix + "branches", s.all.branches);
        ex.setInt(prefix + "mispredicts", s.all.mispredicts);
        ex.setReal(prefix + "mispredict_rate",
                   s.all.mispredictRate());
        ex.setReal(prefix + "mpki", s.mpki());
        ex.setInt(prefix + "pgu_bits", pgu_bits);
        if (spec.engine.modelTargets) {
            ex.setInt(prefix + "btb_target_misses",
                      s.btbTargetMisses);
            ex.setInt(prefix + "ras_hits", s.rasHits);
            ex.setInt(prefix + "ras_misses", s.rasMisses);
        }
    };
    exportStats("engine.", result.engine, result.pguBits);
    for (std::size_t c = 0; c < result.contexts.size(); ++c)
        exportStats("ctx" + std::to_string(c) + ".",
                    result.contexts[c].engine,
                    result.contexts[c].pguBits);
    return ex;
}

/**
 * Shared tail of the cell-output paths: capture an already-built
 * metrics document into the result (RunSpec::captureMetrics) and/or
 * export it to a per-cell file (RunSpec::metricsDir). A cell that
 * cannot write its file FAILS with IoError - a sweep that silently
 * lost its measurements would be worse than one that failed loudly.
 */
Status
writeCellOutputs(const RunSpec &spec, RunResult &result,
                 const MetricsExporter &ex)
{
    if (spec.captureMetrics) {
        std::ostringstream os;
        ex.writeJson(os);
        result.metricsJson = os.str();
    }
    if (!spec.metricsDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(spec.metricsDir, ec);
        if (ec)
            return Status(StatusCode::IoError,
                          "cannot create metrics directory '" +
                              spec.metricsDir + "': " + ec.message());
        return ex.writeJsonFile(metricsFilePath(
            spec.metricsDir, specFingerprint(spec)));
    }
    return Status();
}

/** The single-engine cell's observational outputs. */
Status
finishCellOutputs(const RunSpec &spec, RunResult &result,
                  PredictionEngine &engine)
{
    if (spec.metricsDir.empty() && !spec.captureMetrics)
        return Status();
    return writeCellOutputs(spec, result,
                            buildCellMetrics(spec, result, engine));
}

/** The multi-context cell's observational outputs. */
Status
finishMultiCtxOutputs(const RunSpec &spec, RunResult &result)
{
    if (spec.metricsDir.empty() && !spec.captureMetrics)
        return Status();
    return writeCellOutputs(spec, result,
                            buildMultiCtxMetrics(spec, result));
}

/** The trace of a trace memo entry, or null while it is still
 *  recording or when it failed. */
const DecodedTrace *
readyTrace(
    const std::shared_future<Expected<std::shared_ptr<const DecodedTrace>>>
        &entry)
{
    if (entry.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready)
        return nullptr;
    const Expected<std::shared_ptr<const DecodedTrace>> &trace =
        entry.get();
    return trace.ok() ? trace.value().get() : nullptr;
}

/** Add a trace memo entry's replay-schedule traffic to @p sum. An
 *  entry still recording has served no schedules, and a failed one
 *  has none. */
void
addScheduleTraffic(
    const std::shared_future<Expected<std::shared_ptr<const DecodedTrace>>>
        &entry,
    ReplayScheduleCache::Counters &sum)
{
    const DecodedTrace *trace = readyTrace(entry);
    if (!trace || !trace->schedCache)
        return;
    const ReplayScheduleCache::Counters traffic =
        trace->schedCache->counters();
    sum.hits += traffic.hits;
    sum.inserts += traffic.inserts;
}

} // anonymous namespace

std::optional<ShardSpec>
parseShardSpec(std::string_view text)
{
    const std::size_t slash = text.find('/');
    if (slash == std::string_view::npos)
        return std::nullopt;
    constexpr std::uint64_t maxCount =
        std::numeric_limits<std::uint32_t>::max();
    std::uint64_t index = 0;
    std::uint64_t count = 0;
    if (!parseUnsigned(text.substr(0, slash), maxCount, index) ||
        !parseUnsigned(text.substr(slash + 1), maxCount, count) ||
        count == 0 || index >= count)
        return std::nullopt;
    return ShardSpec{static_cast<std::uint32_t>(index),
                     static_cast<std::uint32_t>(count)};
}

std::uint64_t
specFingerprint(const RunSpec &spec)
{
    Fnv1a fnv;
    fnv.str("pabp-runspec-v1");
    fnv.str(spec.workload);
    fnv.u64(spec.seed);
    fnv.u64(resolvedCompileSeed(spec));
    fnv.u32(static_cast<std::uint32_t>(spec.mode));
    fnv.str(spec.predictor);
    fnv.u32(spec.sizeLog2);
    hashEngineConfig(fnv, spec.engine);
    hashCompileOptions(fnv, spec.compile, spec.ifConvert);
    fnv.u64(spec.maxInsts);
    fnv.b(spec.profileConflicts);
    // Context interleaving folds in only for real multi-context
    // cells: every single-stream spec keeps its historical print.
    if (spec.context.contexts > 1) {
        fnv.str("ctx");
        fnv.u32(spec.context.contexts);
        fnv.u32(static_cast<std::uint32_t>(spec.context.schedule));
        fnv.u64(spec.context.quantum);
        fnv.u64(spec.context.scheduleSeed);
        fnv.b(spec.context.shared);
        fnv.u32(spec.context.tagBits);
    }
    // Likewise the pipeline folds in only for a Timed cell that
    // changes it: default-machine Timed cells keep their prints.
    if (spec.mode == RunMode::Timed && spec.pipeline != PipelineConfig{}) {
        fnv.str("pipe");
        hashPipelineConfig(fnv, spec.pipeline);
    }
    return fnv.value();
}

std::string
derivedCheckpointPath(const std::string &base,
                      std::uint64_t fingerprint)
{
    char fp[20];
    std::snprintf(fp, sizeof(fp), "-%016llx",
                  static_cast<unsigned long long>(fingerprint));
    std::size_t slash = base.find_last_of('/');
    std::size_t dot = base.find_last_of('.');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return base + fp;
    return base.substr(0, dot) + fp + base.substr(dot);
}

std::string
metricsFilePath(const std::string &dir, std::uint64_t fingerprint)
{
    char fp[20];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    std::string sep = dir.empty() || dir.back() == '/' ? "" : "/";
    return dir + sep + "pabp-metrics-" + fp + ".json";
}

SweepRunner::SweepRunner(Config config)
    : jobs(config.jobs ? config.jobs : defaultThreadCount()),
      queueCapacity(config.queueCapacity)
{}

template <class T, class Make>
typename SweepRunner::Memo<T>::Result
SweepRunner::memoized(Memo<T> &memo, const std::string &key, Make make)
{
    std::promise<typename Memo<T>::Result> promise;
    std::shared_future<typename Memo<T>::Result> future;
    bool leads = false;
    {
        std::lock_guard<std::mutex> lock(cacheMtx);
        auto it = memo.entries.find(key);
        leads = it == memo.entries.end();
        if (leads) {
            future = promise.get_future().share();
            memo.entries.emplace(key, future);
            ++memo.made;
            memo.peak = std::max<std::uint64_t>(memo.peak,
                                                memo.entries.size());
        } else {
            future = it->second;
            ++memo.hits;
        }
    }
    if (leads) {
        try {
            promise.set_value(make());
        } catch (const std::exception &e) {
            promise.set_value(unhandledException(e));
        }
    }
    return future.get();
}

Expected<SweepRunner::ProgramHandle>
SweepRunner::compiledFor(const RunSpec &spec)
{
    return memoized(programs, programCacheKey(spec),
                    [&]() -> Expected<ProgramHandle> {
        Expected<Workload> wl =
            materialiseWorkload(spec, resolvedCompileSeed(spec));
        if (!wl.ok())
            return wl.status();
        CompileOptions copts = spec.compile;
        copts.ifConvert = spec.ifConvert;
        return std::make_shared<const CompiledProgram>(
            compileWorkload(wl.value(), copts));
    });
}

Expected<SweepRunner::TraceHandle>
SweepRunner::decodedFor(const RunSpec &spec,
                        const CompiledProgram &program,
                        std::uint64_t seed)
{
    return memoized(traces, traceCacheKey(spec, seed),
                    [&]() -> Expected<TraceHandle> {
        Expected<std::unique_ptr<Emulator>> emu =
            startEmulator(spec, program, seed);
        if (!emu.ok())
            return emu.status();
        return std::make_shared<const DecodedTrace>(
            recordTrace(*emu.value(), spec.maxInsts));
    });
}

Expected<SweepRunner::ReportHandle>
SweepRunner::characterizedFor(const RunSpec &spec,
                              const CompiledProgram &program)
{
    // The report is a pure function of the trace it reads.
    return memoized(reports, traceCacheKey(spec, spec.seed),
                    [&]() -> Expected<ReportHandle> {
        Expected<TraceHandle> decoded =
            decodedFor(spec, program, spec.seed);
        if (!decoded.ok())
            return decoded.status();
        return std::make_shared<const PredictabilityReport>(
            characterizeTrace(*decoded.value(), PredictabilityConfig{},
                              spec.maxInsts));
    });
}

RunResult
SweepRunner::executeSpecAttempt(const RunSpec &spec, unsigned attempt)
{
    if (spec.faultHook) {
        Status injected = spec.faultHook(attempt);
        if (!injected.ok()) {
            RunResult result;
            result.status = std::move(injected);
            return result;
        }
    }
    try {
        return executeSpec(spec);
    } catch (const std::exception &e) {
        RunResult result;
        result.status = unhandledException(e);
        return result;
    }
}

RunResult
SweepRunner::executeSpecGuarded(const RunSpec &spec)
{
    // Cells owned by another shard are skipped in place: the grid keeps
    // its positional layout (table builders index by position) and the
    // cell reports Ok so reportFailures() stays quiet about it.
    if (skippedByShard(spec)) {
        RunResult result;
        result.skipped = true;
        return result;
    }

    const unsigned max_attempts = std::max(1u, spec.maxAttempts);
    RunResult result;
    for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
        result = executeSpecAttempt(spec, attempt);
        result.attempts = attempt;
        if (result.status.ok() ||
            !retryableStatus(result.status.code()) ||
            attempt == max_attempts) {
            break;
        }
        pabp_warn("sweep cell (" + spec.workload + ", " + spec.predictor +
                  ") attempt " + std::to_string(attempt) +
                  " failed retryably: " + result.status.toString());
        if (spec.retryBackoffMillis > 0) {
            const std::uint64_t backoff =
                static_cast<std::uint64_t>(spec.retryBackoffMillis)
                << (attempt - 1);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoff));
        }
    }
    return result;
}

void
SweepRunner::noteResumeFallback(const RunSpec &spec,
                                const std::string &resume_file,
                                const Status &status)
{
    pabp_warn("sweep cell (" + spec.workload + ", " + spec.predictor +
              "): resume from '" + resume_file + "' failed (" +
              status.toString() + "); falling back to a cold start");
    std::lock_guard<std::mutex> lock(cacheMtx);
    ++resumeFallbackCount;
}

std::uint64_t
SweepRunner::resumeFallbacks() const
{
    std::lock_guard<std::mutex> lock(cacheMtx);
    return resumeFallbackCount;
}

RunResult
SweepRunner::executeSpec(const RunSpec &spec)
{
    RunResult result;

    Expected<ProgramHandle> program = compiledFor(spec);
    if (!program.ok()) {
        result.status = program.status();
        return result;
    }
    const CompiledProgram &cp = *program.value();
    result.numRegions = cp.info.numRegions;
    result.numRegionBranches = cp.info.numRegionBranches;

    // Characterize before the measured run: the report comes off the
    // shared decoded trace, so fast-replay, reference and Timed cells
    // of the same (workload, seed, budget) all report the same bytes.
    if (spec.characterize) {
        if (spec.context.contexts > 1) {
            result.status = Status(
                StatusCode::InvalidArgument,
                "characterize requires a single-context Trace or "
                "Timed cell");
            return result;
        }
        Expected<ReportHandle> rep = characterizedFor(spec, cp);
        if (!rep.ok()) {
            result.status = rep.status();
            return result;
        }
        result.predictability = rep.value();
    }

    Expected<CellPredictor> made = makeCellPredictor(spec);
    if (!made.ok()) {
        result.status = made.status();
        return result;
    }
    CellPredictor pred = std::move(made.value());

    if (spec.context.contexts > 1) {
        // Multi-context cells interleave N independent instruction
        // streams through the ONE predictor built above; they are
        // replay-only and cannot serialise mid-run (the interleaved
        // emulator/engine set has no checkpoint format).
        if (spec.mode != RunMode::Timed && spec.checkpointEvery == 0 &&
            spec.resumePath.empty())
            return executeMultiCtx(spec, cp, *pred.owned,
                                   pred.gshare, std::move(result));
        result.status = Status(
            StatusCode::InvalidArgument,
            spec.mode == RunMode::Timed
                ? "multi-context cells are Trace-mode only"
                : "multi-context cells cannot checkpoint or resume");
        return result;
    }

    // Build the cell's consumer, then run it through the one cell
    // loop. Four consumers, each exactly resumable:
    //  - Timed: the pipeline over the cell's own emulator;
    //  - fast replay (docs/PERF.md): the batched engine loop over the
    //    shared pre-decoded trace, bit-identical to the reference
    //    loop (the equivalence tests pin stats, profile and metrics
    //    bytes);
    //  - checkpointing or resuming under fast replay: the cell's own
    //    emulator in LiveWindow windows, recorded and decided by the
    //    same batch loop, since a mid-run checkpoint serialises
    //    emulator state the trace lacks. Windows end at every slice
    //    boundary, so each save lands exactly at `done`, with the
    //    bytes the reference cell writes there;
    //  - reference (fastReplay off): runTrace over the cell's own
    //    emulator, the oracle of the other three.
    TraceHandle trace;
    std::unique_ptr<Emulator> emu;
    std::optional<PredictionEngine> engine;
    std::optional<Pipeline> pipe;
    std::optional<LiveWindow> live;
    std::uint64_t done = 0;
    CellAdvance advance;
    std::function<Status()> save;
    if (!replaysDecodedTrace(spec)) {
        // The measured run's memory image comes from the measurement
        // seed (== compile seed unless a cross-input spec says
        // otherwise).
        Expected<std::unique_ptr<Emulator>> started =
            startEmulator(spec, cp, spec.seed);
        if (!started.ok()) {
            result.status = started.status();
            return result;
        }
        emu = std::move(started.value());
    }
    if (spec.mode == RunMode::Timed) {
        // The pipeline charges target penalties from the engine's
        // BTB/RAS outcomes, so every Timed cell arms target
        // modelling. Armed on a local copy AFTER fingerprinting:
        // unconditional for the mode, it adds no information.
        EngineConfig ecfg = spec.engine;
        ecfg.modelTargets = true;
        engine.emplace(*pred.owned, ecfg);
        pipe.emplace(*engine, spec.pipeline);
        advance = [&](std::uint64_t n) {
            const std::uint64_t before = pipe->stats().insts;
            return pipe->run(*emu, n).insts - before;
        };
    } else if (replaysDecodedTrace(spec)) {
        Expected<TraceHandle> decoded =
            decodedFor(spec, cp, contextSeed(spec, 0));
        if (!decoded.ok()) {
            result.status = decoded.status();
            return result;
        }
        trace = decoded.value();
        engine.emplace(*pred.owned, spec.engine);
        advance = [&](std::uint64_t n) {
            return engine->processBatch(*trace, done, n) - done;
        };
    } else {
        const std::uint64_t fp = specFingerprint(spec);
        engine.emplace(*pred.owned, spec.engine);
        if (!spec.resumePath.empty()) {
            const std::string file =
                derivedCheckpointPath(spec.resumePath, fp);
            CheckpointRefs refs{emu.get(), &*engine, &done};
            Status status = loadCheckpoint(file, refs);
            result.resumed = status.ok();
            if (!status.ok() && !resumeFallsBackToFresh(status)) {
                result.status = status; // damaged artifact: fail the cell
                return result;
            }
            if (!status.ok()) {
                // A failed load may have scribbled on the predictor,
                // engine and emulator: cold-start on fresh ones. The
                // compiled program is reused, never recompiled.
                result.resumeFallback = true;
                noteResumeFallback(spec, file, status);
                engine.reset();
                pred = std::move(makeCellPredictor(spec).value());
                emu = std::move(startEmulator(spec, cp, spec.seed).value());
                engine.emplace(*pred.owned, spec.engine);
                done = 0;
            }
        }
        if (spec.fastReplay) {
            live.emplace();
            advance = [&](std::uint64_t n) {
                return live->run(*emu, *engine, n);
            };
        } else {
            advance = [&](std::uint64_t n) {
                return runTrace(*emu, *engine, n);
            };
        }
        if (spec.checkpointEvery) {
            save = [&, file = derivedCheckpointPath(spec.checkpointPath,
                                                    fp)] {
                CheckpointRefs refs{emu.get(), &*engine, &done};
                return saveCheckpoint(file, refs);
            };
        }
    }

    Status ran = runCellLoop(spec, advance, done, save);
    if (!ran.ok()) {
        result.status = std::move(ran);
        return result;
    }
    if (pipe)
        result.pipe = pipe->stats();
    result.engine = engine->stats();
    result.pguBits = engine->pguBitsInserted();
    result.profile = engine->branchProfile();
    if (pred.gshare) {
        result.lookups = pred.gshare->lookupCount();
        result.conflicts = pred.gshare->conflictCount();
    }
    result.status = finishCellOutputs(spec, result, *engine);
    return result;
}

RunResult
SweepRunner::executeMultiCtx(const RunSpec &spec,
                             const CompiledProgram &program,
                             BranchPredictor &pred,
                             GSharePredictor *gshare, RunResult result)
{
    const unsigned n = spec.context.contexts;
    MultiCtxConfig mcfg;
    mcfg.schedule.contexts = n;
    mcfg.schedule.kind = spec.context.schedule;
    mcfg.schedule.quantum = spec.context.quantum;
    mcfg.schedule.seed = spec.context.scheduleSeed;
    mcfg.sharedHistory = spec.context.shared;
    mcfg.tagBits = spec.context.tagBits;
    mcfg.engine = spec.engine;
    MultiContextReplayer replayer(pred, mcfg);

    // The watchdog stops the replay between schedule slices; unarmed,
    // the replayer is handed no stop predicate at all.
    const CellDeadline deadline(spec.watchdogMillis);
    bool overran = false;
    std::function<bool()> stop;
    if (deadline.armed)
        stop = [&] { return overran = deadline.expired(); };

    if (replaysDecodedTrace(spec)) {
        // Context c records with its own measurement seed, so the
        // decoded lanes stay shareable across cells the usual way.
        std::vector<TraceHandle> handles;
        std::vector<const DecodedTrace *> traces;
        handles.reserve(n);
        traces.reserve(n);
        for (unsigned c = 0; c < n; ++c) {
            Expected<TraceHandle> decoded =
                decodedFor(spec, program, contextSeed(spec, c));
            if (!decoded.ok()) {
                result.status = decoded.status();
                return result;
            }
            handles.push_back(decoded.value());
            traces.push_back(handles.back().get());
        }
        replayer.replayDecoded(traces, spec.maxInsts, stop);
    } else {
        std::vector<std::unique_ptr<Emulator>> owned_emus;
        std::vector<Emulator *> emus;
        for (unsigned c = 0; c < n; ++c) {
            Expected<std::unique_ptr<Emulator>> emu =
                startEmulator(spec, program, contextSeed(spec, c));
            if (!emu.ok()) {
                result.status = emu.status();
                return result;
            }
            emus.push_back(emu.value().get());
            owned_emus.push_back(std::move(emu.value()));
        }
        replayer.replayEmulated(emus, spec.maxInsts, stop);
    }
    if (overran) {
        result.status = deadlineStatus(spec);
        return result;
    }

    result.contexts.resize(n);
    for (unsigned c = 0; c < n; ++c) {
        ContextCellResult &ctx = result.contexts[c];
        ctx.engine = replayer.engine(c).stats();
        ctx.profile = replayer.engine(c).branchProfile();
        ctx.pguBits = replayer.engine(c).pguBitsInserted();
        accumulateEngineStats(result.engine, ctx.engine);
        result.pguBits += ctx.pguBits;
    }
    if (gshare) {
        // The shared predictor's conflict profile counts lookups from
        // every context - cross-context aliasing IS the experiment.
        result.lookups = gshare->lookupCount();
        result.conflicts = gshare->conflictCount();
    }
    result.status = finishMultiCtxOutputs(spec, result);
    return result;
}

SweepRunner::TraceDemand::TraceDemand(SweepRunner &owner,
                                      const std::vector<RunSpec> &specs)
    : runner(owner)
{
    for (const RunSpec &spec : specs)
        for (std::string &key : traceKeysOf(spec))
            ++pending[std::move(key)];
    std::lock_guard<std::mutex> lock(runner.cacheMtx);
    for (const auto &[key, cells] : pending)
        runner.traceDemand[key] += cells;
}

SweepRunner::TraceDemand::~TraceDemand()
{
    std::vector<TraceFuture> freed; // destroyed after the lock drops
    std::lock_guard<std::mutex> lock(runner.cacheMtx);
    while (!pending.empty()) {
        const std::string key = pending.begin()->first;
        runner.dropDemandLocked(*this, key, pending.begin()->second,
                                freed);
    }
}

void
SweepRunner::dropDemandLocked(TraceDemand &demand, const std::string &key,
                              std::size_t cells,
                              std::vector<TraceFuture> &freed)
{
    // A cell the demand does not hold (run() handed cells outside its
    // demand) leaves the counts alone, like a runOne() cell.
    auto mine = demand.pending.find(key);
    if (mine == demand.pending.end())
        return;
    cells = std::min(cells, mine->second);
    if ((mine->second -= cells) == 0)
        demand.pending.erase(mine);
    auto all = traceDemand.find(key);
    if ((all->second -= cells) > 0)
        return;
    traceDemand.erase(all);
    auto it = traces.entries.find(key);
    if (it == traces.entries.end())
        return; // its cells failed before recording
    addScheduleTraffic(it->second, releasedSchedules);
    freed.push_back(std::move(it->second));
    traces.entries.erase(it);
    ++traceReleaseCount;
}

void
SweepRunner::finishCell(TraceDemand &demand,
                        const std::vector<std::string> &keys)
{
    if (keys.empty())
        return;
    // Freeing a trace's lanes and schedules is the costly part; the
    // futures moved out of the cache die after the lock is released.
    std::vector<TraceFuture> freed;
    std::lock_guard<std::mutex> lock(cacheMtx);
    // Only a cell that consumes traces records or replays them, and
    // only finishing cells release them, so sampling here, before the
    // release, sees every peak.
    const auto [lanes, schedules] = liveBytesLocked();
    peakLaneBytes = std::max(peakLaneBytes, lanes);
    peakScheduleBytes = std::max(peakScheduleBytes, schedules);
    for (const std::string &key : keys)
        dropDemandLocked(demand, key, 1, freed);
}

std::pair<std::uint64_t, std::uint64_t>
SweepRunner::liveBytesLocked() const
{
    std::uint64_t lanes = 0, schedules = 0;
    for (const auto &[key, entry] : traces.entries) {
        if (const DecodedTrace *trace = readyTrace(entry)) {
            lanes += trace->laneBytes();
            if (trace->schedCache)
                schedules += trace->schedCache->bytes();
        }
    }
    return {lanes, schedules};
}

std::vector<RunResult>
SweepRunner::run(const std::vector<RunSpec> &specs)
{
    TraceDemand demand(*this, specs);
    return run(specs, demand);
}

std::vector<RunResult>
SweepRunner::run(const std::vector<RunSpec> &specs, TraceDemand &demand)
{
    pabp_assert(&demand.runner == this);
    std::vector<std::vector<std::string>> keys(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        keys[i] = traceKeysOf(specs[i]);

    // A cell's traces are released once it is final, retries included.
    std::vector<RunResult> results(specs.size());
    const auto runCell = [&](std::size_t i) {
        results[i] = executeSpecGuarded(specs[i]);
        finishCell(demand, keys[i]);
    };
    // One worker gains nothing from recording ahead, so the serial
    // path keeps grid order (and holds one trace at a time on a
    // workload-major grid).
    if (jobs <= 1 || specs.size() <= 1) {
        for (std::size_t i = 0; i < specs.size(); ++i)
            runCell(i);
        return results;
    }
    ThreadPool pool(jobs, queueCapacity);
    for (std::size_t i : recordAheadOrder(keys, jobs))
        pool.submit([&runCell, i] { runCell(i); });
    pool.drain();
    return results;
}

RunResult
SweepRunner::runOne(const RunSpec &spec)
{
    return executeSpecGuarded(spec);
}

SweepRunner::CacheStats
SweepRunner::cacheStats() const
{
    std::lock_guard<std::mutex> lock(cacheMtx);
    CacheStats stats;
    stats.compiles = programs.made;
    stats.hits = programs.hits;
    stats.records = traces.made;
    stats.traceHits = traces.hits;
    stats.traceReleases = traceReleaseCount;
    stats.peakLiveTraces = traces.peak;
    stats.characterizes = reports.made;
    stats.reportHits = reports.hits;
    ReplayScheduleCache::Counters schedules = releasedSchedules;
    for (const auto &[key, entry] : traces.entries)
        addScheduleTraffic(entry, schedules);
    stats.scheduleHits = schedules.hits;
    stats.scheduleInserts = schedules.inserts;
    const auto [lanes, schedule_bytes] = liveBytesLocked();
    stats.peakLaneBytes = std::max(peakLaneBytes, lanes);
    stats.peakScheduleBytes = std::max(peakScheduleBytes, schedule_bytes);
    return stats;
}

std::size_t
reportFailures(const std::vector<RunSpec> &specs,
               const std::vector<RunResult> &results,
               std::ostream &err)
{
    std::size_t failed = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].status.ok())
            continue;
        ++failed;
        const std::string &wl =
            i < specs.size() ? specs[i].workload : std::string("?");
        const std::string &pred = i < specs.size()
            ? specs[i].predictor
            : std::string("?");
        err << "sweep cell #" << i << " (" << wl << ", " << pred
            << ") failed: " << results[i].status.toString() << "\n";
    }
    return failed;
}

} // namespace pabp::bench
