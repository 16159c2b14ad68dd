#include "sweep.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
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
#include "util/metrics.hh"
#include "util/options.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"

namespace pabp::bench {

namespace {

/** FNV-1a accumulator with typed feeders so the fingerprint is a
 *  stable function of field VALUES, not of struct layout. */
class Fnv
{
  public:
    void
    bytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < len; ++i) {
            hash ^= p[i];
            hash *= 0x100000001b3ull;
        }
    }

    void
    u64(std::uint64_t v)
    {
        bytes(&v, sizeof(v));
    }

    void u32(std::uint32_t v) { u64(v); }
    void b(bool v) { u64(v ? 1 : 0); }
    void d(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    std::uint64_t value() const { return hash; }

  private:
    std::uint64_t hash = 0xcbf29ce484222325ull;
};

std::uint64_t
resolvedCompileSeed(const RunSpec &spec)
{
    return spec.compileSeed.value_or(spec.seed);
}

void
hashCompileOptions(Fnv &fnv, const CompileOptions &copts,
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
hashEngineConfig(Fnv &fnv, const EngineConfig &e)
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

/** Compiled-program cache key: everything that determines the
 *  program bytes (workload id, compile seed, compile options). */
std::string
programCacheKey(const RunSpec &spec)
{
    Fnv copt_hash;
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
 *  batched engine loop. Checkpointing or resuming cells step their own
 *  emulator: mid-run checkpoints serialise emulator state the decoded
 *  trace does not carry. */
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
    if (skippedByShard(spec) || spec.mode == RunMode::Observe)
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
 *  Unarmed (0) deadlines never expire and leave the engine loops
 *  un-chunked. */
class CellDeadline
{
  public:
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

    /** Budget slice between checks: the heartbeat grain when armed,
     *  the whole remaining budget when not. */
    std::uint64_t
    slice(std::uint64_t heartbeat, std::uint64_t remaining) const
    {
        if (!armed || heartbeat == 0)
            return remaining;
        return std::min(heartbeat, remaining);
    }

    /** NOTE: deliberately free of wall-clock-dependent detail (how
     *  many instructions ran varies run to run) - the text lands in
     *  quarantine journal records, whose bytes must converge across
     *  interrupted and clean campaigns (bench/sweep_service.hh). */
    Status
    status(const RunSpec &spec, std::uint64_t) const
    {
        return Status(StatusCode::DeadlineExceeded,
                      "cell '" + spec.workload + "' overran its " +
                          std::to_string(spec.watchdogMillis) +
                          " ms watchdog deadline");
    }

  private:
    bool armed;
    std::chrono::steady_clock::time_point at;
};

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
    ex.setText("spec.mode",
               spec.mode == RunMode::Timed
                   ? "timed"
                   : spec.mode == RunMode::Observe ? "observe"
                                                   : "trace");
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
                 PredictionEngine *engine)
{
    MetricsExporter ex;
    exportSpecKeys(ex, spec);

    StatGroup group;
    if (engine) {
        engine->registerStats(group);
        ex.addGroup(group);
        ex.setReal("engine.mpki", engine->stats().mpki());
        engine->branchProfile().exportTo(ex);
        if (result.predictability) {
            // RunSpec::characterize: the workload-character metrics
            // plus the H2P cross-reference against THIS cell's own
            // profile - "are the hard branches the low-predictability
            // ones?" answered per cell (default cutoffs never fail
            // classifyH2p).
            exportPredictability(ex, *result.predictability);
            Expected<H2pClassification> cls =
                classifyH2p(engine->branchProfile());
            if (cls.ok())
                aggregatePredictabilityByTier(ex, cls.value(),
                                              *result.predictability);
        }
    } else {
        // Observe-mode cell: no engine ran, only the instruction
        // budget actually executed is meaningful.
        ex.setInt("engine.insts", result.engine.insts);
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
                  PredictionEngine *engine)
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
    Fnv fnv;
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

Expected<SweepRunner::ProgramHandle>
SweepRunner::compiledFor(const RunSpec &spec)
{
    std::string key = programCacheKey(spec);

    std::promise<ProgramHandle> promise;
    std::shared_future<ProgramHandle> future;
    bool compile_here = false;
    {
        std::lock_guard<std::mutex> lock(cacheMtx);
        auto it = cache.find(key);
        if (it == cache.end()) {
            future = promise.get_future().share();
            cache.emplace(key, future);
            compile_here = true;
            ++stats.compiles;
        } else {
            future = it->second;
            ++stats.hits;
        }
    }
    if (!compile_here)
        return future.get();

    // First requester of this key compiles; everyone else blocks on
    // the shared future and then reads the same immutable program.
    Expected<Workload> wl =
        materialiseWorkload(spec, resolvedCompileSeed(spec));
    if (!wl.ok()) {
        // Unblock any waiters with an empty handle; they re-derive
        // the same error from their own spec.
        promise.set_value(nullptr);
        return wl.status();
    }
    CompileOptions copts = spec.compile;
    copts.ifConvert = spec.ifConvert;
    ProgramHandle handle = std::make_shared<const CompiledProgram>(
        compileWorkload(wl.value(), copts));
    promise.set_value(handle);
    return handle;
}

Expected<SweepRunner::TraceHandle>
SweepRunner::decodedFor(const RunSpec &spec,
                        const ProgramHandle &program,
                        std::uint64_t seed)
{
    const std::string key = traceCacheKey(spec, seed);

    std::promise<TraceHandle> promise;
    TraceFuture future;
    bool record_here = false;
    {
        std::lock_guard<std::mutex> lock(cacheMtx);
        auto it = traceCache.find(key);
        if (it == traceCache.end()) {
            future = promise.get_future().share();
            traceCache.emplace(key, future);
            record_here = true;
            ++stats.records;
            stats.peakLiveTraces =
                std::max<std::uint64_t>(stats.peakLiveTraces,
                                        traceCache.size());
        } else {
            future = it->second;
            ++stats.traceHits;
        }
    }
    if (!record_here) {
        TraceHandle handle = future.get();
        if (!handle) {
            // The recording peer hit a workload error; re-derive it
            // from this spec's own view.
            Expected<Workload> wl = materialiseWorkload(spec, seed);
            return wl.ok() ? Status(StatusCode::NotFound,
                                    "trace recording failed for " +
                                        spec.workload)
                           : wl.status();
        }
        return handle;
    }

    Expected<Workload> wl = materialiseWorkload(spec, seed);
    if (!wl.ok()) {
        promise.set_value(nullptr);
        return wl.status();
    }
    Emulator emu(program->prog);
    if (wl.value().init)
        wl.value().init(emu.state());
    TraceHandle handle =
        std::make_shared<const DecodedTrace>(recordTrace(emu, spec.maxInsts));
    promise.set_value(handle);
    return handle;
}

Expected<SweepRunner::ReportHandle>
SweepRunner::characterizedFor(const RunSpec &spec,
                              const ProgramHandle &program)
{
    // Same sharing discipline as the program and trace caches: the
    // report is a pure function of (program, measurement seed,
    // budget), so the first requester computes it and every other
    // cell of the key reads the same immutable object.
    std::string key = programCacheKey(spec) + ":" +
        std::to_string(spec.seed) + ":" +
        std::to_string(spec.maxInsts) + ":predictability";

    std::promise<ReportHandle> promise;
    std::shared_future<ReportHandle> future;
    bool compute_here = false;
    {
        std::lock_guard<std::mutex> lock(cacheMtx);
        auto it = predCache.find(key);
        if (it == predCache.end()) {
            future = promise.get_future().share();
            predCache.emplace(key, future);
            compute_here = true;
        } else {
            future = it->second;
        }
    }
    if (!compute_here) {
        ReportHandle handle = future.get();
        if (!handle)
            return Status(StatusCode::NotFound,
                          "characterization failed for " +
                              spec.workload);
        return handle;
    }

    Expected<TraceHandle> decoded =
        decodedFor(spec, program, spec.seed);
    if (!decoded.ok()) {
        promise.set_value(nullptr);
        return decoded.status();
    }
    ReportHandle handle =
        std::make_shared<const PredictabilityReport>(characterizeTrace(
            *decoded.value(), PredictabilityConfig{}, spec.maxInsts));
    promise.set_value(handle);
    return handle;
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
        result.status =
            Status(StatusCode::Corrupt,
                   std::string("unhandled exception in sweep cell: ") +
                       e.what());
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
    if (!program.value()) {
        // A waiter whose compiling peer hit a workload error: report
        // it from this spec's own view.
        Expected<Workload> wl =
            materialiseWorkload(spec, resolvedCompileSeed(spec));
        result.status = wl.ok()
            ? Status(StatusCode::NotFound,
                     "workload compilation failed for " + spec.workload)
            : wl.status();
        return result;
    }
    const CompiledProgram &cp = *program.value();
    result.numRegions = cp.info.numRegions;
    result.numRegionBranches = cp.info.numRegionBranches;

    // The measured run's memory image comes from the measurement
    // seed (== compile seed unless a cross-input spec says otherwise).
    Expected<Workload> init_wl = materialiseWorkload(spec, spec.seed);
    if (!init_wl.ok()) {
        result.status = init_wl.status();
        return result;
    }
    const StateInit &init = init_wl.value().init;

    // Characterize before the measured run: the report comes off the
    // shared decoded trace, so fast-replay, reference and Timed cells
    // of the same (workload, seed, budget) all report the same bytes.
    if (spec.characterize) {
        if (spec.mode == RunMode::Observe ||
            spec.context.contexts > 1) {
            result.status = Status(
                StatusCode::InvalidArgument,
                "characterize requires a single-context Trace or "
                "Timed cell");
            return result;
        }
        Expected<ReportHandle> rep =
            characterizedFor(spec, program.value());
        if (!rep.ok()) {
            result.status = rep.status();
            return result;
        }
        result.predictability = rep.value();
    }

    if (spec.mode == RunMode::Observe) {
        if (!spec.observe) {
            result.status = Status(StatusCode::InvalidArgument,
                                   "Observe spec has no observer");
            return result;
        }
        Emulator emu(cp.prog);
        if (init)
            init(emu.state());
        DynInst dyn;
        std::uint64_t executed = 0;
        CellDeadline deadline(spec.watchdogMillis);
        std::uint64_t until_check =
            deadline.slice(spec.heartbeatInsts, spec.maxInsts);
        while (executed < spec.maxInsts && emu.step(dyn)) {
            spec.observe(dyn);
            ++executed;
            if (--until_check == 0) {
                if (deadline.expired()) {
                    result.status = deadline.status(spec, executed);
                    return result;
                }
                until_check = deadline.slice(
                    spec.heartbeatInsts, spec.maxInsts - executed);
            }
        }
        result.engine.insts = executed;
        result.status = finishCellOutputs(spec, result, nullptr);
        return result;
    }

    // Build the predictor; a bad spec fails this cell with a typed
    // error instead of aborting the whole sweep from a worker.
    PredictorPtr owned;
    GSharePredictor *gshare = nullptr;
    if (spec.profileConflicts) {
        if (spec.predictor != "gshare") {
            result.status =
                Status(StatusCode::InvalidArgument,
                       "conflict profiling requires the gshare "
                       "predictor, got: " + spec.predictor);
            return result;
        }
        auto g = std::make_unique<GSharePredictor>(spec.sizeLog2);
        g->enableConflictProfiling();
        gshare = g.get();
        owned = std::move(g);
    } else {
        Expected<PredictorPtr> made =
            tryMakePredictor(spec.predictor, spec.sizeLog2);
        if (!made.ok()) {
            result.status = made.status();
            return result;
        }
        owned = std::move(made.value());
    }

    if (spec.context.contexts > 1) {
        // Multi-context cells interleave N independent instruction
        // streams through the ONE predictor built above; they are
        // replay-only and cannot serialise mid-run (the interleaved
        // emulator/engine set has no checkpoint format).
        if (spec.mode != RunMode::Timed && spec.checkpointEvery == 0 &&
            spec.resumePath.empty())
            return executeMultiCtx(spec, program.value(), *owned,
                                   gshare, std::move(result));
        result.status = Status(
            StatusCode::InvalidArgument,
            spec.mode == RunMode::Timed
                ? "multi-context cells are Trace-mode only"
                : "multi-context cells cannot checkpoint or resume");
        return result;
    }

    if (spec.mode == RunMode::Timed) {
        // The pipeline charges target penalties from the engine's
        // BTB/RAS outcomes, so every Timed cell arms target
        // modelling. Armed on a local copy AFTER fingerprinting:
        // unconditional for the mode, it adds no information.
        EngineConfig ecfg = spec.engine;
        ecfg.modelTargets = true;
        PredictionEngine engine(*owned, ecfg);
        Pipeline pipe(engine, spec.pipeline);
        Emulator emu(cp.prog);
        if (init)
            init(emu.state());
        result.pipe = pipe.run(emu, spec.maxInsts);
        result.engine = engine.stats();
        result.pguBits = engine.pguBitsInserted();
        result.profile = engine.branchProfile();
        result.status = finishCellOutputs(spec, result, &engine);
        return result;
    }

    // Trace mode, fast path (docs/PERF.md): replay the shared
    // pre-decoded trace through the batched engine loop. Results are
    // bit-identical to the reference loop below - the equivalence
    // tests pin stats, profile and metrics bytes - so only cells
    // that must serialise emulator state mid-run (checkpointing or
    // resuming) are excluded.
    if (replaysDecodedTrace(spec)) {
        Expected<TraceHandle> decoded =
            decodedFor(spec, program.value(), contextSeed(spec, 0));
        if (!decoded.ok()) {
            result.status = decoded.status();
            return result;
        }
        PredictionEngine engine(*owned, spec.engine);
        // Heartbeat-sliced batches: processBatch is exactly
        // resumable at any event index, so chunking is unobservable
        // in the results and only exists to let the watchdog check
        // its deadline between slices.
        const DecodedTrace &trace = *decoded.value();
        CellDeadline deadline(spec.watchdogMillis);
        std::uint64_t processed = 0;
        while (processed < spec.maxInsts) {
            const std::uint64_t chunk = deadline.slice(
                spec.heartbeatInsts, spec.maxInsts - processed);
            const std::uint64_t next =
                engine.processBatch(trace, processed, chunk);
            if (next == processed)
                break; // trace exhausted before the budget
            processed = next;
            if (deadline.expired()) {
                result.status = deadline.status(spec, processed);
                return result;
            }
        }
        result.engine = engine.stats();
        result.pguBits = engine.pguBitsInserted();
        result.profile = engine.branchProfile();
        if (gshare) {
            result.lookups = gshare->lookupCount();
            result.conflicts = gshare->conflictCount();
        }
        result.status = finishCellOutputs(spec, result, &engine);
        return result;
    }

    // Trace mode, with checkpoint/resume. Resume is attempted at
    // most once, and the mismatch fallback is a LOOP that rebuilds
    // only the cheap per-run state (predictor, engine, emulator) -
    // the compiled program is reused, never recompiled.
    const std::uint64_t fp = specFingerprint(spec);
    const std::string ckpt_file = spec.checkpointEvery
        ? derivedCheckpointPath(spec.checkpointPath, fp)
        : std::string();
    const std::string resume_file = spec.resumePath.empty()
        ? std::string()
        : derivedCheckpointPath(spec.resumePath, fp);

    std::optional<PredictionEngine> engine;
    std::optional<Emulator> emu;
    std::uint64_t done = 0;
    for (bool try_resume = !resume_file.empty();;) {
        // (Re)build all mutable run state from scratch; a failed
        // load may have scribbled on the previous instances.
        engine.emplace(*owned, spec.engine);
        emu.emplace(cp.prog);
        if (init)
            init(emu->state());
        done = 0;
        if (!try_resume)
            break;
        CheckpointRefs refs{&*emu, &*engine, &done};
        Status status = loadCheckpoint(resume_file, refs);
        if (status.ok()) {
            result.resumed = true;
            break;
        }
        if (resumeFallsBackToFresh(status)) {
            try_resume = false;
            result.resumeFallback = true;
            noteResumeFallback(spec, resume_file, status);
            // The predictor carries loaded state too; rebuild it the
            // same way the fresh path did.
            if (gshare) {
                auto g = std::make_unique<GSharePredictor>(
                    spec.sizeLog2);
                g->enableConflictProfiling();
                gshare = g.get();
                owned = std::move(g);
            } else {
                owned = std::move(
                    tryMakePredictor(spec.predictor, spec.sizeLog2)
                        .value());
            }
            continue;
        }
        result.status = status; // damaged artifact: fail the cell
        return result;
    }

    CellDeadline deadline(spec.watchdogMillis);
    if (spec.checkpointEvery == 0) {
        const std::uint64_t budget =
            spec.maxInsts - std::min(done, spec.maxInsts);
        std::uint64_t ran_total = 0;
        while (ran_total < budget) {
            const std::uint64_t chunk =
                deadline.slice(spec.heartbeatInsts, budget - ran_total);
            const std::uint64_t ran = runTrace(*emu, *engine, chunk);
            ran_total += ran;
            if (ran < chunk)
                break; // workload halted before the budget
            if (deadline.expired()) {
                result.status = deadline.status(spec, done + ran_total);
                return result;
            }
        }
    } else {
        while (done < spec.maxInsts) {
            std::uint64_t chunk =
                std::min(spec.checkpointEvery, spec.maxInsts - done);
            std::uint64_t ran = runTrace(*emu, *engine, chunk);
            done += ran;
            CheckpointRefs refs{&*emu, &*engine, &done};
            Status status = saveCheckpoint(ckpt_file, refs);
            if (!status.ok()) {
                result.status = status;
                return result;
            }
            if (ran < chunk)
                break; // workload halted before the budget
            if (deadline.expired()) {
                result.status = deadline.status(spec, done);
                return result;
            }
        }
    }
    result.engine = engine->stats();
    result.pguBits = engine->pguBitsInserted();
    result.profile = engine->branchProfile();
    if (gshare) {
        result.lookups = gshare->lookupCount();
        result.conflicts = gshare->conflictCount();
    }
    result.status = finishCellOutputs(spec, result, &*engine);
    return result;
}

RunResult
SweepRunner::executeMultiCtx(const RunSpec &spec,
                             const ProgramHandle &program,
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
        replayer.replayDecoded(traces, spec.maxInsts);
    } else {
        std::vector<std::unique_ptr<Emulator>> owned_emus;
        std::vector<Emulator *> emus;
        for (unsigned c = 0; c < n; ++c) {
            Expected<Workload> wl =
                materialiseWorkload(spec, contextSeed(spec, c));
            if (!wl.ok()) {
                result.status = wl.status();
                return result;
            }
            owned_emus.push_back(
                std::make_unique<Emulator>(program->prog));
            if (wl.value().init)
                wl.value().init(owned_emus.back()->state());
            emus.push_back(owned_emus.back().get());
        }
        replayer.replayEmulated(emus, spec.maxInsts);
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
    auto it = traceCache.find(key);
    if (it == traceCache.end())
        return; // its cells failed before recording
    freed.push_back(std::move(it->second));
    traceCache.erase(it);
    ++stats.traceReleases;
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
    for (const std::string &key : keys)
        dropDemandLocked(demand, key, 1, freed);
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
