/**
 * @file
 * Deterministic parallel sweep runner for the experiment binaries.
 *
 * Every experiment is a grid of independent simulations: (workload,
 * predictor, size, engine config, compile config) cells whose results
 * are assembled into tables. SweepRunner executes such a grid across
 * a fixed-size worker pool and hands the results back IN SUBMISSION
 * ORDER, so every printed table and --csv file is byte-identical
 * regardless of thread count (--jobs 1 reproduces the old serial
 * behaviour bit for bit).
 *
 * Determinism contract (see docs/PARALLEL.md):
 *  - results are collected by submission index, never completion order;
 *  - every piece of mutable simulation state (Emulator, predictor,
 *    PredictionEngine, Pipeline, workload init closures, Rng streams)
 *    is constructed per run and touched by exactly one worker;
 *  - compiled programs, decoded traces (with their replay schedules)
 *    and predictability reports are shared across runs strictly
 *    read-only, through one single-flight memo keyed by what
 *    determines them: the first cell of a key computes it and every
 *    cell of the key gets that one result - a sweep that varies only
 *    the predictor side compiles each workload once and records each
 *    trace once;
 *  - run() dispatches the first cell of each trace ahead of its
 *    repeats and frees each trace when its last cell finishes;
 *    neither changes which cell writes which result slot.
 *
 * Failure contract: a cell that cannot run (unknown predictor or
 * workload, damaged checkpoint, leaked exception) fails THAT CELL
 * with a typed pabp::Status in its RunResult; the rest of the grid
 * completes. A failed compile, recording or characterization is
 * memoized like a success, exceptions included: every cell of its key
 * reports the same status text, whichever cell computed it and at any
 * --jobs. Nothing in the sweep layer calls pabp_fatal.
 */

#ifndef PABP_BENCH_SWEEP_HH
#define PABP_BENCH_SWEEP_HH

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "compiler/compile.hh"
#include "core/engine.hh"
#include "core/predictability.hh"
#include "pipeline/pipeline.hh"
#include "sim/context_schedule.hh"
#include "sim/replay_schedule.hh"
#include "util/status.hh"
#include "workloads/workload.hh"

namespace pabp::bench {

/** Builds a Workload from an input seed (memory image + profile). */
using WorkloadFactory = std::function<Workload(std::uint64_t seed)>;

/**
 * Deterministic fingerprint partitioning of a grid: cell @c fp
 * belongs to shard `shardOf(fp, count)`. Because the assignment is a
 * pure function of the spec fingerprint, any machine given the same
 * grid and the same `i/N` computes the same cell set - no coordinator
 * handshake, no shared state (docs/PARALLEL.md).
 */
struct ShardSpec
{
    std::uint32_t index = 0;
    std::uint32_t count = 1;

    bool operator==(const ShardSpec &) const = default;
};

/**
 * Parse a shard spec 'i/N'. Both parts must be decimal digits only -
 * no sign, blanks or suffix - with 0 < N <= UINT32_MAX and i < N;
 * nullopt for any other text. The one parser behind every --shard
 * option.
 */
std::optional<ShardSpec> parseShardSpec(std::string_view text);

/** Which shard owns the cell with fingerprint @p fingerprint. */
constexpr std::uint32_t
shardOf(std::uint64_t fingerprint, std::uint32_t count)
{
    return count > 1
        ? static_cast<std::uint32_t>(fingerprint % count)
        : 0;
}

/** Failure classes worth a bounded retry: transient environment
 *  errors (a flaky filesystem under the metrics/checkpoint writes).
 *  Everything else - bad specs, damaged artifacts, watchdog
 *  deadlines - is deterministic and goes straight to quarantine. */
constexpr bool
retryableStatus(StatusCode code)
{
    return code == StatusCode::IoError;
}

/** What kind of simulation a cell runs. */
enum class RunMode : std::uint8_t
{
    Trace, ///< prediction engine over the dynamic trace (EngineStats)
    Timed, ///< cycle-level pipeline run (PipelineStats + EngineStats)
};

/**
 * Multi-context interleaving for one cell (core/multictx.hh, bench
 * E21). With contexts == 1 (the default) the cell runs the ordinary
 * single-stream loops and none of the other fields matter. With
 * contexts > 1 the cell replays N independent trace contexts -
 * context c's input seed is spec.seed + c over the same compiled
 * program - through ONE shared predictor. Trace mode only, and
 * incompatible with checkpoint/resume (the cell fails with
 * InvalidArgument). All fields are behaviour-defining and fold into
 * specFingerprint() when contexts > 1.
 */
struct ContextSpec
{
    unsigned contexts = 1;
    ScheduleKind schedule = ScheduleKind::RoundRobin;
    std::uint64_t quantum = 1024;   ///< slice events / burst midpoint
    std::uint64_t scheduleSeed = 1; ///< bursty draw seed
    /** Share global history (and BTB/RAS when modelled) across
     *  contexts; false = private per-context history, swapped around
     *  every slice. Tables always shared. */
    bool shared = true;
    /** Context-id bits mixed into table indices; 0 = pure sharing. */
    unsigned tagBits = 0;
};

/** One context's share of a multi-context cell's results. */
struct ContextCellResult
{
    EngineStats engine;
    BranchProfile profile;
    std::uint64_t pguBits = 0;
};

/** Instructions between watchdog checks (RunSpec::watchdogMillis):
 *  short enough that a reaped cell overruns its deadline by a few
 *  milliseconds, long enough that the checks cost nothing. */
inline constexpr std::uint64_t heartbeatInsts = 1u << 16;

/** One experiment cell. */
struct RunSpec
{
    /**
     * Workload identity. With no factory, @p workload names a suite
     * member (workloads/workload.hh). With a factory, @p workload is
     * the cache/display id and MUST uniquely identify the program
     * the factory builds (e.g. "bias-0.70", not just "bias"): the
     * compiled-program cache trusts it.
     */
    std::string workload;
    WorkloadFactory factory;

    /** Measurement input seed (memory image for the measured run). */
    std::uint64_t seed = 42;
    /** Profiling/compilation input seed; defaults to @p seed. A
     *  different value gives SPEC-style train/ref cross-input runs. */
    std::optional<std::uint64_t> compileSeed;

    RunMode mode = RunMode::Trace;
    /** Timed mode only; folds into specFingerprint() when it differs
     *  from PipelineConfig{}. */
    PipelineConfig pipeline;

    std::string predictor = "gshare";
    unsigned sizeLog2 = 12;
    bool ifConvert = true;
    EngineConfig engine;
    CompileOptions compile;
    std::uint64_t maxInsts = 1'500'000;

    /** Multi-context interleaving; contexts == 1 = ordinary cell. */
    ContextSpec context;

    /**
     * Checkpoint/resume knobs (core/checkpoint.hh), Trace mode only.
     * Both paths are BASE names: the artifact actually written and
     * read is derivedCheckpointPath(base, specFingerprint(spec)) -
     * e.g. "pabp-<fp>.ckpt" - so every cell of a sweep checkpoints
     * to its own file and resumes from its own file. Resume is
     * best-effort per cell: a missing file or one whose fingerprint
     * belongs to another spec falls back to a fresh run; a damaged
     * file fails the cell with a typed error.
     */
    std::uint64_t checkpointEvery = 0; ///< instructions; 0 = off
    std::string checkpointPath = "pabp.ckpt";
    std::string resumePath;

    /** Count gshare pattern-table conflicts (predictor must be
     *  "gshare"); fills RunResult::lookups/conflicts. */
    bool profileConflicts = false;

    /**
     * Trace-mode execution strategy (docs/PERF.md): when true the
     * cell replays a shared pre-decoded trace through the batched
     * engine loop (PredictionEngine::processBatch) instead of
     * stepping its own emulator per instruction. Results - stats,
     * profile, exported metrics bytes - are identical either way
     * (pinned by tests/test_replay_fast.cc); only throughput
     * changes, so like the checkpoint/metrics knobs this is NOT part
     * of specFingerprint(). Checkpointing or resuming cells drive
     * their own emulator either way, since mid-run checkpoints
     * serialise emulator state the decoded trace does not carry:
     * when true in windows recorded and decided by the batch loop
     * (LiveWindow, core/engine.hh), when false through the reference
     * per-instruction loop (runTrace). Their checkpoint files are
     * byte-identical either way.
     */
    bool fastReplay = true;

    /**
     * When non-empty, every Trace/Timed cell exports its full metric
     * set (util/metrics.hh) to
     * "<metricsDir>/pabp-metrics-<16 hex fingerprint>.json" after the
     * run. The directory is created on demand; a cell that cannot
     * write its file FAILS with IoError (a sweep that silently lost
     * its measurements would be worse than one that failed loudly).
     * Purely observational - not part of specFingerprint(), exactly
     * like the checkpoint paths.
     */
    std::string metricsDir;

    /**
     * Characterize the cell's conditional-branch stream with the
     * predictability analyzer (core/predictability.hh): the report
     * lands in RunResult::predictability and - when the cell exports
     * metrics - as "predictability.*" names in its document, with
     * the per-H2P-tier cross-reference against the cell's own
     * profile. The characterization reads the same shared decoded
     * trace the fast-replay path uses, over the same budget, so
     * fast and reference cells report byte-identical numbers.
     * Purely observational - NOT part of specFingerprint(), exactly
     * like metricsDir. Trace and Timed single-context cells only
     * (a multi-context cell has no single stream to characterize).
     */
    bool characterize = false;

    /**
     * @name Robust-execution knobs (docs/ROBUSTNESS.md)
     * Like the checkpoint/metrics knobs these are execution strategy,
     * not behaviour, and are NOT part of specFingerprint().
     * @{
     */

    /** Shard membership: when count > 1, a cell whose fingerprint
     *  maps to another shard is SKIPPED (RunResult::skipped, ok
     *  status, zero counters) so grids keep their index layout. */
    ShardSpec shard;

    /**
     * Per-attempt wall-clock watchdog, milliseconds; 0 = off. Armed,
     * every cell advances in slices of at most @ref heartbeatInsts
     * instructions (events across all contexts of a multi-context
     * cell) and checks the deadline between slices, so a cell stuck
     * in a pathological configuration (a workload that never halts
     * under an enormous budget) is reaped with
     * StatusCode::DeadlineExceeded instead of stalling its worker
     * forever. Slicing is unobservable in the results: the engine,
     * reference and pipeline loops and the multi-context replayer are
     * exactly resumable. One stage
     * is outside the deadline: recording the shared trace a
     * fast-replay cell consumes runs to the instruction budget in
     * one go.
     */
    std::uint32_t watchdogMillis = 0;

    /** Total tries for a cell whose failure is retryableStatus();
     *  1 = no retry. Each attempt rebuilds all per-run state. */
    unsigned maxAttempts = 1;
    /** Deterministic backoff before attempt k+1:
     *  retryBackoffMillis << (k-1) milliseconds. */
    std::uint32_t retryBackoffMillis = 0;

    /** Test-only fault injection: called at the start of every
     *  attempt; a non-Ok return fails that attempt with exactly that
     *  status (how the retry/quarantine tests simulate transient
     *  environment failures). */
    std::function<Status(unsigned attempt)> faultHook;

    /** Capture the cell's full metrics document (the same byte-stable
     *  JSON --metrics-dir would write) into RunResult::metricsJson,
     *  without touching the filesystem - the sweep service journals
     *  these bytes instead of scattering per-cell files. */
    bool captureMetrics = false;
    /** @} */
};

/** What one cell produced. */
struct RunResult
{
    Status status; ///< non-Ok: the cell failed, counters are zero
    EngineStats engine;
    PipelineStats pipe;       ///< Timed mode only
    BranchProfile profile;    ///< per-static-branch attribution
    std::uint64_t pguBits = 0;
    std::uint64_t lookups = 0;   ///< profileConflicts only
    std::uint64_t conflicts = 0; ///< profileConflicts only
    std::uint64_t numRegions = 0;        ///< static regions compiled
    std::uint64_t numRegionBranches = 0; ///< static side exits
    bool resumed = false; ///< continued from a matching checkpoint
    /** Resume was requested but fell back to a cold start (missing or
     *  configuration-mismatched checkpoint). Counted per runner in
     *  SweepRunner::resumeFallbacks() and warned about - a silently
     *  cold-started cell must be distinguishable from a fresh run. */
    bool resumeFallback = false;
    /** Cell belongs to another shard (RunSpec::shard) and did not
     *  execute; status is Ok and every counter is zero. */
    bool skipped = false;
    /** Attempts consumed (1 = first try succeeded or failed
     *  terminally; >1 = retries happened). */
    unsigned attempts = 1;
    /** RunSpec::captureMetrics output: the cell's metrics document,
     *  byte-identical to what --metrics-dir would have written. */
    std::string metricsJson;
    /** RunSpec::characterize output: the predictability report of
     *  the cell's branch stream (shared - several cells over the
     *  same workload reference one immutable report). */
    std::shared_ptr<const PredictabilityReport> predictability;
    /** Multi-context cells only: per-context stats/profile/PGU bits,
     *  indexed by context id. The top-level engine/pguBits fields
     *  hold the across-context aggregate; the top-level profile stays
     *  empty (per-PC attribution only makes sense per context - the
     *  same static PC is a different dynamic branch stream in each). */
    std::vector<ContextCellResult> contexts;
};

/**
 * 64-bit FNV-1a fingerprint over every behaviour-defining field of a
 * spec (workload id, seeds, mode, predictor, engine + compile
 * configuration, budget, a Timed cell's non-default pipeline) - NOT
 * over the checkpoint knobs themselves.
 * Two specs that would simulate differently get different prints;
 * the same spec resumed later reproduces its print exactly.
 */
std::uint64_t specFingerprint(const RunSpec &spec);

/** "results/pabp.ckpt" + 0xfp -> "results/pabp-<16 hex>.ckpt". */
std::string derivedCheckpointPath(const std::string &base,
                                  std::uint64_t fingerprint);

/** "<dir>/pabp-metrics-<16 hex fingerprint>.json" - where the cell
 *  with this fingerprint exports its metrics (RunSpec::metricsDir). */
std::string metricsFilePath(const std::string &dir,
                            std::uint64_t fingerprint);

/** Executes RunSpec grids over a worker pool. */
class SweepRunner
{
  public:
    struct Config
    {
        /** Worker threads; 0 = hardware concurrency, 1 = run the
         *  grid inline on the calling thread (strictly serial). */
        unsigned jobs = 0;
        /** Bounded work-queue depth; 0 = 2x workers. */
        std::size_t queueCapacity = 0;
    };

    struct CacheStats
    {
        std::uint64_t compiles = 0; ///< distinct programs built
        std::uint64_t hits = 0;     ///< runs served a cached program
        std::uint64_t records = 0;  ///< traces recorded
        std::uint64_t traceHits = 0; ///< runs served a cached trace
        /** Traces freed because the last cell of a run() (or of a
         *  TraceDemand) that consumes them finished. */
        std::uint64_t traceReleases = 0;
        /** High-water mark of traces cached at once. */
        std::uint64_t peakLiveTraces = 0;
        /** Predictability reports computed (RunSpec::characterize). */
        std::uint64_t characterizes = 0;
        std::uint64_t reportHits = 0; ///< runs served a cached report
        /** Replay-schedule traffic (ReplayScheduleCache::counters())
         *  summed over the recorded traces: a released trace's when
         *  it is freed, a cached one's at cacheStats() time. */
        std::uint64_t scheduleHits = 0;
        std::uint64_t scheduleInserts = 0;
        /** High-water marks of what the cached traces hold: the bytes
         *  of their lanes (DecodedTrace::laneBytes()) and of the
         *  replay schedules cached in them (ReplayScheduleCache::
         *  bytes()), taken as each cell finishes and at cacheStats()
         *  time. */
        std::uint64_t peakLaneBytes = 0;
        std::uint64_t peakScheduleBytes = 0;
    };

    /**
     * The trace demand of a cell list (docs/PARALLEL.md, "Dispatch
     * order and trace lifetime"): how many of its cells consume each
     * trace key. A trace stays cached until the last cell of every
     * live demand that names it has finished, then its decoded lanes
     * - and the replay schedules cached inside them - are freed.
     *
     * run(specs) registers the demand of @p specs itself. A caller
     * that feeds one cell list through several run() calls (the
     * SweepService batches) registers the whole list once and passes
     * it to each call, so a trace whose cells straddle two batches is
     * recorded once. Destruction drops the demand of cells that never
     * ran (a stopped campaign), freeing the traces only they held.
     */
    class TraceDemand
    {
      public:
        TraceDemand(SweepRunner &runner,
                    const std::vector<RunSpec> &specs);
        ~TraceDemand();
        TraceDemand(const TraceDemand &) = delete;
        TraceDemand &operator=(const TraceDemand &) = delete;

      private:
        friend class SweepRunner;
        SweepRunner &runner;
        /** Cells of this demand not yet finished, per trace key
         *  (guarded by the runner's cacheMtx). */
        std::map<std::string, std::size_t> pending;
    };

    SweepRunner() : SweepRunner(Config{}) {}
    explicit SweepRunner(Config config);

    /** Run every spec; results match @p specs index for index. */
    std::vector<RunResult> run(const std::vector<RunSpec> &specs);
    /** run() for cells whose trace demand @p demand (made on this
     *  runner) already holds. */
    std::vector<RunResult> run(const std::vector<RunSpec> &specs,
                               TraceDemand &demand);

    /** Execute one spec on the calling thread (cache still applies).
     *  Its traces are not demand-counted: they stay cached. */
    RunResult runOne(const RunSpec &spec);

    CacheStats cacheStats() const;
    unsigned effectiveJobs() const { return jobs; }

    /** Cells that requested a resume but cold-started instead (the
     *  "sweep.resume_fallbacks" stat; see RunResult::resumeFallback). */
    std::uint64_t resumeFallbacks() const;

  private:
    using ProgramHandle = std::shared_ptr<const CompiledProgram>;
    using TraceHandle = std::shared_ptr<const DecodedTrace>;
    using ReportHandle = std::shared_ptr<const PredictabilityReport>;

    /** The entries and counts of one single-flight memo (memoized()),
     *  guarded by cacheMtx. An entry is the one result of its key:
     *  a non-null handle or the exact failure. */
    template <class T>
    struct Memo
    {
        using Result = Expected<std::shared_ptr<const T>>;
        std::map<std::string, std::shared_future<Result>> entries;
        std::uint64_t made = 0; ///< keys whose make() ran
        std::uint64_t hits = 0; ///< calls served an existing entry
        std::uint64_t peak = 0; ///< most entries held at once
    };
    using TraceFuture = std::shared_future<Memo<DecodedTrace>::Result>;

    /** Single flight (bench/sweep.cc): the first caller of @p key runs
     *  @p make, every other caller blocks on the same future, and all
     *  of them - later cells of the key too - get that one result. An
     *  exception out of make() is stored as the Corrupt status a cell
     *  reports for it. */
    template <class T, class Make>
    typename Memo<T>::Result memoized(Memo<T> &memo,
                                      const std::string &key, Make make);

    /** Take @p cells cells off @p demand's count for @p key; when no
     *  live demand names the key any more, move its cache entry into
     *  @p freed, for the caller to destroy outside cacheMtx.
     *  Requires cacheMtx. */
    void dropDemandLocked(TraceDemand &demand, const std::string &key,
                          std::size_t cells,
                          std::vector<TraceFuture> &freed);
    /** Lane and schedule bytes of the traces cached now. Requires
     *  cacheMtx. */
    std::pair<std::uint64_t, std::uint64_t> liveBytesLocked() const;
    /** A cell of @p demand that consumed @p keys has finished. */
    void finishCell(TraceDemand &demand,
                    const std::vector<std::string> &keys);

    RunResult executeSpec(const RunSpec &spec);
    /** One try: fault hook, then executeSpec under the exception
     *  backstop. */
    RunResult executeSpecAttempt(const RunSpec &spec, unsigned attempt);
    /** Shard filter + bounded retry loop around executeSpecAttempt. */
    RunResult executeSpecGuarded(const RunSpec &spec);
    void noteResumeFallback(const RunSpec &spec,
                            const std::string &resume_file,
                            const Status &status);
    /** The spec's compiled program, one per (workload, compile seed,
     *  compile options) key. */
    Expected<ProgramHandle> compiledFor(const RunSpec &spec);
    /** The decoded trace of one (program, measurement seed, budget)
     *  key, recorded straight into its lanes and replayed read-only
     *  by every cell of the key. @p seed is the measurement seed to
     *  record with - spec.seed for ordinary cells, spec.seed + c for
     *  context c of a multi-context cell. */
    Expected<TraceHandle> decodedFor(const RunSpec &spec,
                                     const CompiledProgram &program,
                                     std::uint64_t seed);
    /** RunSpec::characterize: one shared predictability report per
     *  (program, seed, budget) key, computed over the same recorded
     *  trace every replaying cell of that key consumes. */
    Expected<ReportHandle> characterizedFor(const RunSpec &spec,
                                            const CompiledProgram &program);

    unsigned jobs;
    std::size_t queueCapacity;

    mutable std::mutex cacheMtx;
    Memo<CompiledProgram> programs;
    Memo<DecodedTrace> traces;
    Memo<PredictabilityReport> reports;
    /** Unfinished cells per trace key, summed over live demands. */
    std::map<std::string, std::size_t> traceDemand;
    std::uint64_t traceReleaseCount = 0;
    /** Schedule-cache traffic of the traces released so far. */
    ReplayScheduleCache::Counters releasedSchedules;
    /** CacheStats::peakLaneBytes / peakScheduleBytes so far. */
    std::uint64_t peakLaneBytes = 0;
    std::uint64_t peakScheduleBytes = 0;
    std::uint64_t resumeFallbackCount = 0;
};

/**
 * Print every failed cell (index, workload, predictor, status) to
 * @p err and return the failure count - the binaries' exit status is
 * `reportFailures(...) ? 1 : 0`, so run_experiments.sh still notices
 * a broken cell while the rest of the grid's tables print normally.
 */
std::size_t reportFailures(const std::vector<RunSpec> &specs,
                           const std::vector<RunResult> &results,
                           std::ostream &err);

} // namespace pabp::bench

#endif // PABP_BENCH_SWEEP_HH
