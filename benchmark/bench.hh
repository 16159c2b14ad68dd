/**
 * @file
 * Shared declarations of pabp-benchmark: the workload grids, the span
 * recorder the traced run fills, and the traced re-execution of a
 * grid. See README.md in this directory for what is measured and why.
 */

#ifndef PABP_BENCHMARK_BENCH_HH
#define PABP_BENCHMARK_BENCH_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sweep.hh"

namespace pabp::perf {

/** @name Workloads
 * Five grids of sweep cells, each stressing a different layer; the
 * names are the BENCHMARK.json workload names.
 * @{ */
const std::vector<std::string> &benchWorkloads();

/** True for the workload that runs through SweepService::runShard
 *  into a journal instead of SweepRunner::run. */
bool isCampaign(const std::string &workload);

/** Knobs every grid shares. */
struct GridOptions
{
    /** Workload seed: the grid's measurement seeds are seed, seed+1,
     *  ... - the same seed always builds the same cells. */
    std::uint64_t seed = 1;
    /** Smoke mode: every cell runs 200k instructions. */
    bool smoke = false;
    /** Directory (inside the checkout) for checkpoint files. */
    std::string workDir;
};

/** The cells of @p workload, in submission order. Every cell
 *  captures its metrics document, which the correctness gates
 *  compare byte for byte. */
std::vector<bench::RunSpec> buildGrid(const std::string &workload,
                                      const GridOptions &opts);
/** @} */

/** @name Tracing
 * Spans are recorded by the benchmark around its calls into each
 * layer, kept in memory, and written as Chrome trace JSON at exit.
 * @{ */
enum class Layer : std::uint8_t
{
    Cell,             ///< one sweep cell, parent of the layer spans
    Workloads,        ///< workload construction (makeWorkload)
    Compiler,         ///< compileWorkload
    Bpred,            ///< tryMakePredictor
    SimRecord,        ///< Emulator + recordTrace
    SimDecode,        ///< DecodedTrace::build
    /** Emulator construction + memory-image init for the cells that
     *  emulate live (Timed, checkpointing). */
    SimEmulator,
    CoreCharacterize, ///< characterizeTrace
    CoreReplay,       ///< one PredictionEngine::processBatch call
    CoreRefLoop,      ///< one runTrace call (checkpointing cells)
    CoreCheckpoint,   ///< saveCheckpoint
    Pipeline,         ///< Pipeline::run (drives its own emulator)
    UtilMetrics,      ///< registerStats + MetricsExporter::writeJson
    UtilJournal,      ///< journal open/append/compact/read back
    NumLayers,
};

constexpr std::size_t kNumLayers = static_cast<std::size_t>(Layer::NumLayers);

/** Module-style layer name ("core.replay"). */
const char *layerName(Layer layer);

/** One recorded span. */
struct Span
{
    std::uint32_t pass = 0;
    std::uint32_t cell = 0; ///< grid index; spans of a cell share it
    Layer layer = Layer::Cell;
    /** Layer-specific flag: replay batch seen before in this pass
     *  (same trace, predicate config and chunk range); journal
     *  compaction. */
    bool variant = false;
    std::int32_t parent = -1;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t childNs = 0; ///< time covered by direct children
    /** Units of work: instructions/events, or bytes for metrics and
     *  journal spans. */
    std::uint64_t work = 0;

    std::int64_t durationNs() const { return endNs - startNs; }
    std::int64_t selfNs() const { return durationNs() - childNs; }
};

/** In-memory span store with a stack of open spans. */
class SpanRecorder
{
  public:
    SpanRecorder() : origin(std::chrono::steady_clock::now()) {}

    void setPass(std::uint32_t p) { pass = p; }
    std::size_t open(Layer layer, std::uint32_t cell,
                     bool variant = false);
    void close(std::size_t id, std::uint64_t work);

    std::int64_t nowNs() const;
    const std::vector<Span> &spans() const { return all; }

    /** Chrome trace JSON ("ph":"X" complete events). */
    void writeChromeTrace(std::ostream &os) const;

  private:
    std::chrono::steady_clock::time_point origin;
    std::uint32_t pass = 0;
    std::vector<Span> all;
    std::vector<std::size_t> stack;
};

/** RAII span; set the work count before it closes. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, Layer layer, std::uint32_t cell,
               bool variant = false)
        : rec(rec), id(rec.open(layer, cell, variant))
    {}
    ~ScopedSpan() { rec.close(id, work); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t work = 0;

  private:
    SpanRecorder &rec;
    std::size_t id;
};
/** @} */

/** @name Host-speed reference (calibrate.cc)
 * Fixed memory-chase and predictor-loop work on @p threads threads at
 * once. Its code is the benchmark's own, so its time tracks the host
 * and nothing else. A shared VM's host speed drifts by tens of percent
 * within minutes; times scaled by nominal ÷ the median of the samples
 * taken between them lose much of that drift.
 * @{ */
struct HostSample
{
    double wallS = 0.0;
    double cpuS = 0.0; ///< per thread
    /** Depends on every step; the same on every sample. */
    std::uint64_t end = 0;
};
HostSample sampleHost(unsigned threads);

/** Nominal ÷ median per-thread CPU time of @p samples: the factor
 *  that turns a time measured among them into nominal-host time. The
 *  CPU time follows the host at least as well as the wall time and,
 *  unlike it, does not jump when one vCPU is descheduled. */
double hostScale(const std::vector<HostSample> &samples);
/** @} */

/** What one traced pass produced. */
struct TracedPass
{
    /** Per-cell results, grid order (metricsJson holds the document
     *  the traced metrics layer wrote). */
    std::vector<bench::RunResult> results;
    double wallS = 0.0;
    std::uint64_t compiles = 0; ///< distinct program keys compiled
    std::uint64_t records = 0;  ///< distinct traces recorded
    /** Campaign only: the drained journal read back strictly with
     *  exactly one Result per cell. */
    bool journalOk = true;
};

/**
 * Re-execute @p grid serially on the calling thread, mirroring
 * SweepRunner::executeSpec - one compile per program key, one record,
 * decode and characterization per (program, seed, budget), unsliced
 * engine loops (no cell arms a watchdog), Timed cells arming
 * modelTargets - but calling each layer's public function directly
 * inside a span. A campaign
 * grid also appends every cell to a journal at @p journal_path,
 * compacts it and reads it back.
 */
TracedPass runTracedPass(const std::vector<bench::RunSpec> &grid,
                         bool campaign, const std::string &journal_path,
                         SpanRecorder &rec, std::uint32_t pass);

} // namespace pabp::perf

#endif // PABP_BENCHMARK_BENCH_HH
