/**
 * @file
 * Crash-safe sweep service: the coordinator that turns a RunSpec grid
 * plus a shard assignment into a durable, restartable campaign.
 *
 * The service owns the lifecycle ISSUE'd by docs/ROBUSTNESS.md:
 *
 *  1. Partition - shardOf(specFingerprint(spec), N) decides which of
 *     the N shards owns each cell; ownership is a pure function of
 *     the spec, so independent machines agree without coordination.
 *  2. Resume - on startup the shard's journal (util/journal.hh) is
 *     opened, a torn tail is truncated away, and every owned cell
 *     whose LAST record is a successful Result is skipped.
 *     Quarantined and never-recorded cells run (again).
 *  3. Execute - pending cells go through the SweepRunner (watchdog,
 *     bounded retry, typed per-cell failure) in batches; each
 *     finished batch is committed to the journal IN SHARD SUBMISSION
 *     ORDER, so the journal grows as an ordered prefix of the owned
 *     cell sequence.
 *  4. Drain - when every owned cell has a record, a final compaction
 *     rewrites the journal keeping the last record per fingerprint in
 *     owned-cell order. This normalises re-run duplicates: a campaign
 *     killed (SIGKILL) at any point and re-invoked converges to a
 *     journal BYTE-IDENTICAL to an uninterrupted run's.
 *
 * Cells that fail terminally are recorded as Quarantine records - the
 * grid completes, the failure is durable and queryable (pabp-stats),
 * and the next invocation retries them.
 */

#ifndef PABP_BENCH_SWEEP_SERVICE_HH
#define PABP_BENCH_SWEEP_SERVICE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sweep.hh"
#include "util/journal.hh"

namespace pabp::bench {

/**
 * Column order of sweep journal records (JournalRecord::columns).
 * The journal layer stores an opaque u64 vector; this enum is the
 * sweep-side contract for what each slot means. Append-only: new
 * columns go at the end so old journals stay readable.
 */
enum SweepColumn : std::size_t
{
    ColInsts = 0,       ///< EngineStats::insts
    ColBranches,        ///< EngineStats::all.branches
    ColMispredicts,     ///< EngineStats::all.mispredicts
    ColSquashed,        ///< EngineStats::all.squashed
    ColPguBits,         ///< RunResult::pguBits
    ColResumeFallback,  ///< 1 = cell cold-started despite --resume
    NumSweepColumns,
};

/** Build the journal record for one finished cell: a Result frame
 *  (blob = captured metrics JSON) on success, a Quarantine frame
 *  (blob = typed error text) on terminal failure. */
JournalRecord recordForCell(const RunSpec &spec, const RunResult &result);

/**
 * Per-shard journal naming: "results/e6.pabpj" for shard 2 of 4
 * becomes "results/e6-shard2of4.pabpj". A single-shard campaign
 * (count <= 1) keeps the base name - the common case stays tidy.
 */
std::string deriveShardJournalPath(const std::string &base,
                                   const ShardSpec &shard);

/** The knobs of one service invocation. */
struct ServiceConfig
{
    /** Journal file this shard appends to (already shard-derived;
     *  see deriveShardJournalPath). */
    std::string journalPath;
    ShardSpec shard;

    /** Test hook simulating `kill -9`: stop after exactly this many
     *  records committed in this invocation, skipping the drain
     *  compaction (0 = off). The kill/resume equivalence tests
     *  re-invoke the service and require byte-identical convergence. */
    std::uint64_t stopAfter = 0;

    /** Cells handed to the runner per batch (0 = 4x runner jobs).
     *  Smaller batches commit sooner; the bytes are identical, and a
     *  trace shared across batches is still recorded once (the shard
     *  holds one SweepRunner::TraceDemand over every pending cell). */
    std::size_t batchCells = 0;
};

/** What one runShard() invocation did. */
struct ServiceReport
{
    std::uint64_t ownedCells = 0;      ///< grid cells this shard owns
    std::uint64_t alreadyDone = 0;     ///< skipped via journal scan
    std::uint64_t executed = 0;        ///< cells run this invocation
    std::uint64_t retried = 0;         ///< cells that needed >1 attempt
    std::uint64_t quarantined = 0;     ///< Quarantine records at drain
    std::uint64_t resumeFallbacks = 0; ///< sweep.resume_fallbacks delta
    std::uint64_t committed = 0;       ///< records appended this run
    bool salvagedTail = false;         ///< journal tail was truncated
    bool stopped = false;              ///< ServiceConfig::stopAfter hit
    bool drained = false;              ///< every owned cell recorded
};

/**
 * Runs one shard of a campaign to completion against its journal.
 * Reusable: runShard() may be called repeatedly (the service is how
 * pabp_sweepd implements "re-invoke until drained").
 */
class SweepService
{
  public:
    SweepService(SweepRunner &runner, ServiceConfig config)
        : runner(runner), config(std::move(config))
    {}

    /**
     * Execute the shard-owned subset of @p grid that the journal does
     * not already cover. Setup failures (unopenable or foreign-shard
     * journal, failed append/compaction) surface as a typed Status;
     * per-cell failures do NOT - they become Quarantine records and
     * the report's `quarantined` count.
     */
    Expected<ServiceReport> runShard(std::vector<RunSpec> grid);

  private:
    SweepRunner &runner;
    ServiceConfig config;
};

} // namespace pabp::bench

#endif // PABP_BENCH_SWEEP_SERVICE_HH
