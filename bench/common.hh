/**
 * @file
 * Shared harness for the experiment binaries (E1-E19). The per-cell
 * simulation logic lives in bench/sweep.{hh,cc}: every binary builds
 * a grid of RunSpecs, executes it through SweepRunner (parallel
 * across --jobs workers, deterministic output), and assembles the
 * tables from the ordered results.
 *
 * Every binary accepts --steps, --seed, --csv, --jobs and the
 * checkpoint options; experiment-specific knobs are declared per
 * binary.
 */

#ifndef PABP_BENCH_COMMON_HH
#define PABP_BENCH_COMMON_HH

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>

#include "sweep.hh"
#include "util/options.hh"
#include "util/table.hh"

namespace pabp::bench {

/** Standard option block shared by all experiment binaries. */
inline Options
standardOptions()
{
    Options opts;
    opts.declare("steps", "1500000", "instructions per run");
    opts.declare("seed", "42", "workload input seed");
    opts.declare("csv", "0", "also print CSV");
    opts.declare("jobs", "0",
                 "parallel sweep workers (0 = hardware concurrency; "
                 "output is identical at any value)");
    opts.declare("checkpoint-every", "0",
                 "checkpoint every N instructions (0 = off)");
    opts.declare("checkpoint-file", "pabp.ckpt",
                 "base checkpoint path for --checkpoint-every (each "
                 "run derives pabp-<fingerprint>.ckpt from it)");
    opts.declare("resume", "",
                 "base checkpoint path to resume each run from");
    opts.declare("metrics-dir", "",
                 "export per-cell metrics JSON into this directory "
                 "(pabp-metrics-<fingerprint>.json; empty = off)");
    opts.declare("fast-replay", "1",
                 "Trace cells replay a shared pre-decoded trace "
                 "through the batched engine loop (docs/PERF.md); "
                 "results are identical, only faster; 0 forces the "
                 "reference per-instruction loop");
    opts.declare("shard", "0/1",
                 "run only the cells shard i of N owns ('i/N'); "
                 "other cells are skipped in place, keeping table "
                 "layout (docs/PARALLEL.md)");
    opts.declare("max-attempts", "1",
                 "total tries per cell for retryable (IoError) "
                 "failures; 1 = no retry");
    opts.declare("backoff-ms", "0",
                 "deterministic retry backoff base, milliseconds "
                 "(doubles per attempt)");
    opts.declare("watchdog-ms", "0",
                 "per-attempt wall-clock deadline, ms (0 = off); an "
                 "overrunning cell fails with DeadlineExceeded");
    opts.declare("heartbeat-insts", "65536",
                 "instructions between watchdog deadline checks");
    opts.declare("characterize", "0",
                 "compute workload predictability metrics per cell "
                 "(taken/transition rates, history-conditioned "
                 "entropy; exported as predictability.* with the "
                 "metrics document)");
    return opts;
}

/** Copy the robust-execution options (shard, retry, watchdog) into a
 *  run spec. A malformed --shard is fatal - this is the CLI shim
 *  layer (util/status.hh). */
inline void
applyRobustnessOptions(RunSpec &spec, const Options &opts)
{
    const std::optional<ShardSpec> shard =
        parseShardSpec(opts.str("shard"));
    if (!shard)
        pabp_fatal("bad --shard '" + opts.str("shard") +
                   "' (want 'i/N', i < N)");
    spec.shard = *shard;
    spec.maxAttempts =
        std::max(1u, opts.unsignedInteger<unsigned>("max-attempts"));
    spec.retryBackoffMillis =
        opts.unsignedInteger<std::uint32_t>("backoff-ms");
    spec.watchdogMillis = opts.unsignedInteger<std::uint32_t>("watchdog-ms");
    spec.heartbeatInsts = std::max<std::uint64_t>(
        1, opts.unsignedInteger("heartbeat-insts"));
}

/** Declare the multi-context replay options (bench E21 and any
 *  binary growing a contexts axis). Declared separately from
 *  standardOptions() so single-stream binaries keep a small --help. */
inline void
declareContextOptions(Options &opts)
{
    opts.declare("contexts", "1",
                 "independent trace contexts interleaved through the "
                 "shared predictor (1 = ordinary single-stream run)");
    opts.declare("ctx-schedule", "rr",
                 "context interleaving: 'rr' (round-robin) or "
                 "'bursty' (seeded random bursts)");
    opts.declare("ctx-quantum", "1024",
                 "events per round-robin slice (burst midpoint for "
                 "--ctx-schedule bursty)");
    opts.declare("ctx-seed", "1", "bursty schedule draw seed");
    opts.declare("ctx-shared", "1",
                 "share global history (and BTB/RAS when modelled) "
                 "across contexts; 0 = private per-context history");
    opts.declare("ctx-tag-bits", "0",
                 "context-id bits mixed into shared table indices "
                 "(0 = pure sharing)");
}

/** Parse the declareContextOptions() block into a ContextSpec. A bad
 *  --ctx-schedule is fatal here (CLI shim layer, util/status.hh). */
inline ContextSpec
contextSpecFromOptions(const Options &opts)
{
    ContextSpec ctx;
    ctx.contexts =
        std::max(1u, opts.unsignedInteger<unsigned>("contexts"));
    Expected<ScheduleKind> kind =
        parseScheduleKind(opts.str("ctx-schedule"));
    if (!kind.ok())
        pabp_fatal("bad --ctx-schedule: " +
                   kind.status().toString());
    ctx.schedule = kind.value();
    ctx.quantum = std::max<std::uint64_t>(
        1, opts.unsignedInteger("ctx-quantum"));
    ctx.scheduleSeed = opts.unsignedInteger("ctx-seed");
    ctx.shared = opts.flag("ctx-shared");
    ctx.tagBits = opts.unsignedInteger<unsigned>("ctx-tag-bits");
    return ctx;
}

/** Copy the standard checkpoint + metrics + replay-strategy options
 *  into a run spec. */
inline void
applyCheckpointOptions(RunSpec &spec, const Options &opts)
{
    spec.checkpointEvery = opts.unsignedInteger("checkpoint-every");
    spec.checkpointPath = opts.str("checkpoint-file");
    spec.resumePath = opts.str("resume");
    spec.metricsDir = opts.str("metrics-dir");
    spec.fastReplay = opts.flag("fast-replay");
    spec.characterize = opts.flag("characterize");
    applyRobustnessOptions(spec, opts);
}

/** Fill RunSpec::metricsDir, the replay strategy and the robustness
 *  knobs on a whole grid, for binaries that do not route specs
 *  through applyCheckpointOptions. */
inline void
applyMetricsOptions(std::vector<RunSpec> &specs, const Options &opts)
{
    const std::string dir = opts.str("metrics-dir");
    const bool fast = opts.flag("fast-replay");
    const bool characterize = opts.flag("characterize");
    for (RunSpec &spec : specs) {
        spec.metricsDir = dir;
        spec.fastReplay = fast;
        spec.characterize = characterize;
        applyRobustnessOptions(spec, opts);
    }
}

/** Build the runner config from the standard --jobs option. */
inline SweepRunner::Config
sweepConfigFromOptions(const Options &opts)
{
    SweepRunner::Config cfg;
    cfg.jobs = opts.unsignedInteger<unsigned>("jobs");
    return cfg;
}

/** Print the table, optionally followed by CSV. */
inline void
emitTable(const Table &table, const Options &opts)
{
    table.print(std::cout);
    if (opts.flag("csv")) {
        std::cout << "\n-- csv --\n";
        table.printCsv(std::cout);
    }
    std::cout << "\n";
}

/**
 * Exit status for a finished grid: report failed cells on stderr and
 * return nonzero when any cell failed, so run_experiments.sh treats
 * a partially-failed binary as a failed run even though every
 * healthy cell's numbers were still printed.
 */
inline int
exitStatus(const std::vector<RunSpec> &specs,
           const std::vector<RunResult> &results)
{
    return reportFailures(specs, results, std::cerr) ? 1 : 0;
}

} // namespace pabp::bench

#endif // PABP_BENCH_COMMON_HH
