/**
 * @file
 * Options and table output shared by the bench binaries: the
 * experiment driver (pabp-experiments, bench/experiments.hh) and the
 * replay-loop timer (bench_replay_hot). The per-cell simulation
 * logic lives in bench/sweep.{hh,cc}.
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

/** The standard option block: the workload budget and input seed,
 *  table output, and the run options every sweep cell can take. */
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
                 "export per-cell metrics JSON under this directory, "
                 "one subdirectory per experiment "
                 "(<experiment>/pabp-metrics-<fingerprint>.json; "
                 "empty = off)");
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
    opts.declare("characterize", "0",
                 "compute workload predictability metrics per cell "
                 "(taken/transition rates, history-conditioned "
                 "entropy; exported as predictability.* with the "
                 "metrics document)");
    return opts;
}

/** Print the table to @p out, followed by its CSV when @p csv. */
inline void
emitTable(const Table &table, bool csv, std::ostream &out)
{
    table.print(out);
    if (csv) {
        out << "\n-- csv --\n";
        table.printCsv(out);
    }
    out << "\n";
}

} // namespace pabp::bench

#endif // PABP_BENCH_COMMON_HH
