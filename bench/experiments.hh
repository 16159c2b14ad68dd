/**
 * @file
 * The E-series as registered experiments, run by one driver
 * (bench/pabp_experiments.cc, the `pabp-experiments` binary).
 *
 * An experiment is two functions: a grid builder, which prints the
 * experiment's header and turns the driver's parsed options into the
 * RunSpec cells it needs, and a table renderer, which turns those
 * cells' results - in grid order - into its printed tables (and, for
 * E20-E22, a summary record). The driver builds every selected grid,
 * runs their union through ONE SweepRunner::run, so programs, traces
 * and characterize reports are shared across experiments, then
 * renders each experiment into its own stream and prints the blocks
 * in E1...E22 order.
 *
 * Each bench_e<N>_<name>.cc defines namespace e<N>'s grid() and
 * table(); the registry table in pabp_experiments.cc lists them, the
 * same single-list idiom as bpred/factory.cc.
 */

#ifndef PABP_BENCH_EXPERIMENTS_HH
#define PABP_BENCH_EXPERIMENTS_HH

#include <ostream>
#include <string>
#include <vector>

#include "common.hh"
#include "util/metrics.hh"

namespace pabp::bench {

/** The driver's options, parsed once and read by every experiment. */
struct ExperimentConfig
{
    /**
     * The standard options as a cell: --steps (maxInsts), --seed and
     * the run options (checkpoint, replay strategy, characterize,
     * shard, retry, watchdog). Every grid builder starts its cells
     * from a copy. The driver fills each cell's metricsDir itself.
     */
    RunSpec base;
    /** E16's --contexts / --ctx-schedule. */
    ContextSpec pollutionContext;
    /** E22's mining knobs (--mine-restarts, --mine-steps, --mine-top);
     *  the other MiningConfig fields are the experiment's own. */
    unsigned mineRestarts = 6;
    unsigned mineSteps = 32;
    unsigned mineTop = 3;
    /** E22 fails unless a mined workload dominates (--strict). */
    bool strict = true;
    /** Also print every table as CSV (--csv). */
    bool csv = false;
    /** Directory of the E20/E21/E22 summary records; empty = skip. */
    std::string summaryDir;
};

/** One experiment's finished grid: its cells and their results, in
 *  the order its builder returned them. */
struct GridRun
{
    const ExperimentConfig &cfg;
    const std::vector<RunSpec> &specs;
    const std::vector<RunResult> &results;
};

/** Print the header to @p log and return the cells. Only a failure
 *  before any cell runs (E22's mining) returns a Status. */
using GridBuilder = Expected<std::vector<RunSpec>> (*)(
    const ExperimentConfig &cfg, std::ostream &log);

/** Render the tables into @p out; false (with a FAILED line on
 *  stderr) when the results do not support the experiment's
 *  acceptance check or its summary could not be written. */
using TableRenderer = bool (*)(const GridRun &run, std::ostream &out);

/** One row of the registry. */
struct Experiment
{
    const char *name;   ///< --only id: "e1" ... "e22"
    const char *binary; ///< metrics subdirectory name (the old binary)
    GridBuilder grid;
    TableRenderer table;
};

/**
 * Write an experiment's summary record as <summaryDir>/@p file; a
 * no-op when --summary-dir is empty. A failed write prints a FAILED
 * line on stderr and returns false.
 */
inline bool
writeSummary(const MetricsExporter &summary, const ExperimentConfig &cfg,
             const std::string &file)
{
    if (cfg.summaryDir.empty())
        return true;
    const std::string path = cfg.summaryDir + "/" + file;
    Status written = summary.writeJsonFile(path);
    if (!written.ok())
        std::cerr << "FAILED: cannot write " << path << ": "
                  << written.toString() << "\n";
    return written.ok();
}

#define PABP_DECLARE_EXPERIMENT(id)                                     \
    namespace id {                                                      \
    Expected<std::vector<RunSpec>> grid(const ExperimentConfig &cfg,    \
                                        std::ostream &log);             \
    bool table(const GridRun &run, std::ostream &out);                  \
    }

PABP_DECLARE_EXPERIMENT(e1)
PABP_DECLARE_EXPERIMENT(e2)
PABP_DECLARE_EXPERIMENT(e3)
PABP_DECLARE_EXPERIMENT(e4)
PABP_DECLARE_EXPERIMENT(e5)
PABP_DECLARE_EXPERIMENT(e6)
PABP_DECLARE_EXPERIMENT(e7)
PABP_DECLARE_EXPERIMENT(e8)
PABP_DECLARE_EXPERIMENT(e9)
PABP_DECLARE_EXPERIMENT(e10)
PABP_DECLARE_EXPERIMENT(e12)
PABP_DECLARE_EXPERIMENT(e13)
PABP_DECLARE_EXPERIMENT(e14)
PABP_DECLARE_EXPERIMENT(e15)
PABP_DECLARE_EXPERIMENT(e16)
PABP_DECLARE_EXPERIMENT(e17)
PABP_DECLARE_EXPERIMENT(e18)
PABP_DECLARE_EXPERIMENT(e19)
PABP_DECLARE_EXPERIMENT(e20)
PABP_DECLARE_EXPERIMENT(e21)
PABP_DECLARE_EXPERIMENT(e22)

#undef PABP_DECLARE_EXPERIMENT

} // namespace pabp::bench

#endif // PABP_BENCH_EXPERIMENTS_HH
