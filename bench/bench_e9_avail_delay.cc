/**
 * @file
 * E9 - Sensitivity to the define-to-use distance: the corr-<d>
 * generator places a region-based branch exactly d filler
 * instructions after the predicate define that determines it. For
 * each (distance, availability delay) pair we report the squash rate
 * and the mispredict rate with SFPF+PGU. The expected crossover: the
 * techniques act exactly when distance exceeds the delay.
 */

#include "experiments.hh"

namespace pabp::bench::e9 {

namespace {

const std::vector<unsigned> distances = {2, 4, 8, 16, 24, 32};
const std::vector<unsigned> delays = {0, 4, 8, 16, 32};

} // namespace

Expected<std::vector<RunSpec>>
grid(const ExperimentConfig &cfg, std::ostream &log)
{
    log << "E9: squash rate by (define distance, avail delay)\n\n";

    // distances x delays. Each corr-<d> program compiles once and is
    // shared across all five delay cells.
    std::vector<RunSpec> specs;
    for (unsigned dist : distances) {
        for (unsigned delay : delays) {
            RunSpec spec = cfg.base;
            spec.workload = "corr-" + std::to_string(dist);
            spec.factory = [dist](std::uint64_t s) {
                return makeCorrWorkload(dist, s);
            };
            spec.engine.useSfpf = true;
            spec.engine.usePgu = true;
            spec.engine.availDelay = delay;
            spec.engine.pgu.delay = delay;
            spec.compile.heuristics = corrWorkloadHeuristics();
            specs.push_back(spec);
        }
    }
    return specs;
}

bool
table(const GridRun &run, std::ostream &out)
{
    std::vector<std::string> header = {"distance"};
    for (unsigned d : delays)
        header.push_back("delay=" + std::to_string(d));
    Table squash_table(header);
    Table mispredict_table(header);

    std::size_t idx = 0;
    for (unsigned dist : distances) {
        squash_table.startRow();
        mispredict_table.startRow();
        squash_table.cell(std::uint64_t{dist});
        mispredict_table.cell(std::uint64_t{dist});
        for (std::size_t d = 0; d < delays.size(); ++d) {
            const EngineStats &stats = run.results[idx++].engine;
            squash_table.percentCell(
                stats.all.branches
                    ? static_cast<double>(stats.all.squashed) /
                        static_cast<double>(stats.all.branches)
                    : 0.0);
            mispredict_table.percentCell(stats.all.mispredictRate());
        }
    }

    emitTable(squash_table, run.cfg.csv, out);
    out << "mispredict rate with SFPF+PGU at the same points:\n\n";
    emitTable(mispredict_table, run.cfg.csv, out);
    out << "expected shape: both effects switch on once the "
           "define distance\nexceeds the availability delay.\n";
    return true;
}

} // namespace pabp::bench::e9
