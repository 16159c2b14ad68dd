/**
 * @file
 * E9 - Sensitivity to the define-to-use distance: the corr-<d>
 * generator places a region-based branch exactly d filler
 * instructions after the predicate define that determines it. For
 * each (distance, availability delay) pair we report the squash rate
 * and the mispredict rate with SFPF+PGU. The expected crossover: the
 * techniques act exactly when distance exceeds the delay.
 */

#include "common.hh"

using namespace pabp;
using namespace pabp::bench;

int
main(int argc, char **argv)
{
    Options opts = standardOptions();
    if (!opts.parse(argc, argv))
        return 0;
    std::uint64_t steps = opts.unsignedInteger("steps");
    std::uint64_t seed = opts.unsignedInteger("seed");

    const std::vector<unsigned> distances = {2, 4, 8, 16, 24, 32};
    const std::vector<unsigned> delays = {0, 4, 8, 16, 32};

    std::cout << "E9: squash rate by (define distance, avail delay)\n\n";

    // distances x delays. Each corr-<d> program compiles once and is
    // shared across all five delay cells.
    std::vector<RunSpec> specs;
    for (unsigned dist : distances) {
        for (unsigned delay : delays) {
            RunSpec spec;
            spec.workload = "corr-" + std::to_string(dist);
            spec.factory = [dist](std::uint64_t s) {
                return makeCorrWorkload(dist, s);
            };
            spec.engine.useSfpf = true;
            spec.engine.usePgu = true;
            spec.engine.availDelay = delay;
            spec.engine.pgu.delay = delay;
            spec.compile.heuristics = corrWorkloadHeuristics();
            spec.maxInsts = steps;
            spec.seed = seed;
            applyCheckpointOptions(spec, opts);
            specs.push_back(spec);
        }
    }

    applyMetricsOptions(specs, opts);
    SweepRunner runner(sweepConfigFromOptions(opts));
    std::vector<RunResult> results = runner.run(specs);

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
            const EngineStats &stats = results[idx++].engine;
            squash_table.percentCell(
                stats.all.branches
                    ? static_cast<double>(stats.all.squashed) /
                        static_cast<double>(stats.all.branches)
                    : 0.0);
            mispredict_table.percentCell(stats.all.mispredictRate());
        }
    }

    emitTable(squash_table, opts);
    std::cout << "mispredict rate with SFPF+PGU at the same points:\n\n";
    emitTable(mispredict_table, opts);
    std::cout << "expected shape: both effects switch on once the "
                 "define distance\nexceeds the availability delay.\n";
    return exitStatus(specs, results);
}
