/**
 * @file
 * E7 - Region-based branches in isolation: their dynamic share, their
 * mispredict rate under the base predictor, under each technique, and
 * both. This is the paper's core argument localised: region-based
 * branches are where predicate information pays off.
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

    std::cout << "E7: region-based branch mispredict rates "
              << "(gshare-4K base)\n\n";

    struct Config
    {
        bool sfpf;
        bool pgu;
    };
    const Config configs[] = {
        {false, false}, {true, false}, {false, true}, {true, true}};

    std::vector<RunSpec> specs;
    for (const std::string &name : workloadNames()) {
        for (const Config &config : configs) {
            RunSpec spec;
            spec.workload = name;
            spec.engine.useSfpf = config.sfpf;
            spec.engine.usePgu = config.pgu;
            spec.maxInsts = steps;
            spec.seed = seed;
            applyCheckpointOptions(spec, opts);
            specs.push_back(spec);
        }
    }

    applyMetricsOptions(specs, opts);
    SweepRunner runner(sweepConfigFromOptions(opts));
    std::vector<RunResult> results = runner.run(specs);

    Table table({"workload", "region-br", "share%", "base", "+SFPF",
                 "+PGU", "+both"});

    std::size_t idx = 0;
    for (const std::string &name : workloadNames()) {
        table.startRow();
        table.cell(name);
        bool wrote_counts = false;
        for (std::size_t c = 0; c < std::size(configs); ++c) {
            const EngineStats &stats = results[idx++].engine;
            if (!wrote_counts) {
                table.cell(stats.region.branches);
                table.percentCell(
                    stats.all.branches
                        ? static_cast<double>(stats.region.branches) /
                            static_cast<double>(stats.all.branches)
                        : 0.0);
                wrote_counts = true;
            }
            table.percentCell(stats.region.mispredictRate());
        }
    }

    emitTable(table, opts);
    std::cout << "share% = region-based branches as a fraction of all "
                 "conditional branches\n";
    return exitStatus(specs, results);
}
