/**
 * @file
 * E7 - Region-based branches in isolation: their dynamic share, their
 * mispredict rate under the base predictor, under each technique, and
 * both. This is the paper's core argument localised: region-based
 * branches are where predicate information pays off.
 */

#include "experiments.hh"

namespace pabp::bench::e7 {

namespace {

struct Config
{
    bool sfpf;
    bool pgu;
};
constexpr Config configs[] = {
    {false, false}, {true, false}, {false, true}, {true, true}};

} // namespace

Expected<std::vector<RunSpec>>
grid(const ExperimentConfig &cfg, std::ostream &log)
{
    log << "E7: region-based branch mispredict rates "
        << "(gshare-4K base)\n\n";

    std::vector<RunSpec> specs;
    for (const std::string &name : workloadNames()) {
        for (const Config &config : configs) {
            RunSpec spec = cfg.base;
            spec.workload = name;
            spec.engine.useSfpf = config.sfpf;
            spec.engine.usePgu = config.pgu;
            specs.push_back(spec);
        }
    }
    return specs;
}

bool
table(const GridRun &run, std::ostream &out)
{
    Table table({"workload", "region-br", "share%", "base", "+SFPF",
                 "+PGU", "+both"});

    std::size_t idx = 0;
    for (const std::string &name : workloadNames()) {
        table.startRow();
        table.cell(name);
        bool wrote_counts = false;
        for (std::size_t c = 0; c < std::size(configs); ++c) {
            const EngineStats &stats = run.results[idx++].engine;
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

    emitTable(table, run.cfg.csv, out);
    out << "share% = region-based branches as a fraction of all "
           "conditional branches\n";
    return true;
}

} // namespace pabp::bench::e7
