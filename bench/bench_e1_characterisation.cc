/**
 * @file
 * E1 - Benchmark characterisation (the paper's workload table):
 * dynamic instruction counts in both compilation modes, conditional
 * branch density, the dynamic share of region-based branches, the
 * share of branches executed with a false guard (the squash filter's
 * theoretical ceiling), and predicate-define density.
 */

#include "experiments.hh"

namespace pabp::bench::e1 {

Expected<std::vector<RunSpec>>
grid(const ExperimentConfig &cfg, std::ostream &log)
{
    // Characterisation runs to halt so the predication overhead
    // (extra fetched instructions for the same work) is visible; the
    // --steps option is only a safety cap here.
    const std::uint64_t steps =
        std::max<std::uint64_t>(cfg.base.maxInsts, 40'000'000);

    log << "E1: workload characterisation (to halt, seed="
        << cfg.base.seed << ")\n\n";

    // Two cells per workload: the branchy binary run to halt (for
    // the instruction-count baseline) and the predicated run whose
    // engine stats fill the rest of the row.
    std::vector<RunSpec> specs;
    for (const std::string &name : workloadNames()) {
        RunSpec branchy = cfg.base;
        branchy.workload = name;
        branchy.ifConvert = false;
        branchy.maxInsts = steps;
        specs.push_back(branchy);

        RunSpec pred = cfg.base;
        pred.workload = name;
        pred.maxInsts = steps;
        specs.push_back(pred);
    }
    return specs;
}

bool
table(const GridRun &run, std::ostream &out)
{
    const std::vector<RunResult> &results = run.results;
    Table table({"workload", "insts(branchy)", "insts(pred)",
                 "overhead", "cond-br(pred)", "region-br%",
                 "false-guard%", "pdefines/kinst", "static-regions"});

    std::size_t idx = 0;
    for (const std::string &name : workloadNames()) {
        std::uint64_t branchy_insts = results[idx].engine.insts;
        const RunResult &pred = results[idx + 1];
        const EngineStats &stats = pred.engine;
        idx += 2;

        table.startRow();
        table.cell(name);
        table.cell(branchy_insts);
        table.cell(stats.insts);
        table.cell(branchy_insts ? static_cast<double>(stats.insts) /
                       static_cast<double>(branchy_insts)
                                 : 0.0,
                   2);
        table.cell(stats.all.branches);
        table.percentCell(
            stats.all.branches
                ? static_cast<double>(stats.region.branches) /
                    static_cast<double>(stats.all.branches)
                : 0.0);
        table.percentCell(
            stats.all.branches
                ? static_cast<double>(stats.all.falseGuard) /
                    static_cast<double>(stats.all.branches)
                : 0.0);
        table.cell(1000.0 *
                       static_cast<double>(stats.predicateDefines) /
                       static_cast<double>(stats.insts),
                   1);
        table.cell(pred.numRegions);
    }

    emitTable(table, run.cfg.csv, out);
    out << "region-br% = share of dynamic conditional branches "
           "that are region-based\nfalse-guard% = share executed "
           "with a false qualifying predicate (filter ceiling)\n";
    return true;
}

} // namespace pabp::bench::e1
