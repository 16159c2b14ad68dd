/**
 * @file
 * E12 - Define-to-branch distance distributions: for every guarded
 * conditional branch, the dynamic distance (in instructions) from the
 * last write of its qualifying predicate. This is the quantity that
 * decides whether the squash filter can act (it needs distance >=
 * availability delay: a write at W is visible from W + delay on, see
 * core/delayed_pred_file.hh), so the paper-style analysis of "how far
 * ahead are guards known" reduces to this histogram.
 *
 * The distance is a pure function of the recorded trace: each cell is
 * a characterized Trace cell, and the table reads the guard-distance
 * tally of its predictability report
 * (PredictabilityReport::guardDistance).
 */

#include "experiments.hh"

namespace pabp::bench::e12 {

Expected<std::vector<RunSpec>>
grid(const ExperimentConfig &cfg, std::ostream &log)
{
    log << "E12: dynamic define-to-branch distance of branch "
           "guards\n\n";

    std::vector<RunSpec> specs;
    for (const std::string &name : workloadNames()) {
        RunSpec spec = cfg.base;
        spec.workload = name;
        spec.characterize = true;
        specs.push_back(spec);
    }
    return specs;
}

bool
table(const GridRun &run, std::ostream &out)
{
    Table table({"workload", "mean", "<4", "4-7", "8-15", "16-31",
                 "32-63", ">=64"});

    std::size_t idx = 0;
    for (const std::string &name : workloadNames()) {
        const RunResult &result = run.results[idx++];
        // A failed cell has no report; its row reads zero.
        const PredictabilityReport::GuardDistance guard =
            result.predictability
            ? result.predictability->guardDistance
            : PredictabilityReport::GuardDistance{};
        table.startRow();
        table.cell(name);
        table.cell(guard.mean(), 1);
        for (std::uint64_t in_bucket : guard.buckets)
            table.percentCell(
                guard.count ? static_cast<double>(in_bucket) /
                        static_cast<double>(guard.count)
                            : 0.0,
                1);
    }

    emitTable(table, run.cfg.csv, out);
    out << "guards resolved at least `availDelay` instructions "
           "before the branch\nare filterable; compare these "
           "columns against E4's squash rates.\n";
    return true;
}

} // namespace pabp::bench::e12
