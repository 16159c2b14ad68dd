/**
 * @file
 * E14 - Extension: speculative squash via predicate value prediction.
 * The filter proper only acts on resolved guards (100% accurate);
 * this extension predicts unresolved guards with a confidence-gated
 * counter table and squashes speculatively, trading coverage for a
 * small error rate. Reported: coverage gained, wrong-squash rate,
 * net mispredict change - per availability delay, where larger delays
 * leave more guards unresolved and give the extension more room.
 */

#include "experiments.hh"

namespace pabp::bench::e14 {

namespace {

const std::vector<unsigned> delays = {4, 8, 16, 32, 64};

} // namespace

Expected<std::vector<RunSpec>>
grid(const ExperimentConfig &cfg, std::ostream &log)
{
    log << "E14: speculative squash extension (gshare-4K, suite "
           "means)\n\n";

    // delays x workloads x {filter only, +spec, +spec JRS-gated}.
    std::vector<RunSpec> specs;
    for (unsigned delay : delays) {
        for (const std::string &name : workloadNames()) {
            RunSpec base = cfg.base;
            base.workload = name;
            base.engine.useSfpf = true;
            base.engine.availDelay = delay;
            specs.push_back(base);

            RunSpec spec = base;
            spec.engine.useSpeculativeSquash = true;
            specs.push_back(spec);

            RunSpec jrs_spec = spec;
            jrs_spec.engine.specGate = EngineConfig::SpecGate::Jrs;
            specs.push_back(jrs_spec);
        }
    }
    return specs;
}

bool
table(const GridRun &run, std::ostream &out)
{
    const std::vector<RunResult> &results = run.results;
    Table table({"delay", "squash%(filter)", "spec-squash%",
                 "spec-wrong%", "mispred(filter)", "mispred(+spec)",
                 "mispred(+spec,JRS)"});

    std::size_t idx = 0;
    for (unsigned delay : delays) {
        double sum_sq = 0.0, sum_spec = 0.0, sum_wrong = 0.0;
        double sum_rate_base = 0.0, sum_rate_spec = 0.0;
        double sum_rate_jrs = 0.0;
        for (std::size_t w = 0; w < workloadNames().size(); ++w) {
            const EngineStats &b = results[idx++].engine;
            const EngineStats &s = results[idx++].engine;
            const EngineStats &j = results[idx++].engine;
            sum_rate_jrs += j.all.mispredictRate();

            double branches = static_cast<double>(b.all.branches);
            sum_sq += branches
                ? static_cast<double>(b.all.squashed) / branches
                : 0.0;
            double s_branches = static_cast<double>(s.all.branches);
            sum_spec += s_branches
                ? static_cast<double>(s.specSquashed) / s_branches
                : 0.0;
            sum_wrong += s.specSquashed
                ? static_cast<double>(s.specSquashedWrong) /
                    static_cast<double>(s.specSquashed)
                : 0.0;
            sum_rate_base += b.all.mispredictRate();
            sum_rate_spec += s.all.mispredictRate();
        }
        double n = static_cast<double>(workloadNames().size());
        table.startRow();
        table.cell(std::uint64_t{delay});
        table.percentCell(sum_sq / n);
        table.percentCell(sum_spec / n);
        table.percentCell(sum_wrong / n);
        table.percentCell(sum_rate_base / n);
        table.percentCell(sum_rate_spec / n);
        table.percentCell(sum_rate_jrs / n);
    }

    emitTable(table, run.cfg.csv, out);
    out << "spec-wrong% = wrongly squashed (taken) share of "
           "speculative squashes;\nthese become branch "
           "mispredicts, unlike the filter's certain ones.\n";
    return true;
}

} // namespace pabp::bench::e14
