/**
 * @file
 * E8 - End-to-end speedup on the in-order EPIC pipeline: IPC for the
 * branchy baseline and for predicated code under base gshare, each
 * technique, and both; plus a mispredict-penalty sweep of the
 * suite-mean speedup. The expected shape: technique speedup grows
 * with the penalty, because all they do is remove mispredicts.
 */

#include "experiments.hh"

namespace pabp::bench::e8 {

namespace {

constexpr unsigned penalty = 8; ///< main table's mispredict penalty

struct Config
{
    const char *label;
    bool ifConvert;
    bool sfpf;
    bool pgu;
};
constexpr Config configs[] = {
    {"branchy", false, false, false},
    {"pred", true, false, false},
    {"pred+SFPF", true, true, false},
    {"pred+PGU", true, false, true},
    {"pred+both", true, true, true},
};

const std::vector<unsigned> penalties = {4, 8, 12, 16, 24};

} // namespace

Expected<std::vector<RunSpec>>
grid(const ExperimentConfig &cfg, std::ostream &log)
{
    log << "E8: pipeline IPC and speedup (width=6, penalty=" << penalty
        << ")\n\n";

    // Main IPC table cells, then the penalty-sweep cells (base and
    // both-techniques per workload per penalty), all one grid.
    std::vector<RunSpec> specs;
    for (const std::string &name : workloadNames()) {
        for (const Config &config : configs) {
            RunSpec spec = cfg.base;
            spec.workload = name;
            spec.mode = RunMode::Timed;
            spec.pipeline.mispredictPenalty = penalty;
            spec.ifConvert = config.ifConvert;
            spec.engine.useSfpf = config.sfpf;
            spec.engine.usePgu = config.pgu;
            specs.push_back(spec);
        }
    }
    for (unsigned p : penalties) {
        for (const std::string &name : workloadNames()) {
            RunSpec base = cfg.base;
            base.workload = name;
            base.mode = RunMode::Timed;
            base.pipeline.mispredictPenalty = p;
            specs.push_back(base);

            RunSpec both = base;
            both.engine.useSfpf = true;
            both.engine.usePgu = true;
            specs.push_back(both);
        }
    }
    return specs;
}

bool
table(const GridRun &run, std::ostream &out)
{
    const std::vector<RunResult> &results = run.results;
    Table table({"workload", "branchy", "pred", "pred+SFPF", "pred+PGU",
                 "pred+both", "speedup(both/pred)"});
    double ipc_sums[5] = {};
    std::size_t idx = 0;
    for (const std::string &name : workloadNames()) {
        table.startRow();
        table.cell(name);
        double ipcs[5];
        for (int c = 0; c < 5; ++c) {
            ipcs[c] = results[idx++].pipe.ipc();
            ipc_sums[c] += ipcs[c];
            table.cell(ipcs[c], 3);
        }
        table.cell(ipcs[1] > 0.0 ? ipcs[4] / ipcs[1] : 0.0, 3);
    }
    table.startRow();
    table.cell(std::string("MEAN"));
    double n = static_cast<double>(workloadNames().size());
    for (double s : ipc_sums)
        table.cell(s / n, 3);
    table.cell(ipc_sums[1] > 0.0 ? ipc_sums[4] / ipc_sums[1] : 0.0, 3);
    emitTable(table, run.cfg.csv, out);

    // idx now points at the penalty-sweep cells.
    out << "suite-mean speedup of pred+both over pred, by "
           "mispredict penalty:\n\n";
    Table sweep({"penalty", "pred IPC", "pred+both IPC", "speedup"});
    for (unsigned p : penalties) {
        double sum_base = 0.0, sum_both = 0.0;
        for (std::size_t w = 0; w < workloadNames().size(); ++w) {
            sum_base += results[idx++].pipe.ipc();
            sum_both += results[idx++].pipe.ipc();
        }
        sweep.startRow();
        sweep.cell(std::uint64_t{p});
        sweep.cell(sum_base / n, 3);
        sweep.cell(sum_both / n, 3);
        sweep.cell(sum_base > 0.0 ? sum_both / sum_base : 0.0, 3);
    }
    emitTable(sweep, run.cfg.csv, out);
    return true;
}

} // namespace pabp::bench::e8
