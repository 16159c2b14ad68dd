/**
 * @file
 * E8 - End-to-end speedup on the in-order EPIC pipeline: IPC for the
 * branchy baseline and for predicated code under base gshare, each
 * technique, and both; plus a mispredict-penalty sweep of the
 * suite-mean speedup. The expected shape: technique speedup grows
 * with the penalty, because all they do is remove mispredicts.
 */

#include "common.hh"

using namespace pabp;
using namespace pabp::bench;

int
main(int argc, char **argv)
{
    Options opts = standardOptions();
    opts.declare("penalty", "8", "mispredict penalty (cycles)");
    if (!opts.parse(argc, argv))
        return 0;
    std::uint64_t steps = opts.unsignedInteger("steps");
    std::uint64_t seed = opts.unsignedInteger("seed");
    unsigned penalty = opts.unsignedInteger<unsigned>("penalty");

    std::cout << "E8: pipeline IPC and speedup (width=6, penalty="
              << penalty << ")\n\n";

    struct Config
    {
        const char *label;
        bool ifConvert;
        bool sfpf;
        bool pgu;
    };
    const Config configs[] = {
        {"branchy", false, false, false},
        {"pred", true, false, false},
        {"pred+SFPF", true, true, false},
        {"pred+PGU", true, false, true},
        {"pred+both", true, true, true},
    };

    PipelineConfig pcfg;
    pcfg.mispredictPenalty = penalty;

    const std::vector<unsigned> penalties = {4, 8, 12, 16, 24};

    // Main IPC table cells, then the penalty-sweep cells (base and
    // both-techniques per workload per penalty), all one grid.
    std::vector<RunSpec> specs;
    for (const std::string &name : workloadNames()) {
        for (const Config &config : configs) {
            RunSpec spec;
            spec.workload = name;
            spec.mode = RunMode::Timed;
            spec.pipeline = pcfg;
            spec.ifConvert = config.ifConvert;
            spec.engine.useSfpf = config.sfpf;
            spec.engine.usePgu = config.pgu;
            spec.maxInsts = steps;
            spec.seed = seed;
            specs.push_back(spec);
        }
    }
    const std::size_t sweep_offset = specs.size();
    for (unsigned p : penalties) {
        PipelineConfig cfg;
        cfg.mispredictPenalty = p;
        for (const std::string &name : workloadNames()) {
            RunSpec base;
            base.workload = name;
            base.mode = RunMode::Timed;
            base.pipeline = cfg;
            base.maxInsts = steps;
            base.seed = seed;
            specs.push_back(base);

            RunSpec both = base;
            both.engine.useSfpf = true;
            both.engine.usePgu = true;
            specs.push_back(both);
        }
    }

    applyMetricsOptions(specs, opts);
    SweepRunner runner(sweepConfigFromOptions(opts));
    std::vector<RunResult> results = runner.run(specs);

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
    emitTable(table, opts);

    std::cout << "suite-mean speedup of pred+both over pred, by "
                 "mispredict penalty:\n\n";
    Table sweep({"penalty", "pred IPC", "pred+both IPC", "speedup"});
    idx = sweep_offset;
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
    emitTable(sweep, opts);
    return exitStatus(specs, results);
}
