/**
 * @file
 * E2 - Baseline predictor comparison on predicated code: mispredict
 * rates of the conventional predictor family (static, bimodal, GAg,
 * gshare, local two-level, McFarling combining) at a fixed 4K-entry
 * budget. This is the paper's "predicated code is still hard to
 * predict" motivation table.
 */

#include "common.hh"

using namespace pabp;
using namespace pabp::bench;

int
main(int argc, char **argv)
{
    Options opts = standardOptions();
    opts.declare("size-log2", "12", "predictor table size (log2)");
    if (!opts.parse(argc, argv))
        return 0;
    std::uint64_t steps = opts.unsignedInteger("steps");
    std::uint64_t seed = opts.unsignedInteger("seed");
    unsigned size_log2 = opts.unsignedInteger<unsigned>("size-log2");

    const std::vector<std::string> kinds = {
        "static-nottaken", "bimodal", "gag",   "gshare",    "local",
        "comb",            "agree",   "yags",  "perceptron"};

    std::cout << "E2: baseline mispredict rates on predicated code "
              << "(2^" << size_log2 << " entries)\n\n";

    // workloads x kinds, row-major in table order. Each workload
    // compiles once; the cache shares the program across all kinds.
    std::vector<RunSpec> specs;
    for (const std::string &name : workloadNames()) {
        for (const std::string &kind : kinds) {
            RunSpec spec;
            spec.workload = name;
            spec.predictor = kind;
            spec.sizeLog2 = size_log2;
            spec.maxInsts = steps;
            spec.seed = seed;
            applyCheckpointOptions(spec, opts);
            specs.push_back(spec);
        }
    }

    applyMetricsOptions(specs, opts);
    SweepRunner runner(sweepConfigFromOptions(opts));
    std::vector<RunResult> results = runner.run(specs);

    std::vector<std::string> header = {"workload"};
    header.insert(header.end(), kinds.begin(), kinds.end());
    Table table(header);

    std::vector<double> sums(kinds.size(), 0.0);
    std::size_t idx = 0;
    for (const std::string &name : workloadNames()) {
        table.startRow();
        table.cell(name);
        for (std::size_t k = 0; k < kinds.size(); ++k) {
            double rate = results[idx++].engine.all.mispredictRate();
            sums[k] += rate;
            table.percentCell(rate);
        }
    }
    table.startRow();
    table.cell(std::string("MEAN"));
    for (double s : sums)
        table.percentCell(s / static_cast<double>(workloadNames().size()));

    emitTable(table, opts);
    return exitStatus(specs, results);
}
