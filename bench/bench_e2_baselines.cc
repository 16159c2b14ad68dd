/**
 * @file
 * E2 - Baseline predictor comparison on predicated code: mispredict
 * rates of the conventional predictor family (static, bimodal, GAg,
 * gshare, local two-level, McFarling combining) at a fixed 4K-entry
 * budget. This is the paper's "predicated code is still hard to
 * predict" motivation table.
 */

#include "experiments.hh"

namespace pabp::bench::e2 {

namespace {

constexpr unsigned sizeLog2 = 12;

const std::vector<std::string> kinds = {
    "static-nottaken", "bimodal", "gag",   "gshare",    "local",
    "comb",            "agree",   "yags",  "perceptron"};

} // namespace

Expected<std::vector<RunSpec>>
grid(const ExperimentConfig &cfg, std::ostream &log)
{
    log << "E2: baseline mispredict rates on predicated code "
        << "(2^" << sizeLog2 << " entries)\n\n";

    // workloads x kinds, row-major in table order. Each workload
    // compiles once; the cache shares the program across all kinds.
    std::vector<RunSpec> specs;
    for (const std::string &name : workloadNames()) {
        for (const std::string &kind : kinds) {
            RunSpec spec = cfg.base;
            spec.workload = name;
            spec.predictor = kind;
            spec.sizeLog2 = sizeLog2;
            specs.push_back(spec);
        }
    }
    return specs;
}

bool
table(const GridRun &run, std::ostream &out)
{
    std::vector<std::string> header = {"workload"};
    header.insert(header.end(), kinds.begin(), kinds.end());
    Table table(header);

    std::vector<double> sums(kinds.size(), 0.0);
    std::size_t idx = 0;
    for (const std::string &name : workloadNames()) {
        table.startRow();
        table.cell(name);
        for (std::size_t k = 0; k < kinds.size(); ++k) {
            double rate = run.results[idx++].engine.all.mispredictRate();
            sums[k] += rate;
            table.percentCell(rate);
        }
    }
    table.startRow();
    table.cell(std::string("MEAN"));
    for (double s : sums)
        table.percentCell(s / static_cast<double>(workloadNames().size()));

    emitTable(table, run.cfg.csv, out);
    return true;
}

} // namespace pabp::bench::e2
