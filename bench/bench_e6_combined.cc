/**
 * @file
 * E6 - The combined result: mispredict rate (and MPKI) of the base
 * gshare, each technique alone, and both together, per workload and
 * suite mean. The paper's claim is that the techniques compose: the
 * filter removes false-path noise, PGU fixes the correlated region
 * branches, and together they dominate either alone.
 */

#include <algorithm>

#include "experiments.hh"

namespace pabp::bench::e6 {

namespace {

constexpr const char *predictor = "gshare";
constexpr unsigned sizeLog2 = 12;

struct Config
{
    const char *label;
    bool sfpf;
    bool pgu;
};
constexpr Config configs[] = {
    {"base", false, false},
    {"+SFPF", true, false},
    {"+PGU", false, true},
    {"+both", true, true},
};

} // namespace

Expected<std::vector<RunSpec>>
grid(const ExperimentConfig &cfg, std::ostream &log)
{
    log << "E6: technique composition on " << predictor << "-2^"
        << sizeLog2 << "\n\n";

    std::vector<RunSpec> specs;
    for (const std::string &name : workloadNames()) {
        for (const Config &config : configs) {
            RunSpec spec = cfg.base;
            spec.workload = name;
            spec.predictor = predictor;
            spec.sizeLog2 = sizeLog2;
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
    Table table({"workload", "base", "+SFPF", "+PGU", "+both",
                 "best-reduction"});
    double sums[4] = {};
    std::size_t idx = 0;
    for (const std::string &name : workloadNames()) {
        table.startRow();
        table.cell(name);
        double rates[4];
        for (int c = 0; c < 4; ++c) {
            rates[c] = run.results[idx++].engine.all.mispredictRate();
            sums[c] += rates[c];
            table.percentCell(rates[c]);
        }
        double best = std::min({rates[1], rates[2], rates[3]});
        table.percentCell(
            rates[0] > 0.0 ? (rates[0] - best) / rates[0] : 0.0, 1);
    }
    table.startRow();
    table.cell(std::string("MEAN"));
    double n = static_cast<double>(workloadNames().size());
    double mean_base = sums[0] / n;
    double mean_best = sums[3] / n;
    for (double s : sums)
        table.percentCell(s / n);
    table.percentCell(mean_base > 0.0
                          ? (mean_base - mean_best) / mean_base
                          : 0.0,
                      1);

    emitTable(table, run.cfg.csv, out);
    return true;
}

} // namespace pabp::bench::e6
