/**
 * @file
 * E6 - The combined result: mispredict rate (and MPKI) of the base
 * gshare, each technique alone, and both together, per workload and
 * suite mean. The paper's claim is that the techniques compose: the
 * filter removes false-path noise, PGU fixes the correlated region
 * branches, and together they dominate either alone.
 */

#include <algorithm>

#include "common.hh"

using namespace pabp;
using namespace pabp::bench;

int
main(int argc, char **argv)
{
    Options opts = standardOptions();
    opts.declare("predictor", "gshare", "base predictor kind");
    opts.declare("size-log2", "12", "predictor table size (log2)");
    if (!opts.parse(argc, argv))
        return 0;
    std::uint64_t steps = opts.unsignedInteger("steps");
    std::uint64_t seed = opts.unsignedInteger("seed");
    std::string predictor = opts.str("predictor");
    unsigned size_log2 = opts.unsignedInteger<unsigned>("size-log2");

    std::cout << "E6: technique composition on " << predictor << "-2^"
              << size_log2 << "\n\n";

    struct Config
    {
        const char *label;
        bool sfpf;
        bool pgu;
    };
    const Config configs[] = {
        {"base", false, false},
        {"+SFPF", true, false},
        {"+PGU", false, true},
        {"+both", true, true},
    };

    std::vector<RunSpec> specs;
    for (const std::string &name : workloadNames()) {
        for (const Config &config : configs) {
            RunSpec spec;
            spec.workload = name;
            spec.predictor = predictor;
            spec.sizeLog2 = size_log2;
            spec.engine.useSfpf = config.sfpf;
            spec.engine.usePgu = config.pgu;
            spec.maxInsts = steps;
            spec.seed = seed;
            applyCheckpointOptions(spec, opts);
            specs.push_back(spec);
        }
    }

    applyMetricsOptions(specs, opts);
    SweepRunner runner(sweepConfigFromOptions(opts));
    std::vector<RunResult> results = runner.run(specs);

    Table table({"workload", "base", "+SFPF", "+PGU", "+both",
                 "best-reduction"});
    double sums[4] = {};
    std::size_t idx = 0;
    for (const std::string &name : workloadNames()) {
        table.startRow();
        table.cell(name);
        double rates[4];
        for (int c = 0; c < 4; ++c) {
            rates[c] = results[idx++].engine.all.mispredictRate();
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

    emitTable(table, opts);
    return exitStatus(specs, results);
}
