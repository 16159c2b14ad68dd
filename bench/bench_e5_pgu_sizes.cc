/**
 * @file
 * E5 - The predicate global update predictor across sizes: suite-mean
 * mispredict rate of gshare vs PGU-gshare, plus per-workload detail.
 * The expected shape: PGU recovers the correlation lost to
 * if-conversion, with the largest wins on workloads whose region
 * branches repeat earlier conditions (dchain, histogram, interp).
 */

#include "common.hh"

using namespace pabp;
using namespace pabp::bench;

int
main(int argc, char **argv)
{
    Options opts = standardOptions();
    opts.declare("delay", "8", "history insertion delay (insts)");
    if (!opts.parse(argc, argv))
        return 0;
    std::uint64_t steps = opts.unsignedInteger("steps");
    std::uint64_t seed = opts.unsignedInteger("seed");
    unsigned delay = opts.unsignedInteger<unsigned>("delay");

    std::cout << "E5: gshare vs PGU-gshare across sizes (delay="
              << delay << ")\n\n";

    const std::vector<unsigned> sizes = {8, 10, 12, 14, 16};

    std::vector<RunSpec> specs;
    for (unsigned size_log2 : sizes) {
        for (const std::string &name : workloadNames()) {
            RunSpec base;
            base.workload = name;
            base.sizeLog2 = size_log2;
            base.maxInsts = steps;
            base.seed = seed;
            applyCheckpointOptions(base, opts);
            specs.push_back(base);

            RunSpec pgu = base;
            pgu.engine.usePgu = true;
            pgu.engine.pgu.delay = delay;
            specs.push_back(pgu);
        }
    }
    const std::size_t detail_offset = specs.size();
    for (const std::string &name : workloadNames()) {
        RunSpec base;
        base.workload = name;
        base.maxInsts = steps;
        base.seed = seed;
        applyCheckpointOptions(base, opts);
        specs.push_back(base);

        // The detail PGU run also reports inserted history bits
        // (RunResult::pguBits).
        RunSpec pgu = base;
        pgu.engine.usePgu = true;
        pgu.engine.pgu.delay = delay;
        specs.push_back(pgu);
    }

    applyMetricsOptions(specs, opts);
    SweepRunner runner(sweepConfigFromOptions(opts));
    std::vector<RunResult> results = runner.run(specs);

    Table sweep({"entries", "gshare", "PGU-gshare", "reduction"});
    std::size_t idx = 0;
    for (unsigned size_log2 : sizes) {
        double sum_base = 0.0, sum_pgu = 0.0;
        for (std::size_t w = 0; w < workloadNames().size(); ++w) {
            sum_base += results[idx++].engine.all.mispredictRate();
            sum_pgu += results[idx++].engine.all.mispredictRate();
        }
        double n = static_cast<double>(workloadNames().size());
        sweep.startRow();
        sweep.cell(std::uint64_t{1} << size_log2);
        sweep.percentCell(sum_base / n);
        sweep.percentCell(sum_pgu / n);
        sweep.percentCell(sum_base > 0.0
                              ? (sum_base - sum_pgu) / sum_base
                              : 0.0,
                          1);
    }
    emitTable(sweep, opts);

    std::cout << "per-workload at 4K entries:\n\n";
    Table detail({"workload", "gshare", "PGU-gshare", "pgu-bits/kinst"});
    idx = detail_offset;
    for (const std::string &name : workloadNames()) {
        const RunResult &b = results[idx++];
        const RunResult &p = results[idx++];

        detail.startRow();
        detail.cell(name);
        detail.percentCell(b.engine.all.mispredictRate());
        detail.percentCell(p.engine.all.mispredictRate());
        detail.cell(1000.0 * static_cast<double>(p.pguBits) /
                        static_cast<double>(p.engine.insts),
                    1);
    }
    emitTable(detail, opts);
    return exitStatus(specs, results);
}
