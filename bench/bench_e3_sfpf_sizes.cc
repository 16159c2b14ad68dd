/**
 * @file
 * E3 - The squash false path filter across predictor sizes: suite-mean
 * mispredict rate of gshare vs gshare+SFPF for pattern tables from
 * 256 to 64K entries, plus a per-workload breakdown at 4K. The paper's
 * headline SFPF figure has this shape: the filter helps at every size,
 * and relatively more at small sizes where pollution costs capacity.
 */

#include "common.hh"

using namespace pabp;
using namespace pabp::bench;

int
main(int argc, char **argv)
{
    Options opts = standardOptions();
    opts.declare("delay", "8", "predicate availability delay (insts)");
    if (!opts.parse(argc, argv))
        return 0;
    std::uint64_t steps = opts.unsignedInteger("steps");
    std::uint64_t seed = opts.unsignedInteger("seed");
    unsigned delay = opts.unsignedInteger<unsigned>("delay");

    std::cout << "E3: gshare vs gshare+SFPF across sizes (delay="
              << delay << ")\n\n";

    const std::vector<unsigned> sizes = {8, 10, 12, 14, 16};

    // One grid for the whole binary: sizes x workloads x {base,
    // SFPF}, then the 4K per-workload detail pairs. Every workload
    // compiles exactly once - the cells differ only predictor-side.
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

            RunSpec sfpf = base;
            sfpf.engine.useSfpf = true;
            sfpf.engine.availDelay = delay;
            specs.push_back(sfpf);
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

        RunSpec sfpf = base;
        sfpf.engine.useSfpf = true;
        sfpf.engine.availDelay = delay;
        specs.push_back(sfpf);
    }

    applyMetricsOptions(specs, opts);
    SweepRunner runner(sweepConfigFromOptions(opts));
    std::vector<RunResult> results = runner.run(specs);

    Table sweep({"entries", "gshare", "gshare+SFPF", "reduction"});
    std::size_t idx = 0;
    for (unsigned size_log2 : sizes) {
        double sum_base = 0.0, sum_sfpf = 0.0;
        for (std::size_t w = 0; w < workloadNames().size(); ++w) {
            sum_base += results[idx++].engine.all.mispredictRate();
            sum_sfpf += results[idx++].engine.all.mispredictRate();
        }
        double n = static_cast<double>(workloadNames().size());
        sweep.startRow();
        sweep.cell(std::uint64_t{1} << size_log2);
        sweep.percentCell(sum_base / n);
        sweep.percentCell(sum_sfpf / n);
        sweep.percentCell(sum_base > 0.0
                              ? (sum_base - sum_sfpf) / sum_base
                              : 0.0,
                          1);
    }
    emitTable(sweep, opts);

    std::cout << "per-workload at 4K entries:\n\n";
    Table detail({"workload", "gshare", "gshare+SFPF", "squashed%"});
    idx = detail_offset;
    for (const std::string &name : workloadNames()) {
        const EngineStats &b = results[idx++].engine;
        const EngineStats &s = results[idx++].engine;

        detail.startRow();
        detail.cell(name);
        detail.percentCell(b.all.mispredictRate());
        detail.percentCell(s.all.mispredictRate());
        detail.percentCell(
            s.all.branches
                ? static_cast<double>(s.all.squashed) /
                    static_cast<double>(s.all.branches)
                : 0.0);
    }
    emitTable(detail, opts);
    return exitStatus(specs, results);
}
