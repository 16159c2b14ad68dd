/**
 * @file
 * E3 - The squash false path filter across predictor sizes: suite-mean
 * mispredict rate of gshare vs gshare+SFPF for pattern tables from
 * 256 to 64K entries, plus a per-workload breakdown at 4K. The paper's
 * headline SFPF figure has this shape: the filter helps at every size,
 * and relatively more at small sizes where pollution costs capacity.
 */

#include "experiments.hh"

namespace pabp::bench::e3 {

namespace {

constexpr unsigned delay = 8; ///< predicate availability delay (insts)

const std::vector<unsigned> sizes = {8, 10, 12, 14, 16};

/** A gshare cell and its +SFPF twin. */
void
pushPair(std::vector<RunSpec> &specs, const RunSpec &base)
{
    specs.push_back(base);
    RunSpec sfpf = base;
    sfpf.engine.useSfpf = true;
    sfpf.engine.availDelay = delay;
    specs.push_back(sfpf);
}

} // namespace

Expected<std::vector<RunSpec>>
grid(const ExperimentConfig &cfg, std::ostream &log)
{
    log << "E3: gshare vs gshare+SFPF across sizes (delay=" << delay
        << ")\n\n";

    // One grid: sizes x workloads x {base, SFPF}, then the 4K
    // per-workload detail pairs. Every workload compiles exactly
    // once - the cells differ only predictor-side.
    std::vector<RunSpec> specs;
    for (unsigned size_log2 : sizes) {
        for (const std::string &name : workloadNames()) {
            RunSpec base = cfg.base;
            base.workload = name;
            base.sizeLog2 = size_log2;
            pushPair(specs, base);
        }
    }
    for (const std::string &name : workloadNames()) {
        RunSpec base = cfg.base;
        base.workload = name;
        pushPair(specs, base);
    }
    return specs;
}

bool
table(const GridRun &run, std::ostream &out)
{
    const std::vector<RunResult> &results = run.results;
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
    emitTable(sweep, run.cfg.csv, out);

    // idx now points at the per-workload 4K detail pairs.
    out << "per-workload at 4K entries:\n\n";
    Table detail({"workload", "gshare", "gshare+SFPF", "squashed%"});
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
    emitTable(detail, run.cfg.csv, out);
    return true;
}

} // namespace pabp::bench::e3
