/**
 * @file
 * E5 - The predicate global update predictor across sizes: suite-mean
 * mispredict rate of gshare vs PGU-gshare, plus per-workload detail.
 * The expected shape: PGU recovers the correlation lost to
 * if-conversion, with the largest wins on workloads whose region
 * branches repeat earlier conditions (dchain, histogram, interp).
 */

#include "experiments.hh"

namespace pabp::bench::e5 {

namespace {

constexpr unsigned delay = 8; ///< history insertion delay (insts)

const std::vector<unsigned> sizes = {8, 10, 12, 14, 16};

/** A gshare cell and its PGU twin. */
void
pushPair(std::vector<RunSpec> &specs, const RunSpec &base)
{
    specs.push_back(base);
    RunSpec pgu = base;
    pgu.engine.usePgu = true;
    pgu.engine.pgu.delay = delay;
    specs.push_back(pgu);
}

} // namespace

Expected<std::vector<RunSpec>>
grid(const ExperimentConfig &cfg, std::ostream &log)
{
    log << "E5: gshare vs PGU-gshare across sizes (delay=" << delay
        << ")\n\n";

    std::vector<RunSpec> specs;
    for (unsigned size_log2 : sizes) {
        for (const std::string &name : workloadNames()) {
            RunSpec base = cfg.base;
            base.workload = name;
            base.sizeLog2 = size_log2;
            pushPair(specs, base);
        }
    }
    // The 4K detail pairs; their PGU runs also report inserted
    // history bits (RunResult::pguBits).
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
    emitTable(sweep, run.cfg.csv, out);

    // idx now points at the per-workload 4K detail pairs.
    out << "per-workload at 4K entries:\n\n";
    Table detail({"workload", "gshare", "PGU-gshare", "pgu-bits/kinst"});
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
    emitTable(detail, run.cfg.csv, out);
    return true;
}

} // namespace pabp::bench::e5
