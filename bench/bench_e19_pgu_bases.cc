/**
 * @file
 * E19 - Technique/baseline orthogonality: the paper evaluates PGU on
 * a gshare-style predictor, but the mechanism (predicate bits in the
 * global history) applies to any global-history predictor. Suite-mean
 * mispredict for each history-based baseline with and without
 * SFPF+PGU - the improvement should survive the move to stronger
 * baselines, shrinking only where the baseline already extracts the
 * correlation (perceptron's long history).
 */

#include "experiments.hh"

namespace pabp::bench::e19 {

namespace {

const std::vector<std::string> kinds = {"gag",  "gshare", "comb",
                                        "agree", "yags",  "perceptron"};

} // namespace

Expected<std::vector<RunSpec>>
grid(const ExperimentConfig &cfg, std::ostream &log)
{
    log << "E19: SFPF+PGU across base predictors (suite means, "
           "2^12 budget class)\n\n";

    // kinds x workloads x {alone, +both}.
    std::vector<RunSpec> specs;
    for (const std::string &kind : kinds) {
        for (const std::string &name : workloadNames()) {
            RunSpec alone = cfg.base;
            alone.workload = name;
            alone.predictor = kind;
            specs.push_back(alone);

            RunSpec both = alone;
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
    Table table({"base predictor", "alone", "+SFPF+PGU", "reduction"});
    std::size_t idx = 0;
    for (const std::string &kind : kinds) {
        double sum_alone = 0.0, sum_both = 0.0;
        for (std::size_t w = 0; w < workloadNames().size(); ++w) {
            sum_alone += results[idx++].engine.all.mispredictRate();
            sum_both += results[idx++].engine.all.mispredictRate();
        }
        double n = static_cast<double>(workloadNames().size());
        table.startRow();
        table.cell(kind);
        table.percentCell(sum_alone / n);
        table.percentCell(sum_both / n);
        table.percentCell(sum_alone > 0.0
                              ? (sum_alone - sum_both) / sum_alone
                              : 0.0,
                          1);
    }

    emitTable(table, run.cfg.csv, out);
    out << "expected shape: every global-history baseline "
           "improves; the margin is\nsmallest where the baseline "
           "already reaches the correlated bits\n(perceptron's "
           "long history).\n";
    return true;
}

} // namespace pabp::bench::e19
