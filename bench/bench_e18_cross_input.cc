/**
 * @file
 * E18 - Input generalisation: everything so far profiles and measures
 * on the same input (noted in compile.hh). Here each workload is
 * compiled with the profile of a TRAIN input and measured on a
 * different REF input, the SPEC train/ref methodology. If region
 * formation were overfitting to the training input, the techniques'
 * benefit would collapse; it should not, because the heuristics only
 * consume coarse block weights.
 */

#include "experiments.hh"

namespace pabp::bench::e18 {

namespace {

constexpr std::uint64_t trainSeed = 42;      ///< profiling input
constexpr std::uint64_t refSeed = 20260706;  ///< measurement input

} // namespace

Expected<std::vector<RunSpec>>
grid(const ExperimentConfig &cfg, std::ostream &log)
{
    log << "E18: profile on train input (" << trainSeed
        << "), measure on ref input (" << refSeed << ")\n\n";

    // Per workload: base(ref), +both(ref) - compiled from the train
    // profile but run on the ref memory image (compileSeed != seed) -
    // then +both(same-input) compiled and run on ref.
    std::vector<RunSpec> specs;
    for (const std::string &name : workloadNames()) {
        RunSpec base = cfg.base;
        base.workload = name;
        base.compileSeed = trainSeed;
        base.seed = refSeed;
        specs.push_back(base);

        RunSpec both = base;
        both.engine.useSfpf = true;
        both.engine.usePgu = true;
        specs.push_back(both);

        RunSpec same = both;
        same.compileSeed = refSeed;
        specs.push_back(same);
    }
    return specs;
}

bool
table(const GridRun &run, std::ostream &out)
{
    const std::vector<RunResult> &results = run.results;
    Table table({"workload", "base(ref)", "+both(ref)", "reduction",
                 "+both(same-input)"});
    double sum_base = 0.0, sum_both = 0.0, sum_same = 0.0;
    std::size_t idx = 0;
    for (const std::string &name : workloadNames()) {
        const EngineStats &base = results[idx++].engine;
        const EngineStats &both = results[idx++].engine;
        const EngineStats &same = results[idx++].engine;

        table.startRow();
        table.cell(name);
        table.percentCell(base.all.mispredictRate());
        table.percentCell(both.all.mispredictRate());
        double b = base.all.mispredictRate();
        table.percentCell(
            b > 0.0 ? (b - both.all.mispredictRate()) / b : 0.0, 1);
        table.percentCell(same.all.mispredictRate());
        sum_base += base.all.mispredictRate();
        sum_both += both.all.mispredictRate();
        sum_same += same.all.mispredictRate();
    }
    double n = static_cast<double>(workloadNames().size());
    table.startRow();
    table.cell(std::string("MEAN"));
    table.percentCell(sum_base / n);
    table.percentCell(sum_both / n);
    table.percentCell(sum_base > 0.0 ? (sum_base - sum_both) / sum_base
                                     : 0.0,
                      1);
    table.percentCell(sum_same / n);

    emitTable(table, run.cfg.csv, out);
    out << "expected shape: cross-input results track the "
           "same-input column closely -\nregion formation "
           "consumes only coarse block weights, so it does not "
           "overfit\nthe training input.\n";
    return true;
}

} // namespace pabp::bench::e18
