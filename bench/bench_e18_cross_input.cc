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

#include "common.hh"

using namespace pabp;
using namespace pabp::bench;

int
main(int argc, char **argv)
{
    Options opts = standardOptions();
    opts.declare("train-seed", "42", "profiling input seed");
    opts.declare("ref-seed", "20260706", "measurement input seed");
    if (!opts.parse(argc, argv))
        return 0;
    std::uint64_t steps = opts.unsignedInteger("steps");
    std::uint64_t train = opts.unsignedInteger("train-seed");
    std::uint64_t ref = opts.unsignedInteger("ref-seed");

    std::cout << "E18: profile on train input (" << train
              << "), measure on ref input (" << ref << ")\n\n";

    // Per workload: base(ref), +both(ref) - compiled from the train
    // profile but run on the ref memory image (compileSeed != seed) -
    // then +both(same-input) compiled and run on ref.
    std::vector<RunSpec> specs;
    for (const std::string &name : workloadNames()) {
        RunSpec base;
        base.workload = name;
        base.compileSeed = train;
        base.seed = ref;
        base.maxInsts = steps;
        specs.push_back(base);

        RunSpec both = base;
        both.engine.useSfpf = true;
        both.engine.usePgu = true;
        specs.push_back(both);

        RunSpec same = both;
        same.compileSeed = ref;
        specs.push_back(same);
    }

    applyMetricsOptions(specs, opts);
    SweepRunner runner(sweepConfigFromOptions(opts));
    std::vector<RunResult> results = runner.run(specs);

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

    emitTable(table, opts);
    std::cout << "expected shape: cross-input results track the "
                 "same-input column closely -\nregion formation "
                 "consumes only coarse block weights, so it does not "
                 "overfit\nthe training input.\n";
    return exitStatus(specs, results);
}
