/**
 * @file
 * Predictor face-off: run the whole workload suite against the whole
 * predictor family, with and without the paper's techniques, and
 * print a league table. A compact way to explore the library's
 * predictor zoo from the command line.
 *
 * Run: ./build/examples/predictor_faceoff [--size-log2=12]
 *      [--steps=1000000] [--sfpf] [--pgu]
 */

#include <iostream>

#include "bpred/factory.hh"
#include "core/engine.hh"
#include "sim/emulator.hh"
#include "util/options.hh"
#include "util/table.hh"
#include "workloads/workload.hh"

using namespace pabp;

int
main(int argc, char **argv)
{
    Options opts;
    opts.declare("size-log2", "12", "predictor table size (log2)");
    opts.declare("steps", "1000000", "instructions per run");
    opts.declare("sfpf", "0", "arm the squash false path filter");
    opts.declare("pgu", "0", "arm predicate global update");
    if (!opts.parse(argc, argv))
        return 0;

    unsigned size_log2 = opts.unsignedInteger<unsigned>("size-log2");
    auto steps = opts.unsignedInteger("steps");
    EngineConfig ecfg;
    ecfg.useSfpf = opts.flag("sfpf");
    ecfg.usePgu = opts.flag("pgu");

    const std::vector<std::string> kinds = {"bimodal", "gag", "gshare",
                                            "local", "comb"};

    std::cout << "predictor face-off on predicated code (2^" << size_log2
              << " entries, sfpf=" << ecfg.useSfpf
              << ", pgu=" << ecfg.usePgu << ")\n\n";

    std::vector<std::string> header = {"workload"};
    for (const auto &kind : kinds)
        header.push_back(kind);
    Table table(header);

    std::vector<double> totals(kinds.size(), 0.0);
    for (const std::string &name : workloadNames()) {
        table.startRow();
        table.cell(name);
        for (std::size_t k = 0; k < kinds.size(); ++k) {
            Workload wl = makeWorkload(name, 42);
            CompileOptions copts;
            CompiledProgram cp = compileWorkload(wl, copts);
            PredictorPtr pred = makePredictor(kinds[k], size_log2);
            PredictionEngine engine(*pred, ecfg);
            Emulator emu(cp.prog);
            if (wl.init)
                wl.init(emu.state());
            runTrace(emu, engine, steps);
            double rate = engine.stats().all.mispredictRate();
            totals[k] += rate;
            table.percentCell(rate);
        }
    }
    table.startRow();
    table.cell(std::string("MEAN"));
    for (double t : totals)
        table.percentCell(t / static_cast<double>(workloadNames().size()));
    table.print(std::cout);

    std::cout << "\nTry --sfpf --pgu to see the paper's techniques "
                 "lift every column.\n";
    return 0;
}
