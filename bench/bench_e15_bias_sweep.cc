/**
 * @file
 * E15 - The motivation figure: where does predication win? A single
 * diamond whose branch is taken with probability p is swept from
 * coin-flip (p=0.5) to strongly biased (p=0.99). Branchy code pays
 * mispredicts that peak at p=0.5; predicated code pays a constant
 * both-paths tax. The IPC crossover reproduces the intro argument of
 * every predication paper: if-convert the unpredictable branches,
 * keep the biased ones.
 */

#include <cstdio>

#include "experiments.hh"

namespace pabp::bench::e15 {

namespace {

/** Unique cache id per bias point ("bias-0.70"), since the generator
 * names every variant just "bias". */
std::string
biasId(double bias)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "bias-%.2f", bias);
    return buf;
}

const std::vector<double> biases = {0.50, 0.60, 0.70, 0.80,
                                    0.90, 0.95, 0.99};

} // namespace

Expected<std::vector<RunSpec>>
grid(const ExperimentConfig &cfg, std::ostream &log)
{
    log << "E15: branch bias sweep on the diamond kernel "
           "(gshare-4K, width 6, penalty 8)\n\n";

    // biases x {branchy, pred, pred+both}, all timed runs.
    std::vector<RunSpec> specs;
    for (double bias : biases) {
        RunSpec branchy = cfg.base;
        branchy.workload = biasId(bias);
        branchy.factory = [bias](std::uint64_t s) {
            return makeBiasWorkload(bias, s);
        };
        branchy.mode = RunMode::Timed;
        branchy.ifConvert = false;
        specs.push_back(branchy);

        RunSpec pred = branchy;
        pred.ifConvert = true;
        specs.push_back(pred);

        RunSpec both = pred;
        both.engine.useSfpf = true;
        both.engine.usePgu = true;
        specs.push_back(both);
    }
    return specs;
}

bool
table(const GridRun &run, std::ostream &out)
{
    const std::vector<RunResult> &results = run.results;
    Table table({"taken-prob", "mispredict(branchy)", "IPC(branchy)",
                 "IPC(pred)", "IPC(pred+both)", "pred wins"});

    std::size_t idx = 0;
    for (double bias : biases) {
        const RunResult &b = results[idx++];
        const RunResult &p = results[idx++];
        const RunResult &pb = results[idx++];

        table.startRow();
        table.cell(bias, 2);
        table.percentCell(b.engine.all.mispredictRate());
        table.cell(b.pipe.ipc(), 3);
        table.cell(p.pipe.ipc(), 3);
        table.cell(pb.pipe.ipc(), 3);
        table.cell(std::string(pb.pipe.ipc() > b.pipe.ipc() ? "yes"
                                                            : "no"));
    }

    emitTable(table, run.cfg.csv, out);
    out << "expected shape: the predication margin is largest "
           "where the branch is\nhard (p near 0.5) and shrinks "
           "as bias approaches 1. On this in-order\nfront end "
           "predication also removes taken-branch redirect "
           "bubbles, so the\nmargin stays positive even for "
           "biased branches - fatter arms or a\nnarrower "
           "machine move the crossover into view.\n";
    return true;
}

} // namespace pabp::bench::e15
