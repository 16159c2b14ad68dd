/**
 * @file
 * E13 - Compiler-side ablations (the codegen choices DESIGN.md calls
 * out):
 *  1. Exit sinking on/off: sinking exit branches to the hyperblock
 *     bottom is what gives the squash filter its define-to-branch
 *     distance; with in-place exits the filter should starve.
 *  2. Region size (maxBlocks) sweep: bigger hyperblocks convert more
 *     branches but execute more inert instructions - the classic
 *     predication trade-off, measured end to end.
 */

#include "experiments.hh"

namespace pabp::bench::e13 {

namespace {

constexpr std::uint64_t toHaltCap = 30'000'000;

const std::vector<unsigned> max_blocks_sweep = {2, 4, 6, 8, 12, 16};

} // namespace

Expected<std::vector<RunSpec>>
grid(const ExperimentConfig &cfg, std::ostream &)
{
    // Grid layout: [sink ablation pairs][branchy to-halt
    // baselines][maxBlocks x workloads to-halt runs]. The two tables
    // print their own headers.
    std::vector<RunSpec> specs;
    for (const std::string &name : workloadNames()) {
        for (int mode = 0; mode < 2; ++mode) {
            RunSpec spec = cfg.base;
            spec.workload = name;
            spec.engine.useSfpf = true;
            spec.compile.lowering.sinkExits = mode == 0;
            specs.push_back(spec);
        }
    }
    for (const std::string &name : workloadNames()) {
        RunSpec branchy = cfg.base;
        branchy.workload = name;
        branchy.ifConvert = false;
        branchy.maxInsts = toHaltCap;
        specs.push_back(branchy);
    }
    for (unsigned max_blocks : max_blocks_sweep) {
        for (const std::string &name : workloadNames()) {
            RunSpec spec = cfg.base;
            spec.workload = name;
            spec.engine.useSfpf = true;
            spec.engine.usePgu = true;
            spec.compile.heuristics.maxBlocks = max_blocks;
            spec.maxInsts = toHaltCap;
            specs.push_back(spec);
        }
    }
    return specs;
}

bool
table(const GridRun &run, std::ostream &out)
{
    const std::vector<RunResult> &results = run.results;
    const std::size_t nwl = workloadNames().size();
    const std::size_t branchy_offset = 2 * nwl;
    const std::size_t size_offset = 3 * nwl;

    out << "E13a: exit sinking ablation (gshare-4K + SFPF, "
           "delay=8)\n\n";

    Table sink_table({"workload", "squash%(sunk)", "squash%(in-place)",
                      "mispred(sunk)", "mispred(in-place)"});
    std::size_t idx = 0;
    for (const std::string &name : workloadNames()) {
        const EngineStats *modes[2] = {&results[idx].engine,
                                       &results[idx + 1].engine};
        idx += 2;
        sink_table.startRow();
        sink_table.cell(name);
        for (int mode = 0; mode < 2; ++mode) {
            sink_table.percentCell(
                modes[mode]->all.branches
                    ? static_cast<double>(modes[mode]->all.squashed) /
                        static_cast<double>(modes[mode]->all.branches)
                    : 0.0);
        }
        for (int mode = 0; mode < 2; ++mode)
            sink_table.percentCell(modes[mode]->all.mispredictRate());
    }
    emitTable(sink_table, run.cfg.csv, out);

    out << "E13b: hyperblock size sweep (suite means, "
           "gshare-4K + both techniques, runs to halt)\n\n";

    std::vector<std::uint64_t> branchy_insts;
    for (std::size_t w = 0; w < nwl; ++w)
        branchy_insts.push_back(
            results[branchy_offset + w].engine.insts);

    Table size_table({"maxBlocks", "static-regions", "region-br%",
                      "mispredict", "squash%", "inst-overhead"});
    idx = size_offset;
    for (unsigned max_blocks : max_blocks_sweep) {
        double sum_rate = 0.0, sum_share = 0.0, sum_squash = 0.0;
        double sum_overhead = 0.0;
        std::uint64_t regions = 0;
        for (std::size_t w = 0; w < nwl; ++w) {
            const RunResult &result = results[idx++];
            const EngineStats &stats = result.engine;
            regions += result.numRegions;

            sum_rate += stats.all.mispredictRate();
            double branches = static_cast<double>(stats.all.branches);
            sum_share += branches
                ? static_cast<double>(stats.region.branches) / branches
                : 0.0;
            sum_squash += branches
                ? static_cast<double>(stats.all.squashed) / branches
                : 0.0;
            sum_overhead += static_cast<double>(stats.insts) /
                static_cast<double>(branchy_insts[w]);
        }
        double n = static_cast<double>(nwl);
        size_table.startRow();
        size_table.cell(std::uint64_t{max_blocks});
        size_table.cell(regions);
        size_table.percentCell(sum_share / n);
        size_table.percentCell(sum_rate / n);
        size_table.percentCell(sum_squash / n);
        size_table.cell(sum_overhead / n, 2);
    }
    emitTable(size_table, run.cfg.csv, out);
    out << "inst-overhead = predicated instructions to complete "
           "the same work,\nrelative to the branchy binary.\n";
    return true;
}

} // namespace pabp::bench::e13
