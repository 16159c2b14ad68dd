/**
 * @file
 * E10 - Design-choice ablations (DESIGN.md decisions 3-5):
 *  - PGU insertion source: all compares vs region compares only
 *  - PGU inserted value: relation bit vs first write vs both writes
 *  - pset pseudo-defines included or not
 *  - SFPF define tracking: exact writes vs conservative (any fetched
 *    define blocks) - and training on squashed branches.
 * Reported as suite-mean mispredict rate and inserted bits.
 */

#include <functional>

#include "experiments.hh"

namespace pabp::bench::e10 {

namespace {

struct Ablation
{
    std::string label;
    std::function<void(EngineConfig &)> apply;
};

const std::vector<Ablation> ablations = {
    {"base gshare (no techniques)", [](EngineConfig &) {}},
    {"both, defaults",
     [](EngineConfig &e) {
         e.useSfpf = true;
         e.usePgu = true;
     }},
    {"PGU source: region cmps only",
     [](EngineConfig &e) {
         e.useSfpf = true;
         e.usePgu = true;
         e.pgu.source = PguSource::RegionCmps;
     }},
    {"PGU value: first write",
     [](EngineConfig &e) {
         e.useSfpf = true;
         e.usePgu = true;
         e.pgu.value = PguValue::FirstWrite;
     }},
    {"PGU value: both writes",
     [](EngineConfig &e) {
         e.useSfpf = true;
         e.usePgu = true;
         e.pgu.value = PguValue::BothWrites;
     }},
    {"PGU: include pset defines",
     [](EngineConfig &e) {
         e.useSfpf = true;
         e.usePgu = true;
         e.pgu.includePSet = true;
     }},
    {"SFPF: conservative def tracking",
     [](EngineConfig &e) {
         e.useSfpf = true;
         e.usePgu = true;
         e.conservativeDefTracking = true;
     }},
    {"SFPF: train on squashed",
     [](EngineConfig &e) {
         e.useSfpf = true;
         e.usePgu = true;
         e.trainOnSquashed = true;
     }},
};

} // namespace

Expected<std::vector<RunSpec>>
grid(const ExperimentConfig &cfg, std::ostream &log)
{
    log << "E10: design ablations (suite means, gshare-4K)\n\n";

    std::vector<RunSpec> specs;
    for (const Ablation &ablation : ablations) {
        for (const std::string &name : workloadNames()) {
            RunSpec spec = cfg.base;
            spec.workload = name;
            ablation.apply(spec.engine);
            specs.push_back(spec);
        }
    }
    return specs;
}

bool
table(const GridRun &run, std::ostream &out)
{
    Table table({"configuration", "mispredict", "squash%",
                 "pgu-bits/kinst"});
    std::size_t idx = 0;
    for (const Ablation &ablation : ablations) {
        double sum_rate = 0.0, sum_squash = 0.0, sum_bits = 0.0;
        for (std::size_t w = 0; w < workloadNames().size(); ++w) {
            const RunResult &result = run.results[idx++];
            const EngineStats &stats = result.engine;
            sum_rate += stats.all.mispredictRate();
            sum_squash += stats.all.branches
                ? static_cast<double>(stats.all.squashed) /
                    static_cast<double>(stats.all.branches)
                : 0.0;
            sum_bits += 1000.0 * static_cast<double>(result.pguBits) /
                static_cast<double>(stats.insts);
        }
        double n = static_cast<double>(workloadNames().size());
        table.startRow();
        table.cell(ablation.label);
        table.percentCell(sum_rate / n);
        table.percentCell(sum_squash / n);
        table.cell(sum_bits / n, 1);
    }

    emitTable(table, run.cfg.csv, out);
    return true;
}

} // namespace pabp::bench::e10
