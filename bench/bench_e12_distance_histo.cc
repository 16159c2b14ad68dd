/**
 * @file
 * E12 - Define-to-branch distance distributions: for every guarded
 * conditional branch, the dynamic distance (in instructions) from the
 * last write of its qualifying predicate. This is the quantity that
 * decides whether the squash filter can act (it needs distance >=
 * availability delay: a write at W is visible from W + delay on, see
 * core/delayed_pred_file.hh), so the paper-style analysis of "how far
 * ahead are guards known" reduces to this histogram.
 */

#include <memory>

#include "common.hh"
#include "util/stats.hh"

using namespace pabp;
using namespace pabp::bench;

namespace {

/** Per-workload accumulator, owned by exactly one Observe cell. */
struct DistanceAccum
{
    std::vector<std::uint64_t> lastWrite =
        std::vector<std::uint64_t>(numPredRegs, 0);
    Histogram histo{16, 4}; // 16 buckets of width 4 + overflow
    std::uint64_t inBucket[6] = {};
    std::uint64_t total = 0;

    void
    observe(const DynInst &dyn)
    {
        const Inst &inst = *dyn.inst;
        if (inst.op == Opcode::Br && inst.qp != 0) {
            std::uint64_t distance = dyn.seq - lastWrite[inst.qp];
            histo.sample(distance);
            ++total;
            if (distance < 4)
                ++inBucket[0];
            else if (distance < 8)
                ++inBucket[1];
            else if (distance < 16)
                ++inBucket[2];
            else if (distance < 32)
                ++inBucket[3];
            else if (distance < 64)
                ++inBucket[4];
            else
                ++inBucket[5];
        }
        for (unsigned w = 0; w < dyn.numPredWrites; ++w)
            lastWrite[dyn.predWrites[w].reg] = dyn.seq;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    Options opts = standardOptions();
    if (!opts.parse(argc, argv))
        return 0;
    std::uint64_t steps = opts.unsignedInteger("steps");
    std::uint64_t seed = opts.unsignedInteger("seed");

    std::cout << "E12: dynamic define-to-branch distance of branch "
                 "guards\n\n";

    // One Observe cell per workload; each cell's accumulator is
    // touched only by the worker running that cell.
    std::vector<std::unique_ptr<DistanceAccum>> accums;
    std::vector<RunSpec> specs;
    for (const std::string &name : workloadNames()) {
        accums.push_back(std::make_unique<DistanceAccum>());
        DistanceAccum *accum = accums.back().get();

        RunSpec spec;
        spec.workload = name;
        spec.mode = RunMode::Observe;
        spec.observe = [accum](const DynInst &dyn) {
            accum->observe(dyn);
        };
        spec.maxInsts = steps;
        spec.seed = seed;
        specs.push_back(spec);
    }

    applyMetricsOptions(specs, opts);
    SweepRunner runner(sweepConfigFromOptions(opts));
    std::vector<RunResult> results = runner.run(specs);

    Table table({"workload", "mean", "<4", "4-7", "8-15", "16-31",
                 "32-63", ">=64"});

    std::size_t idx = 0;
    for (const std::string &name : workloadNames()) {
        const DistanceAccum &accum = *accums[idx++];
        table.startRow();
        table.cell(name);
        table.cell(accum.histo.mean(), 1);
        for (int bucket = 0; bucket < 6; ++bucket)
            table.percentCell(
                accum.total ? static_cast<double>(
                                  accum.inBucket[bucket]) /
                        static_cast<double>(accum.total)
                            : 0.0,
                1);
    }

    emitTable(table, opts);
    std::cout << "guards resolved at least `availDelay` instructions "
                 "before the branch\nare filterable; compare these "
                 "columns against E4's squash rates.\n";
    return exitStatus(specs, results);
}
