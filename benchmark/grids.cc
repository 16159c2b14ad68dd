/**
 * @file
 * The benchmark's workload grids. Each one exercises a different set
 * of layers and doubles as the no-change control for the others
 * (README.md has the layer -> workload table):
 *
 *  - predictor-grid: every predictor kind over base-config traces;
 *    replay kernel and predictors, each trace reused 11 times.
 *  - technique-grid: three predictors x the four SFPF/PGU configs; the
 *    define kernel and the schedule cache, each trace replayed in one
 *    batch per cell as default sweeps do (no watchdog armed).
 *  - timed-pipeline: the E8 shape; emulator and cycle-level pipeline,
 *    no trace or schedule cache.
 *  - characterize: the E22 shape; the predictability analyzer.
 *  - cold-campaign: a pabp-sweepd-shaped journal campaign with little
 *    cache reuse; record/decode, the checkpointing reference loop,
 *    metrics capture and the journal.
 */

#include <algorithm>

#include "bench.hh"
#include "bpred/factory.hh"
#include "workloads/workload.hh"

namespace pabp::perf {

namespace {

constexpr std::uint64_t kCellInsts = 1'500'000;
constexpr std::uint64_t kSmokeInsts = 200'000;
/** The predictability analyzer costs ~0.6 us per event, so the
 *  characterize cells run a shorter budget to keep a pass near 2 s. */
constexpr std::uint64_t kCharacterizeInsts = 300'000;

struct EngineVariant
{
    bool sfpf;
    bool pgu;
};
constexpr EngineVariant kAllVariants[] = {
    {false, false}, {true, false}, {false, true}, {true, true}};

bench::RunSpec
baseSpec(const std::string &workload, std::uint64_t seed,
         std::uint64_t insts)
{
    bench::RunSpec spec;
    spec.workload = workload;
    spec.seed = seed;
    spec.maxInsts = insts;
    spec.captureMetrics = true;
    return spec;
}

} // anonymous namespace

const std::vector<std::string> &
benchWorkloads()
{
    static const std::vector<std::string> names = {
        "predictor-grid", "technique-grid", "timed-pipeline",
        "characterize", "cold-campaign"};
    return names;
}

bool
isCampaign(const std::string &workload)
{
    return workload == "cold-campaign";
}

std::vector<bench::RunSpec>
buildGrid(const std::string &workload, const GridOptions &opts)
{
    const std::uint64_t insts = opts.smoke ? kSmokeInsts : kCellInsts;
    std::vector<bench::RunSpec> grid;

    if (workload == "predictor-grid") {
        for (std::uint64_t s = 0; s < 2; ++s)
            for (const std::string &wl : workloadNames())
                for (const std::string &kind : allPredictorKinds()) {
                    bench::RunSpec spec = baseSpec(wl, opts.seed + s, insts);
                    spec.predictor = kind;
                    grid.push_back(std::move(spec));
                }
    } else if (workload == "technique-grid") {
        for (std::uint64_t s = 0; s < 2; ++s)
            for (const std::string &wl : workloadNames())
                for (const char *pred : {"gshare", "tage", "perceptron"})
                    for (const EngineVariant &v : kAllVariants) {
                        bench::RunSpec spec =
                            baseSpec(wl, opts.seed + s, insts);
                        spec.predictor = pred;
                        spec.engine.useSfpf = v.sfpf;
                        spec.engine.usePgu = v.pgu;
                        grid.push_back(std::move(spec));
                    }
    } else if (workload == "timed-pipeline") {
        for (std::uint64_t s = 0; s < 2; ++s)
            for (const std::string &wl : workloadNames()) {
                bench::RunSpec branchy = baseSpec(wl, opts.seed + s, insts);
                branchy.mode = bench::RunMode::Timed;
                branchy.ifConvert = false;
                grid.push_back(branchy);
                for (const EngineVariant &v : kAllVariants) {
                    bench::RunSpec spec = branchy;
                    spec.ifConvert = true;
                    spec.engine.useSfpf = v.sfpf;
                    spec.engine.usePgu = v.pgu;
                    grid.push_back(std::move(spec));
                }
            }
    } else if (workload == "characterize") {
        for (std::uint64_t s = 0; s < 4; ++s)
            for (const std::string &wl : workloadNames()) {
                bench::RunSpec spec = baseSpec(
                    wl, opts.seed + s,
                    opts.smoke ? kSmokeInsts : kCharacterizeInsts);
                spec.characterize = true;
                grid.push_back(std::move(spec));
            }
    } else if (workload == "cold-campaign") {
        // One trace per (seed, workload), two cells per trace; every
        // other trace checkpoints, which sends both of its cells down
        // the reference emulator loop.
        for (std::uint64_t s = 0; s < 4; ++s) {
            const std::vector<std::string> names = workloadNames();
            for (std::size_t w = 0; w < names.size(); ++w)
                for (const EngineVariant &v :
                     {kAllVariants[0], kAllVariants[3]}) {
                    bench::RunSpec spec =
                        baseSpec(names[w], opts.seed + s, insts);
                    spec.engine.useSfpf = v.sfpf;
                    spec.engine.usePgu = v.pgu;
                    if ((s + w) % 2 == 1) {
                        spec.checkpointEvery = 500'000;
                        spec.checkpointPath = opts.workDir + "/pabp.ckpt";
                    }
                    grid.push_back(std::move(spec));
                }
        }
    }
    return grid;
}

} // namespace pabp::perf
