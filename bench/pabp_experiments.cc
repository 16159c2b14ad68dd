/**
 * @file
 * pabp-experiments: regenerate the E-series (bench/experiments.hh) in
 * one process.
 *
 *   pabp-experiments [--only e3,e12] [--jobs N] [--metrics-dir DIR]
 *                    [--summary-dir DIR] [standard options]
 *
 * The standard options are parsed once into the base cell every grid
 * builder copies. The selected grids (default: all) run as ONE
 * SweepRunner::run, so each program is compiled, each trace recorded
 * and each predictability report computed once for every experiment
 * that needs it. Each experiment then renders into its own block,
 * printed in E1...E22 order and byte-identical at any --jobs; its
 * cells' metrics land in <metrics-dir>/<experiment binary>/, and
 * E20/E21/E22 write their summary records under --summary-dir.
 *
 * Exit status 0 only when every selected experiment passed: every
 * cell ran, every renderer's acceptance check held, every summary was
 * written and, with --metrics-dir, every cell that ran left its
 * metrics file. Failures are named on stderr as "FAILED: ..." lines.
 */

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <iterator>
#include <sstream>

#include "experiments.hh"

using namespace pabp;
using namespace pabp::bench;

namespace {

/** The E-series, in print order. */
const Experiment registry[] = {
    {"e1", "bench_e1_characterisation", e1::grid, e1::table},
    {"e2", "bench_e2_baselines", e2::grid, e2::table},
    {"e3", "bench_e3_sfpf_sizes", e3::grid, e3::table},
    {"e4", "bench_e4_squash_rates", e4::grid, e4::table},
    {"e5", "bench_e5_pgu_sizes", e5::grid, e5::table},
    {"e6", "bench_e6_combined", e6::grid, e6::table},
    {"e7", "bench_e7_region_branches", e7::grid, e7::table},
    {"e8", "bench_e8_speedup", e8::grid, e8::table},
    {"e9", "bench_e9_avail_delay", e9::grid, e9::table},
    {"e10", "bench_e10_ablation", e10::grid, e10::table},
    {"e12", "bench_e12_distance_histo", e12::grid, e12::table},
    {"e13", "bench_e13_compiler_ablation", e13::grid, e13::table},
    {"e14", "bench_e14_spec_squash", e14::grid, e14::table},
    {"e15", "bench_e15_bias_sweep", e15::grid, e15::table},
    {"e16", "bench_e16_pollution", e16::grid, e16::table},
    {"e17", "bench_e17_selective", e17::grid, e17::table},
    {"e18", "bench_e18_cross_input", e18::grid, e18::table},
    {"e19", "bench_e19_pgu_bases", e19::grid, e19::table},
    {"e20", "bench_e20_tage_h2p", e20::grid, e20::table},
    {"e21", "bench_e21_interference", e21::grid, e21::table},
    {"e22", "bench_e22_characterization", e22::grid, e22::table},
};

/** --only: a comma-separated subset of the registry names; empty
 *  selects every experiment. Always registry order. An unknown name
 *  is fatal before anything runs. */
std::vector<const Experiment *>
selectExperiments(const std::string &only)
{
    std::vector<std::string> names;
    std::stringstream ss(only);
    for (std::string name; std::getline(ss, name, ',');)
        if (!name.empty())
            names.push_back(name);
    for (const std::string &name : names)
        if (std::none_of(std::begin(registry), std::end(registry),
                         [&](const Experiment &e) { return name == e.name; }))
            pabp_fatal("bad --only '" + only + "' (unknown experiment '" +
                       name + "'; want e1-e10, e12-e22)");

    std::vector<const Experiment *> selected;
    for (const Experiment &e : registry)
        if (names.empty() ||
            std::find(names.begin(), names.end(), e.name) != names.end())
            selected.push_back(&e);
    return selected;
}

/** Parse every option into the config, before any grid is built. A
 *  malformed value is fatal here (CLI shim layer, util/status.hh). */
ExperimentConfig
configFromOptions(const Options &opts)
{
    ExperimentConfig cfg;
    RunSpec &base = cfg.base;
    base.maxInsts = opts.unsignedInteger("steps");
    base.seed = opts.unsignedInteger("seed");
    base.checkpointEvery = opts.unsignedInteger("checkpoint-every");
    base.checkpointPath = opts.str("checkpoint-file");
    base.resumePath = opts.str("resume");
    base.fastReplay = opts.flag("fast-replay");
    base.characterize = opts.flag("characterize");
    const std::optional<ShardSpec> shard =
        parseShardSpec(opts.str("shard"));
    if (!shard)
        pabp_fatal("bad --shard '" + opts.str("shard") +
                   "' (want 'i/N', i < N)");
    base.shard = *shard;
    base.maxAttempts =
        std::max(1u, opts.unsignedInteger<unsigned>("max-attempts"));
    base.retryBackoffMillis =
        opts.unsignedInteger<std::uint32_t>("backoff-ms");
    base.watchdogMillis = opts.unsignedInteger<std::uint32_t>("watchdog-ms");

    cfg.pollutionContext.contexts =
        std::max(1u, opts.unsignedInteger<unsigned>("contexts"));
    Expected<ScheduleKind> kind =
        parseScheduleKind(opts.str("ctx-schedule"));
    if (!kind.ok())
        pabp_fatal("bad --ctx-schedule: " + kind.status().toString());
    cfg.pollutionContext.schedule = kind.value();

    cfg.mineRestarts = opts.unsignedInteger<unsigned>("mine-restarts");
    cfg.mineSteps = opts.unsignedInteger<unsigned>("mine-steps");
    cfg.mineTop = opts.unsignedInteger<unsigned>("mine-top");
    cfg.strict = opts.flag("strict");
    cfg.csv = opts.flag("csv");
    cfg.summaryDir = opts.str("summary-dir");
    return cfg;
}

/**
 * Point a built cell at its experiment's metrics directory, and keep
 * the run options off the cells that cannot honour them: checkpoints
 * serialise a single-context Trace cell's emulator, so a Timed cell
 * would ignore them and a multi-context cell would fail on them, and
 * a multi-context cell has no single stream to characterize.
 */
void
scopeRunOptions(RunSpec &spec, const std::string &metrics_dir)
{
    spec.metricsDir = metrics_dir;
    if (spec.mode == RunMode::Timed || spec.context.contexts > 1) {
        spec.checkpointEvery = 0;
        spec.resumePath.clear();
    }
    if (spec.context.contexts > 1)
        spec.characterize = false;
}

/** Cells that ran (not failed, not another shard's) but left no
 *  metrics file - a run whose measurements vanished has failed. */
std::size_t
missingMetricsFiles(const std::vector<RunSpec> &specs,
                    const std::vector<RunResult> &results)
{
    std::size_t missing = 0;
    for (std::size_t i = 0; i < specs.size(); ++i)
        if (results[i].status.ok() && !results[i].skipped &&
            !std::filesystem::exists(metricsFilePath(
                specs[i].metricsDir, specFingerprint(specs[i]))))
            ++missing;
    return missing;
}

/** One selected experiment on its way through the driver. */
struct Block
{
    const Experiment *experiment = nullptr;
    std::ostringstream out;
    std::vector<RunSpec> specs;
    std::size_t offset = 0; ///< first cell in the union grid
    bool ok = true;
};

} // namespace

int
main(int argc, char **argv)
{
    Options opts = standardOptions();
    opts.declare("only", "",
                 "comma-separated experiments to run, e.g. 'e3,e12' "
                 "(empty = all of e1-e10, e12-e22)");
    opts.declare("summary-dir", ".",
                 "directory of the E20/E21/E22 summary records "
                 "(BENCH_tage_h2p.json, BENCH_interference.json, "
                 "BENCH_characterization.json; empty = skip)");
    opts.declare("contexts", "1",
                 "E16: trace contexts interleaved through the shared "
                 "predictor (1 = ordinary single-stream run)");
    opts.declare("ctx-schedule", "rr",
                 "E16: context interleaving, 'rr' (round-robin) or "
                 "'bursty' (seeded random bursts)");
    opts.declare("mine-restarts", "6", "E22: mining hill-climb restarts");
    opts.declare("mine-steps", "32",
                 "E22: knob mutations per mining restart");
    opts.declare("mine-top", "3",
                 "E22: mined workloads carried into the grid");
    opts.declare("strict", "1",
                 "E22: fail unless a mined workload dominates the "
                 "suite on tier-0 share (0 for reduced smoke runs)");
    if (!opts.parse(argc, argv))
        return 0;

    const std::vector<const Experiment *> selected =
        selectExperiments(opts.str("only"));
    const ExperimentConfig cfg = configFromOptions(opts);
    const std::string metrics_dir = opts.str("metrics-dir");
    SweepRunner::Config runner_cfg;
    runner_cfg.jobs = opts.unsignedInteger<unsigned>("jobs");

    // Build every grid into one union, remembering each slice.
    std::vector<Block> blocks(selected.size());
    std::vector<RunSpec> grid;
    for (std::size_t b = 0; b < selected.size(); ++b) {
        Block &block = blocks[b];
        block.experiment = selected[b];
        Expected<std::vector<RunSpec>> built =
            block.experiment->grid(cfg, block.out);
        if (!built.ok()) {
            std::cerr << "FAILED: " << block.experiment->binary << ": "
                      << built.status().toString() << "\n";
            block.ok = false;
            continue;
        }
        block.specs = std::move(built.value());
        const std::string dir = metrics_dir.empty()
            ? std::string()
            : metrics_dir + "/" + block.experiment->binary;
        for (RunSpec &spec : block.specs)
            scopeRunOptions(spec, dir);
        block.offset = grid.size();
        grid.insert(grid.end(), block.specs.begin(), block.specs.end());
    }

    SweepRunner runner(runner_cfg);
    std::vector<RunResult> results = runner.run(grid);

    bool ok = true;
    std::size_t failed_cells = 0;
    for (Block &block : blocks) {
        const char *binary = block.experiment->binary;
        if (block.ok) {
            const auto first =
                results.begin() + static_cast<std::ptrdiff_t>(block.offset);
            const std::vector<RunResult> mine(
                std::make_move_iterator(first),
                std::make_move_iterator(
                    first +
                    static_cast<std::ptrdiff_t>(block.specs.size())));
            block.ok = block.experiment->table(
                GridRun{cfg, block.specs, mine}, block.out);
            const std::size_t failed =
                reportFailures(block.specs, mine, std::cerr);
            if (failed > 0) {
                std::cerr << "FAILED: " << binary << ": " << failed
                          << " cell(s) failed\n";
                failed_cells += failed;
                block.ok = false;
            }
            const std::size_t missing = metrics_dir.empty()
                ? 0
                : missingMetricsFiles(block.specs, mine);
            if (missing > 0) {
                std::cerr << "FAILED: " << binary << ": " << missing
                          << " cell(s) wrote no metrics file under "
                          << metrics_dir << "/" << binary << "\n";
                block.ok = false;
            }
        }
        std::cout << block.out.str();
        ok = ok && block.ok;
    }
    std::cout.flush();

    const SweepRunner::CacheStats cache = runner.cacheStats();
    std::cerr << "pabp-experiments: " << blocks.size()
              << " experiment(s), " << grid.size() << " cells ("
              << failed_cells << " failed); programs compiled "
              << cache.compiles << " (cache hits " << cache.hits
              << "), traces recorded " << cache.records << " (hits "
              << cache.traceHits << ", peak live "
              << cache.peakLiveTraces << "), reports characterized "
              << cache.characterizes << " (hits " << cache.reportHits
              << "), replay schedules inserted " << cache.scheduleInserts
              << " (hits " << cache.scheduleHits
              << "); peak live lanes "
              << cache.peakLaneBytes / 1000000 << " MB, schedules "
              << cache.peakScheduleBytes / 1000000 << " MB\n";
    return ok ? 0 : 1;
}
