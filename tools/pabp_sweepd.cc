/**
 * @file
 * pabp-sweepd - long-lived shard runner for crash-safe sweep
 * campaigns (bench/sweep_service.hh, docs/PARALLEL.md).
 *
 * The tool expands a campaign grid (workloads x predictors x engine
 * configs x sizes x seeds), takes a deterministic `--shard i/N`
 * partition of it, and runs the owned cells against an append-only
 * results journal. Invoke it again after a crash - or `kill -9` it
 * mid-campaign and re-invoke - and it scans the journal, skips the
 * cells already recorded, re-runs quarantined ones, and converges to
 * the same final journal bytes an uninterrupted run produces.
 *
 * Exit status:
 *   0  shard drained, no quarantined cells
 *   1  shard drained, some cells quarantined (failures are durable in
 *      the journal; inspect with pabp-stats)
 *   2  setup error (bad options, unusable journal)
 *   3  stopped early by --stop-after (testing hook; not drained)
 */

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "sweep_service.hh"
#include "util/options.hh"
#include "workloads/workload.hh"

using namespace pabp;
using namespace pabp::bench;

namespace {

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream is(text);
    while (std::getline(is, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

/** Parse a comma list of decimal integers, each at most @p max, into
 *  @p out. Every entry must pass parseUnsigned (util/options.hh);
 *  false on the first that does not. */
bool
parseUnsignedList(const std::string &text, std::uint64_t max,
                  std::vector<std::uint64_t> &out)
{
    for (const std::string &item : splitList(text)) {
        std::uint64_t v = 0;
        if (!parseUnsigned(item, max, v))
            return false;
        out.push_back(v);
    }
    return true;
}

struct EngineVariant
{
    std::string name;
    bool sfpf;
    bool pgu;
};

bool
parseConfigs(const std::string &text, std::vector<EngineVariant> &out)
{
    for (const std::string &name : splitList(text)) {
        if (name == "base")
            out.push_back({name, false, false});
        else if (name == "sfpf" || name == "+sfpf")
            out.push_back({name, true, false});
        else if (name == "pgu" || name == "+pgu")
            out.push_back({name, false, true});
        else if (name == "both" || name == "+both")
            out.push_back({name, true, true});
        else
            return false;
    }
    return !out.empty();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opts;
    opts.declare("workloads", "all",
                 "comma list of suite workloads (or 'all')");
    opts.declare("predictors", "gshare",
                 "comma list of base predictor kinds");
    opts.declare("configs", "base,sfpf,pgu,both",
                 "comma list of engine configs "
                 "(base, sfpf, pgu, both)");
    opts.declare("sizes", "12",
                 "comma list of predictor table sizes (log2)");
    opts.declare("seeds", "42", "comma list of workload input seeds");
    opts.declare("steps", "1500000", "instructions per cell");
    opts.declare("shard", "0/1",
                 "run shard i of N ('i/N'); cell ownership is a pure "
                 "function of the spec fingerprint");
    opts.declare("journal", "pabp-sweep.pabpj",
                 "base journal path; a multi-shard run derives "
                 "'<base>-shard<i>of<N>.<ext>' per shard");
    opts.declare("jobs", "0",
                 "parallel sweep workers (0 = hardware concurrency)");
    opts.declare("max-attempts", "3",
                 "total tries per cell for retryable (IoError) "
                 "failures; 1 = no retry");
    opts.declare("backoff-ms", "0",
                 "deterministic retry backoff base, milliseconds "
                 "(doubles per attempt)");
    opts.declare("watchdog-ms", "0",
                 "per-attempt wall-clock deadline, milliseconds "
                 "(0 = off); an overrunning cell is quarantined with "
                 "DeadlineExceeded instead of stalling the shard");
    opts.declare("metrics-dir", "",
                 "ALSO export per-cell metrics JSON files into this "
                 "directory (the journal is the primary sink)");
    opts.declare("compact-every", "0",
                 "compact the journal after this many records "
                 "committed (0 = only at drain)");
    opts.declare("batch-cells", "0",
                 "cells handed to the runner per commit batch "
                 "(0 = 4x jobs)");
    opts.declare("stop-after", "0",
                 "testing hook: stop after N records committed, "
                 "simulating a crash (0 = off)");
    if (!opts.parse(argc, argv))
        return 0;

    const std::optional<ShardSpec> parsed_shard =
        parseShardSpec(opts.str("shard"));
    if (!parsed_shard) {
        std::cerr << "pabp-sweepd: bad --shard '" << opts.str("shard")
                  << "' (want 'i/N' with i < N)\n";
        return 2;
    }
    const ShardSpec shard = *parsed_shard;
    std::vector<EngineVariant> configs;
    if (!parseConfigs(opts.str("configs"), configs)) {
        std::cerr << "pabp-sweepd: bad --configs '"
                  << opts.str("configs")
                  << "' (want a comma list of base, sfpf, pgu, both)\n";
        return 2;
    }
    std::vector<std::string> names = opts.str("workloads") == "all"
        ? workloadNames()
        : splitList(opts.str("workloads"));
    const std::vector<std::string> known = workloadNames();
    for (const std::string &name : names) {
        if (std::find(known.begin(), known.end(), name) == known.end()) {
            std::cerr << "pabp-sweepd: unknown workload '" << name
                      << "'\n";
            return 2;
        }
    }

    std::vector<std::uint64_t> seeds;
    if (!parseUnsignedList(opts.str("seeds"),
                           std::numeric_limits<std::uint64_t>::max(),
                           seeds)) {
        std::cerr << "pabp-sweepd: bad --seeds '" << opts.str("seeds")
                  << "' (want a comma list of unsigned integers)\n";
        return 2;
    }
    std::vector<std::uint64_t> sizes;
    if (!parseUnsignedList(opts.str("sizes"),
                           std::numeric_limits<unsigned>::max(), sizes)) {
        std::cerr << "pabp-sweepd: bad --sizes '" << opts.str("sizes")
                  << "' (want a comma list of unsigned integers)\n";
        return 2;
    }

    // Every numeric option is checked here, before any cell runs; the
    // first malformed one is a setup error naming the option.
    const char *bad_option = nullptr;
    auto number = [&](const char *name, std::uint64_t max) {
        std::uint64_t v = 0;
        if (!parseUnsigned(opts.str(name), max, v) && !bad_option)
            bad_option = name;
        return v;
    };
    constexpr std::uint64_t u32max =
        std::numeric_limits<std::uint32_t>::max();
    constexpr std::uint64_t u64max =
        std::numeric_limits<std::uint64_t>::max();
    const std::uint64_t steps = number("steps", u64max);
    const auto watchdog_ms =
        static_cast<std::uint32_t>(number("watchdog-ms", u32max));
    const auto max_attempts =
        static_cast<unsigned>(number("max-attempts", u32max));
    const auto backoff_ms =
        static_cast<std::uint32_t>(number("backoff-ms", u32max));
    const auto jobs = static_cast<unsigned>(number("jobs", u32max));
    const std::uint64_t compact_every = number("compact-every", u64max);
    const std::uint64_t stop_after = number("stop-after", u64max);
    const auto batch_cells =
        static_cast<std::size_t>(number("batch-cells", u64max));
    if (bad_option) {
        std::cerr << "pabp-sweepd: bad --" << bad_option << " '"
                  << opts.str(bad_option)
                  << "' (want an unsigned integer)\n";
        return 2;
    }

    std::vector<RunSpec> grid;
    for (const std::uint64_t seed : seeds) {
        for (const std::string &name : names) {
            for (const std::string &pred :
                 splitList(opts.str("predictors"))) {
                for (const std::uint64_t size : sizes) {
                    for (const EngineVariant &variant : configs) {
                        RunSpec spec;
                        spec.workload = name;
                        spec.predictor = pred;
                        spec.seed = seed;
                        spec.sizeLog2 = static_cast<unsigned>(size);
                        spec.engine.useSfpf = variant.sfpf;
                        spec.engine.usePgu = variant.pgu;
                        spec.maxInsts = steps;
                        spec.metricsDir = opts.str("metrics-dir");
                        spec.watchdogMillis = watchdog_ms;
                        spec.maxAttempts = max_attempts;
                        spec.retryBackoffMillis = backoff_ms;
                        grid.push_back(spec);
                    }
                }
            }
        }
    }

    SweepRunner runner(SweepRunner::Config{jobs, 0});
    ServiceConfig config;
    config.journalPath =
        deriveShardJournalPath(opts.str("journal"), shard);
    config.shard = shard;
    config.compactEvery = compact_every;
    config.stopAfter = stop_after;
    config.batchCells = batch_cells;

    SweepService service(runner, config);
    Expected<ServiceReport> outcome = service.runShard(std::move(grid));
    if (!outcome.ok()) {
        std::cerr << "pabp-sweepd: " << outcome.status().toString()
                  << "\n";
        return 2;
    }
    const ServiceReport &report = outcome.value();
    std::cout << "pabp-sweepd shard " << shard.index << "/"
              << shard.count << " -> " << config.journalPath << "\n"
              << "  owned " << report.ownedCells << ", already done "
              << report.alreadyDone << ", executed " << report.executed
              << ", committed " << report.committed << "\n"
              << "  retried " << report.retried << ", quarantined "
              << report.quarantined << ", resume fallbacks "
              << report.resumeFallbacks
              << (report.salvagedTail ? ", salvaged torn tail" : "")
              << "\n"
              << (report.drained
                      ? std::string("  drained\n")
                      : std::string("  NOT drained\n"));
    if (report.stopped)
        return 3;
    return report.quarantined ? 1 : 0;
}
