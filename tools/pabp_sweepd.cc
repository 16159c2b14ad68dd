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
#include <charconv>
#include <cstdint>
#include <iostream>
#include <limits>
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

bool
parseShard(const std::string &text, ShardSpec &shard)
{
    const std::size_t slash = text.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= text.size()) {
        return false;
    }
    try {
        std::size_t used = 0;
        const unsigned long i = std::stoul(text.substr(0, slash), &used);
        if (used != slash)
            return false;
        const std::string count_text = text.substr(slash + 1);
        const unsigned long n = std::stoul(count_text, &used);
        if (used != count_text.size())
            return false;
        if (n == 0 || i >= n)
            return false;
        shard.index = static_cast<std::uint32_t>(i);
        shard.count = static_cast<std::uint32_t>(n);
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

/** Parse a comma list of decimal integers, each at most @p max, into
 *  @p out. Every entry must be digits only and consumed whole; false
 *  on the first that is not (or overflows, or exceeds @p max). */
bool
parseUnsignedList(const std::string &text, std::uint64_t max,
                  std::vector<std::uint64_t> &out)
{
    for (const std::string &item : splitList(text)) {
        // Unlike stoull, from_chars takes no blanks, sign or suffix.
        std::uint64_t v = 0;
        const char *end = item.data() + item.size();
        const auto [ptr, ec] = std::from_chars(item.data(), end, v);
        if (ec != std::errc() || ptr != end || v > max)
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
    opts.declare("heartbeat-insts", "65536",
                 "instructions between watchdog checks");
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

    ShardSpec shard;
    if (!parseShard(opts.str("shard"), shard)) {
        std::cerr << "pabp-sweepd: bad --shard '" << opts.str("shard")
                  << "' (want 'i/N' with i < N)\n";
        return 2;
    }
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

    const std::uint64_t steps =
        static_cast<std::uint64_t>(opts.integer("steps"));
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
                        spec.watchdogMillis = static_cast<std::uint32_t>(
                            opts.integer("watchdog-ms"));
                        spec.heartbeatInsts =
                            static_cast<std::uint64_t>(
                                opts.integer("heartbeat-insts"));
                        spec.maxAttempts = static_cast<unsigned>(
                            opts.integer("max-attempts"));
                        spec.retryBackoffMillis =
                            static_cast<std::uint32_t>(
                                opts.integer("backoff-ms"));
                        grid.push_back(spec);
                    }
                }
            }
        }
    }

    SweepRunner runner(SweepRunner::Config{
        static_cast<unsigned>(opts.integer("jobs")), 0});
    ServiceConfig config;
    config.journalPath =
        deriveShardJournalPath(opts.str("journal"), shard);
    config.shard = shard;
    config.compactEvery =
        static_cast<std::uint64_t>(opts.integer("compact-every"));
    config.stopAfter =
        static_cast<std::uint64_t>(opts.integer("stop-after"));
    config.batchCells =
        static_cast<std::size_t>(opts.integer("batch-cells"));

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
