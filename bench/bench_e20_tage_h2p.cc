/**
 * @file
 * E20 - Does predicate information still help a TAGE-class predictor,
 * and specifically on the hard-to-predict branches? The paper's
 * SFPF/PGU numbers are against gshare-era baselines; the open
 * question (Lin & Tarsa, PAPERS.md; ROADMAP "Predicate information x
 * modern predictors") is whether the techniques survive a TAGE +
 * statistical corrector baseline, whose residual mispredicts
 * concentrate in a small H2P set.
 *
 * Grid: tage x {base, +SFPF, +PGU, +both} x suite workloads. Each
 * workload's BASE cell profile defines the H2P tiers (core/h2p.hh:
 * tier 0 = PCs covering the first 50% of residual mispredicts, tier 1
 * to 90%, tier 2 the rest); every variant's per-PC counters are then
 * re-aggregated over those same PC sets. Per-tier deltas go through
 * the metrics exporter into a byte-stable summary document (--h2p-out)
 * alongside the per-cell exports (--metrics-dir); metric names are in
 * docs/OBSERVABILITY.md.
 */

#include <sstream>

#include "common.hh"
#include "core/h2p.hh"
#include "util/metrics.hh"

using namespace pabp;
using namespace pabp::bench;

int
main(int argc, char **argv)
{
    Options opts = standardOptions();
    opts.declare("size-log2", "12", "tage budget class (log2)");
    opts.declare("h2p-out", "BENCH_tage_h2p.json",
                 "aggregate H2P summary path (pabp.metrics JSON; "
                 "empty = skip)");
    opts.declare("h2p-cutoffs", "0.5,0.9",
                 "cumulative mispredict-share tier cutoffs "
                 "(comma-separated, strictly increasing, in (0,1))");
    if (!opts.parse(argc, argv))
        return 0;
    std::uint64_t steps = opts.unsignedInteger("steps");
    std::uint64_t seed = opts.unsignedInteger("seed");
    const unsigned size_log2 = opts.unsignedInteger<unsigned>("size-log2");

    // Range/ordering problems surface later as classifyH2p's typed
    // InvalidArgument; only non-numeric text is rejected here.
    std::vector<double> cutoffs;
    {
        std::stringstream ss(opts.str("h2p-cutoffs"));
        std::string tok;
        while (std::getline(ss, tok, ',')) {
            if (tok.empty())
                continue;
            try {
                cutoffs.push_back(std::stod(tok));
            } catch (const std::exception &) {
                std::cerr << "FAILED: --h2p-cutoffs: '" << tok
                          << "' is not a number\n";
                return 1;
            }
        }
    }
    const unsigned ntiers =
        static_cast<unsigned>(cutoffs.size()) + 1;

    struct Config
    {
        const char *label;
        bool sfpf;
        bool pgu;
    };
    const Config configs[] = {
        {"base", false, false},
        {"sfpf", true, false},
        {"pgu", false, true},
        {"both", true, true},
    };
    const std::size_t ncfg = std::size(configs);

    std::cout << "E20: SFPF/PGU on TAGE, by hard-to-predict tier "
                 "(tage-2^" << size_log2 << ")\n\n";

    std::vector<RunSpec> specs;
    for (const std::string &name : workloadNames()) {
        for (const Config &config : configs) {
            RunSpec spec;
            spec.workload = name;
            spec.predictor = "tage";
            spec.sizeLog2 = size_log2;
            spec.maxInsts = steps;
            spec.seed = seed;
            spec.engine.useSfpf = config.sfpf;
            spec.engine.usePgu = config.pgu;
            applyCheckpointOptions(spec, opts);
            specs.push_back(spec);
        }
    }

    applyMetricsOptions(specs, opts);
    SweepRunner runner(sweepConfigFromOptions(opts));
    std::vector<RunResult> results = runner.run(specs);

    MetricsExporter summary;
    summary.setText("h2p.predictor", "tage");
    summary.setInt("h2p.size_log2", size_log2);
    summary.setInt("h2p.steps", steps);

    Table table({"workload", "tier", "branches", "base misp",
                 "+sfpf d", "+pgu d", "+both d"});
    // Suite-level per-(config, tier) sums for the quick read.
    std::vector<std::vector<double>> suiteDelta(
        ncfg, std::vector<double>(ntiers, 0.0));

    std::size_t idx = 0;
    for (const std::string &name : workloadNames()) {
        const std::size_t base_idx = idx;
        const BranchProfile &baseline = results[base_idx].profile;
        const Expected<H2pClassification> classified =
            classifyH2p(baseline, cutoffs);
        if (!classified.ok()) {
            std::cerr << "FAILED: --h2p-cutoffs: "
                      << classified.status().toString() << "\n";
            return 1;
        }
        const H2pClassification &cls = classified.value();
        const std::string prefix = "h2p." + name;
        exportH2pClassification(summary, cls, prefix);

        std::vector<std::vector<H2pTierCounters>> perCfg;
        for (std::size_t c = 0; c < ncfg; ++c) {
            const std::vector<H2pTierCounters> tiers =
                aggregateByTier(cls, results[idx].profile);
            exportH2pVariant(summary, configs[c].label, cls, tiers,
                             prefix);
            perCfg.push_back(tiers);
            ++idx;
        }

        for (unsigned t = 0; t < cls.numTiers(); ++t) {
            table.startRow();
            table.cell(name);
            table.cell(std::string("t") + std::to_string(t));
            table.cell(cls.tierBranches[t]);
            table.cell(cls.tierMispredicts[t]);
            for (std::size_t c = 1; c < ncfg; ++c) {
                const double delta =
                    static_cast<double>(perCfg[c][t].mispredicts) -
                    static_cast<double>(cls.tierMispredicts[t]);
                table.cell(delta, 0);
            }
            for (std::size_t c = 0; c < ncfg; ++c)
                suiteDelta[c][t] +=
                    static_cast<double>(perCfg[c][t].mispredicts) -
                    static_cast<double>(cls.tierMispredicts[t]);
        }
    }

    for (std::size_t c = 0; c < ncfg; ++c)
        for (unsigned t = 0; t < ntiers; ++t)
            summary.setReal("h2p.suite." +
                                std::string(configs[c].label) +
                                ".tier" + std::to_string(t) +
                                ".mispredict_delta",
                            suiteDelta[c][t]);

    emitTable(table, opts);
    std::cout << "expected shape: negative deltas (fewer mispredicts) "
                 "concentrated in tier 0\n(the H2P set) - predicate "
                 "information attacks exactly the branches TAGE's\n"
                 "history tables keep missing; tier 2 is near zero "
                 "either way.\n";

    const std::string out = opts.str("h2p-out");
    if (!out.empty()) {
        Status written = summary.writeJsonFile(out);
        if (!written.ok()) {
            std::cerr << "FAILED: cannot write " << out << ": "
                      << written.toString() << "\n";
            return 1;
        }
    }
    return exitStatus(specs, results);
}
