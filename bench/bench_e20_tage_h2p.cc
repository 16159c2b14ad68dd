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
 * the metrics exporter into a byte-stable summary document
 * (BENCH_tage_h2p.json under --summary-dir) alongside the per-cell
 * exports (--metrics-dir); metric names are in docs/OBSERVABILITY.md.
 */

#include "core/h2p.hh"
#include "experiments.hh"
#include "util/metrics.hh"

namespace pabp::bench::e20 {

namespace {

constexpr unsigned sizeLog2 = 12; ///< tage budget class
/** Cumulative mispredict-share tier cutoffs. */
const std::vector<double> cutoffs = {0.5, 0.9};

struct Config
{
    const char *label;
    bool sfpf;
    bool pgu;
};
constexpr Config configs[] = {
    {"base", false, false},
    {"sfpf", true, false},
    {"pgu", false, true},
    {"both", true, true},
};
constexpr std::size_t ncfg = std::size(configs);

} // namespace

Expected<std::vector<RunSpec>>
grid(const ExperimentConfig &cfg, std::ostream &log)
{
    log << "E20: SFPF/PGU on TAGE, by hard-to-predict tier "
           "(tage-2^" << sizeLog2 << ")\n\n";

    std::vector<RunSpec> specs;
    for (const std::string &name : workloadNames()) {
        for (const Config &config : configs) {
            RunSpec spec = cfg.base;
            spec.workload = name;
            spec.predictor = "tage";
            spec.sizeLog2 = sizeLog2;
            spec.engine.useSfpf = config.sfpf;
            spec.engine.usePgu = config.pgu;
            specs.push_back(spec);
        }
    }
    return specs;
}

bool
table(const GridRun &run, std::ostream &out)
{
    const std::vector<RunResult> &results = run.results;
    const unsigned ntiers = static_cast<unsigned>(cutoffs.size()) + 1;

    MetricsExporter summary;
    summary.setText("h2p.predictor", "tage");
    summary.setInt("h2p.size_log2", sizeLog2);
    summary.setInt("h2p.steps", run.cfg.base.maxInsts);
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
            std::cerr << "FAILED: E20: " << name << ": "
                      << classified.status().toString() << "\n";
            return false;
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

    emitTable(table, run.cfg.csv, out);
    out << "expected shape: negative deltas (fewer mispredicts) "
           "concentrated in tier 0\n(the H2P set) - predicate "
           "information attacks exactly the branches TAGE's\n"
           "history tables keep missing; tier 2 is near zero "
           "either way.\n";
    return writeSummary(summary, run.cfg, "BENCH_tage_h2p.json");
}

} // namespace pabp::bench::e20
