/**
 * @file
 * E21 - Shared-predictor interference across trace contexts. An SMT
 * front end interleaves several independent instruction streams
 * through one set of predictor tables; each stream both loses its own
 * trained entries to the others and inherits theirs. This bench
 * measures how much accuracy each context loses as the context count
 * grows, how the interleaving shape (regular round-robin vs seeded
 * bursts) and the history-sharing policy change that loss, and
 * whether predicate information (SFPF/PGU) still helps - and still
 * helps the HARD branches specifically - when the tables are under
 * cross-context pressure.
 *
 * Grid per workload: {base, +SFPF, +PGU, +both} x cells
 * {N=1 baseline} u {N in {2,4}} x {rr, bursty} x {shared, partitioned
 * history}. The N=1 cell is the interference-free reference for its
 * config: per-context degradation is that context's mispredict rate
 * minus the N=1 rate. H2P tiers are classified once per workload from
 * the N=1 base-config profile (core/h2p.hh) and every cell's
 * per-context profiles are re-aggregated over those PC sets, so "the
 * interference lands on the hard branches" has a numeric answer.
 *
 * Summary JSON (--out, default BENCH_interference.json) keys:
 *   itf.<wl>.<cfg>.<cell>.mispredict_rate      aggregate over contexts
 *   itf.<wl>.<cfg>.<cell>.degradation          rate - N=1 rate
 *   itf.<wl>.<cfg>.<cell>.ctx<K>.mispredict_rate / .degradation
 *   itf.<wl>.<cfg>.<cell>.tier<T>.mispredicts  mean per context
 * where <cell> is "n<N>.<rr|bursty>.<shared|part>" ("n1" for the
 * baseline). Per-cell metric files additionally carry the ctx<K>.*
 * block documented in docs/OBSERVABILITY.md.
 */

#include <vector>

#include "common.hh"
#include "core/h2p.hh"
#include "util/metrics.hh"

using namespace pabp;
using namespace pabp::bench;

namespace {

/** The per-context profiles of a cell: the top-level profile for an
 *  ordinary N=1 cell, the per-context ones for a multi-context cell. */
std::vector<const BranchProfile *>
profilesOf(const RunResult &result)
{
    std::vector<const BranchProfile *> out;
    if (result.contexts.empty()) {
        out.push_back(&result.profile);
    } else {
        for (const ContextCellResult &ctx : result.contexts)
            out.push_back(&ctx.profile);
    }
    return out;
}

/** Per-context mispredict rates (one entry for an N=1 cell). */
std::vector<double>
ratesOf(const RunResult &result)
{
    std::vector<double> out;
    if (result.contexts.empty()) {
        out.push_back(result.engine.all.mispredictRate());
    } else {
        for (const ContextCellResult &ctx : result.contexts)
            out.push_back(ctx.engine.all.mispredictRate());
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = standardOptions();
    declareContextOptions(opts);
    opts.declare("predictor", "gshare",
                 "shared predictor under interference");
    opts.declare("size-log2", "12", "predictor budget class (log2)");
    opts.declare("out", "BENCH_interference.json",
                 "interference summary path (pabp.metrics JSON; "
                 "empty = skip)");
    if (!opts.parse(argc, argv))
        return 0;
    std::uint64_t steps =
        static_cast<std::uint64_t>(opts.integer("steps"));
    std::uint64_t seed = static_cast<std::uint64_t>(opts.integer("seed"));
    const std::string predictor = opts.str("predictor");
    const unsigned size_log2 =
        static_cast<unsigned>(opts.integer("size-log2"));
    // --ctx-quantum/--ctx-seed/--ctx-tag-bits shape every
    // multi-context cell; --contexts/--ctx-schedule/--ctx-shared are
    // grid axes here and are ignored.
    const ContextSpec knobs = contextSpecFromOptions(opts);

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

    /** One point of the interference grid; contexts == 1 is the
     *  interference-free baseline (schedule/sharing are degenerate
     *  there, so only one N=1 cell runs per config). */
    struct Cell
    {
        unsigned contexts;
        ScheduleKind sched;
        bool shared;
        std::string
        label() const
        {
            if (contexts == 1)
                return "n1";
            return "n" + std::to_string(contexts) + "." +
                scheduleKindName(sched) + (shared ? ".shared" : ".part");
        }
    };
    std::vector<Cell> cells;
    cells.push_back({1, ScheduleKind::RoundRobin, true});
    for (unsigned n : {2u, 4u})
        for (ScheduleKind sched :
             {ScheduleKind::RoundRobin, ScheduleKind::Bursty})
            for (bool shared : {true, false})
                cells.push_back({n, sched, shared});
    const std::size_t ncell = cells.size();

    std::cout << "E21: shared-predictor interference across contexts ("
              << predictor << "-2^" << size_log2 << ", quantum "
              << knobs.quantum << ", tag bits " << knobs.tagBits
              << ")\n\n";

    std::vector<RunSpec> specs;
    for (const std::string &name : workloadNames()) {
        for (const Config &config : configs) {
            for (const Cell &cell : cells) {
                RunSpec spec;
                spec.workload = name;
                spec.predictor = predictor;
                spec.sizeLog2 = size_log2;
                spec.maxInsts = steps;
                spec.seed = seed;
                spec.engine.useSfpf = config.sfpf;
                spec.engine.usePgu = config.pgu;
                spec.context.contexts = cell.contexts;
                spec.context.schedule = cell.sched;
                spec.context.shared = cell.shared;
                spec.context.quantum = knobs.quantum;
                spec.context.scheduleSeed = knobs.scheduleSeed;
                spec.context.tagBits = knobs.tagBits;
                specs.push_back(spec);
            }
        }
    }

    applyMetricsOptions(specs, opts);
    SweepRunner runner(sweepConfigFromOptions(opts));
    std::vector<RunResult> results = runner.run(specs);

    MetricsExporter summary;
    summary.setText("itf.predictor", predictor);
    summary.setInt("itf.size_log2", size_log2);
    summary.setInt("itf.steps", steps);
    summary.setInt("itf.quantum", knobs.quantum);
    summary.setInt("itf.tag_bits", knobs.tagBits);

    Table table({"workload", "config", "cell", "misp rate", "d(rate)",
                 "worst ctx d", "tier0 misp/ctx"});

    std::size_t idx = 0;
    for (const std::string &name : workloadNames()) {
        // H2P tiers come from this workload's interference-free
        // base-config profile (cell 0 of config 0).
        const Expected<H2pClassification> classified =
            classifyH2p(results[idx].profile);
        if (!classified.ok()) {
            std::cerr << "FAILED: " << name << ": "
                      << classified.status().toString() << "\n";
            return 1;
        }
        const H2pClassification &cls = classified.value();
        exportH2pClassification(summary, cls, "itf." + name + ".h2p");

        for (const Config &config : configs) {
            const double baseRate =
                results[idx].engine.all.mispredictRate();
            for (std::size_t k = 0; k < ncell; ++k, ++idx) {
                const RunResult &r = results[idx];
                if (!r.status.ok())
                    continue; // reported by exitStatus below
                const std::string prefix = "itf." + name + "." +
                    config.label + "." + cells[k].label() + ".";
                const double rate = r.engine.all.mispredictRate();
                summary.setReal(prefix + "mispredict_rate", rate);
                summary.setReal(prefix + "degradation",
                                rate - baseRate);

                const std::vector<double> rates = ratesOf(r);
                double worst = 0.0;
                for (std::size_t c = 0; c < rates.size(); ++c) {
                    summary.setReal(prefix + "ctx" + std::to_string(c) +
                                        ".mispredict_rate",
                                    rates[c]);
                    summary.setReal(prefix + "ctx" + std::to_string(c) +
                                        ".degradation",
                                    rates[c] - baseRate);
                    worst = std::max(worst, rates[c] - baseRate);
                }

                // Mean per-context tier mispredicts over the N=1
                // base-config tier sets: comparable to
                // cls.tierMispredicts[t] whatever the context count.
                std::vector<double> tierMean(cls.numTiers(), 0.0);
                const auto profiles = profilesOf(r);
                for (const BranchProfile *profile : profiles) {
                    const auto tiers = aggregateByTier(cls, *profile);
                    for (unsigned t = 0; t < cls.numTiers(); ++t)
                        tierMean[t] +=
                            static_cast<double>(tiers[t].mispredicts);
                }
                for (unsigned t = 0; t < cls.numTiers(); ++t) {
                    tierMean[t] /=
                        static_cast<double>(profiles.size());
                    summary.setReal(prefix + "tier" +
                                        std::to_string(t) +
                                        ".mispredicts",
                                    tierMean[t]);
                }

                table.startRow();
                table.cell(name);
                table.cell(std::string(config.label));
                table.cell(cells[k].label());
                table.cell(rate, 4);
                table.cell(rate - baseRate, 4);
                table.cell(worst, 4);
                table.cell(tierMean[0], 0);
            }
        }
    }

    emitTable(table, opts);
    std::cout << "degradation = mispredict rate minus the same "
                 "config's interference-free\n(n1) rate. The contexts "
                 "are independent input seeds of the SAME workload,\nso "
                 "two forces compete: constructive table sharing (N "
                 "co-runners train the\nsame static branches) pulls "
                 "degradation negative, destructive history/"
                 "\ncorrelation interference pulls it positive. Shared "
                 "history is consistently\nworse than partitioned at "
                 "equal N, and SFPF/PGU keep their sign under\n"
                 "pressure: filtered tables alias less across contexts "
                 "too.\n";

    const std::string out = opts.str("out");
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
