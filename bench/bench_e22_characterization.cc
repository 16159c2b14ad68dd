/**
 * @file
 * E22 - Workload predictability characterization + adversarial
 * mining. Two questions:
 *
 *  1. How predictable is each suite workload, predictor-free?
 *     (core/predictability.hh: taken rate, transition rate,
 *     history-conditioned entropy H(outcome | last-k outcomes).)
 *  2. Can the miner (fuzz/mining.hh) find generated workloads whose
 *     residual mispredicts concentrate HARDER than anything in the
 *     hand-written suite - i.e. is the suite's H2P coverage an upper
 *     bound or just a starting point?
 *
 * Grid: {suite workloads + mined workloads} x one base config
 * (gshare, targets modelled), every cell characterized. The mined
 * workloads come from an in-process hill-climb campaign with a fixed
 * seed, so the binary is deterministic end to end. The dominance
 * metric is the tier-0 H2P mispredict share (tier-0 baseline
 * mispredicts / all dynamic branches, core/h2p.hh): the summary
 * records whether at least one mined workload beats EVERY suite
 * workload on it. Results go to BENCH_characterization.json under
 * --summary-dir, metric names in docs/OBSERVABILITY.md.
 */

#include <algorithm>
#include <string>
#include <vector>

#include "core/h2p.hh"
#include "core/predictability.hh"
#include "experiments.hh"
#include "fuzz/fuzz_gen.hh"
#include "fuzz/mining.hh"
#include "util/metrics.hh"

namespace pabp::bench::e22 {

namespace {

constexpr unsigned sizeLog2 = 12;    ///< gshare budget class
constexpr std::uint64_t mineSeed = 5; ///< first mining restart seed

} // namespace

Expected<std::vector<RunSpec>>
grid(const ExperimentConfig &cfg, std::ostream &log)
{
    const std::uint64_t steps = cfg.base.maxInsts;
    log << "E22: workload predictability characterization + "
           "adversarial mining (gshare-2^"
        << sizeLog2 << ")\n\n";

    // Stage 1: mine. Fixed seeds make the whole experiment
    // reproducible; the campaign is in-process (no .pabp round-trip)
    // and every winner has already survived the full oracle set.
    fuzz::MiningConfig mcfg;
    mcfg.baseSeed = mineSeed;
    mcfg.restarts = cfg.mineRestarts;
    mcfg.steps = cfg.mineSteps;
    mcfg.emitTop = cfg.mineTop;
    mcfg.maxInsts = std::min<std::uint64_t>(steps, 200'000);
    fuzz::RunEnv env;
    Expected<fuzz::MiningResult> mined =
        fuzz::runMiningCampaign(mcfg, env, log);
    if (!mined.ok())
        return Status(mined.status().code(),
                      "mining: " + mined.status().message());
    if (mined.value().oracleFailures > 0)
        return Status(StatusCode::Corrupt,
                      "mining surfaced an oracle divergence (see the "
                      "E22 log)");
    log << "\n";

    // Stage 2: one characterized base cell per workload, suite
    // members first, mined workloads appended via factories. E22
    // cells are always characterized - that is the whole point of
    // the experiment.
    std::vector<RunSpec> specs;
    auto baseSpec = [&](const std::string &id) {
        RunSpec spec = cfg.base;
        spec.workload = id;
        spec.predictor = "gshare";
        spec.sizeLog2 = sizeLog2;
        spec.engine.modelTargets = true;
        spec.characterize = true;
        return spec;
    };
    for (const std::string &name : workloadNames())
        specs.push_back(baseSpec(name));
    for (const fuzz::MinedCase &w : mined.value().top) {
        // The id must uniquely name the generated program: seed plus
        // the knob fingerprint (the climb moves knobs, not seeds).
        RunSpec spec = baseSpec(
            w.fuzzCase.name + "-" +
            std::to_string(fuzz::configFingerprint(w.fuzzCase.gen)));
        const std::uint64_t mine_seed = w.fuzzCase.seed;
        const fuzz::FuzzProgramConfig gen = w.fuzzCase.gen;
        spec.factory = [mine_seed, gen](std::uint64_t) {
            return fuzz::makeFuzzWorkload(mine_seed, gen);
        };
        spec.compile = fuzz::fuzzCompileOptions(gen, true);
        spec.maxInsts = std::min<std::uint64_t>(steps, 200'000);
        specs.push_back(spec);
    }
    return specs;
}

bool
table(const GridRun &run, std::ostream &out)
{
    const std::vector<RunSpec> &specs = run.specs;
    const std::vector<RunResult> &results = run.results;
    const std::size_t suite = workloadNames().size();

    MetricsExporter summary;
    summary.setText("characterization.predictor", "gshare");
    summary.setInt("characterization.size_log2", sizeLog2);
    summary.setInt("characterization.steps", run.cfg.base.maxInsts);
    summary.setInt("characterization.mined_workloads",
                   specs.size() - suite);
    Table table({"workload", "branches", "taken", "trans", "H(k0)",
                 "H(kmax)", "t0 share"});
    double bestSuite = 0.0, bestMined = 0.0;
    std::string bestSuiteName, bestMinedName;
    bool cellFailure = false;

    for (std::size_t i = 0; i < specs.size(); ++i) {
        const bool is_mined = i >= suite;
        const std::string &id = specs[i].workload;
        if (!results[i].status.ok() || !results[i].predictability) {
            std::cerr << "FAILED: E22: " << id << ": "
                      << (results[i].status.ok()
                              ? "characterization report missing"
                              : results[i].status.toString().c_str())
                      << "\n";
            cellFailure = true;
            continue;
        }
        const PredictabilityReport &rep = *results[i].predictability;
        Expected<H2pClassification> cls =
            classifyH2p(results[i].profile);
        if (!cls.ok()) {
            std::cerr << "FAILED: E22: " << id << ": "
                      << cls.status().toString() << "\n";
            cellFailure = true;
            continue;
        }
        const std::uint64_t branches =
            results[i].engine.all.branches;
        const double t0_share = branches
            ? static_cast<double>(
                  cls.value().tierMispredicts.front()) /
                static_cast<double>(branches)
            : 0.0;

        table.startRow();
        table.cell(id);
        table.cell(branches);
        table.cell(rep.takenRate(), 3);
        table.cell(rep.transitionRate(), 3);
        table.cell(rep.entropy.front(), 3);
        table.cell(rep.entropy.back(), 3);
        table.cell(t0_share, 4);

        const std::string prefix = "characterization." + id;
        summary.setText(prefix + ".kind",
                        is_mined ? "mined" : "suite");
        summary.setInt(prefix + ".branches", branches);
        summary.setReal(prefix + ".taken_rate", rep.takenRate());
        summary.setReal(prefix + ".transition_rate",
                        rep.transitionRate());
        for (std::size_t k = 0; k < rep.historyLengths.size(); ++k)
            summary.setReal(prefix + ".entropy.k" +
                                std::to_string(rep.historyLengths[k]),
                            rep.entropy[k]);
        summary.setReal(prefix + ".h2p.tier0_share", t0_share);

        double &best = is_mined ? bestMined : bestSuite;
        std::string &bestName =
            is_mined ? bestMinedName : bestSuiteName;
        if (t0_share > best || bestName.empty()) {
            best = t0_share;
            bestName = id;
        }
    }

    const bool dominant =
        !bestMinedName.empty() && bestMined > bestSuite;
    summary.setReal("characterization.suite.best_tier0_share",
                    bestSuite);
    summary.setText("characterization.suite.best_workload",
                    bestSuiteName);
    summary.setReal("characterization.mined.best_tier0_share",
                    bestMined);
    summary.setText("characterization.mined.best_workload",
                    bestMinedName);
    summary.setInt("characterization.mined.dominant",
                   dominant ? 1 : 0);

    emitTable(table, run.cfg.csv, out);
    out << "hardest suite workload:  " << bestSuiteName
        << " (tier-0 share " << bestSuite << ")\n"
        << "hardest mined workload:  " << bestMinedName
        << " (tier-0 share " << bestMined << ")\n"
        << "expected shape: the miner's hill-climb finds "
           "generated programs whose\nresidual mispredicts "
           "concentrate harder than any hand-written suite\n"
           "member (mined.dominant == 1) - the suite is a "
           "floor, not a ceiling,\nfor H2P stress.\n";

    if (!writeSummary(summary, run.cfg, "BENCH_characterization.json"))
        return false;
    if (cellFailure)
        return false;
    if (!dominant && run.cfg.strict) {
        std::cerr << "FAILED: E22: no mined workload dominates the "
                     "suite on tier-0 mispredict share\n";
        return false;
    }
    return true;
}

} // namespace pabp::bench::e22
