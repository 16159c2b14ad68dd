/**
 * @file
 * pabp-fuzz: differential-testing campaign driver (docs/FUZZING.md).
 *
 *   pabp-fuzz --replay <case.pabp>         replay one corpus case
 *   pabp-fuzz --replay-dir <dir>           replay every *.pabp in dir
 *   pabp-fuzz --runs N [--seed S]          randomised campaign
 *   pabp-fuzz --check-harness              inject the PR-4 clamp bug,
 *                                          prove it is caught+shrunk
 *   pabp-fuzz --mine low-entropy-gap       adversarial workload mining
 *                                          (fuzz/mining.hh): hill-climb
 *                                          the generator knobs toward
 *                                          hard-to-predict programs and
 *                                          emit the winners as .pabp
 *
 * Each mode runs the eight differential oracles (if-conversion,
 * emulator-vs-pipeline, reference-vs-fast replay, checkpoint/resume,
 * corrupted-trace robustness, the sweep-cell cross-check,
 * corrupted-journal robustness and multi-context replay), and
 * minimises every failure to a self-contained reproducer.
 *
 * Exit status matches the pabp-stats conventions: 0 = all oracles
 * agreed, 1 = a divergence was found (reproducers printed and, with
 * --emit-dir, written), 2 = usage or input error. The mining mode
 * adds exit 3: the predictability *scorer* failed on a candidate -
 * a scoring-infrastructure problem, NOT a correctness bug - so the
 * seed is reported distinctly and never quarantined or emitted as a
 * reproducer. An oracle divergence on a mined case is still exit 1.
 */

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "fuzz/fuzz_runner.hh"
#include "fuzz/mining.hh"
#include "util/options.hh"

namespace {

using namespace pabp;
using namespace pabp::fuzz;

Options
declareOptions()
{
    Options opts;
    opts.declare("replay", "",
                 "replay one .pabp case file through its oracles");
    opts.declare("replay-dir", "",
                 "replay every .pabp case in a directory "
                 "(sorted, deterministic)");
    opts.declare("runs", "0",
                 "campaign mode: number of randomised cases to run");
    opts.declare("seed", "1", "campaign mode: first seed of the range "
                              "[seed, seed+runs)");
    opts.declare("emit-dir", "",
                 "write minimised failure reproducers here");
    opts.declare("shrink-budget", "200",
                 "max candidate evaluations per minimisation");
    opts.declare("scratch-dir", ".",
                 "directory for checkpoint scratch files");
    opts.declare("check-harness", "false",
                 "self-check: re-introduce the PR-4 cursor-clamp bug "
                 "and verify it is caught and minimised to <= 20 "
                 "instructions");
    opts.declare("inject-clamp-bug", "false",
                 "testing hook: run replay/campaign modes with the "
                 "PR-4 cursor-clamp bug injected (forces the "
                 "checkpoint oracle to diverge, exit 1)");
    opts.declare("mine", "",
                 "adversarial mining mode: hill-climb generator knobs "
                 "under the named scoring strategy "
                 "(low-entropy-gap); --runs = restarts, --seed = "
                 "first restart seed, winners go to --emit-dir");
    opts.declare("mine-steps", "12",
                 "mining: knob mutations per hill-climb restart");
    opts.declare("mine-top", "3",
                 "mining: emit the N best-scoring cases");
    opts.declare("mine-max-insts", "50000",
                 "mining: scoring replay budget per candidate");
    opts.declare("inject-scorer-failure", "false",
                 "testing hook: make the mining scorer fail on every "
                 "candidate (must surface as exit 3, with no case "
                 "quarantined or emitted)");
    return opts;
}

int
toExit(const Expected<CaseOutcome> &outcome)
{
    if (!outcome.ok()) {
        std::cerr << "pabp-fuzz: " << outcome.status().toString()
                  << "\n";
        return 2;
    }
    return outcome.value().passed() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = declareOptions();
    bool help = false;
    Status parsed = opts.tryParse(argc, argv, help);
    if (!parsed.ok()) {
        std::cerr << "pabp-fuzz: " << parsed.toString() << "\n";
        opts.printHelp("pabp-fuzz");
        return 2;
    }
    if (help)
        return 0;

    RunEnv env;
    env.scratchDir = opts.str("scratch-dir");
    env.injectClampBug = opts.flag("inject-clamp-bug");
    env.injectScorerFailure = opts.flag("inject-scorer-failure");
    const unsigned budget = opts.unsignedInteger<unsigned>("shrink-budget");

    if (!opts.str("mine").empty()) {
        MiningConfig cfg;
        cfg.strategy = opts.str("mine");
        Status valid = validateMiningStrategy(cfg.strategy);
        if (!valid.ok()) {
            std::cerr << "pabp-fuzz: " << valid.toString() << "\n";
            return 2;
        }
        cfg.baseSeed = opts.unsignedInteger("seed");
        const unsigned mineRuns = opts.unsignedInteger<unsigned>("runs");
        if (mineRuns > 0)
            cfg.restarts = mineRuns;
        cfg.steps = opts.unsignedInteger<unsigned>("mine-steps");
        cfg.emitTop = opts.unsignedInteger<unsigned>("mine-top");
        cfg.maxInsts = opts.unsignedInteger("mine-max-insts");
        cfg.emitDir = opts.str("emit-dir");
        Expected<MiningResult> mined =
            runMiningCampaign(cfg, env, std::cout);
        if (!mined.ok()) {
            std::cerr << "pabp-fuzz: " << mined.status().toString()
                      << "\n";
            return 2;
        }
        // Correctness beats scoring in the verdict: a divergence on
        // a mined case is a real bug (1); scorer trouble alone is
        // the distinct mining code (3).
        if (mined.value().oracleFailures > 0)
            return 1;
        if (mined.value().scorerFailures > 0)
            return 3;
        return 0;
    }

    if (opts.flag("check-harness")) {
        Status check = checkHarness(env, std::cout);
        if (!check.ok()) {
            std::cerr << "pabp-fuzz: " << check.toString() << "\n";
            return 1;
        }
        return 0;
    }

    if (!opts.str("replay").empty()) {
        return toExit(
            replayCaseFile(opts.str("replay"), env, std::cout, budget));
    }

    if (!opts.str("replay-dir").empty()) {
        namespace fs = std::filesystem;
        std::vector<std::string> paths;
        std::error_code ec;
        for (const fs::directory_entry &entry :
             fs::directory_iterator(opts.str("replay-dir"), ec)) {
            if (entry.path().extension() == ".pabp")
                paths.push_back(entry.path().string());
        }
        if (ec) {
            std::cerr << "pabp-fuzz: cannot list "
                      << opts.str("replay-dir") << ": " << ec.message()
                      << "\n";
            return 2;
        }
        if (paths.empty()) {
            std::cerr << "pabp-fuzz: no .pabp cases under "
                      << opts.str("replay-dir") << "\n";
            return 2;
        }
        std::sort(paths.begin(), paths.end());
        int worst = 0;
        for (const std::string &path : paths)
            worst = std::max(
                worst, toExit(replayCaseFile(path, env, std::cout,
                                             budget)));
        std::cout << paths.size() << " case(s) replayed\n";
        return worst;
    }

    const unsigned runs = opts.unsignedInteger<unsigned>("runs");
    if (runs > 0) {
        CampaignConfig cfg;
        cfg.baseSeed = opts.unsignedInteger("seed");
        cfg.runs = runs;
        cfg.emitDir = opts.str("emit-dir");
        cfg.shrinkBudget = budget;
        Expected<CampaignResult> result =
            runCampaign(cfg, env, std::cout);
        if (!result.ok()) {
            std::cerr << "pabp-fuzz: " << result.status().toString()
                      << "\n";
            return 2;
        }
        return result.value().clean() ? 0 : 1;
    }

    std::cerr << "pabp-fuzz: pick a mode: --replay, --replay-dir, "
                 "--runs N, or --check-harness\n";
    opts.printHelp("pabp-fuzz");
    return 2;
}
