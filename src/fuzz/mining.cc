#include "fuzz/mining.hh"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "bpred/factory.hh"
#include "core/predictability.hh"
#include "sim/emulator.hh"
#include "util/rng.hh"
#include "util/status.hh"

namespace pabp::fuzz {

namespace {

constexpr std::size_t miningMemWords = 1u << 16;

/** Too few dynamic conditional branches to characterize: the entropy
 *  estimate would be all warm-up noise. */
constexpr std::uint64_t minScoredBranches = 256;

std::uint64_t
mixMine(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

Expected<std::uint64_t>
replayMispredicts(const DecodedTrace &trace, const FuzzCase &c,
                  const EngineConfig &ecfg)
{
    Expected<PredictorPtr> pred =
        tryMakePredictor(c.predictor, c.sizeLog2);
    if (!pred.ok())
        return pred.status();
    PredictionEngine engine(*pred.value(), ecfg);
    engine.processBatch(trace, 0, trace.size());
    return engine.stats().all.mispredicts;
}

} // anonymous namespace

Status
validateMiningStrategy(const std::string &strategy)
{
    if (strategy == "low-entropy-gap")
        return Status();
    return Status(StatusCode::NotFound,
                  "unknown mining strategy '" + strategy +
                      "' (supported: low-entropy-gap)");
}

Expected<MiningScore>
scoreCase(const FuzzCase &fuzz_case, const RunEnv &env,
          const std::string &strategy)
{
    Status valid = validateMiningStrategy(strategy);
    if (!valid.ok())
        return valid;
    if (env.injectScorerFailure)
        return Status(StatusCode::Unsupported,
                      "injected scorer failure (self-check)");

    // Score the exact artifact a sweep cell runs: the UNWRAPPED
    // predicated lowering (RunSpec factories compile the body
    // workload themselves and never apply the call/return wrapper).
    // Scoring buildFuzzPrograms' wrapped program instead would let
    // the climb optimise a different program than the one bench_e22
    // measures whenever callDepth > 0.
    Workload body = makeFuzzWorkload(fuzz_case.seed, fuzz_case.gen);
    Workload compile_copy = body;
    CompiledProgram conv = compileWorkload(
        compile_copy, fuzzCompileOptions(fuzz_case.gen, true));
    Emulator emu(conv.prog, EmuConfig{miningMemWords, 0});
    if (body.init)
        body.init(emu.state());
    DecodedTrace trace = recordTrace(emu, fuzz_case.maxInsts);

    PredictabilityReport rep = characterizeTrace(trace);
    if (rep.occurrences < minScoredBranches) {
        MiningScore rejected;
        rejected.branches = rep.occurrences;
        rejected.rejected = true;
        return rejected;
    }

    // Baseline engine: techniques off, targets modelled, otherwise
    // the default EngineConfig - the same cell configuration the
    // measurement benches run - with the profile kept for the H2P
    // classification.
    Expected<PredictorPtr> basePred =
        tryMakePredictor(fuzz_case.predictor, fuzz_case.sizeLog2);
    if (!basePred.ok())
        return basePred.status();
    EngineConfig baseCfg;
    baseCfg.modelTargets = true;
    PredictionEngine base(*basePred.value(), baseCfg);
    base.processBatch(trace, 0, trace.size());

    EngineConfig bothCfg = baseCfg;
    bothCfg.useSfpf = true;
    bothCfg.usePgu = true;
    Expected<std::uint64_t> bothMisp =
        replayMispredicts(trace, fuzz_case, bothCfg);
    if (!bothMisp.ok())
        return bothMisp.status();

    Expected<H2pClassification> cls =
        classifyH2p(base.branchProfile());
    if (!cls.ok())
        return cls.status();

    const EngineStats &stats = base.stats();
    MiningScore s;
    s.branches = rep.occurrences;
    s.entropyK0 = rep.entropy.front();
    s.entropyKmax = rep.entropy.back();
    s.takenRate = rep.takenRate();
    s.transitionRate = rep.transitionRate();
    s.h2pShare = stats.all.branches
        ? static_cast<double>(cls.value().tierMispredicts.front()) /
            static_cast<double>(stats.all.branches)
        : 0.0;
    const double delta = std::abs(
        static_cast<double>(stats.all.mispredicts) -
        static_cast<double>(bothMisp.value()));
    s.techDeltaPerKilo = stats.all.branches
        ? 1000.0 * delta / static_cast<double>(stats.all.branches)
        : 0.0;

    // "low-entropy-gap": branches that stay high-entropy under the
    // deepest history conditioning (the k0 -> kmax entropy gap is
    // low), concentrated residual mispredicts, and a visible
    // technique delta. Each term is in [0, 1]-ish; the H2P share
    // carries the largest weight because it is the quantity
    // bench_e22 compares across workloads.
    const double gap =
        std::max(0.0, s.entropyK0 - s.entropyKmax);
    s.score = 1.0 * s.entropyKmax + 0.5 * (1.0 - gap) +
        2.0 * s.h2pShare +
        0.5 * std::min(1.0, s.techDeltaPerKilo / 50.0);
    return s;
}

namespace {

/** Mutate one generator knob (in place), chosen by @p rng. Local
 *  moves only: the seed stays fixed within a climb so the search is
 *  a walk over knob space, not a restart. */
void
mutateKnobs(FuzzProgramConfig &gen, Rng &rng)
{
    auto bump = [&rng](unsigned v, unsigned step,
                       unsigned lo, unsigned hi) -> unsigned {
        const unsigned d =
            1 + static_cast<unsigned>(rng.below(step));
        long next = static_cast<long>(v) +
            (rng.chance(0.5) ? static_cast<long>(d)
                             : -static_cast<long>(d));
        next = std::clamp<long>(next, lo, hi);
        return static_cast<unsigned>(next);
    };

    switch (rng.below(10)) {
    case 0:
        gen.branchDensity = bump(gen.branchDensity, 25, 10, 100);
        break;
    case 1:
        gen.predNestDepth = bump(gen.predNestDepth, 1, 0, 3);
        break;
    case 2:
        gen.loopDepth = bump(gen.loopDepth, 1, 0, 3);
        break;
    case 3:
        gen.hbPressure = bump(gen.hbPressure, 25, 0, 100);
        break;
    case 4:
        gen.divEdgePercent = bump(gen.divEdgePercent, 10, 0, 50);
        break;
    case 5:
        // Down to a single item: tier-0 is a cumulative-share set,
        // so concentrating the whole mispredict mass in one or two
        // static PCs is exactly what a high H2P share looks like.
        gen.items = bump(gen.items, 3, 1, 32);
        break;
    case 6:
        // Multiplicative like dataWindow: the useful range spans two
        // orders of magnitude (a short program needs thousands of
        // outer trips to warm the measured predictor past cold-start
        // noise), so +-8 steps would never traverse it.
        gen.repeats = rng.chance(0.5)
            ? std::min<std::int64_t>(4096, gen.repeats * 2)
            : std::max<std::int64_t>(32, gen.repeats / 2);
        break;
    case 7:
        gen.dataWindow = rng.chance(0.5)
            ? std::min<std::int64_t>(4096, gen.dataWindow * 2)
            : std::max<std::int64_t>(64, gen.dataWindow / 2);
        break;
    case 8:
        gen.dataBranchPercent =
            bump(gen.dataBranchPercent, 25, 0, 100);
        break;
    default:
        gen.callDepth = bump(gen.callDepth, 1, 0, 3);
        break;
    }
    clampConfig(gen);
}

} // anonymous namespace

Expected<MiningResult>
runMiningCampaign(const MiningConfig &cfg, const RunEnv &env,
                  std::ostream &log)
{
    Status valid = validateMiningStrategy(cfg.strategy);
    if (!valid.ok())
        return valid;

    MiningResult result;
    std::vector<MinedCase> winners;

    for (unsigned r = 0; r < cfg.restarts; ++r) {
        const std::uint64_t seed = cfg.baseSeed + r;
        FuzzCase c = deriveCase(seed);
        c.name = "mined-" + std::to_string(seed);
        c.maxInsts = cfg.maxInsts;
        // Score against the measurement cell, not the campaign
        // draw's random predictor: dominance is judged per predictor,
        // and a case hard for a 2^8 perceptron may be trivial for the
        // gshare cell bench_e22 actually runs.
        c.predictor = cfg.predictor;
        c.sizeLog2 = cfg.sizeLog2;
        // The campaign draw optimises for cheap correctness cases;
        // mining wants hard ones, so steer every restart into the
        // region where hard programs live before the climb starts
        // (the climb can still move every knob): enough outer trips
        // to get past the scorer's minimum-branch bar and cold-start
        // noise, branch-dense bodies, and LOW hyperblock pressure -
        // high pressure if-converts precisely the data-dependent
        // diamonds that carry the mispredict mass, leaving only
        // well-behaved loop branches behind.
        // Few items + mostly data branches concentrates the
        // mispredict mass in a handful of static PCs - the tier-0
        // cutoff is cumulative, so ten equally-hard branches halve
        // the measured share a single dominant branch would get.
        c.gen.items = std::clamp(c.gen.items, 2u, 6u);
        c.gen.repeats = std::max<std::int64_t>(c.gen.repeats, 256);
        c.gen.branchDensity = std::max(c.gen.branchDensity, 90u);
        c.gen.hbPressure = std::min(c.gen.hbPressure, 25u);
        c.gen.dataBranchPercent =
            std::max(c.gen.dataBranchPercent, 70u);
        clampConfig(c.gen);
        // Mining scores the single-stream replay; multi-context
        // interleaving and corruption schedules are campaign-only
        // concerns.
        c.contexts = 1;
        c.corruptFlips = 0;
        c.corruptTruncate = 0;

        // Scorer trouble is counted and logged; a candidate too small
        // to score is rejected. Either way the caller moves on.
        const auto scored = [&](const Expected<MiningScore> &s,
                                const std::string &where) {
            ++result.casesScored;
            if (!s.ok()) {
                ++result.scorerFailures;
                log << "MINE seed " << seed << where
                    << ": scorer failed: " << s.status().toString()
                    << "\n";
                return false;
            }
            if (s.value().rejected) {
                ++result.candidatesRejected;
                log << "MINE seed " << seed << where
                    << ": candidate rejected: only "
                    << s.value().branches
                    << " dynamic conditional branches (want >= "
                    << minScoredBranches << ")\n";
                return false;
            }
            return true;
        };

        Expected<MiningScore> cur = scoreCase(c, env, cfg.strategy);
        if (!scored(cur, ""))
            continue;

        FuzzCase best = c;
        MiningScore bestScore = cur.value();
        Rng rng(mixMine(seed, 0x1a5e));
        for (unsigned step = 0; step < cfg.steps; ++step) {
            FuzzCase cand = best;
            mutateKnobs(cand.gen, rng);
            Expected<MiningScore> s =
                scoreCase(cand, env, cfg.strategy);
            if (!scored(s, " step " + std::to_string(step)))
                continue;
            if (s.value().score > bestScore.score) {
                best = cand;
                bestScore = s.value();
            }
        }
        log << "MINE seed " << seed << ": score " << bestScore.score
            << " (H(k_max)=" << bestScore.entropyKmax
            << ", h2p_share=" << bestScore.h2pShare
            << ", branches=" << bestScore.branches << ")\n";
        winners.push_back({best, bestScore});
    }

    std::sort(winners.begin(), winners.end(),
              [](const MinedCase &a, const MinedCase &b) {
                  if (a.score.score != b.score.score)
                      return a.score.score > b.score.score;
                  return a.fuzzCase.seed < b.fuzzCase.seed;
              });
    if (winners.size() > cfg.emitTop)
        winners.resize(cfg.emitTop);

    // Winners must still be correctness-clean before they are handed
    // out as workloads: run the full oracle set once per emitted
    // case. A divergence here is a real bug (the exit-1 path), kept
    // strictly apart from scorer failures.
    for (MinedCase &w : winners) {
        Expected<CaseOutcome> outcome = runCase(w.fuzzCase, env);
        if (!outcome.ok())
            return outcome.status();
        if (!outcome.value().passed()) {
            ++result.oracleFailures;
            log << "MINE " << w.fuzzCase.name
                << ": oracle divergence on mined case:\n";
            for (const FuzzReport &rep : outcome.value().failures)
                log << "  [" << oracleName(rep.oracle) << "] "
                    << rep.status.toString() << "\n";
            continue;
        }
        if (!cfg.emitDir.empty()) {
            const std::string path =
                cfg.emitDir + "/" + w.fuzzCase.name + ".pabp";
            Status written = writeCaseFile(path, w.fuzzCase);
            if (!written.ok())
                return written;
            result.emitted.push_back(path);
            log << "  wrote " << path << "\n";
        }
        result.top.push_back(w);
    }

    log << "mining: " << result.casesScored << " candidate(s), "
        << result.candidatesRejected << " rejected, "
        << result.scorerFailures << " scorer failure(s), "
        << result.oracleFailures << " oracle failure(s), "
        << result.top.size() << " emitted winner(s)\n";
    return result;
}

} // namespace pabp::fuzz
