/**
 * @file
 * Adversarial workload mining: steer the PR-5 program generator
 * toward *hard* workloads instead of merely random ones.
 *
 * The campaign mode (fuzz_runner.hh) samples the generator-knob space
 * uniformly, which is right for finding correctness divergences but
 * wrong for finding workloads that stress the predictor: random knob
 * draws mostly produce branches a gshare resolves in a few hundred
 * events. This module adds a scored search. Each candidate case is
 *
 *  1. generated + compiled (both lowerings, predicated one recorded),
 *  2. characterized with the predictability analyzer
 *     (core/predictability.hh): taken/transition rates and
 *     history-conditioned entropy,
 *  3. replayed through a baseline engine and a +sfpf+pgu engine, and
 *  4. H2P-classified (core/h2p.hh) on the baseline profile,
 *
 * and scored by the selected strategy. "low-entropy-gap" rewards
 * programs whose branches stay high-entropy even under deep history
 * conditioning (the entropy *gap* between k=0 and k=max is low - a
 * local history does not explain the branch), with a bonus for a
 * concentrated H2P tier-0 mispredict share and for a visible
 * SFPF/PGU delta. A hill climb then mutates one generator knob at a
 * time, keeping improvements, from several random restarts; the top
 * cases are verified against the differential oracles and emitted as
 * ordinary `.pabp` files that replay anywhere.
 *
 * Failure taxonomy matters here (the exit-code contract in
 * tools/pabp_fuzz.cc): a case the *scorer* cannot evaluate (e.g. the
 * generated program has too few dynamic conditional branches to
 * characterize) is a scoring failure - reported distinctly (exit 3)
 * and never quarantined as a correctness failure - while an oracle
 * divergence on a mined case is a real bug (exit 1), exactly as in a
 * plain campaign.
 */

#ifndef PABP_FUZZ_MINING_HH
#define PABP_FUZZ_MINING_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fuzz/fuzz_runner.hh"
#include "fuzz/oracles.hh"

namespace pabp::fuzz {

/** Mining campaign parameters. */
struct MiningConfig
{
    /** Scoring strategy; "low-entropy-gap" is the only one so far. */
    std::string strategy = "low-entropy-gap";
    std::uint64_t baseSeed = 1;
    /** Hill-climb restarts (one derived case each). */
    unsigned restarts = 4;
    /** Knob mutations attempted per restart. */
    unsigned steps = 12;
    /** Emit the N best cases (after oracle verification). */
    unsigned emitTop = 3;
    /** Directory mined cases are written into ("" = none). */
    std::string emitDir;
    /** Scoring replay budget per candidate. */
    std::uint64_t maxInsts = 50'000;
    /** Measurement cell the scorer aligns with: the campaign draw's
     *  random predictor is right for correctness fuzzing but wrong
     *  here - a case mined against a random predictor does not
     *  transfer to the bench_e22 grid cell it is compared in. */
    std::string predictor = "gshare";
    unsigned sizeLog2 = 12;
};

/** What the scorer measured for one candidate. */
struct MiningScore
{
    double score = 0.0;
    /** Whole-trace conditional entropies at the smallest/largest k. */
    double entropyK0 = 0.0;
    double entropyKmax = 0.0;
    double takenRate = 0.0;
    double transitionRate = 0.0;
    /** Baseline tier-0 mispredicts / baseline branch lookups - the
     *  "H2P mispredict share" bench_e22 compares across workloads. */
    double h2pShare = 0.0;
    /** |baseline - sfpf+pgu| mispredicts per 1000 branches. */
    double techDeltaPerKilo = 0.0;
    /** Dynamic conditional branches scored. */
    std::uint64_t branches = 0;
    /** Too few dynamic conditional branches to characterize: the
     *  candidate is rejected, not scored, and only @ref branches is
     *  set. A verdict on the candidate, never a scorer failure. */
    bool rejected = false;
};

/** One mined case with its score. */
struct MinedCase
{
    FuzzCase fuzzCase;
    MiningScore score;
};

/** What a mining campaign produced. */
struct MiningResult
{
    unsigned casesScored = 0;
    /** Candidates too small to score (MiningScore::rejected); the
     *  climb moves on without them. */
    unsigned candidatesRejected = 0;
    /** Candidates the scorer could not evaluate (exit-3 path). */
    unsigned scorerFailures = 0;
    /** Mined cases that failed oracle verification (exit-1 path). */
    unsigned oracleFailures = 0;
    /** Best cases, score-descending (ties: seed ascending). */
    std::vector<MinedCase> top;
    /** Paths written under MiningConfig::emitDir. */
    std::vector<std::string> emitted;

    bool clean() const
    {
        return scorerFailures == 0 && oracleFailures == 0;
    }
};

/**
 * Score one candidate. A degenerate program (too few dynamic
 * conditional branches) comes back MiningScore::rejected. The error
 * path is "could not score" - an unknown predictor kind or the
 * injected self-check failure (RunEnv::injectScorerFailure) - never
 * a correctness verdict.
 */
Expected<MiningScore> scoreCase(const FuzzCase &fuzz_case,
                                const RunEnv &env,
                                const std::string &strategy);

/** Typed validation of a strategy name (CLI input). */
Status validateMiningStrategy(const std::string &strategy);

/**
 * Run the mining campaign: restarts x hill-climb steps, oracle-verify
 * the winners, emit the top cases. Deterministic in (cfg, env).
 * The Expected<> error path is setup-only (bad strategy, unwritable
 * emit dir); scorer and oracle failures are counted in the result.
 */
Expected<MiningResult> runMiningCampaign(const MiningConfig &cfg,
                                         const RunEnv &env,
                                         std::ostream &log);

} // namespace pabp::fuzz

#endif // PABP_FUZZ_MINING_HH
