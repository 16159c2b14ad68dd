/**
 * @file
 * Predictor-independent workload predictability metrics.
 *
 * The SFPF/PGU gains measured elsewhere in this repo are only
 * meaningful relative to how predictable the workload was in the
 * first place. Following the workload-characterization literature
 * (PAPERS.md), this module computes three predictor-independent
 * metrics over a recorded trace, per static conditional
 * branch and aggregated occurrence-weighted over the whole trace:
 *
 *  - taken rate: fraction of dynamic outcomes that were taken,
 *  - transition rate: fraction of outcomes that differed from the
 *    same static branch's previous outcome,
 *  - history-conditioned entropy H(outcome | last-k outcomes) in
 *    bits, for a configurable set of history lengths k (default
 *    {0, 4, 8, 16}). k = 0 is the unconditioned outcome entropy; a
 *    branch whose behaviour a k-bit local history fully determines
 *    has H = 0 at that k.
 *
 * The estimator is frequentist: for each (pc, k) the last k outcomes
 * form a pattern, and the entropy is the pattern-frequency-weighted
 * binary entropy of the outcome distribution per pattern. The first
 * k occurrences of a PC are warm-up and are NOT counted into the
 * k-conditioned table (they have no full history), which makes the
 * analytic pins exact: a period-2 alternator has H(k>=1) == 0, not
 * "approximately 0 once the cold start washes out".
 *
 * Like BranchProfile, every table is bounded with a deterministic
 * eviction policy and an explicit remainder - nothing is silently
 * truncated:
 *  - at most pcCapacity static PCs are tracked; at capacity the PC
 *    with the fewest occurrences (ties: highest PC) is folded into
 *    the evicted remainder (occurrence/taken/transition counts stay
 *    exact; its entropy tables are dropped and counted in
 *    evictedBranches),
 *  - at most patternCapacity distinct patterns per (pc, k); at
 *    capacity the pattern with the fewest observations (ties:
 *    highest pattern) is folded into a per-(pc, k) remainder bucket
 *    whose entropy contribution is computed as one merged pattern
 *    (an upper bound on the true contribution).
 *
 * Exported metric names ("predictability.*") are documented in
 * docs/OBSERVABILITY.md; byte stability is pinned by a golden test.
 */

#ifndef PABP_CORE_PREDICTABILITY_HH
#define PABP_CORE_PREDICTABILITY_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/h2p.hh"
#include "sim/decoded_trace.hh"
#include "util/metrics.hh"
#include "util/status.hh"

namespace pabp {

/** Knobs for PredictabilityAnalyzer. */
struct PredictabilityConfig
{
    /** History lengths to condition on, each <= 31, strictly
     *  increasing. 0 = unconditioned outcome entropy. */
    std::vector<unsigned> historyLengths = {0, 4, 8, 16};
    /** Max distinct static PCs tracked (0 = unbounded is NOT
     *  offered; mirror BranchProfile's default). */
    std::size_t pcCapacity = 1024;
    /** Max distinct history patterns per (pc, k). */
    std::size_t patternCapacity = 4096;
};

/** The computed metrics for one trace. */
struct PredictabilityReport
{
    /** Per-static-branch metrics. Entropy vectors parallel
     *  historyLengths. */
    struct PerPc
    {
        std::uint64_t occurrences = 0;
        std::uint64_t taken = 0;
        std::uint64_t transitions = 0;
        /** H(outcome | last-k outcomes) in bits, one per k. */
        std::vector<double> entropy;
        /** Outcomes counted into each k's table (occurrences minus
         *  the k-step warm-up). */
        std::vector<std::uint64_t> conditioned;

        double
        takenRate() const
        {
            return occurrences ? static_cast<double>(taken) /
                    static_cast<double>(occurrences)
                               : 0.0;
        }
        double
        transitionRate() const
        {
            return occurrences ? static_cast<double>(transitions) /
                    static_cast<double>(occurrences)
                               : 0.0;
        }
    };

    std::vector<unsigned> historyLengths;
    std::map<std::uint32_t, PerPc> perPc;

    /** Whole-trace totals, INCLUDING the evicted remainder - the
     *  trace-level rates are exact regardless of pcCapacity. */
    std::uint64_t occurrences = 0;
    std::uint64_t taken = 0;
    std::uint64_t transitions = 0;
    /** Occurrence-weighted mean of per-PC entropies, one per k
     *  (weights are each PC's conditioned count for that k). */
    std::vector<double> entropy;
    std::vector<std::uint64_t> conditioned;

    /** Eviction remainder (PC-level folds). */
    std::uint64_t evictedBranches = 0;
    std::uint64_t evictedOccurrences = 0;
    std::uint64_t evictedTaken = 0;
    std::uint64_t evictedTransitions = 0;
    /** Pattern-level folds summed across every (pc, k) table. */
    std::uint64_t evictedPatterns = 0;

    double
    takenRate() const
    {
        return occurrences ? static_cast<double>(taken) /
                static_cast<double>(occurrences)
                           : 0.0;
    }
    double
    transitionRate() const
    {
        return occurrences ? static_cast<double>(transitions) /
                static_cast<double>(occurrences)
                           : 0.0;
    }
};

/**
 * Streaming predictability estimator. Feed it every conditional-
 * branch outcome in trace order via observe(), then report().
 */
class PredictabilityAnalyzer
{
  public:
    /** @p cfg is validated: empty/oversized/non-increasing history
     *  lengths are clamped fatal-free by the caller using
     *  validateConfig() first; the constructor asserts. */
    explicit PredictabilityAnalyzer(PredictabilityConfig cfg = {});

    /** Typed validation for CLI-supplied configs. */
    static Status validateConfig(const PredictabilityConfig &cfg);

    /** Record one dynamic conditional-branch outcome. */
    void observe(std::uint32_t pc, bool taken);

    /** Compute the report over everything observed so far. */
    PredictabilityReport report() const;

    std::uint64_t observed() const { return total; }

  private:
    struct PatternTable
    {
        /** pattern -> [not-taken, taken] observation counts. */
        std::map<std::uint32_t, std::array<std::uint64_t, 2>> counts;
        /** Folded-pattern remainder bucket. */
        std::array<std::uint64_t, 2> remainder = {0, 0};
        std::uint64_t evictedPatterns = 0;
    };

    struct PcState
    {
        std::uint64_t occurrences = 0;
        std::uint64_t taken = 0;
        std::uint64_t transitions = 0;
        bool lastOutcome = false;
        /** Last outcomes, newest in bit 0. */
        std::uint32_t history = 0;
        std::vector<PatternTable> tables; ///< one per history length
    };

    PcState &stateFor(std::uint32_t pc);
    void recordPattern(PatternTable &t, std::uint32_t pattern,
                       bool taken);

    PredictabilityConfig cfg;
    std::map<std::uint32_t, PcState> table;
    std::uint64_t total = 0;
    std::uint64_t evictedBranches = 0;
    std::uint64_t evictedOccurrences = 0;
    std::uint64_t evictedTaken = 0;
    std::uint64_t evictedTransitions = 0;
    std::uint64_t evictedPatterns = 0;
};

/** Binary entropy in bits; Hb(0) == Hb(1) == 0. */
double binaryEntropy(double p);

/**
 * Characterize the conditional-branch stream of a trace: one pass
 * over its class and flags lanes. Events are classified exactly like
 * the prediction engine (a Br with a qualifying predicate); @p max_events == 0 means the whole trace,
 * otherwise only the first max_events trace events are scanned -
 * matching a replay budget so characterization and measurement see
 * the same stream.
 */
PredictabilityReport
characterizeTrace(const DecodedTrace &trace,
                  const PredictabilityConfig &cfg = {},
                  std::uint64_t max_events = 0);

/**
 * Export under "<prefix>.*": whole-trace metrics plus a
 * "<prefix>" table (one row per tracked PC, PC ascending; entropies
 * as integer millibits since table rows are integral).
 */
void exportPredictability(MetricsExporter &ex,
                          const PredictabilityReport &report,
                          const std::string &prefix = "predictability");

/** Column names of the exported table, in row order. */
std::vector<std::string>
predictabilityTableColumns(const std::vector<unsigned> &history_lengths);

/**
 * Cross-reference with an H2P classification: re-aggregate the
 * report's per-PC metrics over @p cls's tier sets and export
 * "<prefix>.tier<i>.*" (occurrence-weighted entropies, taken and
 * transition rates, matched-branch coverage). Answers "are the H2P
 * branches the low-predictability ones?" per sweep cell.
 */
void aggregatePredictabilityByTier(
    MetricsExporter &ex, const H2pClassification &cls,
    const PredictabilityReport &report,
    const std::string &prefix = "predictability");

} // namespace pabp

#endif // PABP_CORE_PREDICTABILITY_HH
