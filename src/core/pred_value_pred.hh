/**
 * @file
 * Predicate value predictor - an extension beyond the paper's two
 * techniques. The squash false path filter refuses to act when the
 * guarding predicate has an in-flight define (value unknown at
 * fetch); this component predicts the unresolved guard with a small
 * PC-indexed counter table so the branch can be *speculatively*
 * squashed. Unlike the filter proper, this path is not 100% accurate:
 * a wrong guard prediction can turn into a branch mispredict. The
 * engine keeps the two mechanisms' statistics separate so the trade
 * is measurable (bench E14).
 */

#ifndef PABP_CORE_PRED_VALUE_PRED_HH
#define PABP_CORE_PRED_VALUE_PRED_HH

#include <cstdint>
#include <vector>

#include "util/sat_counter.hh"
#include "util/serialize.hh"
#include "util/stats.hh"
#include "util/status.hh"

namespace pabp {

/** PC-indexed 2-bit predictor of a branch's guard value. */
class PredicateValuePredictor
{
  public:
    explicit PredicateValuePredictor(unsigned entries_log2 = 10);

    /** Predicted guard value for the branch at @p pc. */
    bool predictGuard(std::uint32_t pc) const;

    /** Train with the architecturally resolved guard value. The
     *  engine calls this ONLY for branches whose guard was unresolved
     *  at fetch - the population the speculative path can act on;
     *  resolved guards would flood the table with easy cases and
     *  inflate the confidence gate (see processConditionalBranch). */
    void train(std::uint32_t pc, bool guard);

    /** Confidence gate: only act on saturated counters. */
    bool confident(std::uint32_t pc) const;

    std::size_t storageBits() const { return table.size() * 2; }

    /** @name Observability
     * trains() counts training events - one per conditional branch
     * whose guard was UNRESOLVED at fetch, with the extension armed
     * (pinned by tests/test_stats.cc); checkpointed alongside the
     * table.
     * @{ */
    std::uint64_t trains() const { return trainCount; }
    void registerStats(StatGroup &group, const std::string &prefix);
    /** @} */

    void
    saveState(StateSink &sink) const
    {
        sink.writeCounters(table);
        sink.writeU64(trainCount);
    }
    Status
    loadState(StateSource &src)
    {
        PABP_TRY(src.readCounters(table));
        return src.readPod(trainCount);
    }

  private:
    std::vector<SatCounter> table;
    std::uint64_t trainCount = 0;

    std::size_t index(std::uint32_t pc) const
    {
        return pc & (table.size() - 1);
    }
};

} // namespace pabp

#endif // PABP_CORE_PRED_VALUE_PRED_HH
