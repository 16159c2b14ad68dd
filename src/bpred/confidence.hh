/**
 * @file
 * JRS branch confidence estimator (Jacobsen, Rotenberg, Smith,
 * MICRO 1996): a table of resetting counters that track how often the
 * branch predictor has recently been correct for a given branch. Used
 * here as an alternative confidence gate for the speculative-squash
 * extension, and available as a building block for selective
 * if-conversion studies.
 */

#ifndef PABP_BPRED_CONFIDENCE_HH
#define PABP_BPRED_CONFIDENCE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/serialize.hh"
#include "util/stats.hh"
#include "util/status.hh"

namespace pabp {

/** Resetting-counter confidence estimator. */
class ConfidenceEstimator
{
  public:
    /**
     * @param entries_log2 log2 of the table size.
     * @param counter_max Resetting counter ceiling (15 in the paper).
     * @param threshold Counter value at or above which the prediction
     *        is deemed high-confidence.
     */
    ConfidenceEstimator(unsigned entries_log2, unsigned counter_max = 15,
                        unsigned threshold = 15);

    /** Is the prediction for @p pc currently high-confidence? */
    bool highConfidence(std::uint32_t pc) const;

    /** Record whether the prediction for @p pc was correct: correct
     *  increments (saturating), incorrect resets to zero. */
    void update(std::uint32_t pc, bool correct);

    std::size_t storageBits() const;

    /** @name Observability
     * updates() counts every training event, lowResets() the subset
     * that reset a counter to zero (an incorrect prediction). Both
     * are checkpointed so resumed runs report identical counts.
     * @{ */
    std::uint64_t updates() const { return updateCount; }
    std::uint64_t lowResets() const { return resetCount; }
    void registerStats(StatGroup &group, const std::string &prefix);
    /** @} */

    void saveState(StateSink &sink) const;
    Status loadState(StateSource &src);

  private:
    std::vector<std::uint8_t> table;
    unsigned counterMax;
    unsigned confThreshold;
    std::uint64_t updateCount = 0;
    std::uint64_t resetCount = 0;

    std::size_t index(std::uint32_t pc) const
    {
        return pc & (table.size() - 1);
    }
};

} // namespace pabp

#endif // PABP_BPRED_CONFIDENCE_HH
