/**
 * @file
 * McFarling combining (tournament) predictor: two component
 * predictors plus a PC-indexed chooser table.
 */

#ifndef PABP_BPRED_COMBINING_HH
#define PABP_BPRED_COMBINING_HH

#include <vector>

#include "bpred/predictor.hh"
#include "util/sat_counter.hh"

namespace pabp {

/** Tournament of two predictors with a 2-bit chooser per entry. */
class CombiningPredictor : public BranchPredictor
{
  public:
    /**
     * @param first Component selected when the chooser is low.
     * @param second Component selected when the chooser is high.
     * @param chooser_log2 log2 of the chooser table size.
     */
    CombiningPredictor(PredictorPtr first, PredictorPtr second,
                       unsigned chooser_log2);

    bool predict(std::uint32_t pc) override;
    void update(std::uint32_t pc, bool taken) override;
    /** Fused fast-path call; `final` so a caller holding a
     *  CombiningPredictor& dispatches statically (no vtable). */
    bool predictAndUpdate(std::uint32_t pc, bool taken) final;
    /** In the header so the replay loop's devirtualised PGU drain
     *  skips one call level (the component injects stay virtual). */
    void
    injectHistoryBit(bool bit) override
    {
        firstPred->injectHistoryBit(bit);
        secondPred->injectHistoryBit(bit);
    }
    void
    injectHistoryBits(std::uint64_t bits, unsigned n) override
    {
        firstPred->injectHistoryBits(bits, n);
        secondPred->injectHistoryBits(bits, n);
    }
    bool hasGlobalHistory() const override;
    void
    exportHistory(std::vector<std::uint64_t> &out) const override
    {
        firstPred->exportHistory(out);
        secondPred->exportHistory(out);
    }
    std::size_t
    importHistory(const std::uint64_t *words, std::size_t n) override
    {
        std::size_t used = firstPred->importHistory(words, n);
        used += secondPred->importHistory(words + used, n - used);
        return used;
    }
    std::string name() const override;
    std::size_t storageBits() const override;
    void saveState(StateSink &sink) const override;
    Status loadState(StateSource &src) override;

  private:
    PredictorPtr firstPred;
    PredictorPtr secondPred;
    std::vector<SatCounter> chooser;

    // The components are polled once at predict() and their answers
    // reused at update(), keeping their predict/update pairing intact.
    bool lastFirst = false;
    bool lastSecond = false;

    std::size_t index(std::uint32_t pc) const
    {
        return pc & (chooser.size() - 1);
    }
};

} // namespace pabp

#endif // PABP_BPRED_COMBINING_HH
