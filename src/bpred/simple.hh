/**
 * @file
 * Trivial predictors: static directions and the bimodal table.
 */

#ifndef PABP_BPRED_SIMPLE_HH
#define PABP_BPRED_SIMPLE_HH

#include <vector>

#include "bpred/predictor.hh"
#include "util/sat_counter.hh"

namespace pabp {

/** Always predicts one direction. */
class StaticPredictor : public BranchPredictor
{
  public:
    explicit StaticPredictor(bool predict_taken)
        : predictTaken(predict_taken)
    {}

    bool predict(std::uint32_t) override { return predictTaken; }
    void update(std::uint32_t, bool) override {}
    std::string name() const override
    {
        return predictTaken ? "static-taken" : "static-nottaken";
    }
    std::size_t storageBits() const override { return 0; }

  private:
    bool predictTaken;
};

/** Classic bimodal predictor: a PC-indexed table of counters. */
class BimodalPredictor : public BranchPredictor
{
  public:
    /**
     * @param entries_log2 log2 of the table size.
     * @param counter_bits Counter width (2 is conventional).
     */
    explicit BimodalPredictor(unsigned entries_log2,
                              unsigned counter_bits = 2);

    bool predict(std::uint32_t pc) override;
    void update(std::uint32_t pc, bool taken) override;
    std::string name() const override;
    std::size_t storageBits() const override;
    void saveState(StateSink &sink) const override;
    Status loadState(StateSource &src) override;

  private:
    std::vector<SatCounter> table;
    unsigned entriesLog2;
    unsigned counterBits;

    std::size_t index(std::uint32_t pc) const
    {
        return pc & (table.size() - 1);
    }
};

} // namespace pabp

#endif // PABP_BPRED_SIMPLE_HH
