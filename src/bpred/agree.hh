/**
 * @file
 * Agree predictor (Sprangle et al., ISCA 1997): pattern-table
 * counters predict whether the branch will AGREE with a per-branch
 * bias bit rather than its absolute direction, converting negative
 * interference between differently-biased branches into positive
 * interference. Relevant here because predicated code concentrates
 * strongly-biased region-exit branches - agree's best case.
 */

#ifndef PABP_BPRED_AGREE_HH
#define PABP_BPRED_AGREE_HH

#include <vector>

#include "bpred/predictor.hh"
#include "util/sat_counter.hh"

namespace pabp {

/** gshare-indexed agree predictor with first-outcome bias bits. */
class AgreePredictor : public BranchPredictor
{
  public:
    /**
     * @param entries_log2 log2 of the agree counter table.
     * @param bias_log2 log2 of the per-branch bias-bit table.
     */
    AgreePredictor(unsigned entries_log2, unsigned bias_log2);

    bool predict(std::uint32_t pc) override;
    void update(std::uint32_t pc, bool taken) override;
    void injectHistoryBit(bool bit) override;
    bool hasGlobalHistory() const override { return true; }
    std::string name() const override;
    std::size_t storageBits() const override;
    void saveState(StateSink &sink) const override;
    Status loadState(StateSource &src) override;

  private:
    std::vector<SatCounter> agreeTable;
    struct Bias
    {
        bool valid = false;
        bool bias = false;
    };
    std::vector<Bias> biasTable;
    unsigned entriesLog2;
    unsigned biasLog2;
    std::uint64_t ghr = 0;

    std::size_t index(std::uint32_t pc) const;
    Bias &biasFor(std::uint32_t pc);
};

} // namespace pabp

#endif // PABP_BPRED_AGREE_HH
