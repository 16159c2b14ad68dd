/**
 * @file
 * Two-level local-history predictor (PAs): a PC-indexed table of local
 * branch histories selects a counter in a pattern table.
 */

#ifndef PABP_BPRED_LOCAL_HH
#define PABP_BPRED_LOCAL_HH

#include <vector>

#include "bpred/predictor.hh"
#include "util/sat_counter.hh"

namespace pabp {

/** PAs-style local two-level predictor. */
class LocalPredictor : public BranchPredictor
{
  public:
    /**
     * @param bht_log2 log2 of the branch history table size.
     * @param local_bits Per-branch history length.
     * @param pht_log2 log2 of the pattern table size; the index is
     *        the local history concatenated with low PC bits.
     */
    LocalPredictor(unsigned bht_log2, unsigned local_bits,
                   unsigned pht_log2, unsigned counter_bits = 2);

    bool predict(std::uint32_t pc) override;
    void update(std::uint32_t pc, bool taken) override;
    std::string name() const override;
    std::size_t storageBits() const override;
    void saveState(StateSink &sink) const override;
    Status loadState(StateSource &src) override;

  private:
    std::vector<std::uint32_t> bht;
    std::vector<SatCounter> pht;
    unsigned bhtLog2;
    unsigned localBits;
    unsigned phtLog2;
    unsigned counterBits;

    std::size_t phtIndex(std::uint32_t pc) const;
};

} // namespace pabp

#endif // PABP_BPRED_LOCAL_HH
