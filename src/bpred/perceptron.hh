/**
 * @file
 * Perceptron branch predictor (Jimenez & Lin, HPCA 2001) - the other
 * contemporary long-history predictor. Included both as a stronger
 * baseline and because it composes naturally with predicate global
 * update: injected predicate bits become additional perceptron
 * inputs, exactly like branch-outcome history bits.
 */

#ifndef PABP_BPRED_PERCEPTRON_HH
#define PABP_BPRED_PERCEPTRON_HH

#include <cstdint>
#include <vector>

#include "bpred/predictor.hh"

namespace pabp {

/** Global-history perceptron predictor. */
class PerceptronPredictor : public BranchPredictor
{
  public:
    /**
     * @param rows_log2 log2 of the number of perceptrons.
     * @param history_bits History (= weights per perceptron - 1).
     * @param weight_bits Signed weight width (saturation bound).
     */
    PerceptronPredictor(unsigned rows_log2, unsigned history_bits,
                        unsigned weight_bits = 8);

    bool predict(std::uint32_t pc) override;
    void update(std::uint32_t pc, bool taken) override;
    /** Fused fast-path call; `final` so a caller holding a
     *  PerceptronPredictor& dispatches statically (no vtable). */
    bool predictAndUpdate(std::uint32_t pc, bool taken) final;
    /** In the header so the replay loop's devirtualised PGU drain
     *  inlines it (see GSharePredictor::injectHistoryBit). */
    void
    injectHistoryBit(bool bit) override
    {
        ghr = (ghr << 1) | (bit ? 1 : 0);
    }
    /** Whole-word equivalent of n single-bit injects (contract in
     *  BranchPredictor::injectHistoryBits): one shift-or. */
    void
    injectHistoryBits(std::uint64_t bits, unsigned n) override
    {
        ghr = n >= 64 ? bits : (ghr << n) | bits;
    }
    bool hasGlobalHistory() const override { return true; }
    void
    exportHistory(std::vector<std::uint64_t> &out) const override
    {
        out.push_back(ghr);
    }
    std::size_t
    importHistory(const std::uint64_t *words, std::size_t n) override
    {
        if (n >= 1)
            ghr = words[0];
        return 1;
    }
    std::string name() const override;
    std::size_t storageBits() const override;
    void saveState(StateSink &sink) const override;
    Status loadState(StateSource &src) override;

    std::uint64_t history() const { return ghr; }

  private:
    unsigned rowsLog2;
    unsigned histBits;
    int weightMax;
    int threshold;
    std::vector<std::int16_t> weights; ///< rows x (histBits + 1)
    std::uint64_t ghr = 0;

    // predict() latches its computation for the paired update().
    std::int32_t lastOutput = 0;
    std::uint64_t lastHistory = 0;
    std::size_t lastRow = 0;

    std::int16_t *row(std::size_t r) { return &weights[r * (histBits + 1)]; }
    void saturatingAdjust(std::int16_t &w, bool up);
};

} // namespace pabp

#endif // PABP_BPRED_PERCEPTRON_HH
