/**
 * @file
 * TAGE (TAgged GEometric history length) predictor with a simple
 * statistical corrector, after Seznec & Michaud (JILP 2006) and the
 * CBP reference implementations.
 *
 * A base bimodal table backs N partially-tagged tables indexed by
 * geometrically-growing slices of the global history. Each tagged
 * entry carries a prediction counter, a partial tag and a usefulness
 * counter; the longest-history tag match provides the prediction,
 * with the next match (or the base table) as the alternate. A small
 * statistical corrector table can override TAGE when its own counter
 * for (pc, tage prediction) is saturated - the cases where TAGE is
 * confidently wrong in a statistically-biased way.
 *
 * History is kept twice: a raw circular bit buffer (the ground truth,
 * long enough for the longest table) and per-table folded registers
 * (Seznec's cyclic-shift-register trick) that keep index and tag
 * hashes O(1) per shifted bit. The folding is why this predictor's
 * injectHistoryBits() CANNOT be a single shift: every injected bit
 * must run the fold update for every register, exactly as a
 * sequential injectHistoryBit() would (see docs/PERF.md).
 */

#ifndef PABP_BPRED_TAGE_HH
#define PABP_BPRED_TAGE_HH

#include <vector>

#include "bpred/predictor.hh"
#include "util/sat_counter.hh"

namespace pabp {

/** Geometry and training knobs for TagePredictor. */
struct TageConfig
{
    unsigned baseLog2 = 12;    ///< log2 entries of the bimodal base
    unsigned tableLog2 = 10;   ///< log2 entries of each tagged table
    unsigned numTables = 4;    ///< tagged tables, shortest first
    unsigned tagBits = 9;      ///< partial tag width
    unsigned minHistory = 5;   ///< history length of table 0
    unsigned maxHistory = 80;  ///< history length of the last table
    unsigned counterBits = 3;  ///< tagged prediction counter width
    unsigned usefulBits = 2;   ///< usefulness counter width
    unsigned tickPeriod = 4096; ///< updates between u-bit half-resets
    unsigned scLog2 = 10;      ///< log2 entries of the corrector table
    unsigned scCounterBits = 6; ///< corrector counter width
};

class TagePredictor : public BranchPredictor
{
  public:
    explicit TagePredictor(const TageConfig &config);

    bool predict(std::uint32_t pc) override;
    void update(std::uint32_t pc, bool taken) override;
    /** Fused fast-path call; `final` so the replay loop's
     *  devirtualised arm dispatches statically (no vtable). */
    bool predictAndUpdate(std::uint32_t pc, bool taken) final;

    /** One raw-history bit in, every folded register re-folded. */
    void injectHistoryBit(bool bit) override { shiftHistory(bit); }
    /**
     * Word-at-a-time inject (contract in
     * BranchPredictor::injectHistoryBits). Folded registers admit no
     * single-shift shortcut - each bit both enters and *leaves* every
     * fold at a different tap - so this walks the word MSB-to-LSB
     * through the same non-virtual shift as injectHistoryBit(),
     * making it k sequential injects by construction. Still worth
     * overriding: the virtual dispatch happens once per word, not
     * once per bit.
     */
    void
    injectHistoryBits(std::uint64_t bits, unsigned n) override
    {
        for (unsigned j = n; j-- > 0;)
            shiftHistory(((bits >> j) & 1) != 0);
    }
    bool hasGlobalHistory() const override { return true; }
    /** History swap (contract in BranchPredictor): the raw circular
     *  buffer plus its write pointer plus every folded register,
     *  verbatim - re-deriving the folds from the raw bits would walk
     *  the whole history per slice, and any drift from the
     *  incremental recurrence would break the N=1 identity. */
    void exportHistory(std::vector<std::uint64_t> &out) const override;
    std::size_t importHistory(const std::uint64_t *words,
                              std::size_t n) override;
    std::string name() const override;
    std::size_t storageBits() const override;
    void saveState(StateSink &sink) const override;
    Status loadState(StateSource &src) override;

    void registerStats(StatGroup &group,
                       const std::string &prefix) override;

    const TageConfig &config() const { return cfg; }

  private:
    /**
     * Folded (cyclically compressed) view of the most recent
     * origLength history bits in compLength bits. Updating with the
     * newest bit and the bit falling off the far end keeps the fold
     * exact in O(1), the same recurrence as Seznec's CSRs.
     */
    struct FoldedHistory
    {
        std::uint32_t comp = 0;
        unsigned compLength = 1;
        unsigned origLength = 1;
        unsigned outPoint = 0;

        void
        init(unsigned orig, unsigned width)
        {
            comp = 0;
            origLength = orig;
            compLength = width;
            outPoint = orig % width;
        }

        void
        shift(unsigned newBit, unsigned oldBit)
        {
            comp = (comp << 1) | newBit;
            comp ^= oldBit << outPoint;
            comp ^= comp >> compLength;
            comp &= (std::uint32_t{1} << compLength) - 1;
        }
    };

    struct TaggedEntry
    {
        std::uint16_t tag = 0;
        SatCounter ctr;
        SatCounter u;
    };

    /** Non-virtual core of injectHistoryBit()/update()'s history
     *  shift: push one bit into the raw buffer and every fold. */
    void shiftHistory(bool bit);
    /** Galois LFSR step for allocation-skipping randomness;
     *  checkpointed so resumed runs allocate identically. */
    std::uint32_t lfsrNext();
    std::size_t tableIndex(std::uint32_t pc, unsigned t) const;
    std::uint16_t tableTag(std::uint32_t pc, unsigned t) const;
    std::size_t scIndex(std::uint32_t pc, bool tagePred) const;
    /** Recompute indices/tags and the provider/alt decision for
     *  @p pc, latching everything update() needs. */
    void lookup(std::uint32_t pc);

    TageConfig cfg;
    std::vector<unsigned> histLengths;

    std::vector<SatCounter> base;
    std::vector<std::vector<TaggedEntry>> tables;
    std::vector<SatCounter> scTable;

    // Raw global history, newest bit at histPtr, circular.
    std::vector<std::uint8_t> hist;
    std::size_t histPtr = 0;
    std::vector<FoldedHistory> foldedIdx;
    std::vector<FoldedHistory> foldedTag0;
    std::vector<FoldedHistory> foldedTag1;

    SatCounter useAltOnNa{4, 7}; ///< prefer alt on weak new entries
    std::uint32_t lfsr = 0x2545f4u;
    std::uint32_t tick = 0;
    bool tickFlip = false; ///< alternate u MSB/LSB clearing

    // predict()-to-update() latches (transient; not checkpointed -
    // checkpoints are only taken between whole process() steps).
    std::vector<std::size_t> idxLatch;
    std::vector<std::uint16_t> tagLatch;
    int providerLatch = -1; ///< -1: base table provided
    int altLatch = -1;
    bool providerPredLatch = false;
    bool altPredLatch = false;
    bool tagePredLatch = false;
    bool providerWeakNew = false;
    std::size_t scIdxLatch = 0;
    bool scOverrideLatch = false;
    bool finalPredLatch = false;

    // Diagnostics (registerStats gauges). Checkpointed: a resumed
    // run must export the same counts as an uninterrupted one.
    std::uint64_t providerHits = 0;
    std::uint64_t altOverrides = 0;
    std::uint64_t allocations = 0;
    std::uint64_t allocFailures = 0;
    std::uint64_t uResets = 0;
    std::uint64_t scOverrides = 0;
    std::uint64_t scOverrideCorrect = 0;
};

} // namespace pabp

#endif // PABP_BPRED_TAGE_HH
