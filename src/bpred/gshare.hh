/**
 * @file
 * Global-history predictors: gshare and GAg. Both expose their global
 * history register for predicate-bit injection (the PGU technique).
 */

#ifndef PABP_BPRED_GSHARE_HH
#define PABP_BPRED_GSHARE_HH

#include <vector>

#include "bpred/predictor.hh"
#include "util/sat_counter.hh"

namespace pabp {

/**
 * gshare: the pattern table is indexed by the branch PC xor-folded
 * with the global history register.
 */
class GSharePredictor : public BranchPredictor
{
  public:
    /**
     * @param entries_log2 log2 of the pattern table size.
     * @param history_bits History length; defaults to entries_log2
     *        (the classic full-index gshare) when 0.
     */
    explicit GSharePredictor(unsigned entries_log2,
                             unsigned history_bits = 0,
                             unsigned counter_bits = 2);

    bool predict(std::uint32_t pc) override;
    void update(std::uint32_t pc, bool taken) override;
    /** Fused fast-path call; `final` so a caller holding a
     *  GSharePredictor& dispatches statically (no vtable). */
    bool predictAndUpdate(std::uint32_t pc, bool taken) final;
    /** In the header so the replay loop's devirtualised PGU drain
     *  inlines it - one register shift per bit, with the history
     *  staying in a register across a run of drained bits. */
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
    unsigned historyBits() const { return histBits; }

    /**
     * @name Aliasing profiler
     * When enabled, every lookup records whether the indexed entry
     * was last touched by a *different* branch PC - the destructive
     * interference that false-path branches inflict and the squash
     * filter removes (bench E16). Profiling state is not part of the
     * hardware budget.
     * @{
     */
    void enableConflictProfiling();
    std::uint64_t lookupCount() const { return lookups; }
    std::uint64_t conflictCount() const { return conflicts; }
    /** @} */

    void registerStats(StatGroup &group,
                       const std::string &prefix) override;

  private:
    std::vector<SatCounter> table;
    unsigned entriesLog2;
    unsigned histBits;
    unsigned counterBits;
    std::uint64_t ghr = 0;

    bool profiling = false;
    std::vector<std::uint32_t> lastPc;
    std::vector<bool> lastPcValid;
    std::uint64_t lookups = 0;
    std::uint64_t conflicts = 0;

    std::size_t index(std::uint32_t pc) const;
};

/**
 * GAg: the pattern table is indexed purely by global history, no PC.
 */
class GAgPredictor : public BranchPredictor
{
  public:
    explicit GAgPredictor(unsigned history_bits, unsigned counter_bits = 2);

    bool predict(std::uint32_t pc) override;
    void update(std::uint32_t pc, bool taken) override;
    void injectHistoryBit(bool bit) override;
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

  private:
    std::vector<SatCounter> table;
    unsigned histBits;
    unsigned counterBits;
    std::uint64_t ghr = 0;
};

} // namespace pabp

#endif // PABP_BPRED_GSHARE_HH
