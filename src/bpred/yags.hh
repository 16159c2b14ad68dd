/**
 * @file
 * YAGS predictor (Eden & Mudge, MICRO 1998): a bimodal choice table
 * provides the default direction; two tagged direction caches (one
 * for branches that deviate "taken", one for "not taken") store only
 * the exceptions, indexed gshare-style. Included as the strongest
 * conventional baseline of the paper's era: it already mitigates the
 * aliasing that predicated code aggravates, which makes it the
 * interesting comparison point for the squash filter's
 * pollution-removal benefit.
 */

#ifndef PABP_BPRED_YAGS_HH
#define PABP_BPRED_YAGS_HH

#include <vector>

#include "bpred/predictor.hh"
#include "util/sat_counter.hh"

namespace pabp {

/** YAGS with partial tags and global-history injection support. */
class YagsPredictor : public BranchPredictor
{
  public:
    /**
     * @param choice_log2 log2 of the bimodal choice table.
     * @param cache_log2 log2 of each direction cache.
     * @param tag_bits Partial tag width (6-8 typical).
     */
    YagsPredictor(unsigned choice_log2, unsigned cache_log2,
                  unsigned tag_bits = 8);

    bool predict(std::uint32_t pc) override;
    void update(std::uint32_t pc, bool taken) override;
    void injectHistoryBit(bool bit) override;
    bool hasGlobalHistory() const override { return true; }
    std::string name() const override;
    std::size_t storageBits() const override;
    void saveState(StateSink &sink) const override;
    Status loadState(StateSource &src) override;

  private:
    struct CacheEntry
    {
        bool valid = false;
        std::uint32_t tag = 0;
        SatCounter counter{2};
    };

    std::vector<SatCounter> choice;
    std::vector<CacheEntry> takenCache;    ///< exceptions when choice=NT
    std::vector<CacheEntry> notTakenCache; ///< exceptions when choice=T
    unsigned choiceLog2;
    unsigned cacheLog2;
    unsigned tagBits;
    std::uint64_t ghr = 0;

    std::size_t cacheIndex(std::uint32_t pc) const;
    std::uint32_t tagOf(std::uint32_t pc) const;
};

} // namespace pabp

#endif // PABP_BPRED_YAGS_HH
