/**
 * @file
 * Simple set-associative cache model with LRU replacement, used by
 * the pipeline for instruction and data access timing. This is a
 * hit/miss model (no coherence, no writeback contents) - all the
 * pipeline needs is latency.
 */

#ifndef PABP_MEM_CACHE_HH
#define PABP_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace pabp {

/** Cache geometry. */
struct CacheConfig
{
    unsigned setsLog2 = 7;      ///< 128 sets
    unsigned ways = 4;
    unsigned lineWordsLog2 = 3; ///< 8 words per line

    bool operator==(const CacheConfig &) const = default;
};

/** LRU set-associative cache (tag-only). Addresses are word indices. */
class Cache
{
  public:
    explicit Cache(CacheConfig config = CacheConfig{});

    /** Access a word address; returns true on hit. Misses fill. */
    bool access(std::uint64_t word_addr);

    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }

    double
    missRate() const
    {
        std::uint64_t total = hitCount + missCount;
        return total ? static_cast<double>(missCount) /
                static_cast<double>(total)
                     : 0.0;
    }

    /** Total capacity in 64-bit words. */
    std::size_t capacityWords() const;

  private:
    struct Line
    {
        bool valid = false;
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
    };

    CacheConfig cfg;
    std::vector<Line> lines;
    std::uint64_t useClock = 0;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
};

} // namespace pabp

#endif // PABP_MEM_CACHE_HH
