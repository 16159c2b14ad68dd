/**
 * @file
 * Branch target buffer and return address stack. Direction prediction
 * is the paper's subject; these two supply the targets so the engine
 * and the pipeline model charge realistic penalties for taken
 * branches they have no target for.
 *
 * Lookup side-effect policy (one policy, both consumers): lookup() is
 * the PREDICTING probe - it touches LRU recency and counts exactly
 * one hit or miss - and update() installs/refreshes the target
 * without counting anything. Every taken control transfer performs
 * exactly one lookup() followed by one update() for the same pc, so
 * btb.hits + btb.misses equals the number of predicted transfers
 * regardless of replay strategy; the fast-vs-reference equivalence
 * tests pin the counters byte-identical (tests/test_replay_fast.cc).
 */

#ifndef PABP_BPRED_BTB_HH
#define PABP_BPRED_BTB_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/serialize.hh"
#include "util/stats.hh"
#include "util/status.hh"

namespace pabp {

/** Set-associative branch target buffer with LRU replacement. */
class Btb
{
  public:
    /**
     * @param sets_log2 log2 of the number of sets.
     * @param ways Associativity.
     */
    Btb(unsigned sets_log2, unsigned ways);

    /** Predicted target for @p pc, if present. Counts one hit or
     *  miss and refreshes LRU recency on a hit (see the file-level
     *  lookup side-effect policy). */
    std::optional<std::uint32_t> lookup(std::uint32_t pc);

    /** Install/refresh a branch's target. Never counts. */
    void update(std::uint32_t pc, std::uint32_t target);

    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }

    /** Gauges under "<prefix>hits" / "<prefix>misses". */
    void registerStats(StatGroup &group, const std::string &prefix);

    /**
     * @name Checkpointing
     * Entries are serialised field by field (never as raw structs -
     * padding bytes would make the checkpoint CRC unstable), geometry
     * is verified on load.
     * @{
     */
    void saveState(StateSink &sink) const;
    Status loadState(StateSource &src);
    /** @} */

  private:
    struct Entry
    {
        bool valid = false;
        std::uint32_t tag = 0;
        std::uint32_t target = 0;
        std::uint64_t lastUse = 0;
    };

    std::vector<Entry> entries;
    unsigned setsLog2;
    unsigned numWays;
    std::uint64_t useClock = 0;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;

    Entry *setBase(std::uint32_t pc);
};

/** Fixed-depth return address stack with wrap-around overwrite. */
class ReturnAddressStack
{
  public:
    explicit ReturnAddressStack(unsigned depth);

    void push(std::uint32_t return_pc);

    /** Pop a prediction; empty stack returns nullopt. */
    std::optional<std::uint32_t> pop();

    unsigned size() const { return count; }

    std::uint64_t pushes() const { return pushCount; }
    std::uint64_t pops() const { return popCount; }
    /** Pushes that wrapped around and overwrote a live entry. */
    std::uint64_t overflows() const { return overflowCount; }
    /** Pops on an empty stack (no prediction available). */
    std::uint64_t underflows() const { return underflowCount; }

    /** Gauges under "<prefix>pushes" / "pops" / "overflows" /
     *  "underflows". */
    void registerStats(StatGroup &group, const std::string &prefix);

    void saveState(StateSink &sink) const;
    Status loadState(StateSource &src);

  private:
    std::vector<std::uint32_t> stack;
    unsigned top = 0;
    unsigned count = 0;
    std::uint64_t pushCount = 0;
    std::uint64_t popCount = 0;
    std::uint64_t overflowCount = 0;
    std::uint64_t underflowCount = 0;
};

} // namespace pabp

#endif // PABP_BPRED_BTB_HH
