/**
 * @file
 * Per-static-branch attribution table.
 *
 * Whole-run aggregates (EngineStats) say *whether* a technique helped;
 * this table says *which* static branches it helped - the per-PC
 * breakdown where, as the branch-predictability literature shows, a
 * handful of hard branches dominate MPKI. The engine attributes every
 * conditional-branch event to its static PC: lookups, mispredicts,
 * SFPF squashes, speculative squashes, PGU-influenced predictions,
 * and whether the qualifying predicate was known or unknown at fetch.
 *
 * The table is bounded: at most @ref capacity distinct PCs are
 * tracked, and when a new PC arrives at capacity, the entry with the
 * fewest mispredicts (ties: fewest lookups, then highest PC -
 * deterministic) is folded into an explicit "evicted" remainder
 * bucket. Nothing is silently truncated: tracked + evicted always
 * accounts for every event observed.
 */

#ifndef PABP_CORE_BRANCH_PROFILE_HH
#define PABP_CORE_BRANCH_PROFILE_HH

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "util/metrics.hh"
#include "util/serialize.hh"
#include "util/status.hh"

namespace pabp {

/** Bounded per-PC branch attribution with an eviction remainder. */
class BranchProfile
{
  public:
    /** Per-branch event counters. */
    struct Counters
    {
        std::uint64_t lookups = 0;       ///< dynamic instances seen
        std::uint64_t taken = 0;
        std::uint64_t mispredicts = 0;
        std::uint64_t sfpfSquashes = 0;  ///< filtered, 100% accurate
        std::uint64_t specSquashes = 0;  ///< speculative (extension)
        std::uint64_t pguInfluenced = 0; ///< PGU bit live in history
        std::uint64_t guardKnown = 0;    ///< qp resolved at fetch
        std::uint64_t guardUnknown = 0;  ///< qp in flight at fetch

        bool operator==(const Counters &) const = default;

        void
        accumulate(const Counters &other)
        {
            lookups += other.lookups;
            taken += other.taken;
            mispredicts += other.mispredicts;
            sfpfSquashes += other.sfpfSquashes;
            specSquashes += other.specSquashes;
            pguInfluenced += other.pguInfluenced;
            guardKnown += other.guardKnown;
            guardUnknown += other.guardUnknown;
        }
    };

    /** @param capacity Max distinct PCs tracked; 0 disables the
     *         table entirely (every event goes to the remainder). */
    explicit BranchProfile(std::size_t capacity = 1024)
        : cap(capacity)
    {}

    /**
     * Counters for the branch at @p pc, creating (and possibly
     * evicting) as needed. With capacity 0 the remainder bucket is
     * returned and @ref evictedBranches stays 0.
     */
    Counters &at(std::uint32_t pc);

    std::size_t size() const { return table.size(); }
    std::size_t capacity() const { return cap; }
    const std::map<std::uint32_t, Counters> &entries() const
    {
        return table;
    }
    const Counters &evictedRemainder() const { return evicted; }
    std::uint64_t evictedBranches() const { return evictedCount; }

    /** Tracked entries sorted by mispredicts desc, then PC asc;
     *  @p k == 0 returns all. */
    std::vector<std::pair<std::uint32_t, Counters>>
    topByMispredicts(std::size_t k = 0) const;

    bool operator==(const BranchProfile &) const = default;

    /** @name Checkpointing
     * The whole table plus the remainder, so a resumed run's
     * exported attribution is identical to an uninterrupted one.
     * @{ */
    void saveState(StateSink &sink) const;
    Status loadState(StateSource &src);
    /** @} */

    /**
     * Export into @p ex: a "branches" table (one row per tracked PC,
     * sorted by mispredicts desc) plus "branch_profile.*" summary
     * metrics including the evicted remainder.
     */
    void exportTo(MetricsExporter &ex) const;

    /** Column names of the exported "branches" table, in row order. */
    static std::vector<std::string> tableColumns();

  private:
    std::size_t cap;
    std::map<std::uint32_t, Counters> table;
    Counters evicted;
    std::uint64_t evictedCount = 0;
};

} // namespace pabp

#endif // PABP_CORE_BRANCH_PROFILE_HH
