/**
 * @file
 * Per-trace cache of predictor-independent replay schedules.
 *
 * Everything the predicate techniques compute from the define stream
 * is a pure function of (trace events, engine predicate configuration,
 * predicate-component entry state) - none of it reads the base
 * predictor. The SFPF's guard resolution per branch depends only on
 * the define writes and the visibility delay; the PGU's history-bit
 * stream depends only on the defines and the PGU configuration. A
 * sweep replays one decoded trace against MANY predictors (and the
 * throughput bench against many repeats), so the fast replay loop
 * factors that work out. Every batch with a predicate technique armed
 * replays from a ReplaySchedule - the per-branch guard states, the
 * packed PGU bit stream and its drain plan, and the predicate file's
 * exit state - and visits branches only. The first batch over a given
 * (range, config, entry state) captures its schedule in one
 * define-only pass and publishes it here; every later identical batch
 * skips the defines entirely. This is what closes the `+both`
 * throughput gap to the base configuration: after warm-up both loops
 * touch only the branch events (docs/PERF.md).
 *
 * Correctness: a schedule is reused only when every input it was
 * derived from matches EXACTLY - trace identity (the cache lives on
 * the trace), event range, the configuration fields the capture
 * reads, and the full entry state of the predicate file and PGU queue
 * (compared value for value, not hashed, so a stale hit is
 * impossible). The fast-vs-reference equivalence suite replays warm
 * caches and pins stats, profile and checkpoint bytes bit-identical.
 *
 * Thread safety: find/insert/counters are mutex-guarded; schedules
 * are immutable once published (shared_ptr<const>), so concurrent
 * sweep threads replaying one trace share them freely.
 */

#ifndef PABP_SIM_REPLAY_SCHEDULE_HH
#define PABP_SIM_REPLAY_SCHEDULE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace pabp {

/**
 * One pending predicate write (DelayedPredicateFile::Pending is an
 * alias of this). Defined here, below the core layer, so a schedule
 * can snapshot queue contents without a dependency inversion.
 */
struct ReplayPredWrite
{
    std::uint64_t seq;
    std::uint8_t reg;
    bool value;
    /** False for a conservative-tracking noop entry (occupies the
     *  register without architecturally writing). */
    bool writes;

    bool operator==(const ReplayPredWrite &) const = default;
};

/** The capture's outputs for one exact (range, config, entry
 *  state); see the file comment. */
struct ReplaySchedule
{
    /** @name Key - every field must match for reuse
     *  @{ */
    /** Packed configuration the capture reads: cfg0 =
     *  availDelay | pguDelay << 32; cfg1 = useSfpf | usePgu << 1 |
     *  conservativeDefTracking << 2 | pguSource << 3 | pguValue << 5
     *  | pguIncludePSet << 7. */
    std::uint64_t cfg0 = 0;
    std::uint64_t cfg1 = 0;
    std::uint64_t first = 0;
    std::uint64_t count = 0;
    /** Predicate file entry state: visible[] packed one bit per
     *  register, and the pending queue in FIFO order. */
    std::uint64_t preVisibleBits = 0;
    std::vector<ReplayPredWrite> prePredQueue;
    /** The PGU's entry queue is the first prePguLen entries of
     *  pguBits (the stream starts with the carried queue). */
    std::uint64_t prePguLen = 0;
    /** @} */

    /** @name Payload
     *  @{ */
    /** Per conditional branch, in order: bit0 = guard known at fetch,
     *  bit1 = guard value. Empty unless SFPF is armed. */
    std::vector<std::uint8_t> guard;
    /** The full PGU drain stream (carried queue + batch bits), packed
     *  seq << 1 | bit. Empty unless the PGU is armed. */
    std::vector<std::uint64_t> pguBits;
    /** Cumulative pguBits cursor after the drain preceding branch b
     *  (nBranches entries) plus one final entry for the batch-end
     *  drain - so branch b consumes entries [drainTargets[b-1],
     *  drainTargets[b]). Lets the replay loop skip the per-entry
     *  ripeness scan entirely. */
    std::vector<std::uint32_t> drainTargets;
    /** drainWords[i] holds the last <= 64 drained bits as of
     *  drainTargets[i], newest in bit 0 - the k new bits of a drain
     *  point are its low k bits, fed to injectHistoryBits() in one
     *  shift when k <= 64 (larger drains fall back to the per-entry
     *  stream, which is always kept). */
    std::vector<std::uint64_t> drainWords;
    /** Predicate file exit state (what the reference loop leaves
     *  after the batch's last event). */
    std::uint64_t postVisibleBits = 0;
    std::vector<ReplayPredWrite> postPredQueue;
    /** Branch count of the range - cross-checked against the replay's
     *  own class scan before reuse. */
    std::uint64_t nBranches = 0;
    /** @} */

    /** Heap bytes the schedule holds, itself included. */
    std::uint64_t
    bytes() const
    {
        auto held = [](const auto &v) {
            return v.capacity() * sizeof(v[0]);
        };
        return sizeof(*this) + held(prePredQueue) + held(guard) +
            held(pguBits) + held(drainTargets) + held(drainWords) +
            held(postPredQueue);
    }
};

/** Mutex-guarded schedule store, one per DecodedTrace. */
class ReplayScheduleCache
{
  public:
    /** Lifetime traffic: successful find()s, insert()s, and inserts
     *  that dropped the oldest entry. */
    struct Counters
    {
        std::uint64_t hits = 0;
        std::uint64_t inserts = 0;
        std::uint64_t evictions = 0;
    };

    /** Return the schedule matching every key field, or null. */
    std::shared_ptr<const ReplaySchedule>
    find(std::uint64_t cfg0, std::uint64_t cfg1, std::uint64_t first,
         std::uint64_t count, std::uint64_t preVisibleBits,
         const std::vector<ReplayPredWrite> &prePredQueue,
         const std::vector<std::uint64_t> &prePguQueue)
    {
        std::lock_guard<std::mutex> lock(mu);
        for (const auto &s : entries) {
            if (s->cfg0 != cfg0 || s->cfg1 != cfg1 ||
                s->first != first || s->count != count ||
                s->preVisibleBits != preVisibleBits ||
                s->prePredQueue != prePredQueue ||
                s->prePguLen != prePguQueue.size())
                continue;
            if (!std::equal(prePguQueue.begin(), prePguQueue.end(),
                            s->pguBits.begin()))
                continue;
            ++traffic.hits;
            return s;
        }
        return nullptr;
    }

    /** Publish a schedule; oldest entry is dropped at capacity (the
     *  cap only matters to irregular chunkings like the fuzzer's -
     *  a bench or sweep reuses a handful of keys). */
    void
    insert(std::shared_ptr<const ReplaySchedule> s)
    {
        std::lock_guard<std::mutex> lock(mu);
        if (entries.size() >= kMaxEntries) {
            liveBytes -= entries.front()->bytes();
            entries.erase(entries.begin());
            ++traffic.evictions;
        }
        liveBytes += s->bytes();
        entries.push_back(std::move(s));
        ++traffic.inserts;
    }

    Counters
    counters() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return traffic;
    }

    /** ReplaySchedule::bytes() summed over the cached schedules. */
    std::uint64_t
    bytes() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return liveBytes;
    }

    static constexpr std::size_t kMaxEntries = 64;

  private:
    mutable std::mutex mu;
    Counters traffic;
    std::uint64_t liveBytes = 0;
    std::vector<std::shared_ptr<const ReplaySchedule>> entries;
};

} // namespace pabp

#endif // PABP_SIM_REPLAY_SCHEDULE_HH
