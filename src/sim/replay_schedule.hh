/**
 * @file
 * Per-trace store of predictor-independent replay schedules: one per
 * (trace, predicate configuration).
 *
 * Everything the predicate techniques compute from the define stream
 * is a pure function of (trace events, engine predicate configuration,
 * predicate-component entry state) - none of it reads the base
 * predictor: the SFPF's guard resolution per branch and the PGU's
 * history-bit stream. A sweep replays one decoded trace against MANY
 * predictors, so the fast replay loop factors that work out: every
 * batch with a predicate technique armed replays from a
 * ReplaySchedule and visits branches only (docs/PERF.md).
 *
 * An engine that starts cold and replays a trace contiguously from
 * event 0 enters every batch in the state the reference loop reaches
 * at that cursor from cold, however the replay is sliced. So the store
 * keeps ONE schedule per configuration, captured once from the cold
 * state over the whole trace, and every engine on that path reads it
 * at its own event, branch and PGU-stream cursors
 * (PredictionEngine::processBatch). Any other batch - a pipeline
 * window, a batch after loadState(), an engine whose first batch
 * starts past event 0 - captures a private schedule from its own entry
 * state and publishes nothing. Since every reader's entry state is the
 * cold state at event 0 of this trace, the key is just the
 * configuration fields the capture reads.
 *
 * Thread safety: obtain() is single-flight - the first engine to ask
 * for a configuration captures outside the lock, later ones wait for
 * it and share its result - and published schedules are immutable
 * (shared_ptr<const>).
 */

#ifndef PABP_SIM_REPLAY_SCHEDULE_HH
#define PABP_SIM_REPLAY_SCHEDULE_HH

#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

namespace pabp {

/** The capture's outputs over a range of events. */
struct ReplaySchedule
{
    /** Per conditional branch, in order: bit0 = guard known at fetch,
     *  bit1 = guard value. Empty unless SFPF is armed. */
    std::vector<std::uint8_t> guard;
    /** The PGU history-bit stream, packed seq << 1 | bit, in define
     *  order; the replay drains it by PredicateGlobalUpdate::drainTo()'s
     *  ripeness rule. A private schedule's stream starts with the
     *  engine's carried queue. Empty unless the PGU is armed. */
    std::vector<std::uint64_t> pguBits;
    /** Heap bytes the schedule holds, itself included. */
    std::uint64_t
    bytes() const
    {
        auto held = [](const auto &v) {
            return v.capacity() * sizeof(v[0]);
        };
        return sizeof(*this) + held(guard) + held(pguBits);
    }
};

/** The schedules of one DecodedTrace, one per configuration. */
class ReplayScheduleCache
{
  public:
    /** One count per engine that joins the cold path: the first for
     *  a configuration inserts, every later one hits. */
    struct Counters
    {
        std::uint64_t hits = 0;
        std::uint64_t inserts = 0;
    };

    /** The schedule for configuration key (@p cfg0, @p cfg1): the
     *  first caller runs @p capture(), later ones wait for its result.
     *  If the capture throws, every caller of the key rethrows it. */
    template <typename Capture>
    std::shared_ptr<const ReplaySchedule>
    obtain(std::uint64_t cfg0, std::uint64_t cfg1, Capture &&capture)
    {
        std::unique_lock<std::mutex> lock(mu);
        for (const Slot &slot : slots) {
            if (slot.cfg0 == cfg0 && slot.cfg1 == cfg1) {
                ++traffic.hits;
                const auto pending = slot.schedule;
                lock.unlock();
                return pending.get();
            }
        }
        std::promise<std::shared_ptr<const ReplaySchedule>> made;
        slots.push_back(Slot{cfg0, cfg1, made.get_future().share()});
        ++traffic.inserts;
        lock.unlock();

        std::shared_ptr<const ReplaySchedule> s;
        try {
            s = capture();
        } catch (...) {
            made.set_exception(std::current_exception());
            throw;
        }
        made.set_value(s);
        lock.lock();
        liveBytes += s->bytes();
        return s;
    }

    Counters
    counters() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return traffic;
    }

    /** ReplaySchedule::bytes() summed over the published schedules. */
    std::uint64_t
    bytes() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return liveBytes;
    }

  private:
    struct Slot
    {
        std::uint64_t cfg0;
        std::uint64_t cfg1;
        std::shared_future<std::shared_ptr<const ReplaySchedule>> schedule;
    };

    mutable std::mutex mu;
    Counters traffic;
    std::uint64_t liveBytes = 0;
    std::vector<Slot> slots;
};

} // namespace pabp

#endif // PABP_SIM_REPLAY_SCHEDULE_HH
