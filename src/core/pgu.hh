/**
 * @file
 * The predicate global update (PGU) mechanism - the paper's second
 * technique.
 *
 * Conventional global history only records branch outcomes; after
 * if-conversion the branches that carried the correlation have become
 * predicate defines and vanish from the history, so region-based
 * branches lose their correlated context. PGU restores it by shifting
 * the outcome of each predicate define into the predictor's global
 * history register when the define resolves.
 *
 * Because defines resolve in the backend, their bits reach the history
 * a few instructions after the define is fetched; this delay is
 * modelled the same way as in the delayed predicate file.
 */

#ifndef PABP_CORE_PGU_HH
#define PABP_CORE_PGU_HH

#include <cstdint>
#include <vector>

#include "bpred/predictor.hh"
#include "isa/inst.hh"
#include "sim/emulator.hh"
#include "util/logging.hh"
#include "util/ring_queue.hh"
#include "util/serialize.hh"
#include "util/stats.hh"
#include "util/status.hh"

namespace pabp {

/** Which predicate defines contribute history bits. */
enum class PguSource : std::uint8_t
{
    AllCmps,     ///< every compare instruction
    RegionCmps,  ///< only compares inside predicated regions (models a
                 ///< compiler hint bit on the define)
};

/** Which value of a define is inserted. */
enum class PguValue : std::uint8_t
{
    Rel,        ///< the comparison outcome, when the guard was true
    FirstWrite, ///< the first predicate value actually written
    BothWrites, ///< both written predicate values (2 bits for unc)
};

/** PGU configuration. */
struct PguConfig
{
    PguSource source = PguSource::AllCmps;
    PguValue value = PguValue::Rel;
    /** Also insert pset pseudo-define outcomes. */
    bool includePSet = false;
    /** Instructions from define to history visibility. */
    unsigned delay = 8;
};

/**
 * Collects predicate-define outcomes from the dynamic stream and
 * injects them into a base predictor's global history with the
 * configured delay.
 */
class PredicateGlobalUpdate
{
  public:
    PredicateGlobalUpdate(BranchPredictor &base, PguConfig config)
        : pred(base), cfg(config)
    {}

    /** Observe one executed instruction; queue its history bits.
     *  Inline: the reference loop calls it for every predicate
     *  define, which is a fifth to a third of an if-converted
     *  stream. */
    void
    observe(const DynInst &dyn)
    {
        observeInto(dyn, [this](const Pending &p) { queue.push_back(p); });
    }

    /**
     * The observe rule itself: hand each history bit @p dyn
     * contributes under this configuration to @p push, in queue
     * order, without touching the queue. observe() pushes into the
     * queue; the batched replay loop's schedule capture
     * (core/engine.cc) appends to a schedule's bit stream - one rule,
     * so the two cannot drift apart.
     */
    template <typename Push>
    void
    observeInto(const DynInst &dyn, Push &&push) const
    {
        const Inst &inst = *dyn.inst;
        bool is_cmp = inst.op == Opcode::Cmp;
        bool is_pset = inst.op == Opcode::PSet;
        if (!is_cmp && !(is_pset && cfg.includePSet))
            return;
        if (cfg.source == PguSource::RegionCmps && inst.regionId < 0)
            return;

        switch (cfg.value) {
          case PguValue::Rel:
            // Insert the comparison outcome for guarded-true
            // compares; a guard-false compare computed nothing worth
            // recording.
            if (is_cmp && dyn.guard)
                push(Pending{dyn.seq, dyn.cmpRel});
            else if (is_pset && dyn.guard)
                push(Pending{dyn.seq, (inst.imm & 1) != 0});
            break;
          case PguValue::FirstWrite:
            if (dyn.numPredWrites > 0)
                push(Pending{dyn.seq, dyn.predWrites[0].value});
            break;
          case PguValue::BothWrites:
            for (unsigned i = 0; i < dyn.numPredWrites; ++i)
                push(Pending{dyn.seq, dyn.predWrites[i].value});
            break;
        }
    }

    /** Inject all bits that have resolved by @p seq. Call before the
     *  prediction of the branch at @p seq. Returns how many bits
     *  were injected (the engine uses this to attribute
     *  PGU-influenced predictions per branch). Inline: the reference
     *  loop calls it per instruction, and with defines a fifth to a
     *  third of the stream a bit ripens on a sizeable fraction of
     *  those calls. */
    unsigned
    drainTo(std::uint64_t seq)
    {
        unsigned drained = 0;
        while (!queue.empty() && queue.front().seq + cfg.delay <= seq) {
            pred.injectHistoryBit(queue.front().bit);
            ++inserted;
            ++drained;
            queue.pop_front();
        }
        return drained;
    }

    std::uint64_t bitsInserted() const { return inserted; }
    std::uint64_t pendingBits() const { return queue.size(); }
    const PguConfig &config() const { return cfg; }

    /** @name Replay-schedule state exchange (core/engine.cc)
     * The batched replay loop keys its per-trace schedule cache on
     * the exact pending queue (packed seq << 1 | bit, the schedule's
     * stream encoding) and, after replaying a schedule, commits the
     * un-drained stream suffix straight back as the queue - the same
     * bytes the reference loop's drains would have left.
     * @{ */
    void
    exportQueuePacked(std::vector<std::uint64_t> &out) const
    {
        out.clear();
        queue.forEach([&](const Pending &p) {
            out.push_back((p.seq << 1) |
                          static_cast<std::uint64_t>(p.bit ? 1 : 0));
        });
    }

    void
    commitCachedBatch(const std::uint64_t *packedLeft, std::size_t n,
                      std::uint64_t injected)
    {
        queue.clear();
        for (std::size_t i = 0; i < n; ++i)
            queue.push_back(
                Pending{packedLeft[i] >> 1, (packedLeft[i] & 1) != 0});
        inserted += injected;
    }
    /** @} */

    void
    registerStats(StatGroup &group, const std::string &prefix)
    {
        group.gauge(prefix + "bits_inserted",
                    [this] { return inserted; });
        group.gauge(prefix + "pending_bits",
                    [this] { return queue.size(); });
    }

    /** Pending-bit queue and insertion count; the base predictor's
     *  own state is checkpointed by its owner. */
    void saveState(StateSink &sink) const;
    Status loadState(StateSource &src);

    /** One queued history bit (public so observeInto()'s sinks can
     *  name it; the queue itself stays private). */
    struct Pending
    {
        std::uint64_t seq;
        bool bit;
    };

  private:
    BranchPredictor &pred;
    PguConfig cfg;
    RingQueue<Pending> queue;
    std::uint64_t inserted = 0;
};

} // namespace pabp

#endif // PABP_CORE_PGU_HH
