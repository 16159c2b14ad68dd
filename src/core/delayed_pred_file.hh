/**
 * @file
 * Fetch-visible predicate register file with a define-to-use delay.
 *
 * The squash false path filter may only consult predicate values that
 * have actually been computed by the time the branch is fetched. This
 * component models that constraint in a trace-driven setting: a write
 * performed by the instruction at sequence number W becomes visible to
 * instructions at sequence numbers >= W + delay; any in-flight (not
 * yet visible) write to a register makes its value *unknown*, because
 * the fetch stage cannot tell which value will win.
 *
 * Consulting only resolved values is what makes the filter's
 * not-taken predictions 100% accurate (DESIGN.md, decision 3).
 */

#ifndef PABP_CORE_DELAYED_PRED_FILE_HH
#define PABP_CORE_DELAYED_PRED_FILE_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "isa/inst.hh"
#include "sim/replay_schedule.hh"
#include "util/logging.hh"
#include "util/ring_queue.hh"
#include "util/serialize.hh"
#include "util/status.hh"

namespace pabp {

/** Trace-driven delayed-visibility predicate file. */
class DelayedPredicateFile
{
  public:
    /**
     * @param delay Instructions between a predicate define and its
     *        visibility at fetch (roughly front-end depth x width).
     */
    explicit DelayedPredicateFile(unsigned delay);

    /** Record a predicate write by the instruction at @p seq. */
    void
    write(std::uint64_t seq, unsigned reg, bool value)
    {
        pabp_assert(reg < numPredRegs);
        if (reg == 0)
            return;
        queue.push_back(
            Pending{seq, static_cast<std::uint8_t>(reg), value, true});
        ++inFlight[reg];
    }

    /**
     * Record an in-flight define that will NOT architecturally write
     * (a guard-false or-type compare, say). Conservative hardware
     * cannot tell at fetch, so such a define still makes the register
     * unknown until it resolves. Used by the conservative-tracking
     * ablation.
     */
    void
    writeNoop(std::uint64_t seq, unsigned reg)
    {
        pabp_assert(reg < numPredRegs);
        if (reg == 0)
            return;
        queue.push_back(
            Pending{seq, static_cast<std::uint8_t>(reg), false, false});
        ++inFlight[reg];
    }

    /** Make all writes older than @p seq - delay visible. Must be
     *  called with non-decreasing @p seq. Inline (as is the whole
     *  queue machinery): the replay loops call it once per
     *  instruction, and a retirement happens for every pending write,
     *  i.e. once per predicate define. */
    void
    advanceTo(std::uint64_t seq)
    {
        while (!queue.empty() && queue.front().seq + visDelay <= seq)
            retireFront();
    }

    /**
     * Value of predicate @p reg as known at fetch after the last
     * advanceTo(). nullopt when a write is still in flight. p0 always
     * reads true.
     */
    std::optional<bool>
    read(unsigned reg) const
    {
        pabp_assert(reg < numPredRegs);
        if (reg == 0)
            return true;
        if (inFlight[reg] > 0)
            return std::nullopt;
        return visible[reg];
    }

    unsigned delay() const { return visDelay; }

    void saveState(StateSink &sink) const;
    Status loadState(StateSource &src);

    /** One in-flight define (the POD lives in sim/replay_schedule.hh
     *  so replay schedules can snapshot queue contents; the queue
     *  itself stays private). */
    using Pending = ReplayPredWrite;

    /** @name Replay-schedule state exchange (core/engine.cc)
     * The batched replay loop keys its per-trace schedule cache on
     * this file's exact state and restores the recorded exit state on
     * a hit; both forms are value-complete (visible bits + the FIFO),
     * with inFlight derived from the queue.
     * @{ */
    static_assert(numPredRegs <= 64,
                  "visibleBits() packs one bit per register");

    std::uint64_t
    visibleBits() const
    {
        std::uint64_t bits = 0;
        for (unsigned r = 0; r < numPredRegs; ++r)
            bits |= static_cast<std::uint64_t>(visible[r] ? 1 : 0) << r;
        return bits;
    }

    void
    exportQueue(std::vector<Pending> &out) const
    {
        out.clear();
        queue.forEach([&](const Pending &p) { out.push_back(p); });
    }

    void
    restoreBatchState(std::uint64_t visibleBits_,
                      const std::vector<Pending> &entries)
    {
        for (unsigned r = 0; r < numPredRegs; ++r)
            visible[r] = (visibleBits_ >> r) & 1;
        std::fill(inFlight.begin(), inFlight.end(), 0u);
        queue.clear();
        for (const Pending &p : entries) {
            queue.push_back(p);
            ++inFlight[p.reg];
        }
    }
    /** @} */

  private:

    /** Apply the front pending write and pop it (advanceTo's loop
     *  body). */
    void
    retireFront()
    {
        const Pending &p = queue.front();
        if (p.writes)
            visible[p.reg] = p.value;
        pabp_assert(inFlight[p.reg] > 0);
        --inFlight[p.reg];
        queue.pop_front();
    }

    unsigned visDelay;
    std::vector<bool> visible;
    std::vector<unsigned> inFlight;
    RingQueue<Pending> queue;

    friend class BatchPredicateView;
};

/**
 * Register-indexed overlay that answers a whole batch worth of
 * delayed-visibility queries without touching the FIFO - the SFPF
 * kernel of the replay loop's schedule capture (core/engine.cc),
 * which runs it over a copy of the engine's file.
 *
 * The reference loop pays a queue push per define plus an advanceTo()
 * retirement sweep per instruction. Over a batch [first, endSeq] none
 * of that ordering machinery is observable - a read at sequence S only
 * needs "is the newest write to this register visible by S, and what
 * value would the retirement sweep have left". Both are per-register
 * facts: writes arrive in sequence order, so the register is known at
 * S exactly when its newest write w satisfies w.seq + delay <= S, and
 * the visible value is then the newest *architectural* write's value.
 * begin() folds the file's current FIFO into those per-register
 * summaries; writes and read() during the batch are then O(1) array
 * operations with no queue traffic at all.
 *
 * commit() restores the file to byte-for-byte the state the reference
 * sequence of write()/advanceTo() calls would have produced (the FIFO
 * is checkpoint-serialised, so "unobservable" must include checkpoint
 * bytes): advanceTo(endSeq) retires the pre-batch entries natively;
 * retired batch writes collapse to their final visible[] values (their
 * push/retire pair nets zero in-flight); and still-in-flight batch
 * writes replay into the FIFO in order. Pre-batch leftovers all
 * precede batch writes in sequence, so FIFO order is preserved - and
 * a batch write can only be in flight if every leftover is too.
 *
 * "Retired" means what the reference loop's LAST advanceTo(endSeq)
 * retired - and that call runs before event endSeq's own define
 * writes. So a write at endSeq stays in flight even at delay 0: the
 * retirement test uses a delay of at least one (retireDelay).
 */
class BatchPredicateView
{
  public:
    /** Start a batch ending at @p endSeq_ (inclusive) over @p f.
     *  Reusable: capacity of the spill buffer persists. */
    void
    begin(DelayedPredicateFile &f, std::uint64_t endSeq_)
    {
        file = &f;
        endSeq = endSeq_;
        retireDelay = std::max(f.visDelay, 1u);
        tail.clear();
        for (unsigned r = 0; r < numPredRegs; ++r) {
            visibleAt[r] = 0;
            curVal[r] = f.visible[r];
            retiredAny[r] = false;
        }
        f.queue.forEach([this](const DelayedPredicateFile::Pending &p) {
            visibleAt[p.reg] = p.seq + file->visDelay;
            if (p.writes)
                curVal[p.reg] = p.value;
        });
    }

    /** DelayedPredicateFile::read() as seen at sequence @p seq. */
    PABP_ALWAYS_INLINE std::optional<bool>
    read(unsigned reg, std::uint64_t seq) const
    {
        pabp_assert(reg < numPredRegs);
        if (reg == 0)
            return true;
        if (visibleAt[reg] > seq)
            return std::nullopt;
        return curVal[reg];
    }

    /**
     * A define's register lane slot cannot be masked out of the
     * dataflow cheaply (whether slot w architecturally writes is
     * data-dependent, and a conditional call is a host-branch
     * mispredict per irregular define), so the schedule capture maps
     * dead slots - and writes to the constant-true p0, which the
     * file discards - to @p trashReg and calls this unconditionally:
     * the overlay arrays carry one scratch entry that nothing ever
     * reads, turning the mask into a pair of cmovs.
     */
    static constexpr unsigned trashReg = numPredRegs;

    PABP_ALWAYS_INLINE void
    writeMasked(std::uint64_t seq, unsigned reg, bool value)
    {
        pabp_assert(reg <= trashReg);
        visibleAt[reg] = seq + file->visDelay;
        curVal[reg] = value;
        if (seq + retireDelay <= endSeq) [[likely]] {
            retiredAny[reg] = true;
            retiredVal[reg] = value;
        } else if (reg != 0 && reg != trashReg) {
            tail.push_back(DelayedPredicateFile::Pending{
                seq, static_cast<std::uint8_t>(reg), value, true});
        }
    }

    void
    writeNoop(std::uint64_t seq, unsigned reg)
    {
        pabp_assert(reg < numPredRegs);
        if (reg == 0)
            return;
        visibleAt[reg] = seq + file->visDelay;
        if (seq + retireDelay > endSeq)
            tail.push_back(DelayedPredicateFile::Pending{
                seq, static_cast<std::uint8_t>(reg), false, false});
        // A noop that retires within the batch nets to nothing: no
        // visible[] change, in-flight up then down.
    }

    /** Fold the batch back into the file (see class comment). */
    void
    commit()
    {
        file->advanceTo(endSeq);
        for (unsigned r = 1; r < numPredRegs; ++r) {
            if (retiredAny[r])
                file->visible[r] = retiredVal[r];
        }
        for (const DelayedPredicateFile::Pending &p : tail) {
            if (p.writes)
                file->write(p.seq, p.reg, p.value);
            else
                file->writeNoop(p.seq, p.reg);
        }
        file = nullptr;
    }

  private:
    DelayedPredicateFile *file = nullptr;
    std::uint64_t endSeq = 0;
    /** max(delay, 1): a write at seq retires within the batch iff
     *  seq + retireDelay <= endSeq (see the class comment). */
    std::uint64_t retireDelay = 1;
    /** Sequence at which the register's newest write becomes fetch
     *  visible; 0 = nothing in flight (writes start at seq 0 but gain
     *  a positive delay, and delay 0 means instant visibility). One
     *  extra entry per array: the trashReg scratch slot. */
    std::uint64_t visibleAt[numPredRegs + 1];
    /** Value a read sees once the register is known. */
    bool curVal[numPredRegs + 1];
    /** Newest batch write that retires inside the batch, per reg. */
    bool retiredVal[numPredRegs + 1];
    bool retiredAny[numPredRegs + 1];
    /** Batch writes still in flight at endSeq, in sequence order. */
    std::vector<DelayedPredicateFile::Pending> tail;
};

} // namespace pabp

#endif // PABP_CORE_DELAYED_PRED_FILE_HH
