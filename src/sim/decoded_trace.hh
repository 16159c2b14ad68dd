/**
 * @file
 * Structure-of-arrays form of a RecordedTrace, pre-decoded for the
 * hot replay loop (PredictionEngine::processBatch).
 *
 * RecordedTrace::materialise() re-resolves the static instruction
 * (a bounds-checked map lookup), re-unpacks the event bitfields and
 * fills a full DynInst for EVERY replayed instruction. A DecodedTrace
 * does that work exactly once at build time: each per-event lane the
 * engine's batch loop touches (pc, opcode class, guard/taken flags,
 * predicate-write payload) is a flat contiguous array indexed by
 * sequence number, so the inner loop is a handful of indexed loads
 * with no per-step DynInst construction. The pc lane doubles as the
 * static-instruction index (a trace pc IS an index into the owned
 * program), so `inst(i)` is one add off the pc the loop already
 * loaded.
 *
 * A DecodedTrace lives in memory only: build() decodes a RecordedTrace
 * (loaded from a PABPTRC2 file or recorded live, sim/trace_io.hh).
 * Once built it is immutable and safe to share READ-ONLY across
 * threads - the sweep runner caches one per (workload, measurement
 * seed, budget) and replays every matching cell against it, exactly
 * like the compiled-program cache (docs/PARALLEL.md, docs/PERF.md).
 * It owns a copy of the program so `inst(i)` can never dangle;
 * copying is deleted while moving is allowed.
 */

#ifndef PABP_SIM_DECODED_TRACE_HH
#define PABP_SIM_DECODED_TRACE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/program.hh"
#include "sim/replay_schedule.hh"
#include "sim/trace_io.hh"

namespace pabp {

/** A RecordedTrace unpacked into per-field lanes (seq = index). */
struct DecodedTrace
{
    /**
     * How PredictionEngine::process() would dispatch the event.
     * The classes are mutually exclusive by construction: Br/Call/Ret
     * never write predicates and Cmp/PSet are never control.
     * The numeric values are pinned by the simd class-scan kernels
     * (util/simd.hh).
     */
    enum class Class : std::uint8_t
    {
        Other = 0,     ///< no predictor interaction
        CondBranch,    ///< Br with a qualifying predicate
        UncondControl, ///< unguarded Br, Call, Ret
        PredDefine,    ///< Cmp or PSet (writes predicates)
    };

    /** Owned program copy; pcs index into it. */
    Program prog;

    /** @name Per-event lanes, all of size() entries
     *  @{ */
    std::vector<std::uint32_t> pcs;
    std::vector<std::uint8_t> cls; ///< a Class value
    /** bit0 guard, bit1 taken, bits 2-3 numPredWrites - the exact
     *  RecordedTrace::Event::flags packing. */
    std::vector<std::uint8_t> flags;
    std::vector<std::uint8_t> predReg0;
    std::vector<std::uint8_t> predReg1;
    /** bit0/bit1 = write values, bit2 cmpRel (Event::predVal). */
    std::vector<std::uint8_t> predVal;
    std::vector<std::uint32_t> nextPcs;
    /** @} */

    DecodedTrace() = default;
    DecodedTrace(DecodedTrace &&) = default;
    DecodedTrace &operator=(DecodedTrace &&) = default;
    DecodedTrace(const DecodedTrace &) = delete;
    DecodedTrace &operator=(const DecodedTrace &) = delete;

    std::size_t size() const { return pcs.size(); }

    bool guard(std::size_t i) const { return flags[i] & 1; }
    bool taken(std::size_t i) const { return (flags[i] >> 1) & 1; }
    unsigned
    numPredWrites(std::size_t i) const
    {
        return (flags[i] >> 2) & 3;
    }

    /** The static instruction of event @p i: the pc lane is the
     *  instruction index, pre-validated against the program at
     *  build time, so this is a single indexed load. */
    const Inst &
    inst(std::size_t i) const
    {
        return prog.insts[pcs[i]];
    }

    /**
     * Reconstitute the full DynInst for event @p i - field-for-field
     * what RecordedTrace::materialise(i) returns. The reference-path
     * comparisons and lane-packing tests use this; the batch loop
     * itself reads the lanes directly.
     */
    DynInst
    materialise(std::size_t i) const
    {
        const Inst &in = inst(i);

        DynInst dyn;
        dyn.seq = i;
        dyn.pc = pcs[i];
        dyn.inst = &in;
        dyn.guard = guard(i);
        dyn.taken = taken(i);
        dyn.isControl = in.isControl();
        dyn.nextPc = nextPcs[i];
        dyn.numPredWrites =
            static_cast<std::uint8_t>(numPredWrites(i));
        const std::uint8_t regs[2] = {predReg0[i], predReg1[i]};
        for (unsigned w = 0; w < dyn.numPredWrites; ++w) {
            dyn.predWrites[w].reg = regs[w];
            dyn.predWrites[w].value = (predVal[i] >> w) & 1;
        }
        dyn.cmpRel = (predVal[i] >> 2) & 1;
        dyn.isMem =
            in.op == Opcode::Load || in.op == Opcode::Store;
        return dyn;
    }

    /** Decode @p trace into in-memory lanes. */
    static DecodedTrace build(const RecordedTrace &trace);

    /**
     * Predictor-independent replay schedules derived from this trace
     * (sim/replay_schedule.hh), shared by every engine that batch
     * replays it - a sweep's repeated replays skip the schedule
     * capture after the first pass. Created by build(); a
     * default-constructed trace has none, and the engine then
     * captures a schedule for every batch without publishing it.
     */
    std::shared_ptr<ReplayScheduleCache> schedCache;
};

} // namespace pabp

#endif // PABP_SIM_DECODED_TRACE_HH
