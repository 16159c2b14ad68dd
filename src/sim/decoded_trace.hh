/**
 * @file
 * The one in-memory trace: a structure-of-arrays event stream laid
 * out for the hot replay loop (PredictionEngine::processBatch).
 *
 * Each per-event lane the engine's batch loop touches (pc, opcode
 * class, guard/taken flags, predicate-write payload) is a flat
 * contiguous array indexed by event (sequence number minus firstSeq),
 * so the inner loop is a handful of indexed loads with no per-step
 * DynInst construction. The pc lane doubles as the static-instruction
 * index (a trace pc IS an index into the owned program), so `inst(i)`
 * is one add off the pc the loop already loaded.
 *
 * The lanes are filled as events arrive (sim/trace_io.hh):
 * recordTrace() has the interpreter write each executed instruction
 * into lanes sized ahead of it, and the PABPTRC2 reader appends each
 * verified on-disk event. Both take an event's class from a per-pc
 * table built once from the program. The cycle-level pipeline refills
 * one window of lanes in place with the same recorder body.
 *
 * No lane holds an event's next pc: it is the pc of the event after
 * it, or endPc for the last event, so the six lanes cost 9 bytes an
 * event. Each lane sits on its own anonymous mapping
 * (util/mapped_lane.hh), so a freed trace's memory leaves the process,
 * apart from a small pool of mappings kept for the next lanes.
 *
 * Once filled a trace is immutable and safe to share READ-ONLY across
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

#include "isa/program.hh"
#include "sim/emulator.hh"
#include "sim/replay_schedule.hh"
#include "util/mapped_lane.hh"

namespace pabp {

/** Program text plus its dynamic events in per-field lanes
 *  (seq = firstSeq + index). */
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

    /** @name Per-event lanes, all of size() entries: 9 bytes an event
     *  @{ */
    MappedLane<std::uint32_t> pcs;
    MappedLane<std::uint8_t> cls; ///< a Class value
    /** bit0 guard, bit1 taken, bits 2-3 numPredWrites - byte 4 of
     *  the on-disk event record. */
    MappedLane<std::uint8_t> flags;
    MappedLane<std::uint8_t> predReg0;
    MappedLane<std::uint8_t> predReg1;
    /** bit0/bit1 = write values, bit2 cmpRel. */
    MappedLane<std::uint8_t> predVal;
    /** @} */

    /**
     * The pc after the last event: the emulator's pc once the trace
     * ends. Every other event's next pc is the pc of the event after
     * it (nextPc()), so no lane stores it.
     */
    std::uint32_t endPc = 0;

    /**
     * Dynamic sequence number of lane 0: event i is the instruction
     * at sequence firstSeq + i. Every recorded or read trace starts
     * at 0; the cycle-level pipeline's reusable event window
     * (pipeline/pipeline.hh) sets it to the emulator position the
     * window starts at, so the engine's predicate-file and PGU
     * sequence arithmetic stays global across windows. A window is
     * refilled in place, so it carries no schedule cache: a cached
     * schedule is keyed on lane positions, not on the events there.
     */
    std::uint64_t firstSeq = 0;

    DecodedTrace() = default;
    DecodedTrace(DecodedTrace &&) = default;
    DecodedTrace &operator=(DecodedTrace &&) = default;
    DecodedTrace(const DecodedTrace &) = delete;
    DecodedTrace &operator=(const DecodedTrace &) = delete;

    std::size_t size() const { return pcs.size(); }

    /** The pc control reached after event @p i. */
    std::uint32_t
    nextPc(std::size_t i) const
    {
        return i + 1 < size() ? pcs[i + 1] : endPc;
    }

    /** Apply @p op to each of the six lanes. */
    template <typename Op>
    void
    forEachLane(Op op)
    {
        op(pcs);
        op(cls);
        op(flags);
        op(predReg0);
        op(predReg1);
        op(predVal);
    }

    /** Resize every lane to @p n events (new events are zero). */
    void
    resize(std::size_t n)
    {
        forEachLane([n](auto &lane) { lane.resize(n); });
    }

    /** Lane bytes per event: the pc and five byte lanes. */
    static constexpr std::size_t bytesPerEvent = sizeof(std::uint32_t) + 5;

    /** Bytes the events occupy in the lanes. */
    std::size_t laneBytes() const { return size() * bytesPerEvent; }

    bool guard(std::size_t i) const { return flags[i] & 1; }
    bool taken(std::size_t i) const { return (flags[i] >> 1) & 1; }
    unsigned
    numPredWrites(std::size_t i) const
    {
        return (flags[i] >> 2) & 3;
    }

    /** The static instruction of event @p i: every pc was validated
     *  against the program when its event was appended, so this is a
     *  single indexed load. */
    const Inst &
    inst(std::size_t i) const
    {
        return prog.insts[pcs[i]];
    }

    /**
     * Reconstitute the full DynInst for event @p i - every field the
     * emulator produced except effAddr, which no trace carries. The
     * reference replay loop (replayTraceFrom) and the lane-packing
     * tests use this; the batch loop itself reads the lanes directly.
     */
    DynInst
    materialise(std::size_t i) const
    {
        const Inst &in = inst(i);

        DynInst dyn;
        dyn.seq = firstSeq + i;
        dyn.pc = pcs[i];
        dyn.inst = &in;
        dyn.guard = guard(i);
        dyn.taken = taken(i);
        dyn.isControl = in.isControl();
        dyn.nextPc = nextPc(i);
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

    /**
     * Deep copy of @p trace with a fresh, empty schedule cache. Kept
     * for the benchmark mirror (benchmark/traced.cc), which records
     * and then times this copy as its decode layer; the benchmark
     * change that reads the sweep's own stage spans (ROADMAP, "One
     * timing source") deletes it. No other code may call it; a test
     * may, where it needs an independent cold-cache copy.
     */
    static DecodedTrace
    build(const DecodedTrace &trace)
    {
        DecodedTrace out;
        out.prog = trace.prog;
        out.pcs = trace.pcs;
        out.cls = trace.cls;
        out.flags = trace.flags;
        out.predReg0 = trace.predReg0;
        out.predReg1 = trace.predReg1;
        out.predVal = trace.predVal;
        out.endPc = trace.endPc;
        out.firstSeq = trace.firstSeq;
        out.schedCache = std::make_shared<ReplayScheduleCache>();
        return out;
    }

    /**
     * Predictor-independent replay schedules derived from this trace
     * (sim/replay_schedule.hh), shared by every engine that batch
     * replays it - a sweep's repeated replays skip the schedule
     * capture after the first pass. Created by recordTrace() and the
     * trace reader; a default-constructed trace has none, and the
     * engine then captures a schedule for every batch without
     * publishing it.
     */
    std::shared_ptr<ReplayScheduleCache> schedCache;
};

} // namespace pabp

#endif // PABP_SIM_DECODED_TRACE_HH
