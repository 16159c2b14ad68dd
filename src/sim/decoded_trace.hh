/**
 * @file
 * The one in-memory trace: a structure-of-arrays event stream laid
 * out for the hot replay loop (PredictionEngine::processBatch).
 *
 * Each per-event lane the engine's batch loop touches (pc, opcode
 * class, guard/taken/relation flags) is a flat contiguous array
 * indexed by event (sequence number minus firstSeq), so the inner loop
 * is a handful of indexed loads with no per-step DynInst construction.
 * The pc lane doubles as the static-instruction index (a trace pc IS
 * an index into the owned program), so `inst(i)` is one add off the pc
 * the loop already loaded.
 *
 * No lane holds an event's predicate writes. Which registers a Cmp or
 * PSet writes, and with what values, is a pure function of the
 * instruction, its guard and its relation result (predicateWrites(),
 * isa/inst.hh), and the flags lane holds both of those bits. So
 * setProgram() tabulates that function once per program, four rows a
 * pc, and predWrites(i) is one lookup.
 *
 * The lanes are filled as events arrive (sim/trace_io.hh):
 * recordTrace() has the interpreter write each executed instruction
 * into lanes sized ahead of it, and the PABPTRC2 reader appends each
 * verified on-disk event. Both take an event's class from pcClass, a
 * per-pc table setProgram() builds next to the define table. The cycle-level pipeline refills
 * one window of lanes in place with the same recorder body.
 *
 * No lane holds an event's next pc either: it is the pc of the event
 * after it, or endPc for the last event. So the three lanes cost 6
 * bytes an event. Each lane sits on its own anonymous mapping
 * (util/mapped_lane.hh), so a freed trace's memory leaves the process,
 * apart from a small pool of mappings kept for the next lanes.
 *
 * Once filled a trace is immutable and safe to share READ-ONLY across
 * threads - the sweep runner caches one per (workload, measurement
 * seed, budget) and replays every matching cell against it, exactly
 * like the compiled-program cache (docs/PARALLEL.md, docs/PERF.md).
 * It owns a copy of the program, and its define table, so `inst(i)`
 * and predWrites(i) can never dangle; copying is deleted while moving
 * is allowed.
 */

#ifndef PABP_SIM_DECODED_TRACE_HH
#define PABP_SIM_DECODED_TRACE_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

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

    /** The Class of @p inst: an event's class depends on its
     *  instruction alone. */
    static Class
    classify(const Inst &inst)
    {
        if (inst.op == Opcode::Br)
            return inst.qp ? Class::CondBranch : Class::UncondControl;
        if (inst.op == Opcode::Call || inst.op == Opcode::Ret)
            return Class::UncondControl;
        if (inst.writesPredicate())
            return Class::PredDefine;
        return Class::Other;
    }

    /** @name The program and its per-pc tables (setProgram())
     *  @{ */
    /** Owned program copy; pcs index into it. */
    Program prog;
    /** classify() of every instruction of prog, as a Class value. */
    std::vector<std::uint8_t> pcClass;
    /** predicateWrites() of every instruction of prog for each guard
     *  and relation, at defineRow(pc, guard, rel). */
    std::vector<PredicateWrites> defines;
    /** @} */

    /** @name Per-event lanes, all of size() entries: 6 bytes an event
     *  @{ */
    MappedLane<std::uint32_t> pcs;
    MappedLane<std::uint8_t> cls; ///< a Class value
    /** bit0 guard, bit1 taken, bits 2-3 numPredWrites, bit4 the
     *  relation result of a Cmp (ExecEvent::flags). */
    MappedLane<std::uint8_t> flags;
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

    /** Own @p program and build its per-pc tables, so each event's
     *  class and predicate writes are computed once per instruction,
     *  not once per event. */
    void
    setProgram(Program program)
    {
        prog = std::move(program);
        pcClass.resize(prog.size());
        defines.resize(prog.size() * 4);
        for (std::size_t pc = 0; pc < prog.size(); ++pc) {
            const Inst &inst = prog.insts[pc];
            pcClass[pc] = static_cast<std::uint8_t>(classify(inst));
            for (unsigned row = 0; row < 4; ++row)
                defines[pc * 4 + row] =
                    predicateWrites(inst, row & 1, row >> 1);
        }
    }

    /** Index into defines of instruction @p pc executed with @p guard
     *  and relation result @p rel. */
    static std::size_t
    defineRow(std::uint32_t pc, bool guard, bool rel)
    {
        return std::size_t{pc} * 4 + (guard ? 1 : 0) + (rel ? 2 : 0);
    }

    /** The pc control reached after event @p i. */
    std::uint32_t
    nextPc(std::size_t i) const
    {
        return i + 1 < size() ? pcs[i + 1] : endPc;
    }

    /** Apply @p op to each of the three lanes. */
    template <typename Op>
    void
    forEachLane(Op op)
    {
        op(pcs);
        op(cls);
        op(flags);
    }

    /** Resize every lane to @p n events (new events are zero). */
    void
    resize(std::size_t n)
    {
        forEachLane([n](auto &lane) { lane.resize(n); });
    }

    /** Lane bytes per event: the pc and two byte lanes. */
    static constexpr std::size_t bytesPerEvent = sizeof(std::uint32_t) + 2;

    /** Bytes the events occupy in the lanes. */
    std::size_t laneBytes() const { return size() * bytesPerEvent; }

    bool guard(std::size_t i) const { return flags[i] & 1; }
    bool taken(std::size_t i) const { return (flags[i] >> 1) & 1; }
    unsigned
    numPredWrites(std::size_t i) const
    {
        return (flags[i] >> 2) & 3;
    }
    bool cmpRel(std::size_t i) const { return (flags[i] >> 4) & 1; }

    /** The predicate writes of event @p i, derived from its
     *  instruction, guard and relation. */
    const PredicateWrites &
    predWrites(std::size_t i) const
    {
        return defines[defineRow(pcs[i], guard(i), cmpRel(i))];
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
        const PredicateWrites &writes = predWrites(i);
        for (unsigned w = 0; w < dyn.numPredWrites; ++w) {
            dyn.predWrites[w].reg = writes.reg[w];
            dyn.predWrites[w].value = (writes.values >> w) & 1;
        }
        dyn.cmpRel = cmpRel(i);
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
        out.pcClass = trace.pcClass;
        out.defines = trace.defines;
        out.pcs = trace.pcs;
        out.cls = trace.cls;
        out.flags = trace.flags;
        out.endPc = trace.endPc;
        out.firstSeq = trace.firstSeq;
        out.schedCache = std::make_shared<ReplayScheduleCache>();
        return out;
    }

    /**
     * Predictor-independent replay schedules derived from this trace
     * (sim/replay_schedule.hh), one per predicate configuration,
     * shared by every engine that batch replays it from event 0 - a
     * sweep's repeated replays skip the schedule capture after the
     * first. Created by recordTrace() and the trace reader; a
     * default-constructed trace has none, and the engine then
     * captures a private schedule for every batch.
     */
    std::shared_ptr<ReplayScheduleCache> schedCache;
};

} // namespace pabp

#endif // PABP_SIM_DECODED_TRACE_HH
