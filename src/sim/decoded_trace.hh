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
 * program), so the old pre-resolved `const Inst *` lane is gone -
 * `inst(i)` is one add off the pc the loop already loaded, and the
 * lanes are pure POD, which is what makes the zero-copy file mapping
 * below possible.
 *
 * The lanes live behind raw const pointers into one of two backings:
 *
 *  - build(): decodes a RecordedTrace into owned vectors (the
 *    in-memory path every existing caller uses), or
 *  - mapDecodedTraceFile(): points the lanes straight into a
 *    read-only mmap of a PABPDTF1 file written by
 *    saveDecodedTraceFile(). Opening cost is header + program
 *    validation plus one bounds scan of the pc lane - it no longer
 *    scales with re-decoding the event stream, so cold-starting a
 *    sweep over a huge trace is cheap (docs/PERF.md).
 *
 * A built or mapped DecodedTrace is immutable and safe to share
 * READ-ONLY across threads - the sweep runner caches one per
 * (workload, measurement seed, budget) and replays every matching
 * cell against it, exactly like the compiled-program cache
 * (docs/PARALLEL.md, docs/PERF.md). It owns a copy of the program so
 * `inst(i)` can never dangle; copying is deleted while moving is
 * allowed (vector/mapping moves keep the underlying buffers, so the
 * lane pointers stay valid).
 *
 * PABPDTF1 layout (little-endian):
 *   | magic[8]="PABPDTF1" | u32 version=1 | u64 numInsts
 *   | u64 numEvents | u32 laneCrc | u32 headerCrc
 *   | program: numInsts x 20-byte records | u32 progCrc
 *   | pad to 8 | pcs u32[n] | nextPcs u32[n]
 *   | cls u8[n] | flags u8[n] | predReg0 u8[n] | predReg1 u8[n]
 *   | predVal u8[n]
 * headerCrc covers the 32 bytes before it; progCrc the program
 * records; laneCrc the whole lane region. Every malformed-input path
 * is a typed Status (BadMagic / VersionMismatch / ChecksumMismatch /
 * Truncated / Corrupt), never a crash.
 */

#ifndef PABP_SIM_DECODED_TRACE_HH
#define PABP_SIM_DECODED_TRACE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/program.hh"
#include "sim/replay_schedule.hh"
#include "sim/trace_io.hh"
#include "util/mmap_file.hh"

namespace pabp {

/** A RecordedTrace unpacked into per-field lanes (seq = index). */
struct DecodedTrace
{
    /**
     * How PredictionEngine::process() would dispatch the event.
     * The classes are mutually exclusive by construction: Br/Call/Ret
     * never write predicates and Cmp/PSet are never control.
     * The numeric values are pinned by the PABPDTF1 format and the
     * simd class-scan kernels (util/simd.hh).
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
     * Read-only views into either the owned vectors (build()) or the
     * file mapping (mapDecodedTraceFile()).
     *  @{ */
    const std::uint32_t *pcs = nullptr;
    const std::uint8_t *cls = nullptr; ///< a Class value
    /** bit0 guard, bit1 taken, bits 2-3 numPredWrites - the exact
     *  RecordedTrace::Event::flags packing. */
    const std::uint8_t *flags = nullptr;
    const std::uint8_t *predReg0 = nullptr;
    const std::uint8_t *predReg1 = nullptr;
    /** bit0/bit1 = write values, bit2 cmpRel (Event::predVal). */
    const std::uint8_t *predVal = nullptr;
    const std::uint32_t *nextPcs = nullptr;
    /** @} */

    DecodedTrace() = default;
    DecodedTrace(DecodedTrace &&) = default;
    DecodedTrace &operator=(DecodedTrace &&) = default;
    DecodedTrace(const DecodedTrace &) = delete;
    DecodedTrace &operator=(const DecodedTrace &) = delete;

    std::size_t size() const { return count; }

    /** True when the lanes point into a file mapping. */
    bool isMapped() const { return mapping != nullptr; }

    bool guard(std::size_t i) const { return flags[i] & 1; }
    bool taken(std::size_t i) const { return (flags[i] >> 1) & 1; }
    unsigned
    numPredWrites(std::size_t i) const
    {
        return (flags[i] >> 2) & 3;
    }

    /** The static instruction of event @p i: the pc lane is the
     *  instruction index, pre-validated against the program at
     *  build/map time, so this is a single indexed load. */
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

    /** Decode @p trace into owned in-memory lanes. */
    static DecodedTrace build(const RecordedTrace &trace);

    /** Owned-vector backing for the build() path. */
    struct Lanes
    {
        std::vector<std::uint32_t> pcs;
        std::vector<std::uint8_t> cls;
        std::vector<std::uint8_t> flags;
        std::vector<std::uint8_t> predReg0;
        std::vector<std::uint8_t> predReg1;
        std::vector<std::uint8_t> predVal;
        std::vector<std::uint32_t> nextPcs;
    };

    std::size_t count = 0;
    std::unique_ptr<Lanes> store;      ///< build() backing
    std::unique_ptr<MmapFile> mapping; ///< mapped-file backing

    /**
     * Predictor-independent replay schedules derived from this trace
     * (sim/replay_schedule.hh), shared by every engine that batch
     * replays it - a sweep's repeated replays skip the schedule
     * capture after the first pass. Created by
     * build()/mapDecodedTraceFile(); a default-constructed trace has
     * none, and the engine then captures a schedule for every batch
     * without publishing it.
     */
    std::shared_ptr<ReplayScheduleCache> schedCache;

    /** Re-point the lane views at the owned vectors. */
    void bindStore();
};

/** Knobs for mapDecodedTraceFile(). */
struct DecodedMapOptions
{
    /**
     * Verify the lane CRC and the per-event invariants (class lane
     * consistent with the program, predicate-write registers in
     * range). Costs one sequential pass over the lanes; disable only
     * for trusted, locally-written files. The pc-lane bounds scan
     * ALWAYS runs - the batch loop indexes the program with lane pcs
     * unchecked, so out-of-range pcs must be impossible regardless of
     * this knob.
     */
    bool verifyLanes = true;
};

/** Serialise @p trace as a PABPDTF1 file (write-then-rename). */
Status saveDecodedTraceFile(const DecodedTrace &trace,
                            const std::string &path);

/**
 * Map a PABPDTF1 file zero-copy: the program section is deserialised
 * (it is small and the Inst layout is not the disk layout), the event
 * lanes stay in the read-only mapping. Torn, truncated or corrupt
 * files yield typed errors; nothing aborts.
 */
Expected<DecodedTrace> mapDecodedTraceFile(
    const std::string &path, const DecodedMapOptions &opts = {});

} // namespace pabp

#endif // PABP_SIM_DECODED_TRACE_HH
