/**
 * @file
 * Trace recording and binary serialisation. A trace captures
 * everything a prediction study needs from the dynamic stream - static
 * instruction table plus per-instruction events - so expensive
 * workloads can be emulated once and replayed against many predictor
 * configurations (the record/replay methodology of trace-driven
 * studies). The recorder and the reader both fill the DecodedTrace
 * replay lanes directly (sim/decoded_trace.hh); the writer and the
 * fingerprint pack each event back into its 12 on-disk bytes, taking
 * its nextPc from the next event's pc (DecodedTrace::nextPc()) and its
 * predicate writes from the program (DecodedTrace::predWrites()).
 *
 * One on-disk format exists, "PABPTRC2" (little-endian):
 *    | magic[8] | u32 version | u64 numInsts | u64 numEvents
 *    | u32 headerCrc   - CRC-32 of the 28 bytes above
 *    | program section - 20 bytes per instruction
 *    | u32 progCrc     - CRC-32 of the program section
 *    | event blocks    - u32 count (<= 4096), count*12 payload bytes,
 *    |                   u32 blockCrc over count + payload; an event
 *    |                   is u32 pc, u8 flags (bit0 guard, bit1
 *    |                   taken, bits 2-3 write count), u8 predReg[2],
 *    |                   u8 predVal (bits 0-1 write values, bit2 the
 *    |                   Cmp relation), u32 nextPc - the next event's
 *    |                   pc, or the trace's endPc for the last event.
 *    |                   The reader verifies the nextPc chain and
 *    |                   that bytes 4-7 are the predicate writes the
 *    |                   program derives from the guard and relation
 *    | u64 footer      - ASCII "PABPEND2" end-of-artifact sentinel
 *    Per-block CRCs localise corruption, which is what makes salvage
 *    (recovering the longest valid event prefix) possible.
 *
 * Readers never terminate the process on malformed input: every
 * failure mode maps to a typed Status (BadMagic, VersionMismatch,
 * ChecksumMismatch, Truncated, IoError, Corrupt). The pabp_fatal
 * wrappers survive only as CLI conveniences. See docs/ROBUSTNESS.md.
 */

#ifndef PABP_SIM_TRACE_IO_HH
#define PABP_SIM_TRACE_IO_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "sim/decoded_trace.hh"
#include "sim/emulator.hh"
#include "util/status.hh"

namespace pabp {

/**
 * The old name of the trace type. Kept for the benchmark mirror
 * (benchmark/traced.cc), which still spells it; the benchmark change
 * that reads the sweep's own stage spans (ROADMAP, "One timing
 * source") deletes it. No other code may use it.
 */
using RecordedTrace = DecodedTrace;

/**
 * Record up to @p max_insts instructions of @p emu straight into the
 * replay lanes, with a fresh schedule cache: the interpreter
 * (Emulator::run) writes each event into the lanes by index, and the
 * lanes end at the recorded count.
 */
DecodedTrace recordTrace(Emulator &emu, std::uint64_t max_insts);

/**
 * The recorder body recordTrace() runs: execute up to @p n
 * instructions of @p emu, writing event k into lane index @p at + k
 * of @p trace's three lanes, which must already hold at + n entries, and
 * setting its endPc to the next pc of the last event written (left
 * alone when none ran). @p trace must hold @p emu's program
 * (DecodedTrace::setProgram()). A non-null @p effAddrs
 * also receives event k's effective address (0 for a non-memory
 * instruction) at index k - the window-only lane of the cycle-level
 * pipeline. Returns the number executed.
 */
std::size_t recordEvents(Emulator &emu, DecodedTrace &trace, std::size_t at,
                         std::size_t n, std::int64_t *effAddrs = nullptr);

/**
 * 64-bit FNV-1a over the section sizes, the on-disk program records
 * and every event:
 * equal for a trace and its saved-and-reloaded copy, different (up to
 * hash collisions) for traces of different programs or streams. Ties a
 * replay checkpoint to its trace (CheckpointRefs::traceId).
 */
std::uint64_t traceFingerprint(const DecodedTrace &trace);

/** Reader knobs. */
struct TraceReadOptions
{
    /**
     * Best-effort recovery: when the event section of a trace is
     * damaged (CRC failure, truncation, corrupt block), return the
     * longest prefix of events from fully-valid blocks instead of an
     * error. The header and program section must still verify - a
     * trace whose static program is damaged cannot be replayed at all.
     */
    bool salvage = false;
};

/** What the reader learned about the artifact. */
struct TraceReadInfo
{
    bool salvaged = false;          ///< salvage mode recovered a prefix
    std::uint64_t eventsDropped = 0; ///< events lost to salvage
};

/** Serialise as PABPTRC2. Returns bytes written. */
std::uint64_t writeTrace(const DecodedTrace &trace, std::ostream &os);

/**
 * Deserialise a PABPTRC2 trace. Any other container version
 * (including the retired unprotected PABPTRC1) is VersionMismatch;
 * every malformed-input path returns a typed Status, nothing aborts.
 */
Expected<DecodedTrace> readTrace(std::istream &is,
                                  const TraceReadOptions &opts = {},
                                  TraceReadInfo *info = nullptr);

/** Recoverable file wrappers. */
Status trySaveTraceFile(const DecodedTrace &trace,
                        const std::string &path);
Expected<DecodedTrace> tryLoadTraceFile(const std::string &path,
                                         const TraceReadOptions &opts = {},
                                         TraceReadInfo *info = nullptr);

/** CLI shims: fatal on any failure. Library code wants the try* forms. */
void saveTraceFile(const DecodedTrace &trace, const std::string &path);
DecodedTrace loadTraceFile(const std::string &path);

} // namespace pabp

#endif // PABP_SIM_TRACE_IO_HH
