#include "sim/trace_io.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "util/fnv.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

namespace pabp {

namespace {

constexpr char traceMagicV2[8] = {'P', 'A', 'B', 'P', 'T', 'R', 'C', '2'};
constexpr char traceFooter[8] = {'P', 'A', 'B', 'P', 'E', 'N', 'D', '2'};

constexpr std::uint32_t traceVersion2 = 2;

/** On-disk record sizes. The instruction record is the architectural
 *  encoding plus the regionId sidecar. */
constexpr std::size_t instRecordSize = 20;
constexpr std::size_t eventRecordBytes = 12; // pc,flags,regs,val,nextPc

/** Events per CRC-protected v2 block. Small enough that salvage
 *  loses at most this many events per damaged region. */
constexpr std::uint32_t eventBlockCapacity = 4096;

/** Allocation sanity bound; a header claiming more is corrupt. */
constexpr std::uint64_t maxTraceInsts = 1u << 26;

/** Events the recorder sizes its lanes by at a time. */
constexpr std::size_t recordChunk = 1u << 16;

void
packInst(const Inst &inst, unsigned char *out)
{
    EncodedInst enc = encode(inst);
    std::memcpy(out, &enc.word0, 8);
    std::memcpy(out + 8, &enc.word1, 8);
    // regionId travels as a sidecar (not architectural encoding).
    std::memcpy(out + 16, &inst.regionId, 4);
}

/** Decode one 20-byte program record; false on invalid encoding. */
bool
unpackInst(const unsigned char *p, Inst &inst)
{
    EncodedInst enc;
    std::memcpy(&enc.word0, p, 8);
    std::memcpy(&enc.word1, p + 8, 8);
    auto decoded = tryDecode(enc);
    if (!decoded)
        return false;
    inst = *decoded;
    std::memcpy(&inst.regionId, p + 16, 4);
    return true;
}

/**
 * Bytes 4-7 of an event record, from the guard, taken and relation
 * bits of @p flags and the event's derived @p writes: the flags byte
 * with the write count and no relation bit, the two write registers,
 * and the write values with the relation in bit 2.
 */
void
packPayload(std::uint8_t flags, const PredicateWrites &writes,
            unsigned char *out)
{
    out[0] = static_cast<unsigned char>((flags & 3) | (writes.count << 2));
    out[1] = writes.reg[0];
    out[2] = writes.reg[1];
    out[3] = static_cast<unsigned char>(writes.values | ((flags >> 2) & 4));
}

/** Pack event @p i of @p trace into its 12 on-disk bytes. A pc past
 *  the program, which no recorded or read trace holds but an edited
 *  one can, derives no writes; the reader refuses it by its pc. */
void
packEvent(const DecodedTrace &trace, std::size_t i, unsigned char *out)
{
    const std::uint32_t pc = trace.pcs[i];
    std::memcpy(out, &pc, 4);
    packPayload(trace.flags[i],
                pc < trace.prog.size() ? trace.predWrites(i)
                                       : PredicateWrites{},
                out + 4);
    const std::uint32_t next_pc = trace.nextPc(i);
    std::memcpy(out + 8, &next_pc, 4);
}

} // anonymous namespace

std::size_t
recordEvents(Emulator &emu, DecodedTrace &trace, std::size_t at,
             std::size_t n, std::int64_t *effAddrs)
{
    const std::uint8_t *classes = trace.pcClass.data();
    std::uint32_t *pcs = trace.pcs.data() + at;
    std::uint8_t *cls = trace.cls.data() + at;
    std::uint8_t *flags = trace.flags.data() + at;
    std::uint32_t next_pc = trace.endPc;
    std::size_t i = 0;
    emu.run(n, [&](const ExecEvent &ev) {
        pcs[i] = ev.pc;
        cls[i] = classes[ev.pc];
        flags[i] = ev.flags;
        next_pc = ev.nextPc;
        if (effAddrs)
            effAddrs[i] = ev.effAddr;
        ++i;
    });
    trace.endPc = next_pc;
    return i;
}

DecodedTrace
recordTrace(Emulator &emu, std::uint64_t max_insts)
{
    DecodedTrace trace;
    trace.setProgram(emu.program());
    trace.schedCache = std::make_shared<ReplayScheduleCache>();
    const auto reserved = static_cast<std::size_t>(
        std::min<std::uint64_t>(max_insts, maxTraceInsts));
    trace.forEachLane(
        [reserved](auto &lane) { lane.reserve(reserved); });

    // The reservation is address space only. The lanes grow a chunk
    // at a time, each growth faulting in its pages in one call, and
    // the interpreter writes each event into them by index. A program
    // that halts early leaves at most one chunk zero-filled past its
    // last event, and a budget past the reservation just keeps
    // growing the lanes.
    std::size_t filled = 0;
    std::uint64_t left = max_insts;
    while (left > 0) {
        const auto chunk = static_cast<std::size_t>(
            std::min<std::uint64_t>(left, recordChunk));
        trace.resize(filled + chunk);
        const std::size_t i = recordEvents(emu, trace, filled, chunk);
        filled += i;
        left -= i;
        if (i < chunk)
            break;
    }
    trace.resize(filled);
    // A program that halts short of the budget gives the unused
    // reservation back before the trace is cached.
    if (filled < reserved)
        trace.forEachLane([](auto &lane) { lane.shrink_to_fit(); });
    return trace;
}

std::uint64_t
traceFingerprint(const DecodedTrace &trace)
{
    Fnv1a fnv;
    // The section sizes first, so no shift of bytes between the
    // program and the events can collide.
    fnv.u64(trace.prog.size());
    fnv.u64(trace.size());
    unsigned char record[instRecordSize];
    for (const Inst &inst : trace.prog.insts) {
        packInst(inst, record);
        fnv.bytes(record, instRecordSize);
    }
    for (std::size_t i = 0; i < trace.size(); ++i) {
        packEvent(trace, i, record);
        fnv.bytes(record, eventRecordBytes);
    }
    return fnv.value();
}

std::uint64_t
writeTrace(const DecodedTrace &trace, std::ostream &os)
{
    StateSink sink(os);

    // Header, CRC-protected including the magic.
    sink.writeBytes(traceMagicV2, sizeof(traceMagicV2));
    sink.writeU32(traceVersion2);
    sink.writeU64(trace.prog.size());
    sink.writeU64(trace.size());
    sink.writeU32(sink.crc32());
    sink.resetCrc();

    // Program section.
    unsigned char record[instRecordSize];
    for (const Inst &inst : trace.prog.insts) {
        packInst(inst, record);
        sink.writeBytes(record, instRecordSize);
    }
    sink.writeU32(sink.crc32());

    // Event blocks, each independently CRC-protected so corruption is
    // localised and salvage can keep everything before the damage.
    std::uint64_t next = 0;
    std::vector<unsigned char> payload;
    while (next < trace.size()) {
        auto count = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(eventBlockCapacity,
                                    trace.size() - next));
        payload.resize(count * eventRecordBytes);
        for (std::uint32_t i = 0; i < count; ++i)
            packEvent(trace, next + i,
                      payload.data() + i * eventRecordBytes);

        sink.resetCrc();
        sink.writeU32(count);
        sink.writeBytes(payload.data(), payload.size());
        sink.writeU32(sink.crc32());
        next += count;
    }

    sink.writeBytes(traceFooter, sizeof(traceFooter));
    return sink.bytesWritten();
}

namespace {

Status
nextPcMismatch(std::uint64_t event)
{
    return Status(StatusCode::Corrupt,
                  "trace event " + std::to_string(event) +
                      " nextPc is not the next event's pc");
}

Expected<DecodedTrace>
readTraceV2(StateSource &src, const TraceReadOptions &opts,
            TraceReadInfo &info)
{
    // Header (the magic already passed through the CRC in readTrace).
    std::uint32_t version = 0;
    std::uint64_t num_insts = 0, num_events = 0;
    PABP_TRY(src.readPod(version));
    PABP_TRY(src.readPod(num_insts));
    PABP_TRY(src.readPod(num_events));
    std::uint32_t header_crc = src.crc32();
    std::uint32_t stored_header_crc = 0;
    PABP_TRY(src.readPod(stored_header_crc));
    if (stored_header_crc != header_crc)
        return Status(StatusCode::ChecksumMismatch,
                      "trace header CRC mismatch");
    if (version != traceVersion2)
        return Status(StatusCode::VersionMismatch,
                      "trace version " + std::to_string(version) +
                          " not supported");
    if (num_insts > maxTraceInsts)
        return Status(StatusCode::Corrupt,
                      "implausible instruction count " +
                          std::to_string(num_insts));

    // Program section: verify the CRC over the raw bytes *before*
    // decoding, so a damaged section cannot feed the decoder garbage.
    src.resetCrc();
    std::vector<unsigned char> program_bytes(num_insts * instRecordSize);
    PABP_TRY(src.readBytes(program_bytes.data(), program_bytes.size()));
    std::uint32_t prog_crc = src.crc32();
    std::uint32_t stored_prog_crc = 0;
    PABP_TRY(src.readPod(stored_prog_crc));
    if (stored_prog_crc != prog_crc)
        return Status(StatusCode::ChecksumMismatch,
                      "program section CRC mismatch");

    Program prog;
    prog.insts.reserve(num_insts);
    for (std::uint64_t i = 0; i < num_insts; ++i) {
        Inst inst;
        if (!unpackInst(program_bytes.data() + i * instRecordSize, inst))
            return Status(StatusCode::Corrupt,
                          "invalid instruction encoding at pc " +
                              std::to_string(i));
        prog.insts.push_back(inst);
    }
    DecodedTrace trace;
    trace.schedCache = std::make_shared<ReplayScheduleCache>();
    trace.setProgram(std::move(prog));

    // Event blocks. In salvage mode any damage here ends the read
    // with the events of every fully-verified block kept; damage to
    // the header or program above is never salvageable.
    auto salvage_or = [&](Status error) -> Expected<DecodedTrace> {
        if (!opts.salvage)
            return error;
        info.salvaged = true;
        info.eventsDropped = num_events - trace.size();
        return std::move(trace);
    };

    const auto reserve = static_cast<std::size_t>(
        std::min<std::uint64_t>(num_events, 1u << 20));
    trace.forEachLane([reserve](auto &lane) { lane.reserve(reserve); });
    // The stored nextPc of an event is verified against the pc of the
    // event after it, so the last block kept is confirmed only by the
    // first record of the next; it starts at lane index last_block.
    std::size_t last_block = 0;
    std::uint64_t remaining = num_events;
    std::vector<unsigned char> payload;
    while (remaining > 0) {
        src.resetCrc();
        std::uint32_t count = 0;
        if (Status st = src.readPod(count); !st.ok())
            return salvage_or(std::move(st));
        if (count == 0 || count > eventBlockCapacity || count > remaining)
            return salvage_or(
                Status(StatusCode::Corrupt,
                       "invalid event block count " +
                           std::to_string(count)));
        payload.resize(count * eventRecordBytes);
        if (Status st = src.readBytes(payload.data(), payload.size());
            !st.ok()) {
            return salvage_or(std::move(st));
        }
        std::uint32_t block_crc = src.crc32();
        std::uint32_t stored_block_crc = 0;
        if (Status st = src.readPod(stored_block_crc); !st.ok())
            return salvage_or(std::move(st));
        if (stored_block_crc != block_crc)
            return salvage_or(Status(StatusCode::ChecksumMismatch,
                                     "event block CRC mismatch"));

        // Only append once the whole block verified - its CRC, every
        // pc and the nextPc chain - so a salvaged trace is always a
        // prefix of whole valid blocks and inst(i) never indexes past
        // the program.
        auto field = [&](std::uint32_t i, std::size_t at) {
            std::uint32_t v = 0;
            std::memcpy(&v, payload.data() + i * eventRecordBytes + at, 4);
            return v;
        };
        for (std::uint32_t i = 0; i < count; ++i) {
            const std::uint32_t pc = field(i, 0);
            if (pc >= trace.prog.size())
                return salvage_or(
                    Status(StatusCode::Corrupt,
                           "trace event pc " + std::to_string(pc) +
                               " out of range"));
        }
        const std::size_t held = trace.size();
        if (held > 0 && field(0, 0) != trace.endPc) {
            // The wrong nextPc belongs to the last block kept: drop it.
            trace.endPc = last_block > 0 ? trace.pcs[last_block] : 0;
            trace.resize(last_block);
            return salvage_or(nextPcMismatch(held - 1));
        }
        for (std::uint32_t i = 0; i + 1 < count; ++i)
            if (field(i, 8) != field(i + 1, 0))
                return salvage_or(nextPcMismatch(held + i));
        // Bytes 4-7 must be what the program derives from the stored
        // guard and relation bits, and only a Cmp has a relation. The
        // lanes keep the flags alone, so any other payload would be
        // dropped without a word.
        auto lane_flags = [](const unsigned char *p) {
            return static_cast<std::uint8_t>((p[4] & 0x0f) |
                                             ((p[7] & 4) << 2));
        };
        for (std::uint32_t i = 0; i < count; ++i) {
            const unsigned char *p = payload.data() + i * eventRecordBytes;
            const std::uint32_t pc = field(i, 0);
            const std::uint8_t f = lane_flags(p);
            unsigned char want[4];
            packPayload(f, trace.defines[DecodedTrace::defineRow(
                               pc, f & 1, (f >> 4) & 1)],
                        want);
            if (std::memcmp(p + 4, want, 4) != 0 ||
                ((f >> 4) && trace.prog.insts[pc].op != Opcode::Cmp))
                return salvage_or(
                    Status(StatusCode::Corrupt,
                           "trace event " + std::to_string(held + i) +
                               " predicate writes do not match its "
                               "instruction"));
        }
        trace.resize(held + count);
        for (std::uint32_t i = 0; i < count; ++i) {
            const std::uint32_t pc = field(i, 0);
            trace.pcs[held + i] = pc;
            trace.cls[held + i] = trace.pcClass[pc];
            trace.flags[held + i] =
                lane_flags(payload.data() + i * eventRecordBytes);
        }
        trace.endPc = field(count - 1, 8);
        last_block = held;
        remaining -= count;
    }

    char footer[8];
    if (Status st = src.readBytes(footer, sizeof(footer)); !st.ok())
        return salvage_or(std::move(st));
    if (std::memcmp(footer, traceFooter, sizeof(footer)) != 0)
        return salvage_or(Status(StatusCode::Corrupt,
                                 "missing end-of-trace sentinel"));
    return trace;
}

} // anonymous namespace

Expected<DecodedTrace>
readTrace(std::istream &is, const TraceReadOptions &opts,
          TraceReadInfo *info)
{
    TraceReadInfo local_info;
    TraceReadInfo &out = info ? *info : local_info;
    out = TraceReadInfo{};

    StateSource src(is);
    char magic[8];
    PABP_TRY(src.readBytes(magic, sizeof(magic)));
    if (std::memcmp(magic, traceMagicV2, 7) != 0)
        return Status(StatusCode::BadMagic,
                      "not a pabp trace (bad magic)");
    if (magic[7] == traceMagicV2[7])
        return readTraceV2(src, opts, out);
    return Status(StatusCode::VersionMismatch,
                  std::string("unsupported trace container version '") +
                      magic[7] + "'");
}

Status
trySaveTraceFile(const DecodedTrace &trace, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return Status(StatusCode::IoError,
                      "cannot open trace file for writing: " + path);
    writeTrace(trace, os);
    os.flush();
    if (!os)
        return Status(StatusCode::IoError,
                      "write failure on trace file: " + path);
    return Status();
}

Expected<DecodedTrace>
tryLoadTraceFile(const std::string &path, const TraceReadOptions &opts,
                 TraceReadInfo *info)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return Status(StatusCode::IoError,
                      "cannot open trace file: " + path);
    return readTrace(is, opts, info);
}

void
saveTraceFile(const DecodedTrace &trace, const std::string &path)
{
    Status status = trySaveTraceFile(trace, path);
    if (!status.ok())
        pabp_fatal(status.toString());
}

DecodedTrace
loadTraceFile(const std::string &path)
{
    Expected<DecodedTrace> loaded = tryLoadTraceFile(path);
    if (!loaded.ok())
        pabp_fatal(loaded.status().toString());
    return std::move(loaded.value());
}

} // namespace pabp
