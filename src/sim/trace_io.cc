#include "sim/trace_io.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "util/logging.hh"
#include "util/serialize.hh"

namespace pabp {

namespace {

constexpr char traceMagicV1[8] = {'P', 'A', 'B', 'P', 'T', 'R', 'C', '1'};
constexpr char traceMagicV2[8] = {'P', 'A', 'B', 'P', 'T', 'R', 'C', '2'};
constexpr char traceFooter[8] = {'P', 'A', 'B', 'P', 'E', 'N', 'D', '2'};

constexpr std::uint32_t traceVersion2 = 2;

/** On-disk record sizes (fixed by both format versions). */
constexpr std::size_t eventRecordBytes = 12; // pc,flags,regs,val,nextPc

/** Events per CRC-protected v2 block. Small enough that salvage
 *  loses at most this many events per damaged region. */
constexpr std::uint32_t eventBlockCapacity = 4096;

/** Allocation sanity bound; a header claiming more is corrupt. */
constexpr std::uint64_t maxTraceInsts = 1u << 26;

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

void
packEvent(const RecordedTrace::Event &event, unsigned char *out)
{
    std::memcpy(out, &event.pc, 4);
    out[4] = event.flags;
    out[5] = event.predReg[0];
    out[6] = event.predReg[1];
    out[7] = event.predVal;
    std::memcpy(out + 8, &event.nextPc, 4);
}

RecordedTrace::Event
unpackEvent(const unsigned char *p)
{
    RecordedTrace::Event event{};
    std::memcpy(&event.pc, p, 4);
    event.flags = p[4];
    event.predReg[0] = p[5];
    event.predReg[1] = p[6];
    event.predVal = p[7];
    std::memcpy(&event.nextPc, p + 8, 4);
    return event;
}

Expected<RecordedTrace> readTraceV1(StateSource &src, TraceReadInfo &info);
Expected<RecordedTrace> readTraceV2(StateSource &src,
                                    const TraceReadOptions &opts,
                                    TraceReadInfo &info);

} // anonymous namespace

DynInst
RecordedTrace::materialise(std::size_t i) const
{
    const Event &event = events.at(i);
    const Inst &inst = prog.insts.at(event.pc);

    DynInst dyn;
    dyn.seq = i;
    dyn.pc = event.pc;
    dyn.inst = &inst;
    dyn.guard = event.flags & 1;
    dyn.taken = (event.flags >> 1) & 1;
    dyn.isControl = inst.isControl();
    dyn.nextPc = event.nextPc;
    dyn.numPredWrites = (event.flags >> 2) & 3;
    for (unsigned w = 0; w < dyn.numPredWrites; ++w) {
        dyn.predWrites[w].reg = event.predReg[w];
        dyn.predWrites[w].value = (event.predVal >> w) & 1;
    }
    dyn.cmpRel = (event.predVal >> 2) & 1;
    dyn.isMem = inst.op == Opcode::Load || inst.op == Opcode::Store;
    return dyn;
}

RecordedTrace
recordTrace(Emulator &emu, std::uint64_t max_insts)
{
    RecordedTrace trace;
    trace.prog = emu.program();

    DynInst dyn;
    for (std::uint64_t i = 0; i < max_insts && emu.step(dyn); ++i) {
        RecordedTrace::Event event{};
        event.pc = dyn.pc;
        event.flags = static_cast<std::uint8_t>(
            (dyn.guard ? 1 : 0) | (dyn.taken ? 2 : 0) |
            (dyn.numPredWrites << 2));
        for (unsigned w = 0; w < dyn.numPredWrites; ++w) {
            event.predReg[w] = dyn.predWrites[w].reg;
            if (dyn.predWrites[w].value)
                event.predVal |= static_cast<std::uint8_t>(1u << w);
        }
        if (dyn.cmpRel)
            event.predVal |= 4;
        event.nextPc = dyn.nextPc;
        trace.events.push_back(event);
    }
    return trace;
}

std::uint64_t
writeTrace(const RecordedTrace &trace, std::ostream &os)
{
    StateSink sink(os);

    // Header, CRC-protected including the magic.
    sink.writeBytes(traceMagicV2, sizeof(traceMagicV2));
    sink.writeU32(traceVersion2);
    sink.writeU64(trace.prog.size());
    sink.writeU64(trace.events.size());
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
    while (next < trace.events.size()) {
        auto count = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(eventBlockCapacity,
                                    trace.events.size() - next));
        payload.resize(count * eventRecordBytes);
        for (std::uint32_t i = 0; i < count; ++i)
            packEvent(trace.events[next + i],
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

std::uint64_t
writeTraceV1(const RecordedTrace &trace, std::ostream &os)
{
    StateSink sink(os);
    sink.writeBytes(traceMagicV1, sizeof(traceMagicV1));
    sink.writeU64(trace.prog.size());
    unsigned char record[instRecordSize];
    for (const Inst &inst : trace.prog.insts) {
        packInst(inst, record);
        sink.writeBytes(record, instRecordSize);
    }
    sink.writeU64(trace.events.size());
    unsigned char event_record[eventRecordBytes];
    for (const RecordedTrace::Event &event : trace.events) {
        packEvent(event, event_record);
        sink.writeBytes(event_record, eventRecordBytes);
    }
    return sink.bytesWritten();
}

namespace {

Expected<RecordedTrace>
readTraceV1(StateSource &src, TraceReadInfo &info)
{
    info.version = 1;
    RecordedTrace trace;

    std::uint64_t num_insts = 0;
    PABP_TRY(src.readPod(num_insts));
    // Never trust an unprotected count for preallocation.
    trace.prog.insts.reserve(
        std::min<std::uint64_t>(num_insts, 1u << 16));
    unsigned char record[instRecordSize];
    for (std::uint64_t i = 0; i < num_insts; ++i) {
        PABP_TRY(src.readBytes(record, instRecordSize));
        Inst inst;
        if (!unpackInst(record, inst))
            return Status(StatusCode::Corrupt,
                          "invalid instruction encoding at pc " +
                              std::to_string(i));
        trace.prog.insts.push_back(inst);
    }

    std::uint64_t num_events = 0;
    PABP_TRY(src.readPod(num_events));
    trace.events.reserve(std::min<std::uint64_t>(num_events, 1u << 20));
    unsigned char event_record[eventRecordBytes];
    for (std::uint64_t i = 0; i < num_events; ++i) {
        PABP_TRY(src.readBytes(event_record, eventRecordBytes));
        RecordedTrace::Event event = unpackEvent(event_record);
        if (event.pc >= trace.prog.size())
            return Status(StatusCode::Corrupt,
                          "trace event pc " + std::to_string(event.pc) +
                              " out of range");
        trace.events.push_back(event);
    }
    return trace;
}

Expected<RecordedTrace>
readTraceV2(StateSource &src, const TraceReadOptions &opts,
            TraceReadInfo &info)
{
    info.version = 2;

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

    RecordedTrace trace;
    trace.prog.insts.reserve(num_insts);
    for (std::uint64_t i = 0; i < num_insts; ++i) {
        Inst inst;
        if (!unpackInst(program_bytes.data() + i * instRecordSize, inst))
            return Status(StatusCode::Corrupt,
                          "invalid instruction encoding at pc " +
                              std::to_string(i));
        trace.prog.insts.push_back(inst);
    }

    // Event blocks. In salvage mode any damage here ends the read
    // with the events of every fully-verified block kept; damage to
    // the header or program above is never salvageable.
    auto salvage_or = [&](Status error) -> Expected<RecordedTrace> {
        if (!opts.salvage)
            return error;
        info.salvaged = true;
        info.eventsDropped = num_events - trace.events.size();
        return std::move(trace);
    };

    trace.events.reserve(std::min<std::uint64_t>(num_events, 1u << 20));
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

        // Only append once the whole block verified, so a salvaged
        // trace is always a prefix of whole valid blocks.
        for (std::uint32_t i = 0; i < count; ++i) {
            RecordedTrace::Event event =
                unpackEvent(payload.data() + i * eventRecordBytes);
            if (event.pc >= trace.prog.size())
                return salvage_or(
                    Status(StatusCode::Corrupt,
                           "trace event pc " + std::to_string(event.pc) +
                               " out of range"));
            trace.events.push_back(event);
        }
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

Expected<RecordedTrace>
readTrace(std::istream &is, const TraceReadOptions &opts,
          TraceReadInfo *info)
{
    TraceReadInfo local_info;
    TraceReadInfo &out = info ? *info : local_info;
    out = TraceReadInfo{};

    StateSource src(is);
    char magic[8];
    PABP_TRY(src.readBytes(magic, sizeof(magic)));
    if (std::memcmp(magic, traceMagicV1, 7) != 0)
        return Status(StatusCode::BadMagic,
                      "not a pabp trace (bad magic)");
    if (magic[7] == '1')
        return readTraceV1(src, out);
    if (magic[7] == '2')
        return readTraceV2(src, opts, out);
    return Status(StatusCode::VersionMismatch,
                  std::string("unsupported trace container version '") +
                      magic[7] + "'");
}

Status
trySaveTraceFile(const RecordedTrace &trace, const std::string &path)
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

Expected<RecordedTrace>
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
saveTraceFile(const RecordedTrace &trace, const std::string &path)
{
    Status status = trySaveTraceFile(trace, path);
    if (!status.ok())
        pabp_fatal(status.toString());
}

RecordedTrace
loadTraceFile(const std::string &path)
{
    Expected<RecordedTrace> loaded = tryLoadTraceFile(path);
    if (!loaded.ok())
        pabp_fatal(loaded.status().toString());
    return std::move(loaded.value());
}

void
packInstRecord(const Inst &inst, unsigned char *out)
{
    packInst(inst, out);
}

bool
unpackInstRecord(const unsigned char *p, Inst &inst)
{
    return unpackInst(p, inst);
}

} // namespace pabp
