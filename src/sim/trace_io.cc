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

/** Pack event @p i of @p trace into its 12 on-disk bytes. */
void
packEvent(const DecodedTrace &trace, std::size_t i, unsigned char *out)
{
    std::memcpy(out, &trace.pcs[i], 4);
    out[4] = trace.flags[i];
    out[5] = trace.predReg0[i];
    out[6] = trace.predReg1[i];
    out[7] = trace.predVal[i];
    std::memcpy(out + 8, &trace.nextPcs[i], 4);
}

DecodedTrace::Class
classify(const Inst &inst)
{
    using Class = DecodedTrace::Class;
    if (inst.op == Opcode::Br)
        return inst.qp ? Class::CondBranch : Class::UncondControl;
    if (inst.op == Opcode::Call || inst.op == Opcode::Ret)
        return Class::UncondControl;
    if (inst.writesPredicate())
        return Class::PredDefine;
    return Class::Other;
}

/** Apply @p op to each of the seven event lanes of @p trace. */
template <typename Op>
void
forEachLane(DecodedTrace &trace, Op op)
{
    op(trace.pcs);
    op(trace.cls);
    op(trace.flags);
    op(trace.predReg0);
    op(trace.predReg1);
    op(trace.predVal);
    op(trace.nextPcs);
}

} // anonymous namespace

std::vector<std::uint8_t>
classTable(const Program &prog)
{
    std::vector<std::uint8_t> table(prog.size());
    for (std::size_t pc = 0; pc < prog.size(); ++pc)
        table[pc] = static_cast<std::uint8_t>(classify(prog.insts[pc]));
    return table;
}

std::size_t
recordEvents(Emulator &emu, const std::uint8_t *classes,
             DecodedTrace &trace, std::size_t at, std::size_t n,
             std::int64_t *effAddrs)
{
    std::uint32_t *pcs = trace.pcs.data() + at;
    std::uint8_t *cls = trace.cls.data() + at;
    std::uint8_t *flags = trace.flags.data() + at;
    std::uint8_t *reg0 = trace.predReg0.data() + at;
    std::uint8_t *reg1 = trace.predReg1.data() + at;
    std::uint8_t *val = trace.predVal.data() + at;
    std::uint32_t *next_pcs = trace.nextPcs.data() + at;
    std::size_t i = 0;
    emu.run(n, [&](const ExecEvent &ev) {
        pcs[i] = ev.pc;
        cls[i] = classes[ev.pc];
        flags[i] = ev.flags;
        reg0[i] = ev.predReg0;
        reg1[i] = ev.predReg1;
        val[i] = ev.predVal;
        next_pcs[i] = ev.nextPc;
        if (effAddrs)
            effAddrs[i] = ev.effAddr;
        ++i;
    });
    return i;
}

DecodedTrace
recordTrace(Emulator &emu, std::uint64_t max_insts)
{
    DecodedTrace trace;
    trace.prog = emu.program();
    trace.schedCache = std::make_shared<ReplayScheduleCache>();
    const std::vector<std::uint8_t> classes = classTable(trace.prog);
    const auto reserved = static_cast<std::size_t>(
        std::min<std::uint64_t>(max_insts, maxTraceInsts));
    forEachLane(trace,
                [reserved](auto &lane) { lane.reserve(reserved); });

    // The lanes grow a chunk at a time and the interpreter writes
    // each event into them by index. A program that halts early
    // leaves at most one chunk zero-filled past its last event, and a
    // budget past the reservation just keeps growing the lanes.
    std::size_t filled = 0;
    std::uint64_t left = max_insts;
    while (left > 0) {
        const auto chunk = static_cast<std::size_t>(
            std::min<std::uint64_t>(left, recordChunk));
        forEachLane(trace, [&](auto &lane) { lane.resize(filled + chunk); });
        const std::size_t i =
            recordEvents(emu, classes.data(), trace, filled, chunk);
        filled += i;
        left -= i;
        if (i < chunk)
            break;
    }
    forEachLane(trace, [filled](auto &lane) { lane.resize(filled); });
    // A program that halts short of the budget gives the unused
    // reservation back before the trace is cached.
    if (filled < reserved)
        forEachLane(trace, [](auto &lane) { lane.shrink_to_fit(); });
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

    DecodedTrace trace;
    trace.schedCache = std::make_shared<ReplayScheduleCache>();
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
    auto salvage_or = [&](Status error) -> Expected<DecodedTrace> {
        if (!opts.salvage)
            return error;
        info.salvaged = true;
        info.eventsDropped = num_events - trace.size();
        return std::move(trace);
    };

    const std::vector<std::uint8_t> classes = classTable(trace.prog);
    const auto reserve = static_cast<std::size_t>(
        std::min<std::uint64_t>(num_events, 1u << 20));
    forEachLane(trace, [reserve](auto &lane) { lane.reserve(reserve); });
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

        // Only append once the whole block verified - its CRC and
        // every pc - so a salvaged trace is always a prefix of whole
        // valid blocks and inst(i) never indexes past the program.
        for (std::uint32_t i = 0; i < count; ++i) {
            std::uint32_t pc = 0;
            std::memcpy(&pc, payload.data() + i * eventRecordBytes, 4);
            if (pc >= trace.prog.size())
                return salvage_or(
                    Status(StatusCode::Corrupt,
                           "trace event pc " + std::to_string(pc) +
                               " out of range"));
        }
        for (std::uint32_t i = 0; i < count; ++i) {
            const unsigned char *p = payload.data() + i * eventRecordBytes;
            std::uint32_t pc = 0, next_pc = 0;
            std::memcpy(&pc, p, 4);
            std::memcpy(&next_pc, p + 8, 4);
            trace.pcs.push_back(pc);
            trace.cls.push_back(classes[pc]);
            trace.flags.push_back(p[4]);
            trace.predReg0.push_back(p[5]);
            trace.predReg1.push_back(p[6]);
            trace.predVal.push_back(p[7]);
            trace.nextPcs.push_back(next_pc);
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
