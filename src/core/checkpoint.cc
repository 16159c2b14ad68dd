#include "core/checkpoint.hh"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/atomic_file.hh"
#include "util/serialize.hh"

namespace pabp {

namespace {

constexpr char ckptMagic[8] = {'P', 'A', 'B', 'P', 'C', 'K', 'P', '1'};
constexpr char ckptFooter[8] = {'P', 'A', 'B', 'P', 'C', 'K', 'P', 'E'};
// v2: engine payload gained the branch profile, the PGU-influence
// window cursor, gshare conflict-profiling state and the
// confidence/value-predictor counters.
// v3: engine payload gained the target-modelling configuration
// (modelTargets + BTB/RAS geometry) and, when armed, the BTB and
// return-address-stack state and counters. Old checkpoints fail to
// load (version mismatch) and runners fall back to a fresh run.
constexpr std::uint32_t ckptVersion = 3;

constexpr std::uint8_t sectionEmulator = 1;
constexpr std::uint8_t sectionEngine = 2;
constexpr std::uint8_t sectionStreamPos = 4;
constexpr std::uint8_t sectionTraceId = 8;

std::uint8_t
sectionMask(const CheckpointRefs &refs)
{
    std::uint8_t mask = 0;
    if (refs.emu)
        mask |= sectionEmulator;
    if (refs.engine)
        mask |= sectionEngine;
    if (refs.streamPos)
        mask |= sectionStreamPos;
    if (refs.traceId)
        mask |= sectionTraceId;
    return mask;
}

} // anonymous namespace

Status
saveCheckpoint(const std::string &path, const CheckpointRefs &refs)
{
    // Streamed straight into the temp file (the emulator image is
    // megabytes); a previous good checkpoint at @p path survives any
    // crash up to the rename.
    return atomicWriteFile(path, [&refs](std::ostream &os) {
        StateSink sink(os);
        sink.writeBytes(ckptMagic, sizeof(ckptMagic));
        sink.writeU32(ckptVersion);

        sink.resetCrc();
        sink.writeU8(sectionMask(refs));
        if (refs.emu)
            refs.emu->saveState(sink);
        if (refs.engine)
            refs.engine->saveState(sink);
        if (refs.streamPos)
            sink.writeU64(*refs.streamPos);
        if (refs.traceId)
            sink.writeU64(*refs.traceId);
        sink.writeU32(sink.crc32());

        sink.writeBytes(ckptFooter, sizeof(ckptFooter));
    });
}

Status
loadCheckpoint(const std::string &path, const CheckpointRefs &refs)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return Status(StatusCode::IoError,
                      "cannot open checkpoint: " + path);

    StateSource src(is);
    char magic[8];
    PABP_TRY(src.readBytes(magic, sizeof(magic)));
    if (std::memcmp(magic, ckptMagic, 7) != 0)
        return Status(StatusCode::BadMagic,
                      "not a pabp checkpoint (bad magic)");
    if (magic[7] != '1')
        return Status(StatusCode::VersionMismatch,
                      "unsupported checkpoint container version");
    std::uint32_t version = 0;
    PABP_TRY(src.readPod(version));
    if (version != ckptVersion)
        return Status(StatusCode::VersionMismatch,
                      "checkpoint version " + std::to_string(version) +
                          " not supported");

    src.resetCrc();
    std::uint8_t mask = 0;
    PABP_TRY(src.readPod(mask));
    if (mask != sectionMask(refs))
        return Status(StatusCode::InvalidArgument,
                      "checkpoint sections do not match the resume "
                      "request");
    if (refs.emu)
        PABP_TRY(refs.emu->loadState(src));
    if (refs.engine)
        PABP_TRY(refs.engine->loadState(src));
    if (refs.streamPos)
        PABP_TRY(src.readPod(*refs.streamPos));
    std::uint64_t trace_id = 0;
    if (refs.traceId)
        PABP_TRY(src.readPod(trace_id));

    std::uint32_t crc = src.crc32();
    std::uint32_t stored_crc = 0;
    PABP_TRY(src.readPod(stored_crc));
    if (stored_crc != crc)
        return Status(StatusCode::ChecksumMismatch,
                      "checkpoint CRC mismatch");
    // Compared only once the CRC verified: a damaged id is corruption,
    // an intact different one is a resume on the wrong trace.
    if (refs.traceId && trace_id != *refs.traceId)
        return Status(StatusCode::InvalidArgument,
                      "checkpoint was taken on a different trace");

    char footer[8];
    PABP_TRY(src.readBytes(footer, sizeof(footer)));
    if (std::memcmp(footer, ckptFooter, sizeof(footer)) != 0)
        return Status(StatusCode::Corrupt,
                      "missing end-of-checkpoint sentinel");
    return Status();
}

} // namespace pabp
