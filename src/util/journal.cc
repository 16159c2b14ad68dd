#include "util/journal.hh"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <sstream>
#include <system_error>
#include <utility>

#include "util/atomic_file.hh"
#include "util/crc32.hh"
#include "util/serialize.hh"

namespace pabp {

namespace {

/** Bytes of header before its CRC field: magic + version + identity. */
constexpr std::size_t kHeaderBodyBytes = 8 + 4 + 4 + 4;
constexpr std::size_t kHeaderBytes = kHeaderBodyBytes + 4;
constexpr std::size_t kFrameHeaderBytes = 4 + 4; ///< len + crc

std::string
recordPayload(const JournalRecord &record)
{
    std::ostringstream os;
    StateSink sink(os);
    sink.writeU8(static_cast<std::uint8_t>(record.kind));
    sink.writeU64(record.fingerprint);
    sink.writeU32(record.attempts);
    sink.writeU8(record.statusCode);
    sink.writeU32(static_cast<std::uint32_t>(record.columns.size()));
    for (std::uint64_t column : record.columns)
        sink.writeU64(column);
    sink.writeString(record.blob);
    return os.str();
}

Status
parsePayload(const std::string &payload, JournalRecord &record)
{
    std::istringstream is(payload);
    StateSource src(is);
    std::uint8_t kind = 0;
    PABP_TRY(src.readPod(kind));
    if (kind != static_cast<std::uint8_t>(JournalRecord::Kind::Result) &&
        kind != static_cast<std::uint8_t>(JournalRecord::Kind::Quarantine))
        return Status(StatusCode::Corrupt,
                      "journal record has unknown kind " +
                          std::to_string(kind));
    record.kind = static_cast<JournalRecord::Kind>(kind);
    PABP_TRY(src.readPod(record.fingerprint));
    PABP_TRY(src.readPod(record.attempts));
    PABP_TRY(src.readPod(record.statusCode));
    std::uint32_t columns = 0;
    PABP_TRY(src.readPod(columns));
    if (columns > kJournalMaxColumns)
        return Status(StatusCode::Corrupt,
                      "journal record claims " + std::to_string(columns) +
                          " columns (bound " +
                          std::to_string(kJournalMaxColumns) + ")");
    record.columns.resize(columns);
    for (std::uint32_t i = 0; i < columns; ++i)
        PABP_TRY(src.readPod(record.columns[i]));
    PABP_TRY(src.readString(record.blob, kJournalMaxFrameBytes));
    return Status();
}

/** Little-endian u32 at @p offset of @p bytes (caller checks bounds). */
std::uint32_t
loadU32(const std::string &bytes, std::size_t offset)
{
    std::uint32_t v = 0;
    std::memcpy(&v, bytes.data() + offset, sizeof(v));
    return v;
}

Status
parseHeader(const std::string &bytes, JournalHeader &header)
{
    if (bytes.size() < 8 ||
        std::memcmp(bytes.data(), kJournalMagic, 8) != 0)
        return Status(StatusCode::BadMagic,
                      "not a pabp journal (bad magic)");
    if (bytes.size() < kHeaderBytes)
        return Status(StatusCode::Truncated,
                      "journal ends inside the header");
    const std::uint32_t version = loadU32(bytes, 8);
    if (version != kJournalVersion)
        return Status(StatusCode::VersionMismatch,
                      "journal version " + std::to_string(version) +
                          " is not supported (expected " +
                          std::to_string(kJournalVersion) + ")");
    const std::uint32_t stored_crc = loadU32(bytes, kHeaderBodyBytes);
    if (crc32(bytes.data(), kHeaderBodyBytes) != stored_crc)
        return Status(StatusCode::ChecksumMismatch,
                      "journal header CRC mismatch");
    header.shardIndex = loadU32(bytes, 12);
    header.shardCount = loadU32(bytes, 16);
    return Status();
}

} // anonymous namespace

void
writeJournalHeader(std::ostream &os, const JournalHeader &header)
{
    std::string body;
    body.append(kJournalMagic, 8);
    auto put_u32 = [&body](std::uint32_t v) {
        char raw[4];
        std::memcpy(raw, &v, sizeof(v));
        body.append(raw, 4);
    };
    put_u32(kJournalVersion);
    put_u32(header.shardIndex);
    put_u32(header.shardCount);
    const std::uint32_t crc = crc32(body.data(), body.size());
    os.write(body.data(), static_cast<std::streamsize>(body.size()));
    os.write(reinterpret_cast<const char *>(&crc), sizeof(crc));
}

std::uint64_t
appendJournalRecord(std::ostream &os, const JournalRecord &record)
{
    const std::string payload = recordPayload(record);
    const std::uint32_t len =
        static_cast<std::uint32_t>(payload.size());
    const std::uint32_t crc = crc32(payload.data(), payload.size());
    os.write(reinterpret_cast<const char *>(&len), sizeof(len));
    os.write(reinterpret_cast<const char *>(&crc), sizeof(crc));
    os.write(payload.data(),
             static_cast<std::streamsize>(payload.size()));
    return kFrameHeaderBytes + payload.size();
}

Expected<std::vector<JournalRecord>>
readJournalImage(const std::string &bytes, const JournalReadOptions &opts,
                 JournalHeader *header, JournalReadInfo *info)
{
    JournalHeader parsed_header;
    // Header damage is fatal even under salvage: a journal whose
    // identity cannot be verified must not silently pass for empty.
    PABP_TRY(parseHeader(bytes, parsed_header));
    if (header)
        *header = parsed_header;

    std::vector<JournalRecord> records;
    std::size_t offset = kHeaderBytes;
    Status tail_error;
    while (offset < bytes.size()) {
        if (bytes.size() - offset < kFrameHeaderBytes) {
            tail_error = Status(StatusCode::Truncated,
                                "journal ends inside a frame header");
            break;
        }
        const std::uint32_t len = loadU32(bytes, offset);
        const std::uint32_t stored_crc = loadU32(bytes, offset + 4);
        if (len > kJournalMaxFrameBytes) {
            tail_error =
                Status(StatusCode::Corrupt,
                       "journal frame claims " + std::to_string(len) +
                           " bytes (bound " +
                           std::to_string(kJournalMaxFrameBytes) + ")");
            break;
        }
        if (bytes.size() - offset - kFrameHeaderBytes < len) {
            tail_error = Status(StatusCode::Truncated,
                                "journal ends inside a record frame");
            break;
        }
        const char *payload = bytes.data() + offset + kFrameHeaderBytes;
        if (crc32(payload, len) != stored_crc) {
            tail_error = Status(StatusCode::ChecksumMismatch,
                                "journal record CRC mismatch at offset " +
                                    std::to_string(offset));
            break;
        }
        JournalRecord record;
        Status parsed =
            parsePayload(std::string(payload, len), record);
        if (!parsed.ok()) {
            tail_error = parsed;
            break;
        }
        records.push_back(std::move(record));
        offset += kFrameHeaderBytes + len;
    }

    if (info) {
        info->validBytes = offset;
        info->tailBytesDropped = bytes.size() - offset;
        info->salvaged = !tail_error.ok();
    }
    if (!tail_error.ok() && !opts.salvage)
        return tail_error;
    return records;
}

Expected<std::vector<JournalRecord>>
readJournalFile(const std::string &path, const JournalReadOptions &opts,
                JournalHeader *header, JournalReadInfo *info)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Status(StatusCode::IoError,
                      "cannot open journal: " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad())
        return Status(StatusCode::IoError,
                      "read failure on journal: " + path);
    return readJournalImage(buffer.str(), opts, header, info);
}

Expected<JournalWriter>
JournalWriter::open(const std::string &path, const JournalHeader &header,
                    std::vector<JournalRecord> *existing,
                    JournalReadInfo *info)
{
    // A compaction interrupted before its rename leaves a
    // "<path>.tmp.*" file; the real journal is still the old complete
    // image, so the temp is garbage to be discarded, never adopted.
    removeStaleTempFiles(path);

    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        if (in) {
            std::ostringstream buffer;
            buffer << in.rdbuf();
            if (in.bad())
                return Status(StatusCode::IoError,
                              "read failure on journal: " + path);
            bytes = buffer.str();
        }
    }

    JournalWriter writer;
    writer.filePath = path;

    if (bytes.empty()) {
        // Fresh journal (missing or zero-length file).
        writer.out.open(path,
                        std::ios::binary | std::ios::trunc);
        if (!writer.out)
            return Status(StatusCode::IoError,
                          "cannot create journal: " + path);
        writeJournalHeader(writer.out, header);
        writer.out.flush();
        if (!writer.out)
            return Status(StatusCode::IoError,
                          "write failure creating journal: " + path);
        if (existing)
            existing->clear();
        if (info)
            *info = JournalReadInfo{false, bytes.size(), 0};
        return writer;
    }

    JournalHeader found;
    JournalReadOptions opts;
    opts.salvage = true;
    JournalReadInfo read_info;
    Expected<std::vector<JournalRecord>> records =
        readJournalImage(bytes, opts, &found, &read_info);
    if (!records.ok())
        return records.status();
    if (!(found == header))
        return Status(StatusCode::InvalidArgument,
                      "journal " + path + " belongs to shard " +
                          std::to_string(found.shardIndex) + "/" +
                          std::to_string(found.shardCount) +
                          ", not shard " +
                          std::to_string(header.shardIndex) + "/" +
                          std::to_string(header.shardCount));
    if (info)
        *info = read_info;

    if (read_info.tailBytesDropped > 0) {
        // Torn or corrupt tail: physically truncate back to the last
        // valid frame so the next append starts on a clean boundary.
        std::error_code ec;
        std::filesystem::resize_file(path, read_info.validBytes, ec);
        if (ec)
            return Status(StatusCode::IoError,
                          "cannot truncate torn journal tail of " +
                              path + ": " + ec.message());
    }

    writer.out.open(path, std::ios::binary | std::ios::in |
                              std::ios::out | std::ios::ate);
    if (!writer.out)
        return Status(StatusCode::IoError,
                      "cannot open journal for append: " + path);
    if (existing)
        *existing = std::move(records.value());
    return writer;
}

Status
JournalWriter::append(const JournalRecord &record)
{
    if (!out.is_open())
        return Status(StatusCode::InvalidArgument,
                      "append on a closed journal writer: " + filePath);
    appendJournalRecord(out, record);
    out.flush();
    if (!out)
        return Status(StatusCode::IoError,
                      "write failure appending to journal: " + filePath);
    ++appended;
    return Status();
}

void
JournalWriter::close()
{
    if (out.is_open()) {
        out.flush();
        out.close();
    }
}

Status
compactJournal(const std::string &path,
               const std::vector<std::uint64_t> &order)
{
    JournalHeader header;
    Expected<std::vector<JournalRecord>> records =
        readJournalFile(path, JournalReadOptions{}, &header);
    if (!records.ok())
        return records.status();

    // Last record per fingerprint wins; remember first appearance so
    // fingerprints outside @p order keep a deterministic position.
    std::map<std::uint64_t, JournalRecord> latest;
    std::vector<std::uint64_t> appearance;
    for (JournalRecord &record : records.value()) {
        if (latest.find(record.fingerprint) == latest.end())
            appearance.push_back(record.fingerprint);
        latest[record.fingerprint] = std::move(record);
    }

    std::ostringstream image;
    writeJournalHeader(image, header);
    auto emit = [&image, &latest](std::uint64_t fingerprint) {
        auto it = latest.find(fingerprint);
        if (it == latest.end())
            return;
        appendJournalRecord(image, it->second);
        latest.erase(it);
    };
    for (std::uint64_t fingerprint : order)
        emit(fingerprint);
    for (std::uint64_t fingerprint : appearance)
        emit(fingerprint);

    return atomicWriteFile(path, image.str());
}

} // namespace pabp
