/**
 * @file
 * Results-journal hardening tests (util/journal.hh): round trips,
 * the salvage discipline (longest valid prefix, torn tails truncated
 * on open), typed errors for every corruption class, and the
 * write-then-rename compaction guarantee - a crash at any point
 * leaves the complete old journal or the complete new one, never a
 * mix. The fault-injection style mirrors tests/test_trace_io.cc.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/atomic_file.hh"
#include "util/journal.hh"
#include "util/metrics.hh"

namespace pabp {
namespace {

JournalRecord
makeRecord(std::uint64_t fingerprint, const std::string &blob,
           JournalRecord::Kind kind = JournalRecord::Kind::Result)
{
    JournalRecord rec;
    rec.kind = kind;
    rec.fingerprint = fingerprint;
    rec.attempts = 1;
    rec.statusCode = kind == JournalRecord::Kind::Quarantine
        ? static_cast<std::uint8_t>(StatusCode::Corrupt)
        : 0;
    rec.columns = {100 + fingerprint, 200 + fingerprint, 3};
    rec.blob = blob;
    return rec;
}

/** Files beside @p path whose name starts "<name>.tmp": what an
 *  atomicWriteFile() of @p path leaves behind when it does not finish. */
std::vector<std::string>
tempSiblings(const std::string &path)
{
    const std::filesystem::path target(path);
    const std::string prefix = target.filename().string() + ".tmp";
    std::vector<std::string> out;
    for (const auto &entry :
         std::filesystem::directory_iterator(target.parent_path())) {
        const std::string name = entry.path().filename().string();
        if (name.compare(0, prefix.size(), prefix) == 0)
            out.push_back(name);
    }
    return out;
}

std::string
buildImage(const std::vector<JournalRecord> &records,
           const JournalHeader &header = {})
{
    std::ostringstream os;
    writeJournalHeader(os, header);
    for (const JournalRecord &rec : records)
        appendJournalRecord(os, rec);
    return os.str();
}

/** Unique scratch path per test; removed on destruction. */
class ScratchFile
{
  public:
    explicit ScratchFile(const std::string &name)
        : path_((std::filesystem::temp_directory_path() /
                 ("pabp-journal-test-" + name))
                    .string())
    {
        std::remove(path_.c_str());
        removeStaleTempFiles(path_);
    }

    ~ScratchFile()
    {
        std::remove(path_.c_str());
        removeStaleTempFiles(path_);
    }

    const std::string &path() const { return path_; }

    void
    write(const std::string &bytes) const
    {
        std::ofstream os(path_, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
    }

    std::string
    read() const
    {
        std::ifstream in(path_, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        return buffer.str();
    }

  private:
    std::string path_;
};

TEST(Journal, RoundTripsRecordsAndHeader)
{
    const std::vector<JournalRecord> records = {
        makeRecord(1, "{\"a\":1}"),
        makeRecord(2, "boom", JournalRecord::Kind::Quarantine),
        makeRecord(3, ""),
    };
    const JournalHeader header{2, 8};
    JournalHeader parsed;
    Expected<std::vector<JournalRecord>> got =
        readJournalImage(buildImage(records, header), {}, &parsed);
    ASSERT_TRUE(got.ok()) << got.status().toString();
    EXPECT_EQ(got.value(), records);
    EXPECT_EQ(parsed, header);
}

TEST(Journal, EmptyJournalHasNoRecords)
{
    Expected<std::vector<JournalRecord>> got =
        readJournalImage(buildImage({}));
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got.value().empty());
}

TEST(Journal, RejectsForeignBytesAndShortHeaders)
{
    Expected<std::vector<JournalRecord>> not_ours =
        readJournalImage("definitely not a journal");
    ASSERT_FALSE(not_ours.ok());
    EXPECT_EQ(not_ours.status().code(), StatusCode::BadMagic);

    const std::string image = buildImage({});
    Expected<std::vector<JournalRecord>> torn =
        readJournalImage(image.substr(0, 12));
    ASSERT_FALSE(torn.ok());
    EXPECT_EQ(torn.status().code(), StatusCode::Truncated);
}

TEST(Journal, HeaderDamageIsFatalEvenUnderSalvage)
{
    std::string image = buildImage({makeRecord(1, "x")});
    image[12] ^= 0x40; // inside the shard identity, CRC-protected
    JournalReadOptions opts;
    opts.salvage = true;
    Expected<std::vector<JournalRecord>> got =
        readJournalImage(image, opts);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::ChecksumMismatch);
}

TEST(Journal, TornTailIsStrictErrorButSalvagesToPrefix)
{
    const std::vector<JournalRecord> records = {makeRecord(1, "one"),
                                                makeRecord(2, "two")};
    const std::string whole = buildImage(records);
    const std::string one = buildImage({records[0]});
    // Chop mid-way through the second record's frame.
    const std::string torn =
        whole.substr(0, one.size() + (whole.size() - one.size()) / 2);

    Expected<std::vector<JournalRecord>> strict =
        readJournalImage(torn);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().code(), StatusCode::Truncated);

    JournalReadOptions opts;
    opts.salvage = true;
    JournalReadInfo info;
    Expected<std::vector<JournalRecord>> salvaged =
        readJournalImage(torn, opts, nullptr, &info);
    ASSERT_TRUE(salvaged.ok());
    EXPECT_EQ(salvaged.value(),
              std::vector<JournalRecord>{records[0]});
    EXPECT_TRUE(info.salvaged);
    EXPECT_EQ(info.validBytes, one.size());
    EXPECT_EQ(info.tailBytesDropped, torn.size() - one.size());
}

TEST(Journal, RecordCrcDamageStopsTheScanThere)
{
    const std::vector<JournalRecord> records = {
        makeRecord(1, "one"), makeRecord(2, "two"),
        makeRecord(3, "three")};
    const std::string one = buildImage({records[0]});
    std::string image = buildImage(records);
    image[one.size() + 10] ^= 1; // inside record 2's frame

    Expected<std::vector<JournalRecord>> strict =
        readJournalImage(image);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().code(), StatusCode::ChecksumMismatch);

    // Salvage keeps the records BEFORE the damage; the intact third
    // record is unreachable (frame boundaries cannot be trusted past
    // a bad CRC) and that is the contract.
    JournalReadOptions opts;
    opts.salvage = true;
    Expected<std::vector<JournalRecord>> salvaged =
        readJournalImage(image, opts);
    ASSERT_TRUE(salvaged.ok());
    EXPECT_EQ(salvaged.value(),
              std::vector<JournalRecord>{records[0]});
}

TEST(Journal, OversizedFrameLengthIsBoundedNotAllocated)
{
    std::string image = buildImage({});
    const std::uint32_t huge = kJournalMaxFrameBytes + 1;
    const std::uint32_t crc = 0;
    image.append(reinterpret_cast<const char *>(&huge), 4);
    image.append(reinterpret_cast<const char *>(&crc), 4);
    Expected<std::vector<JournalRecord>> got = readJournalImage(image);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::Corrupt);
}

TEST(Journal, ColumnCountIsBounded)
{
    JournalRecord rec = makeRecord(1, "x");
    rec.columns.assign(kJournalMaxColumns + 1, 7);
    Expected<std::vector<JournalRecord>> got =
        readJournalImage(buildImage({rec}));
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::Corrupt);
}

TEST(Journal, WriterCreatesAppendsAndAdopts)
{
    ScratchFile file("create");
    const JournalHeader header{1, 2};
    {
        Expected<JournalWriter> writer =
            JournalWriter::open(file.path(), header);
        ASSERT_TRUE(writer.ok()) << writer.status().toString();
        ASSERT_TRUE(writer.value().append(makeRecord(1, "one")).ok());
        ASSERT_TRUE(writer.value().append(makeRecord(2, "two")).ok());
        EXPECT_EQ(writer.value().recordsAppended(), 2u);
        writer.value().close();
    }
    {
        std::vector<JournalRecord> existing;
        Expected<JournalWriter> writer =
            JournalWriter::open(file.path(), header, &existing);
        ASSERT_TRUE(writer.ok()) << writer.status().toString();
        ASSERT_EQ(existing.size(), 2u);
        EXPECT_EQ(existing[0].blob, "one");
        ASSERT_TRUE(writer.value().append(makeRecord(3, "three")).ok());
        writer.value().close();
    }
    JournalHeader found;
    Expected<std::vector<JournalRecord>> all =
        readJournalFile(file.path(), {}, &found);
    ASSERT_TRUE(all.ok()) << all.status().toString();
    EXPECT_EQ(all.value().size(), 3u);
    EXPECT_EQ(found, header);
}

TEST(Journal, WriterTruncatesTornTailOnOpen)
{
    ScratchFile file("torn");
    const std::vector<JournalRecord> records = {makeRecord(1, "one"),
                                                makeRecord(2, "two")};
    const std::string whole = buildImage(records);
    const std::string one = buildImage({records[0]});
    file.write(whole.substr(0, whole.size() - 3)); // torn append

    std::vector<JournalRecord> existing;
    JournalReadInfo info;
    Expected<JournalWriter> writer =
        JournalWriter::open(file.path(), {}, &existing, &info);
    ASSERT_TRUE(writer.ok()) << writer.status().toString();
    EXPECT_TRUE(info.salvaged);
    EXPECT_EQ(existing, std::vector<JournalRecord>{records[0]});
    // The tail is PHYSICALLY gone and the next append lands clean.
    ASSERT_TRUE(writer.value().append(makeRecord(9, "nine")).ok());
    writer.value().close();

    Expected<std::vector<JournalRecord>> strict =
        readJournalFile(file.path());
    ASSERT_TRUE(strict.ok()) << strict.status().toString();
    ASSERT_EQ(strict.value().size(), 2u);
    EXPECT_EQ(strict.value()[0].blob, "one");
    EXPECT_EQ(strict.value()[1].blob, "nine");
}

TEST(Journal, WriterRefusesAnotherShardsJournal)
{
    ScratchFile file("shard");
    file.write(buildImage({}, JournalHeader{3, 4}));
    Expected<JournalWriter> writer =
        JournalWriter::open(file.path(), JournalHeader{0, 4});
    ASSERT_FALSE(writer.ok());
    EXPECT_EQ(writer.status().code(), StatusCode::InvalidArgument);
}

TEST(Journal, CompactionKeepsLastRecordPerFingerprintInOrder)
{
    ScratchFile file("compact");
    file.write(buildImage({makeRecord(1, "first"),
                           makeRecord(2, "boom",
                                      JournalRecord::Kind::Quarantine),
                           makeRecord(1, "second"),
                           makeRecord(2, "healed")}));
    ASSERT_TRUE(compactJournal(file.path(), {2, 1}).ok());

    Expected<std::vector<JournalRecord>> got =
        readJournalFile(file.path());
    ASSERT_TRUE(got.ok()) << got.status().toString();
    ASSERT_EQ(got.value().size(), 2u);
    EXPECT_EQ(got.value()[0].fingerprint, 2u);
    EXPECT_EQ(got.value()[0].blob, "healed");
    EXPECT_EQ(got.value()[0].kind, JournalRecord::Kind::Result);
    EXPECT_EQ(got.value()[1].fingerprint, 1u);
    EXPECT_EQ(got.value()[1].blob, "second");
}

TEST(Journal, CompactionIsIdempotentOnBytes)
{
    ScratchFile file("idempotent");
    file.write(buildImage({makeRecord(1, "a"), makeRecord(2, "b"),
                           makeRecord(1, "a2")}));
    ASSERT_TRUE(compactJournal(file.path(), {1, 2}).ok());
    const std::string once = file.read();
    ASSERT_TRUE(compactJournal(file.path(), {1, 2}).ok());
    EXPECT_EQ(file.read(), once);
}

TEST(Journal, CrashMidCompactionLeavesOldJournalIntact)
{
    ScratchFile file("crash");
    const std::string old_image =
        buildImage({makeRecord(1, "old"), makeRecord(1, "newer")});
    file.write(old_image);

    // A compaction killed before its rename: its temp file exists
    // with arbitrary (even torn) content, the real journal is
    // untouched. Readers see the complete OLD image...
    {
        std::ofstream tmp(file.path() + ".tmp.4242.0",
                          std::ios::binary | std::ios::trunc);
        tmp << old_image.substr(0, 10); // garbage half-write
    }
    Expected<std::vector<JournalRecord>> before =
        readJournalFile(file.path());
    ASSERT_TRUE(before.ok());
    EXPECT_EQ(before.value().size(), 2u);

    // ...and the writer discards the temp instead of adopting it.
    std::vector<JournalRecord> existing;
    Expected<JournalWriter> writer =
        JournalWriter::open(file.path(), {}, &existing);
    ASSERT_TRUE(writer.ok()) << writer.status().toString();
    writer.value().close();
    EXPECT_EQ(existing.size(), 2u);
    EXPECT_TRUE(tempSiblings(file.path()).empty());

    // A compaction that RUNS to completion replaces the image whole.
    ASSERT_TRUE(compactJournal(file.path(), {1}).ok());
    Expected<std::vector<JournalRecord>> after =
        readJournalFile(file.path());
    ASSERT_TRUE(after.ok());
    ASSERT_EQ(after.value().size(), 1u);
    EXPECT_EQ(after.value()[0].blob, "newer");
    EXPECT_TRUE(tempSiblings(file.path()).empty());
}

TEST(Journal, AtomicWriteReplacesContentWhole)
{
    ScratchFile file("atomic");
    file.write("stale");
    ASSERT_TRUE(atomicWriteFile(file.path(), "fresh contents").ok());
    EXPECT_EQ(file.read(), "fresh contents");
    EXPECT_TRUE(tempSiblings(file.path()).empty());
}

TEST(Journal, ConcurrentWritersOfOnePathAllSucceed)
{
    // Two sweep cells with one fingerprint export into one metrics
    // directory at once. With a shared "<path>.tmp" one writer's
    // rename could find the other's temp already moved away; unique
    // temp names make every write succeed, and the survivor is one
    // writer's complete document.
    ScratchFile file("concurrent");
    MetricsExporter docs[2];
    docs[0].setInt("writer", 0);
    docs[1].setInt("writer", 1);
    // At 1000 rounds each, a shared "<path>.tmp" lost 15-95 writes
    // in every one of eight runs.
    constexpr int rounds = 1000;
    int failures[2] = {0, 0};
    std::vector<std::thread> writers;
    for (int w = 0; w < 2; ++w)
        writers.emplace_back([&, w] {
            for (int r = 0; r < rounds; ++r)
                failures[w] += docs[w].writeJsonFile(file.path()).ok()
                    ? 0
                    : 1;
        });
    for (std::thread &t : writers)
        t.join();
    EXPECT_EQ(failures[0] + failures[1], 0);

    std::ostringstream expect[2];
    docs[0].writeJson(expect[0]);
    docs[1].writeJson(expect[1]);
    const std::string survivor = file.read();
    EXPECT_TRUE(survivor == expect[0].str() || survivor == expect[1].str());
    EXPECT_TRUE(tempSiblings(file.path()).empty());
}

} // namespace
} // namespace pabp
