/**
 * @file
 * Trace record/replay tests: round trips through memory and disk, the
 * key property that replaying a recorded trace produces *exactly* the
 * same prediction statistics as a live run, and the PABPTRC2
 * hardening guarantees - every corruption or truncation of the byte
 * stream yields a typed Status (never a process abort), retired
 * container versions are refused, an event pc past the program is
 * Corrupt, and salvage mode recovers the longest whole-block prefix.
 * Golden fingerprints and file bytes pin the on-disk format itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bpred/factory.hh"
#include "bpred/gshare.hh"
#include "core/engine.hh"
#include "sim/trace_io.hh"
#include "util/crc32.hh"
#include "workloads/workload.hh"

namespace pabp {
namespace {

DecodedTrace
recordWorkload(const std::string &name, std::uint64_t steps)
{
    Workload wl = makeWorkload(name, 77);
    CompileOptions copts;
    CompiledProgram cp = compileWorkload(wl, copts);
    Emulator emu(cp.prog);
    if (wl.init)
        wl.init(emu.state());
    return recordTrace(emu, steps);
}

std::string
serializeV2(const DecodedTrace &trace)
{
    std::stringstream buffer;
    writeTrace(trace, buffer);
    return buffer.str();
}

Expected<DecodedTrace>
readFromBytes(const std::string &bytes, const TraceReadOptions &opts = {},
              TraceReadInfo *info = nullptr)
{
    std::istringstream is(bytes);
    return readTrace(is, opts, info);
}

// v2 layout offsets (see trace_io.hh): the header is 32 bytes
// (magic 8, version 4, numInsts 8, numEvents 8, headerCrc 4).
constexpr std::size_t v2HeaderBytes = 32;
constexpr std::size_t instRecordBytes = 20;
constexpr std::size_t eventRecordBytes = 12;
constexpr std::size_t blockCapacity = 4096;

std::size_t
programSectionEnd(const DecodedTrace &trace)
{
    return v2HeaderBytes + trace.prog.size() * instRecordBytes + 4;
}

/** Every lane of @p got equals the first got.size() events of
 *  @p want, and so does every derived next pc. */
void
expectEventPrefix(const DecodedTrace &got, const DecodedTrace &want)
{
    ASSERT_LE(got.size(), want.size());
    auto prefix = [&got](const auto &lane) {
        return std::decay_t<decltype(lane)>(lane.begin(),
                                            lane.begin() + got.size());
    };
    EXPECT_EQ(got.pcs, prefix(want.pcs));
    EXPECT_EQ(got.cls, prefix(want.cls));
    EXPECT_EQ(got.flags, prefix(want.flags));
    EXPECT_EQ(got.defines, want.defines);
    if (got.size() > 0) {
        EXPECT_EQ(got.nextPc(got.size() - 1),
                  want.nextPc(got.size() - 1));
    }
}

/** 64-bit FNV-1a over @p bytes. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

TEST(TraceIo, RecordCapturesEvents)
{
    DecodedTrace trace = recordWorkload("dchain", 50000);
    EXPECT_EQ(trace.size(), 50000u);
    EXPECT_GT(trace.prog.size(), 0u);
}

TEST(TraceIo, MaterialiseReconstructsBranchFacts)
{
    DecodedTrace trace = recordWorkload("filter", 20000);
    std::uint64_t branches = 0, taken = 0, writes = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        DynInst dyn = trace.materialise(i);
        EXPECT_EQ(dyn.seq, i);
        ASSERT_NE(dyn.inst, nullptr);
        if (dyn.inst->isConditionalBranch()) {
            ++branches;
            taken += dyn.taken;
        }
        writes += dyn.numPredWrites;
    }
    EXPECT_GT(branches, 0u);
    EXPECT_GT(taken, 0u);
    EXPECT_GT(writes, 0u);
}

TEST(TraceIo, StreamRoundTripExact)
{
    DecodedTrace trace = recordWorkload("histogram", 30000);
    std::stringstream buffer;
    std::uint64_t bytes = writeTrace(trace, buffer);
    EXPECT_GT(bytes, trace.size() * eventRecordBytes);

    TraceReadInfo info;
    Expected<DecodedTrace> loaded = readTrace(buffer, {}, &info);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_FALSE(info.salvaged);

    const DecodedTrace &back = loaded.value();
    ASSERT_EQ(back.size(), trace.size());
    ASSERT_EQ(back.prog.size(), trace.prog.size());
    expectEventPrefix(back, trace);
    EXPECT_NE(back.schedCache, nullptr);
    for (std::size_t pc = 0; pc < trace.prog.size(); ++pc) {
        EXPECT_EQ(encode(back.prog.insts[pc]),
                  encode(trace.prog.insts[pc]));
        EXPECT_EQ(back.prog.insts[pc].regionId,
                  trace.prog.insts[pc].regionId);
    }
}

TEST(TraceIo, BadMagicIsTypedError)
{
    Expected<DecodedTrace> loaded = readFromBytes("NOTATRACE-------");
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::BadMagic);
}

TEST(TraceIo, UnknownContainerVersionIsTypedError)
{
    // '1' is the retired unprotected layout: no longer readable.
    DecodedTrace trace = recordWorkload("rle", 1000);
    for (const char version : {'9', '1'}) {
        std::string bytes = serializeV2(trace);
        bytes[7] = version; // "PABPTRC9", "PABPTRC1"
        Expected<DecodedTrace> loaded = readFromBytes(bytes);
        ASSERT_FALSE(loaded.ok()) << version;
        EXPECT_EQ(loaded.status().code(), StatusCode::VersionMismatch)
            << version;
    }
}

TEST(TraceIo, HeaderCorruptionFailsChecksum)
{
    DecodedTrace trace = recordWorkload("rle", 1000);
    std::string bytes = serializeV2(trace);
    bytes[12] ^= 0x40; // inside numInsts
    Expected<DecodedTrace> loaded = readFromBytes(bytes);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::ChecksumMismatch);
}

TEST(TraceIo, ProgramCorruptionFailsChecksum)
{
    DecodedTrace trace = recordWorkload("rle", 1000);
    std::string bytes = serializeV2(trace);
    bytes[v2HeaderBytes + 3] ^= 0x01;
    Expected<DecodedTrace> loaded = readFromBytes(bytes);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::ChecksumMismatch);
}

TEST(TraceIo, EventCorruptionFailsChecksum)
{
    DecodedTrace trace = recordWorkload("rle", 1000);
    std::string bytes = serializeV2(trace);
    bytes[programSectionEnd(trace) + 4 + 7] ^= 0x80;
    Expected<DecodedTrace> loaded = readFromBytes(bytes);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::ChecksumMismatch);
}

TEST(TraceIo, FooterCorruptionIsTypedError)
{
    DecodedTrace trace = recordWorkload("rle", 1000);
    std::string bytes = serializeV2(trace);
    bytes.back() ^= 0xff;
    Expected<DecodedTrace> loaded = readFromBytes(bytes);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::Corrupt);
}

TEST(TraceIo, TruncationAtEverySectionBoundaryIsTyped)
{
    DecodedTrace trace = recordWorkload("rle", 1000);
    std::string bytes = serializeV2(trace);
    std::size_t prog_end = programSectionEnd(trace);
    // Structural boundaries: inside the magic, after the magic,
    // inside the header, after the header CRC, inside the program
    // section, just before / after the program CRC, inside the first
    // event block, and just before the footer sentinel.
    const std::size_t cuts[] = {
        0,  4,  8,  20, v2HeaderBytes,
        v2HeaderBytes + instRecordBytes + 3,
        prog_end - 4, prog_end, prog_end + 2,
        prog_end + 4 + 5 * eventRecordBytes,
        bytes.size() - 8, bytes.size() - 1,
    };
    for (std::size_t cut : cuts) {
        ASSERT_LT(cut, bytes.size());
        Expected<DecodedTrace> loaded =
            readFromBytes(bytes.substr(0, cut));
        ASSERT_FALSE(loaded.ok()) << "cut at " << cut;
        EXPECT_EQ(loaded.status().code(), StatusCode::Truncated)
            << "cut at " << cut << ": " << loaded.status().toString();
    }
}

TEST(TraceIo, SalvageRecoversWholeBlockPrefix)
{
    // Three event blocks (4096 + 4096 + 1808); damage block two.
    DecodedTrace trace = recordWorkload("dchain", 10000);
    ASSERT_GT(trace.size(), 2 * blockCapacity);
    std::string bytes = serializeV2(trace);
    std::size_t block_bytes = 4 + blockCapacity * eventRecordBytes + 4;
    std::size_t in_block2 = programSectionEnd(trace) + block_bytes + 100;
    bytes[in_block2] ^= 0x10;

    // Strict read refuses.
    Expected<DecodedTrace> strict = readFromBytes(bytes);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().code(), StatusCode::ChecksumMismatch);

    // Salvage keeps exactly the first (valid) block.
    TraceReadOptions opts;
    opts.salvage = true;
    TraceReadInfo info;
    Expected<DecodedTrace> salvaged = readFromBytes(bytes, opts, &info);
    ASSERT_TRUE(salvaged.ok()) << salvaged.status().toString();
    EXPECT_TRUE(info.salvaged);
    EXPECT_EQ(salvaged.value().size(), blockCapacity);
    EXPECT_EQ(info.eventsDropped, trace.size() - blockCapacity);
    expectEventPrefix(salvaged.value(), trace);
}

TEST(TraceIo, OutOfRangePcIsCorruptAndSalvageKeepsWholeBlocks)
{
    // A CRC-valid event whose pc is past the program: the pc check is
    // the only guard in front of the unchecked DecodedTrace::inst().
    DecodedTrace trace = recordWorkload("dchain", 10000);
    ASSERT_GT(trace.size(), 2 * blockCapacity);
    trace.pcs[blockCapacity + 5] =
        static_cast<std::uint32_t>(trace.prog.size());
    const std::string bytes = serializeV2(trace);

    Expected<DecodedTrace> strict = readFromBytes(bytes);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().code(), StatusCode::Corrupt);

    // Salvage keeps exactly the whole block before the bad event -
    // none of the five valid events that precede it in its block.
    TraceReadOptions opts;
    opts.salvage = true;
    TraceReadInfo info;
    Expected<DecodedTrace> salvaged = readFromBytes(bytes, opts, &info);
    ASSERT_TRUE(salvaged.ok()) << salvaged.status().toString();
    EXPECT_TRUE(info.salvaged);
    EXPECT_EQ(salvaged.value().size(), blockCapacity);
    EXPECT_EQ(info.eventsDropped, trace.size() - blockCapacity);
    expectEventPrefix(salvaged.value(), trace);
}

/** Offset in serializeV2(@p trace) of the 12-byte record of event
 *  @p i (every block before it is full). */
std::size_t
eventOffset(const DecodedTrace &trace, std::size_t i)
{
    const std::size_t block = i / blockCapacity;
    return programSectionEnd(trace) +
        block * (4 + blockCapacity * eventRecordBytes + 4) + 4 +
        (i % blockCapacity) * eventRecordBytes;
}

/** Offset in serializeV2(@p trace) of the 4-byte stored nextPc of
 *  event @p i. */
std::size_t
nextPcOffset(const DecodedTrace &trace, std::size_t i)
{
    return eventOffset(trace, i) + 8;
}

/** Recompute the CRC of the block that holds event @p i of @p bytes,
 *  so only the reader's record checks see an edit to it. */
void
resealBlock(std::string &bytes, const DecodedTrace &trace, std::size_t i)
{
    const std::size_t block = i / blockCapacity;
    const std::size_t start = programSectionEnd(trace) +
        block * (4 + blockCapacity * eventRecordBytes + 4);
    const std::size_t count =
        std::min(blockCapacity, trace.size() - block * blockCapacity);
    const std::uint32_t crc =
        crc32(&bytes[start], 4 + count * eventRecordBytes);
    std::memcpy(&bytes[start + 4 + count * eventRecordBytes], &crc, 4);
}

/** Overwrite the stored nextPc of event @p i of @p bytes with @p pc
 *  and reseal its block. */
void
setStoredNextPc(std::string &bytes, const DecodedTrace &trace,
                std::size_t i, std::uint32_t pc)
{
    std::memcpy(&bytes[nextPcOffset(trace, i)], &pc, 4);
    resealBlock(bytes, trace, i);
}

TEST(TraceIo, WriterStoresTheNextEventsPc)
{
    // No lane holds a next pc; the writer emits the next event's pc,
    // and endPc for the last event.
    const DecodedTrace trace = recordWorkload("dchain", 10000);
    const std::string bytes = serializeV2(trace);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        std::uint32_t stored = 0;
        std::memcpy(&stored, &bytes[nextPcOffset(trace, i)], 4);
        const std::uint32_t want =
            i + 1 < trace.size() ? trace.pcs[i + 1] : trace.endPc;
        ASSERT_EQ(stored, want) << "event " << i;
    }
}

TEST(TraceIo, WrongStoredNextPcIsCorruptAndSalvageKeepsWholeBlocks)
{
    DecodedTrace trace = recordWorkload("dchain", 10000);
    ASSERT_GT(trace.size(), 2 * blockCapacity);
    const auto wrong = static_cast<std::uint32_t>(trace.prog.size() - 1);
    // Mid-block, and the last record of a block, whose nextPc only the
    // next block's first record confirms: either way the block that
    // holds the record is dropped, with everything after it.
    for (std::size_t bad : {blockCapacity + 5, 2 * blockCapacity - 1}) {
        SCOPED_TRACE("event " + std::to_string(bad));
        ASSERT_NE(trace.nextPc(bad), wrong);
        std::string bytes = serializeV2(trace);
        setStoredNextPc(bytes, trace, bad, wrong);

        Expected<DecodedTrace> strict = readFromBytes(bytes);
        ASSERT_FALSE(strict.ok());
        EXPECT_EQ(strict.status().code(), StatusCode::Corrupt);

        TraceReadOptions opts;
        opts.salvage = true;
        TraceReadInfo info;
        Expected<DecodedTrace> salvaged =
            readFromBytes(bytes, opts, &info);
        ASSERT_TRUE(salvaged.ok()) << salvaged.status().toString();
        EXPECT_TRUE(info.salvaged);
        EXPECT_EQ(salvaged.value().size(), blockCapacity);
        EXPECT_EQ(info.eventsDropped, trace.size() - blockCapacity);
        expectEventPrefix(salvaged.value(), trace);
    }
}

TEST(TraceIo, StoredPredicatePayloadMustMatchTheProgram)
{
    // Bytes 4-7 of a record are the predicate writes the program
    // derives from the guard and relation bits; the lanes keep only
    // those bits, so a CRC-valid record that disagrees must be
    // refused, never read as some other trace.
    const DecodedTrace trace = recordWorkload("dchain", 10000);
    ASSERT_GT(trace.size(), 2 * blockCapacity);
    // A compare with writes and an event of another kind, both
    // mid-way into the second block.
    std::size_t cmp = 0, other = 0;
    for (std::size_t i = blockCapacity + 5; i < 2 * blockCapacity; ++i) {
        if (!cmp && trace.inst(i).op == Opcode::Cmp &&
            trace.numPredWrites(i) > 0)
            cmp = i;
        if (!other && trace.inst(i).op != Opcode::Cmp)
            other = i;
    }
    ASSERT_NE(cmp, 0u);
    ASSERT_NE(other, 0u);

    struct Edit
    {
        const char *what;
        std::size_t event;
        std::size_t at; ///< byte of the record
        unsigned char xorMask;
    };
    const Edit edits[] = {
        {"write count", cmp, 4, 0x04},
        {"flags bit 4", cmp, 4, 0x10},
        {"flags bit 7", other, 4, 0x80},
        {"first register", cmp, 5, 0x01},
        {"second register", other, 6, 0x02},
        {"first value", cmp, 7, 0x01},
        {"predVal bit 3", cmp, 7, 0x08},
        {"relation of a non-compare", other, 7, 0x04},
    };
    for (const Edit &e : edits) {
        SCOPED_TRACE(e.what);
        std::string bytes = serializeV2(trace);
        bytes[eventOffset(trace, e.event) + e.at] ^=
            static_cast<char>(e.xorMask);
        resealBlock(bytes, trace, e.event);

        Expected<DecodedTrace> strict = readFromBytes(bytes);
        ASSERT_FALSE(strict.ok());
        EXPECT_EQ(strict.status().code(), StatusCode::Corrupt);

        // Salvage keeps the whole blocks before the bad record.
        TraceReadOptions opts;
        opts.salvage = true;
        TraceReadInfo info;
        Expected<DecodedTrace> salvaged =
            readFromBytes(bytes, opts, &info);
        ASSERT_TRUE(salvaged.ok()) << salvaged.status().toString();
        EXPECT_TRUE(info.salvaged);
        EXPECT_EQ(salvaged.value().size(), blockCapacity);
        EXPECT_EQ(info.eventsDropped, trace.size() - blockCapacity);
        expectEventPrefix(salvaged.value(), trace);
    }
}

/** Fingerprint and file bytes of makeWorkload(name, 42) recorded for
 *  @p steps instructions: these values pin the PABPTRC2 layout, so a
 *  change here is a format change. */
struct Golden
{
    const char *name;
    std::uint64_t steps;
    std::uint64_t fingerprint;
    std::uint64_t bytes;
    std::uint64_t fnv;
};

void
PrintTo(const Golden &g, std::ostream *os)
{
    *os << g.name << "/" << g.steps;
}

class TraceIoGolden : public ::testing::TestWithParam<Golden>
{};

TEST_P(TraceIoGolden, FingerprintAndBytesAreStable)
{
    const Golden g = GetParam();
    Workload wl = makeWorkload(g.name, 42);
    CompiledProgram cp = compileWorkload(wl, CompileOptions{});
    Emulator emu(cp.prog);
    if (wl.init)
        wl.init(emu.state());
    const DecodedTrace trace = recordTrace(emu, g.steps);
    EXPECT_EQ(traceFingerprint(trace), g.fingerprint);

    std::ostringstream os;
    EXPECT_EQ(writeTrace(trace, os), g.bytes);
    const std::string bytes = os.str();
    EXPECT_EQ(bytes.size(), g.bytes);
    EXPECT_EQ(fnv1a(bytes), g.fnv);

    // The same bytes read back are the same trace: same fingerprint,
    // and a batch replay gives the recorded trace's EngineStats.
    Expected<DecodedTrace> back = readFromBytes(bytes);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(traceFingerprint(back.value()), g.fingerprint);
    EngineConfig ecfg;
    ecfg.useSfpf = true;
    ecfg.usePgu = true;
    PredictorPtr pred_a = makePredictor("gshare", 12);
    PredictorPtr pred_b = makePredictor("gshare", 12);
    PredictionEngine recorded(*pred_a, ecfg);
    PredictionEngine loaded(*pred_b, ecfg);
    EXPECT_EQ(recorded.processBatch(trace, 0, trace.size()),
              trace.size());
    EXPECT_EQ(loaded.processBatch(back.value(), 0, back.value().size()),
              trace.size());
    EXPECT_TRUE(recorded.stats() == loaded.stats());
    EXPECT_GT(loaded.stats().all.branches, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Pabptrc2, TraceIoGolden,
    ::testing::Values(Golden{"rle", 10000, 0x5210193c44531a36ull, 120608,
                             0xcb1bfdcfd5590fb4ull},
                      Golden{"interp", 30000, 0x93d56350d2e5c18aull,
                             360888, 0x93abcab2d58a79beull}),
    [](const ::testing::TestParamInfo<Golden> &info) {
        return std::string(info.param.name);
    });

TEST(TraceIo, SalvageCannotRescueDamagedProgram)
{
    DecodedTrace trace = recordWorkload("rle", 1000);
    std::string bytes = serializeV2(trace);
    bytes[v2HeaderBytes + 1] ^= 0x02;
    TraceReadOptions opts;
    opts.salvage = true;
    Expected<DecodedTrace> loaded = readFromBytes(bytes, opts);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::ChecksumMismatch);
}

TEST(TraceIo, SalvageKeepsEverythingOnFooterDamage)
{
    DecodedTrace trace = recordWorkload("rle", 1000);
    std::string bytes = serializeV2(trace);
    bytes.back() ^= 0xff;
    TraceReadOptions opts;
    opts.salvage = true;
    TraceReadInfo info;
    Expected<DecodedTrace> loaded = readFromBytes(bytes, opts, &info);
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(info.salvaged);
    EXPECT_EQ(info.eventsDropped, 0u);
    EXPECT_EQ(loaded.value().size(), trace.size());
}

TEST(TraceIo, FileRoundTrip)
{
    DecodedTrace trace = recordWorkload("rle", 10000);
    std::string path = ::testing::TempDir() + "pabp_test.trace";
    saveTraceFile(trace, path);
    DecodedTrace back = loadTraceFile(path);
    EXPECT_EQ(back.size(), trace.size());
    std::remove(path.c_str());
}

TEST(TraceIo, TryLoadMissingFileIsTypedError)
{
    Expected<DecodedTrace> loaded =
        tryLoadTraceFile(::testing::TempDir() + "pabp_no_such.trace");
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::IoError);
}

class ReplayEquivalence : public ::testing::TestWithParam<std::string>
{};

TEST_P(ReplayEquivalence, ReplayMatchesLiveRunExactly)
{
    const std::string name = GetParam();
    constexpr std::uint64_t steps = 200000;

    // Live run.
    Workload wl = makeWorkload(name, 77);
    CompileOptions copts;
    CompiledProgram cp = compileWorkload(wl, copts);
    GSharePredictor live_pred(12);
    EngineConfig ecfg;
    ecfg.useSfpf = true;
    ecfg.usePgu = true;
    PredictionEngine live(live_pred, ecfg);
    Emulator emu(cp.prog);
    if (wl.init)
        wl.init(emu.state());
    runTrace(emu, live, steps);

    // Recorded replay.
    DecodedTrace trace = recordWorkload(name, steps);
    GSharePredictor replay_pred(12);
    PredictionEngine replay(replay_pred, ecfg);
    replayTraceFrom(trace, replay, 0, steps);

    EXPECT_EQ(live.stats().insts, replay.stats().insts);
    EXPECT_EQ(live.stats().all.branches, replay.stats().all.branches);
    EXPECT_EQ(live.stats().all.mispredicts,
              replay.stats().all.mispredicts);
    EXPECT_EQ(live.stats().all.squashed, replay.stats().all.squashed);
    EXPECT_EQ(live.stats().predicateDefines,
              replay.stats().predicateDefines);
    EXPECT_EQ(live.pguBitsInserted(), replay.pguBitsInserted());
}

INSTANTIATE_TEST_SUITE_P(Suite, ReplayEquivalence,
                         ::testing::Values("dchain", "filter", "interp",
                                           "bsearch"));

} // namespace
} // namespace pabp
