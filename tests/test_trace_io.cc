/**
 * @file
 * Trace record/replay tests: round trips through memory and disk, the
 * key property that replaying a recorded trace produces *exactly* the
 * same prediction statistics as a live run, and the PABPTRC2
 * hardening guarantees - every corruption or truncation of the byte
 * stream yields a typed Status (never a process abort), retired
 * container versions are refused, and salvage mode recovers the
 * longest valid prefix.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "bpred/gshare.hh"
#include "core/engine.hh"
#include "sim/trace_io.hh"
#include "workloads/workload.hh"

namespace pabp {
namespace {

RecordedTrace
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
serializeV2(const RecordedTrace &trace)
{
    std::stringstream buffer;
    writeTrace(trace, buffer);
    return buffer.str();
}

Expected<RecordedTrace>
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
programSectionEnd(const RecordedTrace &trace)
{
    return v2HeaderBytes + trace.prog.size() * instRecordBytes + 4;
}

TEST(TraceIo, RecordCapturesEvents)
{
    RecordedTrace trace = recordWorkload("dchain", 50000);
    EXPECT_EQ(trace.size(), 50000u);
    EXPECT_GT(trace.prog.size(), 0u);
}

TEST(TraceIo, MaterialiseReconstructsBranchFacts)
{
    RecordedTrace trace = recordWorkload("filter", 20000);
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
    RecordedTrace trace = recordWorkload("histogram", 30000);
    std::stringstream buffer;
    std::uint64_t bytes = writeTrace(trace, buffer);
    EXPECT_GT(bytes, trace.size() * eventRecordBytes);

    TraceReadInfo info;
    Expected<RecordedTrace> loaded = readTrace(buffer, {}, &info);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_FALSE(info.salvaged);

    const RecordedTrace &back = loaded.value();
    ASSERT_EQ(back.size(), trace.size());
    ASSERT_EQ(back.prog.size(), trace.prog.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(back.events[i], trace.events[i]) << "event " << i;
    for (std::size_t pc = 0; pc < trace.prog.size(); ++pc) {
        EXPECT_EQ(encode(back.prog.insts[pc]),
                  encode(trace.prog.insts[pc]));
        EXPECT_EQ(back.prog.insts[pc].regionId,
                  trace.prog.insts[pc].regionId);
    }
}

TEST(TraceIo, BadMagicIsTypedError)
{
    Expected<RecordedTrace> loaded = readFromBytes("NOTATRACE-------");
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::BadMagic);
}

TEST(TraceIo, UnknownContainerVersionIsTypedError)
{
    // '1' is the retired unprotected layout: no longer readable.
    RecordedTrace trace = recordWorkload("rle", 1000);
    for (const char version : {'9', '1'}) {
        std::string bytes = serializeV2(trace);
        bytes[7] = version; // "PABPTRC9", "PABPTRC1"
        Expected<RecordedTrace> loaded = readFromBytes(bytes);
        ASSERT_FALSE(loaded.ok()) << version;
        EXPECT_EQ(loaded.status().code(), StatusCode::VersionMismatch)
            << version;
    }
}

TEST(TraceIo, HeaderCorruptionFailsChecksum)
{
    RecordedTrace trace = recordWorkload("rle", 1000);
    std::string bytes = serializeV2(trace);
    bytes[12] ^= 0x40; // inside numInsts
    Expected<RecordedTrace> loaded = readFromBytes(bytes);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::ChecksumMismatch);
}

TEST(TraceIo, ProgramCorruptionFailsChecksum)
{
    RecordedTrace trace = recordWorkload("rle", 1000);
    std::string bytes = serializeV2(trace);
    bytes[v2HeaderBytes + 3] ^= 0x01;
    Expected<RecordedTrace> loaded = readFromBytes(bytes);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::ChecksumMismatch);
}

TEST(TraceIo, EventCorruptionFailsChecksum)
{
    RecordedTrace trace = recordWorkload("rle", 1000);
    std::string bytes = serializeV2(trace);
    bytes[programSectionEnd(trace) + 4 + 7] ^= 0x80;
    Expected<RecordedTrace> loaded = readFromBytes(bytes);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::ChecksumMismatch);
}

TEST(TraceIo, FooterCorruptionIsTypedError)
{
    RecordedTrace trace = recordWorkload("rle", 1000);
    std::string bytes = serializeV2(trace);
    bytes.back() ^= 0xff;
    Expected<RecordedTrace> loaded = readFromBytes(bytes);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::Corrupt);
}

TEST(TraceIo, TruncationAtEverySectionBoundaryIsTyped)
{
    RecordedTrace trace = recordWorkload("rle", 1000);
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
        Expected<RecordedTrace> loaded =
            readFromBytes(bytes.substr(0, cut));
        ASSERT_FALSE(loaded.ok()) << "cut at " << cut;
        EXPECT_EQ(loaded.status().code(), StatusCode::Truncated)
            << "cut at " << cut << ": " << loaded.status().toString();
    }
}

TEST(TraceIo, SalvageRecoversWholeBlockPrefix)
{
    // Three event blocks (4096 + 4096 + 1808); damage block two.
    RecordedTrace trace = recordWorkload("dchain", 10000);
    ASSERT_GT(trace.size(), 2 * blockCapacity);
    std::string bytes = serializeV2(trace);
    std::size_t block_bytes = 4 + blockCapacity * eventRecordBytes + 4;
    std::size_t in_block2 = programSectionEnd(trace) + block_bytes + 100;
    bytes[in_block2] ^= 0x10;

    // Strict read refuses.
    Expected<RecordedTrace> strict = readFromBytes(bytes);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().code(), StatusCode::ChecksumMismatch);

    // Salvage keeps exactly the first (valid) block.
    TraceReadOptions opts;
    opts.salvage = true;
    TraceReadInfo info;
    Expected<RecordedTrace> salvaged = readFromBytes(bytes, opts, &info);
    ASSERT_TRUE(salvaged.ok()) << salvaged.status().toString();
    EXPECT_TRUE(info.salvaged);
    EXPECT_EQ(salvaged.value().size(), blockCapacity);
    EXPECT_EQ(info.eventsDropped, trace.size() - blockCapacity);
    for (std::size_t i = 0; i < blockCapacity; ++i)
        ASSERT_EQ(salvaged.value().events[i], trace.events[i]);
}

TEST(TraceIo, SalvageCannotRescueDamagedProgram)
{
    RecordedTrace trace = recordWorkload("rle", 1000);
    std::string bytes = serializeV2(trace);
    bytes[v2HeaderBytes + 1] ^= 0x02;
    TraceReadOptions opts;
    opts.salvage = true;
    Expected<RecordedTrace> loaded = readFromBytes(bytes, opts);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::ChecksumMismatch);
}

TEST(TraceIo, SalvageKeepsEverythingOnFooterDamage)
{
    RecordedTrace trace = recordWorkload("rle", 1000);
    std::string bytes = serializeV2(trace);
    bytes.back() ^= 0xff;
    TraceReadOptions opts;
    opts.salvage = true;
    TraceReadInfo info;
    Expected<RecordedTrace> loaded = readFromBytes(bytes, opts, &info);
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(info.salvaged);
    EXPECT_EQ(info.eventsDropped, 0u);
    EXPECT_EQ(loaded.value().size(), trace.size());
}

TEST(TraceIo, FileRoundTrip)
{
    RecordedTrace trace = recordWorkload("rle", 10000);
    std::string path = ::testing::TempDir() + "pabp_test.trace";
    saveTraceFile(trace, path);
    RecordedTrace back = loadTraceFile(path);
    EXPECT_EQ(back.size(), trace.size());
    std::remove(path.c_str());
}

TEST(TraceIo, TryLoadMissingFileIsTypedError)
{
    Expected<RecordedTrace> loaded =
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
    RecordedTrace trace = recordWorkload(name, steps);
    GSharePredictor replay_pred(12);
    PredictionEngine replay(replay_pred, ecfg);
    replayTrace(trace, replay, steps);

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
