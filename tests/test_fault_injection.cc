/**
 * @file
 * Fault-injection sweeps over the hardened readers. The contract
 * under test is absolute: *every* deterministically injected fault -
 * bit flips at every region of the artifact, truncation at every
 * prefix length, hard I/O failure at every offset stride - must
 * surface as a typed Status (or, in salvage mode, as a successful
 * prefix recovery), and never as a process abort. The sweep runs in
 * the test process itself: an abort anywhere kills the test run,
 * which is exactly the detection we want.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

#include "bpred/factory.hh"
#include "core/checkpoint.hh"
#include "core/engine.hh"
#include "isa/program.hh"
#include "sim/trace_io.hh"
#include "util/fault_injection.hh"
#include "workloads/workload.hh"

namespace pabp {
namespace {

std::string
recordedTraceBytes(std::uint64_t steps)
{
    Workload wl = makeWorkload("dchain", 77);
    CompileOptions copts;
    CompiledProgram cp = compileWorkload(wl, copts);
    Emulator emu(cp.prog);
    if (wl.init)
        wl.init(emu.state());
    DecodedTrace trace = recordTrace(emu, steps);
    std::stringstream buffer;
    writeTrace(trace, buffer);
    return buffer.str();
}

/** The machine whose state the emulator-section checkpoints carry:
 *  a few instructions that leave two guest pages written. */
const Program &
imageProgram()
{
    static const Program p = [] {
        Program q;
        q.insts = {makeMovImm(1, 7), makeStore(0, 600, 1), makeHalt()};
        return q;
    }();
    return p;
}

/** A saved checkpoint: the engine and a stream position, plus an
 *  emulator section (its sparse memory image) when @p with_emulator. */
std::string
checkpointBytes(bool with_emulator)
{
    PredictorPtr pred = makePredictor("gshare", 10);
    EngineConfig ecfg;
    ecfg.useSfpf = true;
    PredictionEngine engine(*pred, ecfg);
    Emulator emu(imageProgram());
    emu.state().writeMem(3, 5);
    emu.run(2);
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string path =
        ::testing::TempDir() + "pabp_" + info->name() + "_src.ckpt";
    std::uint64_t pos = 42;
    CheckpointRefs refs{with_emulator ? &emu : nullptr, &engine, &pos};
    if (!saveCheckpoint(path, refs).ok())
        return {};
    std::ifstream is(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    return bytes;
}

/** Feed a faulted trace image to the reader; the result must be a
 *  typed error or a clean (possibly salvaged) success. */
std::string
uniqueTempPath(const std::string &suffix)
{
    // Tests run as parallel ctest processes sharing TempDir; the
    // test name keeps their scratch files from colliding.
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string tag = info->name();
    for (char &c : tag)
        if (c == '/')
            c = '_';
    return ::testing::TempDir() + "pabp_" + tag + suffix;
}

void
expectTraceReadIsGraceful(const std::string &bytes,
                          const FaultSpec &spec, bool salvage)
{
    // FaultyStream applies the spec itself (BitFlip/Truncate in the
    // buffer, FailRead at read time).
    FaultyStream faulty(bytes, spec);
    TraceReadOptions opts;
    opts.salvage = salvage;
    TraceReadInfo info;
    Expected<DecodedTrace> loaded =
        readTrace(faulty.stream(), opts, &info);
    if (!loaded.ok()) {
        // Typed, specific error - never the catch-all Ok/Unknown.
        EXPECT_NE(loaded.status().code(), StatusCode::Ok);
        EXPECT_FALSE(loaded.status().message().empty());
    } else if (info.salvaged) {
        EXPECT_LE(loaded.value().size() + info.eventsDropped,
                  bytes.size()); // sanity: bounded by the artifact
    }
}

TEST(FaultInjection, TraceSurvivesBitFlipsEverywhere)
{
    std::string bytes = recordedTraceBytes(9000);
    // Flip a bit in every 97th byte (and each of the first 64 bytes,
    // covering the whole header densely), across all 8 bit positions.
    for (std::size_t off = 0; off < bytes.size();
         off += (off < 64 ? 1 : 97)) {
        expectTraceReadIsGraceful(
            bytes, FaultSpec::bitFlip(off, off % 8), false);
    }
}

TEST(FaultInjection, TraceSurvivesBitFlipsEverywhereWithSalvage)
{
    std::string bytes = recordedTraceBytes(9000);
    for (std::size_t off = 0; off < bytes.size();
         off += (off < 64 ? 1 : 131)) {
        expectTraceReadIsGraceful(
            bytes, FaultSpec::bitFlip(off, (off + 3) % 8), true);
    }
}

TEST(FaultInjection, TraceSurvivesTruncationAtEveryStride)
{
    std::string bytes = recordedTraceBytes(5000);
    for (std::size_t off = 0; off < bytes.size();
         off += (off < 64 ? 1 : 61)) {
        FaultyStream faulty(bytes, FaultSpec::truncate(off));
        Expected<DecodedTrace> loaded = readTrace(faulty.stream());
        ASSERT_FALSE(loaded.ok()) << "cut at " << off;
        EXPECT_EQ(loaded.status().code(), StatusCode::Truncated)
            << "cut at " << off << ": " << loaded.status().toString();
    }
}

TEST(FaultInjection, TraceReportsIoErrorOnHardReadFailure)
{
    std::string bytes = recordedTraceBytes(5000);
    for (std::size_t off = 0; off < bytes.size();
         off += (off < 64 ? 1 : 61)) {
        FaultyStream faulty(bytes, FaultSpec::failRead(off));
        Expected<DecodedTrace> loaded = readTrace(faulty.stream());
        ASSERT_FALSE(loaded.ok()) << "failure at " << off;
        EXPECT_EQ(loaded.status().code(), StatusCode::IoError)
            << "failure at " << off << ": "
            << loaded.status().toString();
    }
}

TEST(FaultInjection, SalvageRecoversPrefixUnderEventDamage)
{
    // Large enough for multiple event blocks; flip a bit well into
    // the event section and salvage.
    std::string bytes = recordedTraceBytes(10000);
    FaultyStream faulty(bytes,
                        FaultSpec::bitFlip(bytes.size() - 2000, 4));
    TraceReadOptions opts;
    opts.salvage = true;
    TraceReadInfo info;
    Expected<DecodedTrace> loaded =
        readTrace(faulty.stream(), opts, &info);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_TRUE(info.salvaged);
    EXPECT_GT(loaded.value().size(), 0u);
    EXPECT_GT(info.eventsDropped, 0u);
}

/** Checkpoint reads go through the same serialisation layer; sweep
 *  the same fault families over loadCheckpoint via a temp file. */
void
expectCheckpointLoadIsGraceful(const std::string &bytes,
                               const FaultSpec &spec, bool with_emulator)
{
    std::string path = uniqueTempPath("_sweep.ckpt");
    std::string damaged = applyFault(bytes, spec);
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(damaged.data(),
                 static_cast<std::streamsize>(damaged.size()));
    }
    PredictorPtr pred = makePredictor("gshare", 10);
    EngineConfig ecfg;
    ecfg.useSfpf = true;
    PredictionEngine engine(*pred, ecfg);
    Emulator emu(imageProgram());
    std::uint64_t pos = 0;
    CheckpointRefs refs{with_emulator ? &emu : nullptr, &engine, &pos};
    Status status = loadCheckpoint(path, refs);
    if (!status.ok()) {
        EXPECT_FALSE(status.message().empty());
    }
    std::remove(path.c_str());
}

TEST(FaultInjection, CheckpointSurvivesBitFlipsEverywhere)
{
    for (bool with_emulator : {false, true}) {
        std::string bytes = checkpointBytes(with_emulator);
        ASSERT_FALSE(bytes.empty());
        for (std::size_t off = 0; off < bytes.size();
             off += (off < 32 ? 1 : 17)) {
            expectCheckpointLoadIsGraceful(
                bytes, FaultSpec::bitFlip(off, off % 8), with_emulator);
        }
    }
}

TEST(FaultInjection, CheckpointSurvivesTruncationAtEveryStride)
{
    for (bool with_emulator : {false, true}) {
        std::string bytes = checkpointBytes(with_emulator);
        ASSERT_FALSE(bytes.empty());
        for (std::size_t off = 0; off < bytes.size();
             off += (off < 32 ? 1 : 13)) {
            expectCheckpointLoadIsGraceful(
                bytes, FaultSpec::truncate(off), with_emulator);
        }
    }
}

TEST(FaultInjection, ApplyFaultIsDeterministic)
{
    std::string image = "abcdefgh";
    std::string once = applyFault(image, FaultSpec::bitFlip(2, 1));
    std::string twice = applyFault(image, FaultSpec::bitFlip(2, 1));
    EXPECT_EQ(once, twice);
    EXPECT_NE(once, image);
    EXPECT_EQ(applyFault(once, FaultSpec::bitFlip(2, 1)), image);

    EXPECT_EQ(applyFault(image, FaultSpec::truncate(3)), "abc");
    // Past-the-end faults leave the image unchanged.
    EXPECT_EQ(applyFault(image, FaultSpec::bitFlip(99, 0)), image);
    EXPECT_EQ(applyFault(image, FaultSpec::truncate(99)), image);
}

TEST(FaultInjection, FaultyStreamFailsExactlyAtOffset)
{
    FaultyStream faulty("0123456789", FaultSpec::failRead(4));
    char buf[4];
    faulty.stream().read(buf, 4);
    EXPECT_EQ(faulty.stream().gcount(), 4);
    EXPECT_FALSE(faulty.stream().bad());
    faulty.stream().read(buf, 1);
    EXPECT_TRUE(faulty.stream().bad());
}

} // namespace
} // namespace pabp
