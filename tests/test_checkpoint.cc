/**
 * @file
 * Checkpoint/resume tests. The load-bearing property: a run split by
 * a mid-stream checkpoint + resume into freshly-constructed objects
 * must produce *bit-identical* EngineStats to the uninterrupted run,
 * for every predictor whose state travels in the checkpoint. Plus
 * the artifact-level guarantees: atomic write-then-rename, typed
 * errors on damage, and configuration- and trace-mismatch detection.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>

#include "bpred/factory.hh"
#include "core/checkpoint.hh"
#include "core/engine.hh"
#include "sim/trace_io.hh"
#include "workloads/workload.hh"

namespace pabp {
namespace {

std::string
tempPath(const std::string &name)
{
    // Tests run as parallel ctest processes sharing TempDir; the
    // test name keeps their scratch files from colliding. Value-
    // parameterized names contain '/', which must not become a
    // directory separator.
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string tag = info->name();
    for (char &c : tag)
        if (c == '/')
            c = '_';
    return ::testing::TempDir() + tag + "_" + name;
}

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

EngineConfig
fullConfig()
{
    EngineConfig ecfg;
    ecfg.useSfpf = true;
    ecfg.usePgu = true;
    ecfg.useSpeculativeSquash = true;
    return ecfg;
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
    return bytes;
}

void
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
}

/** Replay split at @p cut with a checkpoint round trip through disk
 *  must equal the uninterrupted replay, bit for bit. */
class CheckpointEquivalence
    : public ::testing::TestWithParam<std::string>
{};

TEST_P(CheckpointEquivalence, SplitReplayReproducesStatsExactly)
{
    const std::string kind = GetParam();
    constexpr std::uint64_t steps = 120000;
    constexpr std::uint64_t cut = 50001; // deliberately unaligned
    DecodedTrace trace = recordWorkload("interp", steps);
    EngineConfig ecfg = fullConfig();

    // Uninterrupted reference run.
    PredictorPtr ref_pred = makePredictor(kind, 10);
    PredictionEngine ref(*ref_pred, ecfg);
    replayTraceFrom(trace, ref, 0, trace.size());

    // First half, then checkpoint engine + replay cursor.
    std::string path = tempPath("pabp_ckpt_" + kind + ".ckpt");
    {
        PredictorPtr pred = makePredictor(kind, 10);
        PredictionEngine engine(*pred, ecfg);
        std::uint64_t pos = replayTraceFrom(trace, engine, 0, cut);
        CheckpointRefs refs{nullptr, &engine, &pos};
        ASSERT_TRUE(saveCheckpoint(path, refs).ok());
    }

    // Fresh objects, resume, finish.
    PredictorPtr pred = makePredictor(kind, 10);
    PredictionEngine resumed(*pred, ecfg);
    std::uint64_t pos = 0;
    CheckpointRefs refs{nullptr, &resumed, &pos};
    Status status = loadCheckpoint(path, refs);
    ASSERT_TRUE(status.ok()) << status.toString();
    EXPECT_EQ(pos, cut);
    replayTraceFrom(trace, resumed, pos, trace.size());

    EXPECT_EQ(ref.stats(), resumed.stats());
    EXPECT_EQ(ref.pguBitsInserted(), resumed.pguBitsInserted());
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Suite, CheckpointEquivalence,
                         ::testing::Values("bimodal", "gshare", "gag",
                                           "local", "yags", "agree",
                                           "perceptron", "comb",
                                           "static-taken"));

TEST(Checkpoint, SplitLiveRunReproducesStatsExactly)
{
    constexpr std::uint64_t steps = 150000;
    constexpr std::uint64_t cut = 60007;
    Workload wl = makeWorkload("bsearch", 77);
    CompileOptions copts;
    CompiledProgram cp = compileWorkload(wl, copts);
    EngineConfig ecfg = fullConfig();

    // Uninterrupted reference run.
    PredictorPtr ref_pred = makePredictor("gshare", 12);
    PredictionEngine ref(*ref_pred, ecfg);
    Emulator ref_emu(cp.prog);
    if (wl.init)
        wl.init(ref_emu.state());
    runTrace(ref_emu, ref, steps);

    // Interrupted run: emulator position + architectural state travel
    // in the checkpoint alongside the engine.
    std::string path = tempPath("pabp_ckpt_live.ckpt");
    {
        PredictorPtr pred = makePredictor("gshare", 12);
        PredictionEngine engine(*pred, ecfg);
        Emulator emu(cp.prog);
        if (wl.init)
            wl.init(emu.state());
        runTrace(emu, engine, cut);
        CheckpointRefs refs{&emu, &engine, nullptr};
        ASSERT_TRUE(saveCheckpoint(path, refs).ok());
    }

    PredictorPtr pred = makePredictor("gshare", 12);
    PredictionEngine resumed(*pred, ecfg);
    Emulator emu(cp.prog); // fresh, *without* workload init
    CheckpointRefs refs{&emu, &resumed, nullptr};
    Status status = loadCheckpoint(path, refs);
    ASSERT_TRUE(status.ok()) << status.toString();
    EXPECT_EQ(emu.instsExecuted(), cut);
    runTrace(emu, resumed, steps - cut);

    EXPECT_EQ(ref.stats(), resumed.stats());
    EXPECT_EQ(ref_emu.instsExecuted(), emu.instsExecuted());
    std::remove(path.c_str());
}

TEST(Checkpoint, SaveLeavesNoTempFileBehind)
{
    PredictorPtr pred = makePredictor("gshare", 10);
    PredictionEngine engine(*pred, EngineConfig{});
    std::string path = tempPath("pabp_ckpt_tmp.ckpt");
    CheckpointRefs refs{nullptr, &engine, nullptr};
    ASSERT_TRUE(saveCheckpoint(path, refs).ok());
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());
    std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileIsTypedError)
{
    PredictorPtr pred = makePredictor("gshare", 10);
    PredictionEngine engine(*pred, EngineConfig{});
    CheckpointRefs refs{nullptr, &engine, nullptr};
    Status status =
        loadCheckpoint(tempPath("pabp_no_such.ckpt"), refs);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::IoError);
}

TEST(Checkpoint, TraceIdMustMatchOnResume)
{
    const DecodedTrace interp = recordWorkload("interp", 20000);
    const DecodedTrace histogram = recordWorkload("histogram", 20000);
    const std::uint64_t id = traceFingerprint(interp);
    const std::uint64_t other = traceFingerprint(histogram);
    ASSERT_NE(id, other);

    // The id survives a save/reload of the trace itself.
    std::stringstream buffer;
    writeTrace(interp, buffer);
    Expected<DecodedTrace> reloaded = readTrace(buffer);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().toString();
    EXPECT_EQ(traceFingerprint(reloaded.value()), id);

    std::string path = tempPath("pabp_ckpt_trace_id.ckpt");
    {
        PredictorPtr pred = makePredictor("gshare", 10);
        PredictionEngine engine(*pred, fullConfig());
        std::uint64_t pos = replayTraceFrom(interp, engine, 0, 7000);
        CheckpointRefs refs{nullptr, &engine, &pos, &id};
        ASSERT_TRUE(saveCheckpoint(path, refs).ok());
    }

    auto resume = [&](const std::uint64_t *trace_id,
                      std::uint64_t &pos) {
        PredictorPtr pred = makePredictor("gshare", 10);
        PredictionEngine engine(*pred, fullConfig());
        return loadCheckpoint(
            path, CheckpointRefs{nullptr, &engine, &pos, trace_id});
    };

    std::uint64_t pos = 0;
    Status same = resume(&id, pos);
    ASSERT_TRUE(same.ok()) << same.toString();
    EXPECT_EQ(pos, 7000u);

    Status wrong = resume(&other, pos);
    ASSERT_FALSE(wrong.ok());
    EXPECT_EQ(wrong.code(), StatusCode::InvalidArgument);

    // Asking for no id is a section mismatch, not a silent pass.
    Status missing = resume(nullptr, pos);
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.code(), StatusCode::InvalidArgument);

    // A damaged stored id is corruption, caught by the CRC. The id is
    // the last payload field: before the u32 CRC and 8-byte footer.
    std::string bytes = readFileBytes(path);
    bytes[bytes.size() - 8 - 4 - 1] ^= 0x01;
    writeFileBytes(path, bytes);
    Status damaged = resume(&id, pos);
    ASSERT_FALSE(damaged.ok());
    EXPECT_EQ(damaged.code(), StatusCode::ChecksumMismatch);
    std::remove(path.c_str());
}

class CheckpointArtifact : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        pred = makePredictor("gshare", 10);
        engine =
            std::make_unique<PredictionEngine>(*pred, EngineConfig{});
        path = tempPath("pabp_ckpt_artifact.ckpt");
        pos = 1234;
        CheckpointRefs refs{nullptr, engine.get(), &pos};
        ASSERT_TRUE(saveCheckpoint(path, refs).ok());
        bytes = readFileBytes(path);
        ASSERT_GT(bytes.size(), 24u);
    }

    void TearDown() override { std::remove(path.c_str()); }

    Status
    loadBytes(const std::string &damaged)
    {
        writeFileBytes(path, damaged);
        PredictorPtr p2 = makePredictor("gshare", 10);
        PredictionEngine e2(*p2, EngineConfig{});
        std::uint64_t pos2 = 0;
        CheckpointRefs refs{nullptr, &e2, &pos2};
        return loadCheckpoint(path, refs);
    }

    PredictorPtr pred;
    std::unique_ptr<PredictionEngine> engine;
    std::string path;
    std::uint64_t pos = 0;
    std::string bytes;
};

TEST_F(CheckpointArtifact, BadMagicIsTyped)
{
    std::string damaged = bytes;
    damaged[0] = 'X';
    Status status = loadBytes(damaged);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::BadMagic);
}

TEST_F(CheckpointArtifact, PayloadCorruptionFailsChecksum)
{
    std::string damaged = bytes;
    damaged[damaged.size() / 2] ^= 0x20;
    Status status = loadBytes(damaged);
    ASSERT_FALSE(status.ok());
    // The flipped byte usually trips the CRC; if it lands in a
    // length/geometry field a typed structural error fires first.
    EXPECT_NE(status.code(), StatusCode::Ok);
}

TEST_F(CheckpointArtifact, TruncationIsTyped)
{
    Status status = loadBytes(bytes.substr(0, bytes.size() / 3));
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::Truncated);
}

TEST_F(CheckpointArtifact, SectionMismatchIsTyped)
{
    // Saved with engine + streamPos; ask back emulator-free subset.
    writeFileBytes(path, bytes);
    PredictorPtr p2 = makePredictor("gshare", 10);
    PredictionEngine e2(*p2, EngineConfig{});
    CheckpointRefs refs{nullptr, &e2, nullptr};
    Status status = loadCheckpoint(path, refs);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::InvalidArgument);
}

TEST_F(CheckpointArtifact, EngineConfigMismatchIsTyped)
{
    writeFileBytes(path, bytes);
    PredictorPtr p2 = makePredictor("gshare", 10);
    EngineConfig other;
    other.useSfpf = true; // artifact was saved with useSfpf = false
    PredictionEngine e2(*p2, other);
    std::uint64_t pos2 = 0;
    CheckpointRefs refs{nullptr, &e2, &pos2};
    Status status = loadCheckpoint(path, refs);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::InvalidArgument);
}

TEST_F(CheckpointArtifact, PredictorMismatchIsTyped)
{
    writeFileBytes(path, bytes);
    PredictorPtr p2 = makePredictor("yags", 10);
    PredictionEngine e2(*p2, EngineConfig{});
    std::uint64_t pos2 = 0;
    CheckpointRefs refs{nullptr, &e2, &pos2};
    Status status = loadCheckpoint(path, refs);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::InvalidArgument);
}

TEST_F(CheckpointArtifact, PredictorGeometryMismatchIsTyped)
{
    writeFileBytes(path, bytes);
    PredictorPtr p2 = makePredictor("gshare", 12); // bigger table
    PredictionEngine e2(*p2, EngineConfig{});
    std::uint64_t pos2 = 0;
    CheckpointRefs refs{nullptr, &e2, &pos2};
    Status status = loadCheckpoint(path, refs);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::InvalidArgument);
}

} // namespace
} // namespace pabp
