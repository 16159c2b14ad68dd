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
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bpred/factory.hh"
#include "core/checkpoint.hh"
#include "core/engine.hh"
#include "sim/trace_io.hh"
#include "util/serialize.hh"
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
    const std::filesystem::path target(path);
    const std::string prefix = target.filename().string() + ".tmp";
    for (const auto &entry :
         std::filesystem::directory_iterator(target.parent_path()))
        EXPECT_NE(entry.path().filename().string().compare(
                      0, prefix.size(), prefix),
                  0)
            << entry.path();
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

// ---------------------------------------------------------------------
// The sparse guest-memory image (ArchState::saveState): only the pages
// holding a nonzero word are stored, and a load zeroes the rest.

/** The emulator's saveState() bytes. */
std::string
emulatorBytes(const Emulator &emu)
{
    std::ostringstream os;
    StateSink sink(os);
    emu.saveState(sink);
    return os.str();
}

TEST(CheckpointImage, PageClearedAfterInitRestoresAsZero)
{
    // init writes words in pages 0 and 1; the program clears page 1
    // inside a call, and stores to page 2 after it. A checkpoint
    // taken after the clear lists no page 1, so resuming into a
    // freshly init'd emulator - whose page 1 holds init's words -
    // must zero it.
    constexpr std::int64_t cleared = 1000; // page 1
    const auto init = [](ArchState &st) {
        st.writeMem(5, 11);
        for (std::int64_t w = cleared; w < cleared + 4; ++w)
            st.writeMem(w, w);
    };
    Program p;
    p.insts = {
        makeMovImm(1, cleared), // 0
        makeCall(4),            // 1
        makeStore(1, 700, 1),   // 2: page 2
        makeHalt(),             // 3
        makeStore(1, 0, 0),     // 4: the subroutine clears page 1
        makeStore(1, 1, 0),
        makeStore(1, 2, 0),
        makeStore(1, 3, 0),
        makeMovImm(2, 9),       // 8
        makeRet(),              // 9
    };
    // Past the clears, before the return: the call stack is live.
    constexpr std::uint64_t cut = 7;

    Emulator straight(p);
    init(straight.state());
    straight.run(100);
    ASSERT_TRUE(straight.halted());

    Emulator first(p);
    init(first.state());
    ASSERT_EQ(first.run(cut), cut);
    ASSERT_EQ(first.state().callStack.size(), 1u);
    const std::string bytes = emulatorBytes(first);

    Emulator resumed(p);
    init(resumed.state());
    ASSERT_EQ(resumed.state().readMem(cleared + 2), cleared + 2);
    std::istringstream is(bytes);
    StateSource src(is);
    ASSERT_TRUE(resumed.loadState(src).ok());
    EXPECT_EQ(resumed.state().readMem(cleared + 2), 0);
    EXPECT_TRUE(resumed.state().sameArchOutcome(first.state()));
    EXPECT_EQ(resumed.state().pc, first.state().pc);
    EXPECT_EQ(resumed.state().callStack, first.state().callStack);
    EXPECT_EQ(emulatorBytes(resumed), bytes);

    resumed.run(100);
    EXPECT_TRUE(resumed.halted());
    EXPECT_EQ(resumed.instsExecuted(), straight.instsExecuted());
    EXPECT_TRUE(resumed.state().sameArchOutcome(straight.state()));
    EXPECT_EQ(resumed.state().pc, straight.state().pc);
    EXPECT_EQ(resumed.state().callStack, straight.state().callStack);
}

/** An ArchState image of an 8-page memory listing @p pages, each
 *  page filled with its own index + 1. */
std::string
imageWithPages(std::uint64_t count, const std::vector<std::uint32_t> &pages)
{
    ArchState blank(8 * ArchState::imagePageWords);
    std::ostringstream os;
    StateSink sink(os);
    blank.saveState(sink);
    // An all-zero memory ends its image with u64 words, u64 n = 0.
    std::string bytes = os.str();
    bytes.resize(bytes.size() - sizeof(std::uint64_t));
    std::ostringstream tail;
    StateSink out(tail);
    out.writeU64(count);
    for (std::uint32_t page : pages) {
        out.writeU32(page);
        for (std::size_t w = 0; w < ArchState::imagePageWords; ++w)
            out.writeI64(std::int64_t{page} + 1);
    }
    return bytes + tail.str();
}

Status
loadImage(const std::string &bytes, ArchState &st)
{
    std::istringstream is(bytes);
    StateSource src(is);
    return st.loadState(src);
}

TEST(CheckpointImage, MalformedPageListsAreCorrupt)
{
    ArchState st(8 * ArchState::imagePageWords);
    ASSERT_TRUE(loadImage(imageWithPages(2, {2, 5}), st).ok());
    EXPECT_EQ(st.readMem(2 * ArchState::imagePageWords), 3);
    EXPECT_EQ(st.readMem(5 * ArchState::imagePageWords + 511), 6);
    EXPECT_EQ(st.readMem(3 * ArchState::imagePageWords), 0);

    const struct
    {
        const char *what;
        std::string bytes;
    } bad[] = {
        {"count above the page total", imageWithPages(9, {})},
        {"index out of range", imageWithPages(1, {8})},
        {"duplicate index", imageWithPages(2, {3, 3})},
        {"descending index", imageWithPages(2, {5, 2})},
    };
    for (const auto &c : bad) {
        ArchState fresh(8 * ArchState::imagePageWords);
        const Status status = loadImage(c.bytes, fresh);
        EXPECT_EQ(status.code(), StatusCode::Corrupt) << c.what;
        EXPECT_FALSE(status.message().empty()) << c.what;
    }
}

} // namespace
} // namespace pabp
