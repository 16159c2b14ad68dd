/**
 * @file
 * SweepRunner tests. The load-bearing properties:
 *
 *  - Determinism: a grid run at --jobs 1, 4 and 8 yields bit-identical
 *    EngineStats per cell and byte-identical CSV output - parallelism
 *    must be unobservable in the results.
 *  - Checkpoint isolation (regression): two cells sweeping in the same
 *    directory get DISTINCT fingerprint-derived checkpoint files and
 *    both resume from their own state. The pre-sweep bench harness
 *    wrote every cell to the literal same "pabp.ckpt", so the last
 *    writer won and earlier cells silently restarted.
 *  - Resume fallback compiles nothing (regression): a missing or
 *    configuration-mismatched resume file falls back to a fresh run
 *    by rebuilding only the cheap per-run state. The old runTraceSpec
 *    recursed into itself and recompiled the workload.
 *  - Typed cell failure: a bad spec (unknown predictor/workload,
 *    damaged checkpoint) fails its own cell with a pabp::Status while
 *    the rest of the grid completes. A failed compile or recording,
 *    a thrown exception included, fails every cell of its key with
 *    the same status text at any --jobs.
 *  - Trace dispatch and lifetime: the next trace's first cell runs
 *    ahead of the current trace's repeats, every trace is recorded
 *    once and freed once, and the number held at a time stays within
 *    the bound the dispatch order implies - also across SweepService
 *    batches.
 *  - pabp-sweepd option checks: a malformed --seeds or --sizes entry
 *    is a setup error (exit 2, named in the message), never an
 *    uncaught exception or a silently truncated number.
 */

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bpred/factory.hh"
#include "core/checkpoint.hh"
#include "fuzz/fuzz_gen.hh"
#include "sim/emulator.hh"
#include "sweep.hh"
#include "sweep_service.hh"
#include "util/table.hh"
#include "workloads/workload.hh"

#ifndef PABP_SWEEPD_BIN
#error "PABP_SWEEPD_BIN must point at the pabp-sweepd executable"
#endif
#ifndef PABP_EXPERIMENTS_BIN
#error "PABP_EXPERIMENTS_BIN must point at the pabp-experiments executable"
#endif

namespace pabp::bench {
namespace {

std::string
tempPath(const std::string &name)
{
    // Tests run as parallel ctest processes sharing TempDir; the
    // test name keeps their scratch files from colliding.
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + info->name() + "_" + name;
}

bool
fileExists(const std::string &path)
{
    return std::ifstream(path, std::ios::binary).good();
}

void
copyFile(const std::string &from, const std::string &to)
{
    std::ifstream src(from, std::ios::binary);
    std::ofstream dst(to, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(src.good());
    ASSERT_TRUE(dst.good());
    dst << src.rdbuf();
}

/** A small but heterogeneous grid: three workloads x three engine
 *  configurations, trace mode. */
std::vector<RunSpec>
smallGrid(std::uint64_t max_insts = 30000)
{
    std::vector<RunSpec> specs;
    for (const char *name : {"bsort", "interp", "dchain"}) {
        for (int config = 0; config < 3; ++config) {
            RunSpec spec;
            spec.workload = name;
            spec.engine.useSfpf = config >= 1;
            spec.engine.usePgu = config >= 2;
            spec.maxInsts = max_insts;
            specs.push_back(spec);
        }
    }
    return specs;
}

/** The CSV a bench binary would emit for these results. */
std::string
gridCsv(const std::vector<RunSpec> &specs,
        const std::vector<RunResult> &results)
{
    Table table({"workload", "insts", "branches", "mispredict",
                 "squash%"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const EngineStats &stats = results[i].engine;
        table.startRow();
        table.cell(specs[i].workload);
        table.cell(stats.insts);
        table.cell(stats.all.branches);
        table.percentCell(stats.all.mispredictRate());
        table.percentCell(stats.all.branches
                              ? static_cast<double>(stats.all.squashed) /
                                  static_cast<double>(stats.all.branches)
                              : 0.0);
    }
    std::ostringstream os;
    table.printCsv(os);
    return os.str();
}

TEST(SweepFingerprint, DistinguishesBehaviourChangingFields)
{
    RunSpec spec;
    spec.workload = "bsort";
    const std::uint64_t base = specFingerprint(spec);
    EXPECT_EQ(base, specFingerprint(spec)); // stable

    RunSpec other = spec;
    other.seed = 43;
    EXPECT_NE(specFingerprint(other), base);
    other = spec;
    other.engine.useSfpf = true;
    EXPECT_NE(specFingerprint(other), base);
    other = spec;
    other.predictor = "yags";
    EXPECT_NE(specFingerprint(other), base);
    other = spec;
    other.compile.heuristics.maxBlocks += 1;
    EXPECT_NE(specFingerprint(other), base);
    other = spec;
    other.maxInsts += 1;
    EXPECT_NE(specFingerprint(other), base);
    other = spec;
    other.compileSeed = 7; // cross-input runs differ from same-input
    EXPECT_NE(specFingerprint(other), base);
}

TEST(SweepFingerprint, IgnoresCheckpointKnobs)
{
    // Where a cell checkpoints must not change WHICH checkpoint it
    // owns, or moving the sweep's scratch directory would orphan
    // every resume file.
    RunSpec spec;
    spec.workload = "bsort";
    RunSpec other = spec;
    other.checkpointEvery = 5000;
    other.checkpointPath = "elsewhere/x.ckpt";
    other.resumePath = "elsewhere/x.ckpt";
    EXPECT_EQ(specFingerprint(other), specFingerprint(spec));
}

TEST(SweepFingerprint, TimedCellsFoldANonDefaultPipeline)
{
    RunSpec timed;
    timed.workload = "bsort";
    timed.mode = RunMode::Timed;
    // A default-machine Timed cell keeps the print it had before the
    // pipeline folded in, so its metrics, checkpoint and journal
    // names do not move.
    EXPECT_EQ(specFingerprint(timed), 0xbdff081e7296c496ull);

    RunSpec penalty = timed;
    penalty.pipeline.mispredictPenalty = 12;
    EXPECT_NE(specFingerprint(penalty), specFingerprint(timed));
    RunSpec other_penalty = timed;
    other_penalty.pipeline.mispredictPenalty = 16;
    EXPECT_NE(specFingerprint(other_penalty), specFingerprint(penalty));
    RunSpec l2 = timed;
    l2.pipeline.l2.ways = 4;
    EXPECT_NE(specFingerprint(l2), specFingerprint(timed));

    // A Trace cell never reads its pipeline.
    RunSpec trace;
    trace.workload = "bsort";
    RunSpec trace_penalty = trace;
    trace_penalty.pipeline.mispredictPenalty = 12;
    EXPECT_EQ(specFingerprint(trace_penalty), specFingerprint(trace));
}

TEST(SweepFingerprint, DerivedPathInsertsPrintBeforeExtension)
{
    EXPECT_EQ(derivedCheckpointPath("dir/pabp.ckpt", 0xabcull),
              "dir/pabp-0000000000000abc.ckpt");
    EXPECT_EQ(derivedCheckpointPath("noext", 1),
              "noext-0000000000000001");
    // A dot in a directory component is not an extension.
    EXPECT_EQ(derivedCheckpointPath("v1.2/state", 1),
              "v1.2/state-0000000000000001");
}

TEST(SweepRunner, ResultsAreIdenticalAcrossJobCounts)
{
    const std::vector<RunSpec> specs = smallGrid();

    SweepRunner serial(SweepRunner::Config{1, 0});
    SweepRunner four(SweepRunner::Config{4, 0});
    SweepRunner eight(SweepRunner::Config{8, 0});
    const std::vector<RunResult> r1 = serial.run(specs);
    const std::vector<RunResult> r4 = four.run(specs);
    const std::vector<RunResult> r8 = eight.run(specs);

    ASSERT_EQ(r1.size(), specs.size());
    ASSERT_EQ(r4.size(), specs.size());
    ASSERT_EQ(r8.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(r1[i].status.ok()) << r1[i].status.toString();
        // Bit-identical counters, not tolerances.
        EXPECT_EQ(r1[i].engine, r4[i].engine) << "cell " << i;
        EXPECT_EQ(r1[i].engine, r8[i].engine) << "cell " << i;
        EXPECT_EQ(r1[i].numRegions, r4[i].numRegions);
        EXPECT_EQ(r1[i].pguBits, r4[i].pguBits);
    }
    // And the rendered artifact is byte-identical.
    EXPECT_EQ(gridCsv(specs, r1), gridCsv(specs, r4));
    EXPECT_EQ(gridCsv(specs, r1), gridCsv(specs, r8));

    // Sanity: the grid is not degenerate - configs actually differ.
    EXPECT_NE(r1[0].engine.all.mispredicts,
              r1[2].engine.all.mispredicts);
}

TEST(SweepRunner, CompilesEachProgramOnce)
{
    // Nine cells over three workloads: three compiles, six cache hits,
    // regardless of thread count.
    const std::vector<RunSpec> specs = smallGrid(15000);
    SweepRunner runner(SweepRunner::Config{4, 0});
    const std::vector<RunResult> results = runner.run(specs);
    for (const RunResult &result : results)
        ASSERT_TRUE(result.status.ok()) << result.status.toString();
    EXPECT_EQ(runner.cacheStats().compiles, 3u);
    EXPECT_EQ(runner.cacheStats().hits, 6u);
}

TEST(SweepRunner, CrossInputSpecsCompileSeparately)
{
    RunSpec same;
    same.workload = "dchain";
    same.maxInsts = 10000;
    RunSpec cross = same;
    cross.compileSeed = 7; // profile from another input
    SweepRunner runner(SweepRunner::Config{1, 0});
    const std::vector<RunResult> results = runner.run({same, cross});
    ASSERT_TRUE(results[0].status.ok());
    ASSERT_TRUE(results[1].status.ok());
    EXPECT_EQ(runner.cacheStats().compiles, 2u);
    EXPECT_EQ(runner.cacheStats().hits, 0u);
}

TEST(SweepRunner, FactoryWorkloadsRun)
{
    RunSpec spec;
    spec.workload = "bias-0.70"; // unique cache id for this variant
    spec.factory = [](std::uint64_t s) {
        return makeBiasWorkload(0.70, s);
    };
    spec.maxInsts = 10000;
    SweepRunner runner;
    RunResult result = runner.runOne(spec);
    ASSERT_TRUE(result.status.ok()) << result.status.toString();
    EXPECT_GT(result.engine.all.branches, 0u);
}

// A failed compile, recording or characterization is memoized like a
// success: every cell of the key reports the status of the one cell
// that ran it, the exception text included, at any --jobs. The cells
// that waited on a throwing leader used to read a broken promise.
namespace {

/** Three cells of one factory key, one per predictor. */
std::vector<RunSpec>
factoryCells(const std::string &id, WorkloadFactory factory,
             std::uint64_t seed, unsigned contexts)
{
    std::vector<RunSpec> grid;
    for (const char *pred : {"gshare", "bimodal", "tage"}) {
        RunSpec spec;
        spec.workload = id;
        spec.factory = factory;
        spec.predictor = pred;
        spec.compileSeed = 42;
        spec.seed = seed;
        spec.maxInsts = 5000;
        spec.context.contexts = contexts;
        grid.push_back(spec);
    }
    return grid;
}

void
expectEveryCellReports(const std::vector<RunSpec> &grid,
                       const std::string &status)
{
    for (unsigned jobs : {1u, 4u}) {
        SweepRunner runner(SweepRunner::Config{jobs, 0});
        const std::vector<RunResult> results = runner.run(grid);
        for (std::size_t i = 0; i < results.size(); ++i)
            EXPECT_EQ(results[i].status.toString(), status)
                << "cell " << i << ", jobs " << jobs;
    }
}

} // namespace

TEST(SweepMemo, ThrowingCompileFailsEveryCellAlike)
{
    const WorkloadFactory explodes = [](std::uint64_t) -> Workload {
        throw std::runtime_error("factory exploded");
    };
    expectEveryCellReports(
        factoryCells("memo-compile-throws", explodes, 42, 1),
        "Corrupt: unhandled exception in sweep cell: factory exploded");
}

TEST(SweepMemo, ThrowingRecordingFailsEveryCellAlike)
{
    // Compile seed 42 builds; only measurement seed 7 throws, so the
    // failure comes out of trace recording: for single-context cells
    // (seed 7) and for two-context cells whose second context draws
    // seed 7 (seed 6 + 1).
    const WorkloadFactory noSeven = [](std::uint64_t seed) {
        if (seed == 7)
            throw std::runtime_error("no input for seed 7");
        return makeBiasWorkload(0.70, seed);
    };
    const std::string status =
        "Corrupt: unhandled exception in sweep cell: no input for seed 7";
    expectEveryCellReports(
        factoryCells("memo-record-throws", noSeven, 7, 1), status);
    expectEveryCellReports(
        factoryCells("memo-record-throws", noSeven, 6, 2), status);
}

TEST(SweepMemo, FastReplayCellsCallTheFactoryOncePerSeed)
{
    // One call for the compile seed, one to record the trace; a
    // fast-replay cell builds no workload of its own.
    for (unsigned jobs : {1u, 4u}) {
        std::atomic<unsigned> calls{0};
        const WorkloadFactory counted = [&calls](std::uint64_t seed) {
            ++calls;
            return makeBiasWorkload(0.70, seed);
        };
        std::vector<RunSpec> grid =
            factoryCells("memo-count", counted, 7, 1);
        for (unsigned size = 10; size < 13; ++size) {
            grid.push_back(grid.front());
            grid.back().sizeLog2 = size;
        }
        SweepRunner runner(SweepRunner::Config{jobs, 0});
        for (const RunResult &result : runner.run(grid))
            ASSERT_TRUE(result.status.ok()) << result.status.toString();
        EXPECT_EQ(calls.load(), 2u) << "jobs " << jobs;
    }
}

TEST(SweepMemo, ReportsAreCountedLikePrograms)
{
    std::vector<RunSpec> grid = smallGrid(8000);
    for (RunSpec &spec : grid)
        spec.characterize = true;
    SweepRunner runner(SweepRunner::Config{4, 0});
    for (const RunResult &result : runner.run(grid))
        ASSERT_TRUE(result.status.ok()) << result.status.toString();
    // Nine cells over three workloads, as in CompilesEachProgramOnce.
    EXPECT_EQ(runner.cacheStats().characterizes, 3u);
    EXPECT_EQ(runner.cacheStats().reportHits, 6u);
}

TEST(SweepRunner, BadCellFailsTypedWhileGridCompletes)
{
    std::vector<RunSpec> specs = smallGrid(10000);
    specs[1].predictor = "no-such-predictor";
    specs[4].workload = "no-such-workload";

    SweepRunner runner(SweepRunner::Config{4, 0});
    const std::vector<RunResult> results = runner.run(specs);

    EXPECT_EQ(results[1].status.code(), StatusCode::NotFound);
    EXPECT_EQ(results[4].status.code(), StatusCode::NotFound);
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i == 1 || i == 4)
            continue;
        EXPECT_TRUE(results[i].status.ok())
            << "cell " << i << ": " << results[i].status.toString();
        EXPECT_GT(results[i].engine.insts, 0u);
    }

    std::ostringstream err;
    EXPECT_EQ(reportFailures(specs, results, err), 2u);
    EXPECT_NE(err.str().find("no-such-predictor"), std::string::npos);
}

TEST(SweepCheckpoint, CellsInOneDirectoryDoNotCollide)
{
    // Regression: two cells checkpointing under the same base name.
    // The old harness used the literal path for both, so the second
    // cell's saves overwrote the first's and only one could resume.
    const std::string base = tempPath("shared.ckpt");

    std::vector<RunSpec> specs;
    for (std::uint64_t seed : {42ull, 99ull}) {
        RunSpec spec;
        spec.workload = "dchain";
        spec.seed = seed;
        spec.maxInsts = 12000;
        spec.checkpointEvery = 3000;
        spec.checkpointPath = base;
        specs.push_back(spec);
    }
    const std::string path_a =
        derivedCheckpointPath(base, specFingerprint(specs[0]));
    const std::string path_b =
        derivedCheckpointPath(base, specFingerprint(specs[1]));
    ASSERT_NE(path_a, path_b);

    SweepRunner writer(SweepRunner::Config{1, 0});
    const std::vector<RunResult> first = writer.run(specs);
    ASSERT_TRUE(first[0].status.ok()) << first[0].status.toString();
    ASSERT_TRUE(first[1].status.ok()) << first[1].status.toString();
    EXPECT_TRUE(fileExists(path_a));
    EXPECT_TRUE(fileExists(path_b));

    // BOTH cells must resume from their own file and land on their
    // own counters - this is exactly what the literal-path harness
    // could not do.
    std::vector<RunSpec> resumes = specs;
    for (RunSpec &spec : resumes)
        spec.resumePath = base;
    SweepRunner reader(SweepRunner::Config{1, 0});
    const std::vector<RunResult> second = reader.run(resumes);
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(second[i].status.ok())
            << second[i].status.toString();
        EXPECT_TRUE(second[i].resumed) << "cell " << i;
        EXPECT_EQ(second[i].engine, first[i].engine) << "cell " << i;
    }
    // The two runs really were different work.
    EXPECT_NE(first[0].engine, first[1].engine);

    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

TEST(SweepCheckpoint, MissingResumeFileFallsBackWithoutRecompiling)
{
    // Regression: the old runTraceSpec handled a failed resume by
    // calling itself, which recompiled the workload. The fallback
    // must rebuild only per-run state: exactly one compile.
    RunSpec spec;
    spec.workload = "matrix";
    spec.maxInsts = 10000;
    spec.resumePath = tempPath("never-written.ckpt");

    SweepRunner runner(SweepRunner::Config{1, 0});
    const std::uint64_t compiles_before = compileWorkloadCount();
    RunResult result = runner.runOne(spec);
    const std::uint64_t compiles_after = compileWorkloadCount();

    ASSERT_TRUE(result.status.ok()) << result.status.toString();
    EXPECT_FALSE(result.resumed);
    EXPECT_GT(result.engine.insts, 0u);
    EXPECT_EQ(compiles_after - compiles_before, 1u);
}

TEST(SweepCheckpoint, MismatchedResumeFallsBackWithoutRecompiling)
{
    const std::string base = tempPath("mismatch.ckpt");

    // Write a checkpoint under spec A's configuration...
    RunSpec a;
    a.workload = "dchain";
    a.maxInsts = 8000;
    a.checkpointEvery = 4000;
    a.checkpointPath = base;
    SweepRunner writer(SweepRunner::Config{1, 0});
    ASSERT_TRUE(writer.runOne(a).status.ok());

    // ...and plant it where spec B (different engine config) will
    // look for its own. The loader flags the configuration mismatch;
    // the runner must fall back to a fresh run of B, compiling once.
    RunSpec b = a;
    b.checkpointEvery = 0;
    b.engine.useSfpf = true;
    b.resumePath = base;
    const std::string path_a =
        derivedCheckpointPath(base, specFingerprint(a));
    const std::string path_b =
        derivedCheckpointPath(base, specFingerprint(b));
    ASSERT_NE(path_a, path_b);
    copyFile(path_a, path_b);

    SweepRunner reader(SweepRunner::Config{1, 0});
    const std::uint64_t compiles_before = compileWorkloadCount();
    RunResult result = reader.runOne(b);
    const std::uint64_t compiles_after = compileWorkloadCount();

    ASSERT_TRUE(result.status.ok()) << result.status.toString();
    EXPECT_FALSE(result.resumed);
    EXPECT_EQ(result.engine.insts, b.maxInsts);
    EXPECT_EQ(compiles_after - compiles_before, 1u);

    // An equivalent fresh run matches: the failed load leaked no
    // state into the measured run.
    RunSpec fresh = b;
    fresh.resumePath.clear();
    RunResult clean = SweepRunner().runOne(fresh);
    EXPECT_EQ(result.engine, clean.engine);

    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

TEST(SweepCheckpoint, DamagedResumeFileFailsTheCell)
{
    const std::string base = tempPath("damaged.ckpt");
    RunSpec spec;
    spec.workload = "bsort";
    spec.maxInsts = 6000;
    spec.resumePath = base;
    const std::string path =
        derivedCheckpointPath(base, specFingerprint(spec));
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "this is not a checkpoint";
    }
    SweepRunner runner;
    RunResult result = runner.runOne(spec);
    EXPECT_FALSE(result.status.ok());
    // Damage is an error, not a silent fresh restart.
    EXPECT_NE(result.status.code(), StatusCode::IoError);
    EXPECT_NE(result.status.code(), StatusCode::InvalidArgument);
    std::remove(path.c_str());
}

TEST(SweepCheckpoint, LastCheckpointHoldsTheCellsEnd)
{
    // A budget that is no multiple of the interval: the cell saves
    // at 5000 and 10000 and once more where it ends, so the file a
    // finished cell leaves holds its final state.
    const std::string base = tempPath("end.ckpt");
    RunSpec spec;
    spec.workload = "bsort";
    spec.maxInsts = 12000;
    spec.checkpointEvery = 5000;
    spec.checkpointPath = base;
    SweepRunner runner(SweepRunner::Config{1, 0});
    const RunResult result = runner.runOne(spec);
    ASSERT_TRUE(result.status.ok()) << result.status.toString();

    Workload wl = makeWorkload(spec.workload, spec.seed);
    CompileOptions copts = spec.compile;
    copts.ifConvert = spec.ifConvert;
    const CompiledProgram cp = compileWorkload(wl, copts);
    Emulator emu(cp.prog);
    PredictorPtr pred = makePredictor(spec.predictor, spec.sizeLog2);
    PredictionEngine engine(*pred, spec.engine);
    std::uint64_t done = 0;
    CheckpointRefs refs{&emu, &engine, &done};
    const std::string path =
        derivedCheckpointPath(base, specFingerprint(spec));
    ASSERT_TRUE(loadCheckpoint(path, refs).ok());
    EXPECT_EQ(done, spec.maxInsts);
    EXPECT_EQ(engine.stats(), result.engine);
    std::remove(path.c_str());
}

TEST(SweepCheckpoint, ResumeMatchesUninterruptedRun)
{
    // End-to-end through the sweep layer: run half the budget with
    // checkpoints, resume to the full budget, compare against one
    // uninterrupted run.
    const std::string base = tempPath("split.ckpt");
    RunSpec half;
    half.workload = "interp";
    half.maxInsts = 10000;
    half.checkpointEvery = 5000;
    half.checkpointPath = base;
    SweepRunner runner(SweepRunner::Config{1, 0});
    ASSERT_TRUE(runner.runOne(half).status.ok());

    RunSpec full = half;
    full.maxInsts = 20000;
    full.resumePath = base;
    // Same behaviour fingerprint is required to find the file, and
    // maxInsts is part of it - so resume across budgets goes through
    // an explicit alias: the checkpoint was written by the half spec.
    const std::string half_path =
        derivedCheckpointPath(base, specFingerprint(half));
    const std::string full_path =
        derivedCheckpointPath(base, specFingerprint(full));
    copyFile(half_path, full_path);
    RunResult resumed = runner.runOne(full);
    ASSERT_TRUE(resumed.status.ok()) << resumed.status.toString();
    EXPECT_TRUE(resumed.resumed);

    RunSpec straight = full;
    straight.resumePath.clear();
    straight.checkpointEvery = 0;
    RunResult uninterrupted = runner.runOne(straight);
    EXPECT_EQ(resumed.engine, uninterrupted.engine);

    std::remove(half_path.c_str());
    std::remove(full_path.c_str());
}

/** The bytes of the file at @p path; empty when it cannot be read. */
std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Everything a cell reports except how it ran. */
void
expectSameCell(const RunResult &a, const RunResult &b,
               const std::string &what)
{
    EXPECT_EQ(a.status.code(), b.status.code()) << what;
    EXPECT_EQ(a.engine, b.engine) << what;
    EXPECT_TRUE(a.profile == b.profile) << what;
    EXPECT_EQ(a.pguBits, b.pguBits) << what;
    EXPECT_EQ(a.metricsJson, b.metricsJson) << what;
}

TEST(SweepCheckpoint, WindowedCellWritesTheReferenceCheckpoints)
{
    // A checkpointing cell under fast replay drives its emulator in
    // LiveWindow windows; with fastReplay off it steps the reference
    // per-instruction loop. Both must report the same cell and write
    // the same checkpoint bytes at every save. The file a cell leaves
    // is its last save, and a cell's run up to a save point does not
    // depend on its budget (the slices are the same), so the cell
    // whose budget ends at save point k leaves the bytes the longer
    // cell wrote at its k-th save.
    std::vector<RunSpec> kinds;
    for (const std::string &name : workloadNames()) {
        for (bool both : {false, true}) {
            RunSpec spec;
            spec.workload = name;
            spec.engine.useSfpf = both;
            spec.engine.usePgu = both;
            kinds.push_back(spec);
        }
    }
    // A program that halts after a few thousand instructions: its
    // last window is short and every later save finds it halted.
    RunSpec halting;
    halting.workload = "fuzz-halts-early";
    halting.factory = [](std::uint64_t seed) {
        fuzz::FuzzProgramConfig gen;
        gen.items = 4;
        gen.repeats = 2;
        return fuzz::makeFuzzWorkload(seed, gen);
    };
    halting.engine.useSfpf = true;
    halting.engine.usePgu = true;
    kinds.push_back(halting);

    const std::string base = tempPath("pin.ckpt");
    SweepRunner runner(SweepRunner::Config{1, 0});
    for (const RunSpec &kind : kinds) {
        for (std::uint64_t every : {4095ull, 4097ull, 500000ull}) {
            // Save points every, 2 every, ... and a budget past the
            // last one that is no multiple of the interval.
            const unsigned saves = every < 100000 ? 3 : 1;
            std::vector<std::uint64_t> ends;
            for (unsigned k = 1; k <= saves; ++k)
                ends.push_back(k * every);
            const std::uint64_t budget = ends.back() + 1000;
            ends.push_back(budget);

            std::string first_save;
            RunResult straight;
            std::string last_save;
            for (std::uint64_t end : ends) {
                RunSpec spec = kind;
                spec.maxInsts = end;
                spec.checkpointEvery = every;
                spec.checkpointPath = base;
                spec.captureMetrics = true;
                const std::string path =
                    derivedCheckpointPath(base, specFingerprint(spec));
                const std::string what = kind.workload +
                    (kind.engine.usePgu ? " +both" : " base") +
                    " every " + std::to_string(every) + " end " +
                    std::to_string(end);

                spec.fastReplay = false;
                const RunResult ref = runner.runOne(spec);
                const std::string ref_bytes = fileBytes(path);
                std::remove(path.c_str());
                spec.fastReplay = true;
                const RunResult win = runner.runOne(spec);
                const std::string win_bytes = fileBytes(path);
                std::remove(path.c_str());

                ASSERT_TRUE(ref.status.ok()) << what << ": "
                                             << ref.status.toString();
                expectSameCell(win, ref, what);
                ASSERT_FALSE(ref_bytes.empty()) << what;
                EXPECT_TRUE(win_bytes == ref_bytes) << what;
                if (end == every)
                    first_save = win_bytes;
                if (end == budget) {
                    straight = win;
                    last_save = win_bytes;
                }
            }
            if (kind.factory) {
                EXPECT_LT(straight.engine.insts, 4095u)
                    << "the fuzz program no longer halts early";
            }

            // Resume from the windowed checkpoint at the first save:
            // the rest of the cell, windowed too, ends where the
            // uninterrupted cell did and leaves its last save.
            RunSpec resume = kind;
            resume.maxInsts = budget;
            resume.checkpointEvery = every;
            resume.checkpointPath = base;
            resume.resumePath = base;
            resume.captureMetrics = true;
            const std::string path =
                derivedCheckpointPath(base, specFingerprint(resume));
            writeBytes(path, first_save);
            const RunResult resumed = runner.runOne(resume);
            EXPECT_TRUE(resumed.resumed) << kind.workload;
            expectSameCell(resumed, straight,
                           kind.workload + " resumed at " +
                               std::to_string(every));
            EXPECT_TRUE(fileBytes(path) == last_save) << kind.workload;
            std::remove(path.c_str());
        }
    }
}

TEST(SweepCheckpoint, SuiteCheckpointsHoldOnlyTheGuestPagesInUse)
{
    // Every suite workload's 1.5M-instruction checkpoint stores the
    // few guest pages the workload wrote, not the 8 MiB memory.
    const std::string base = tempPath("size.ckpt");
    SweepRunner runner(SweepRunner::Config{1, 0});
    for (const std::string &name : workloadNames()) {
        RunSpec spec;
        spec.workload = name;
        spec.maxInsts = 1500000;
        spec.checkpointEvery = spec.maxInsts;
        spec.checkpointPath = base;
        const RunResult result = runner.runOne(spec);
        ASSERT_TRUE(result.status.ok()) << result.status.toString();
        const std::string path =
            derivedCheckpointPath(base, specFingerprint(spec));
        const std::string bytes = fileBytes(path);
        EXPECT_GT(bytes.size(), 4096u) << name;
        EXPECT_LT(bytes.size(), 512u * 1024u) << name;
        std::remove(path.c_str());
    }
}

TEST(SweepCheckpoint, OlderVersionResumesFresh)
{
    // A checkpoint of an older format version is no damage: the cell
    // starts fresh and counts as a resume fallback.
    const std::string base = tempPath("v3.ckpt");
    RunSpec spec;
    spec.workload = "bsort";
    spec.maxInsts = 8000;
    spec.checkpointEvery = 4000;
    spec.checkpointPath = base;
    SweepRunner writer(SweepRunner::Config{1, 0});
    const RunResult first = writer.runOne(spec);
    ASSERT_TRUE(first.status.ok()) << first.status.toString();

    const std::string path =
        derivedCheckpointPath(base, specFingerprint(spec));
    std::string bytes = fileBytes(path);
    ASSERT_GT(bytes.size(), 12u);
    bytes[8] = 3; // u32 version after the 8-byte magic, little-endian
    writeBytes(path, bytes);

    RunSpec resume = spec;
    resume.checkpointEvery = 0;
    resume.resumePath = base;
    SweepRunner reader(SweepRunner::Config{1, 0});
    const RunResult result = reader.runOne(resume);
    ASSERT_TRUE(result.status.ok()) << result.status.toString();
    EXPECT_FALSE(result.resumed);
    EXPECT_TRUE(result.resumeFallback);
    EXPECT_EQ(reader.resumeFallbacks(), 1u);
    EXPECT_EQ(result.engine, first.engine);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Robust execution layer: shard filter, retry, watchdog, fallback
// accounting (the RunSpec robustness knobs).

TEST(SweepRobustness, ShardsPartitionTheGridDisjointly)
{
    const std::vector<RunSpec> grid = smallGrid(5000);
    constexpr std::uint32_t shards = 3;

    // Pure-function partition: every fingerprint is owned by exactly
    // one shard, computable without running anything.
    for (const RunSpec &spec : grid) {
        const std::uint64_t fp = specFingerprint(spec);
        unsigned owners = 0;
        for (std::uint32_t s = 0; s < shards; ++s)
            owners += shardOf(fp, shards) == s ? 1 : 0;
        EXPECT_EQ(owners, 1u);
    }

    // Through the runner: non-owned cells are skipped IN PLACE (grid
    // layout preserved, Ok status); owned cells match the unsharded
    // run bit for bit.
    SweepRunner plain_runner(SweepRunner::Config{2, 0});
    const std::vector<RunResult> plain = plain_runner.run(grid);
    std::size_t executed_total = 0;
    for (std::uint32_t s = 0; s < shards; ++s) {
        std::vector<RunSpec> sharded = grid;
        for (RunSpec &spec : sharded)
            spec.shard = ShardSpec{s, shards};
        SweepRunner runner(SweepRunner::Config{2, 0});
        const std::vector<RunResult> results = runner.run(sharded);
        ASSERT_EQ(results.size(), grid.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            EXPECT_TRUE(results[i].status.ok());
            const bool owned =
                shardOf(specFingerprint(grid[i]), shards) == s;
            EXPECT_EQ(results[i].skipped, !owned);
            if (owned) {
                ++executed_total;
                EXPECT_EQ(results[i].engine, plain[i].engine);
            } else {
                EXPECT_EQ(results[i].engine.insts, 0u);
            }
        }
    }
    EXPECT_EQ(executed_total, grid.size());
}

TEST(SweepRobustness, RetryableFailuresAreRetriedBoundedly)
{
    RunSpec spec;
    spec.workload = "bsort";
    spec.maxInsts = 3000;
    spec.maxAttempts = 3;
    // Transient environment failure: the first two attempts die with
    // IoError, the third succeeds.
    spec.faultHook = [](unsigned attempt) {
        return attempt < 3
            ? Status(StatusCode::IoError, "injected transient failure")
            : Status();
    };
    SweepRunner runner(SweepRunner::Config{1, 0});
    RunResult healed = runner.runOne(spec);
    EXPECT_TRUE(healed.status.ok()) << healed.status.toString();
    EXPECT_EQ(healed.attempts, 3u);

    // The attempt budget is a hard bound.
    spec.maxAttempts = 2;
    RunResult exhausted = runner.runOne(spec);
    EXPECT_EQ(exhausted.status.code(), StatusCode::IoError);
    EXPECT_EQ(exhausted.attempts, 2u);

    // Deterministic failures do not burn retries.
    spec.maxAttempts = 3;
    spec.faultHook = [](unsigned) {
        return Status(StatusCode::Corrupt, "poisoned cell");
    };
    RunResult poisoned = runner.runOne(spec);
    EXPECT_EQ(poisoned.status.code(), StatusCode::Corrupt);
    EXPECT_EQ(poisoned.attempts, 1u);
}

/** A loop that never exits: r1 counts up from 0 and is compared
 *  against r2 = -1 (every suite workload halts). */
Workload
neverHaltingWorkload(std::uint64_t)
{
    Workload wl;
    wl.name = "spin";
    wl.fn.name = "spin";
    IrBuilder b(wl.fn);
    const BlockId entry = b.newBlock();
    const BlockId loop = b.newBlock();
    const BlockId done = b.newBlock();
    b.setBlock(entry);
    b.append(makeMovImm(1, 0));
    b.append(makeMovImm(2, -1));
    b.jump(loop);
    b.setBlock(loop);
    b.append(makeAluImm(Opcode::Add, 1, 1, 1));
    b.condBr(CmpRel::Ne, 1, 2, loop, done);
    b.setBlock(done);
    b.halt();
    return wl;
}

/** The cell shapes the watchdog must reap. */
enum class Overrun
{
    TraceReference,
    Timed,
    TwoContexts,
};

void
PrintTo(Overrun shape, std::ostream *os)
{
    *os << (shape == Overrun::TraceReference ? "TraceReference"
            : shape == Overrun::Timed        ? "Timed"
                                             : "TwoContexts");
}

/** A cell that can only end by its deadline: a never-halting
 *  workload under an unbounded budget, on the reference loops (the
 *  fast path would first record the whole, endless trace). The
 *  watchdog must reap it. */
RunSpec
overrunningSpec(Overrun shape = Overrun::TraceReference)
{
    RunSpec spec;
    spec.workload = "spin";
    spec.factory = neverHaltingWorkload;
    spec.maxInsts = ~0ull;
    spec.fastReplay = false;
    spec.watchdogMillis = 25;
    if (shape == Overrun::Timed)
        spec.mode = RunMode::Timed;
    if (shape == Overrun::TwoContexts)
        spec.context.contexts = 2;
    return spec;
}

class SweepWatchdog : public ::testing::TestWithParam<Overrun>
{};

TEST_P(SweepWatchdog, ReapsAnOverrunningCell)
{
    SweepRunner runner(SweepRunner::Config{1, 0});
    RunResult result = runner.runOne(overrunningSpec(GetParam()));
    EXPECT_EQ(result.status.code(), StatusCode::DeadlineExceeded);
    // The message is deliberately wall-clock-free: it lands in
    // quarantine journal records whose bytes must converge.
    EXPECT_EQ(result.status.message(),
              "cell 'spin' overran its 25 ms watchdog deadline");
}

INSTANTIATE_TEST_SUITE_P(
    CellModes, SweepWatchdog,
    ::testing::Values(Overrun::TraceReference, Overrun::Timed,
                      Overrun::TwoContexts),
    [](const ::testing::TestParamInfo<Overrun> &info) {
        std::ostringstream os;
        PrintTo(info.param, &os);
        return os.str();
    });

TEST(SweepRobustness, ResumeFallbackIsFlaggedAndCounted)
{
    RunSpec spec;
    spec.workload = "bsort";
    spec.maxInsts = 3000;
    spec.resumePath = tempPath("never-written.ckpt");
    SweepRunner runner(SweepRunner::Config{1, 0});
    EXPECT_EQ(runner.resumeFallbacks(), 0u);
    RunResult result = runner.runOne(spec);
    ASSERT_TRUE(result.status.ok()) << result.status.toString();
    EXPECT_FALSE(result.resumed);
    EXPECT_TRUE(result.resumeFallback);
    EXPECT_EQ(runner.resumeFallbacks(), 1u);
}

TEST(SweepRobustness, CapturedMetricsMatchExportedFile)
{
    const std::string dir = tempPath("metricsdir");
    RunSpec spec;
    spec.workload = "bsort";
    spec.maxInsts = 3000;
    spec.metricsDir = dir;
    spec.captureMetrics = true;
    SweepRunner runner(SweepRunner::Config{1, 0});
    RunResult result = runner.runOne(spec);
    ASSERT_TRUE(result.status.ok()) << result.status.toString();
    ASSERT_FALSE(result.metricsJson.empty());

    std::ifstream in(metricsFilePath(dir, specFingerprint(spec)),
                     std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream file_bytes;
    file_bytes << in.rdbuf();
    EXPECT_EQ(result.metricsJson, file_bytes.str());
}

bool
samePipe(const PipelineStats &a, const PipelineStats &b)
{
    return a.insts == b.insts && a.cycles == b.cycles &&
        a.icacheMisses == b.icacheMisses &&
        a.dcacheMisses == b.dcacheMisses && a.l2Misses == b.l2Misses &&
        a.btbMisses == b.btbMisses && a.rasHits == b.rasHits &&
        a.rasMisses == b.rasMisses &&
        a.mispredictStallCycles == b.mispredictStallCycles;
}

TEST(SweepRobustness, ArmedWatchdogSlicesWithoutMovingAByte)
{
    // An armed watchdog advances every consumer in heartbeat slices;
    // with a deadline that never fires, the cells must measure
    // exactly as the unsliced ones do. The budget spans three
    // heartbeats, and the 2-context cells' five, so their heartbeats
    // cut schedule slices.
    const std::string ckpt = tempPath("sliced.ckpt");
    std::vector<RunSpec> specs;
    const auto add = [&]() -> RunSpec & {
        RunSpec spec;
        spec.workload = "interp";
        spec.maxInsts = 2 * heartbeatInsts + 5000;
        spec.engine.useSfpf = true;
        spec.engine.usePgu = true;
        spec.captureMetrics = true;
        specs.push_back(spec);
        return specs.back();
    };
    add();                          // fast replay
    add().fastReplay = false;       // reference loop
    add().mode = RunMode::Timed;    // pipeline
    RunSpec &checkpointing = add(); // live windows + checkpoints
    checkpointing.checkpointEvery = 50000;
    checkpointing.checkpointPath = ckpt;
    for (bool fast : {true, false}) { // multi-context replayer
        RunSpec &multi = add();
        multi.fastReplay = fast;
        multi.context.contexts = 2;
        multi.context.schedule = ScheduleKind::Bursty;
        multi.context.quantum = 1000;
        multi.context.shared = false;
    }

    SweepRunner runner(SweepRunner::Config{1, 0});
    const std::vector<RunResult> plain = runner.run(specs);
    for (RunSpec &spec : specs)
        spec.watchdogMillis = 10 * 60 * 1000;
    const std::vector<RunResult> armed = runner.run(specs);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(plain[i].status.ok()) << plain[i].status.toString();
        ASSERT_TRUE(armed[i].status.ok()) << armed[i].status.toString();
        EXPECT_EQ(armed[i].metricsJson, plain[i].metricsJson) << i;
        EXPECT_EQ(armed[i].engine, plain[i].engine) << i;
        EXPECT_EQ(armed[i].profile, plain[i].profile) << i;
        EXPECT_TRUE(samePipe(armed[i].pipe, plain[i].pipe)) << i;
        EXPECT_EQ(armed[i].engine.insts,
                  specs[i].maxInsts *
                      std::max(1u, specs[i].context.contexts))
            << i;
        ASSERT_EQ(armed[i].contexts.size(), plain[i].contexts.size());
        for (std::size_t c = 0; c < plain[i].contexts.size(); ++c) {
            EXPECT_EQ(armed[i].contexts[c].engine,
                      plain[i].contexts[c].engine) << i << "/" << c;
            EXPECT_EQ(armed[i].contexts[c].profile,
                      plain[i].contexts[c].profile) << i << "/" << c;
            EXPECT_EQ(armed[i].contexts[c].pguBits,
                      plain[i].contexts[c].pguBits) << i << "/" << c;
        }
    }
    EXPECT_EQ(plain[4].contexts.size(), 2u);
    EXPECT_GT(plain[2].pipe.cycles, 0u);
    std::remove(
        derivedCheckpointPath(ckpt, specFingerprint(specs[3])).c_str());
}

/** 64-bit FNV-1a of a document: a golden that fits on one line. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

TEST(MetricsGolden, TimedCellDocumentHashAtJobs1And4)
{
    // A Timed cell's whole metrics document - engine, profile and
    // pipeline.* keys - pinned by hash, beside a Trace cell of the
    // same workload and a Timed cell of another so that --jobs 4
    // runs them concurrently. The constant was taken before Timed
    // cells ran through the shared cell loop.
    RunSpec timed;
    timed.workload = "bsort";
    timed.mode = RunMode::Timed;
    timed.maxInsts = 20000;
    timed.engine.useSfpf = true;
    timed.engine.usePgu = true;
    timed.captureMetrics = true;
    RunSpec trace = timed;
    trace.mode = RunMode::Trace;
    RunSpec other = timed;
    other.workload = "interp";
    const std::vector<RunSpec> specs{trace, timed, other, timed};

    for (unsigned jobs : {1u, 4u}) {
        SweepRunner runner(SweepRunner::Config{jobs, 0});
        const std::vector<RunResult> results = runner.run(specs);
        for (std::size_t i : {1u, 3u}) {
            ASSERT_TRUE(results[i].status.ok())
                << results[i].status.toString();
            EXPECT_EQ(results[i].metricsJson.size(), 2533u) << jobs;
            EXPECT_EQ(fnv1a(results[i].metricsJson),
                      0x1b7271974fee82aaull)
                << "jobs " << jobs << " cell " << i;
        }
    }
}

TEST(SweepRunner, EveryCellModeIsIdenticalAcrossJobCounts)
{
    // One grid with every cell mode. The trace cells of bsort and
    // interp alternate, so their repeats are not adjacent and
    // record-ahead reorders dispatch; the 2-context cell shares trace
    // (bsort, 42) with the single-context cells and adds (bsort, 43).
    // Distinct trace keys: (bsort, 42), (interp, 42), (bsort, 43).
    const std::string ckpt = tempPath("mixed.ckpt");
    std::vector<RunSpec> specs;
    const auto add = [&](const char *workload) -> RunSpec & {
        RunSpec spec;
        spec.workload = workload;
        spec.maxInsts = 12000;
        spec.captureMetrics = true;
        specs.push_back(spec);
        return specs.back();
    };
    for (int config = 0; config < 2; ++config) {
        for (const char *workload : {"bsort", "interp"})
            add(workload).engine.useSfpf = config == 1;
    }
    add("bsort").mode = RunMode::Timed;
    add("interp").characterize = true;
    RunSpec &multi = add("bsort");
    multi.context.contexts = 2;
    multi.context.quantum = 500;
    add("interp").engine.usePgu = true;
    RunSpec &timed = add("interp");
    timed.mode = RunMode::Timed;
    timed.engine.useSfpf = true;
    RunSpec &checkpointing = add("bsort");
    checkpointing.checkpointEvery = 5000;
    checkpointing.checkpointPath = ckpt;
    const std::uint64_t checkpointing_fp = specFingerprint(checkpointing);
    const std::uint64_t distinct_traces = 3;

    std::vector<RunResult> serial;
    for (unsigned jobs : {1u, 4u, 8u}) {
        SweepRunner runner(SweepRunner::Config{jobs, 0});
        const std::vector<RunResult> results = runner.run(specs);
        ASSERT_EQ(results.size(), specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i) {
            ASSERT_TRUE(results[i].status.ok())
                << "jobs " << jobs << " cell " << i << ": "
                << results[i].status.toString();
            ASSERT_FALSE(results[i].metricsJson.empty());
        }
        // No trace is recorded twice, and each is freed exactly once
        // when its last cell finishes.
        const SweepRunner::CacheStats stats = runner.cacheStats();
        EXPECT_EQ(stats.records, distinct_traces) << "jobs " << jobs;
        EXPECT_EQ(stats.traceReleases, stats.records) << "jobs " << jobs;

        if (jobs == 1) {
            serial = results;
            continue;
        }
        for (std::size_t i = 0; i < specs.size(); ++i) {
            EXPECT_EQ(results[i].metricsJson, serial[i].metricsJson)
                << "jobs " << jobs << " cell " << i;
            EXPECT_EQ(results[i].engine, serial[i].engine)
                << "jobs " << jobs << " cell " << i;
            EXPECT_TRUE(samePipe(results[i].pipe, serial[i].pipe))
                << "jobs " << jobs << " cell " << i;
            ASSERT_EQ(results[i].contexts.size(),
                      serial[i].contexts.size());
            for (std::size_t c = 0; c < results[i].contexts.size(); ++c)
                EXPECT_EQ(results[i].contexts[c].engine,
                          serial[i].contexts[c].engine);
        }
    }

    // Sanity: the modes really ran as intended.
    EXPECT_GT(serial[4].pipe.cycles, 0u);
    EXPECT_NE(serial[5].predictability, nullptr);
    EXPECT_EQ(serial[6].contexts.size(), 2u);
    std::remove(derivedCheckpointPath(ckpt, checkpointing_fp).c_str());
}

TEST(SweepRunner, ScheduleCountsAreIdenticalAcrossJobsAndWatchdog)
{
    // Armed single- and 2-context cells. Every engine that replays a
    // trace from event 0 counts once, at its first batch: the first
    // for a (trace, predicate config) inserts its schedule and every
    // other hits it, however many jobs race and however the watchdog
    // slices the cells (the budget spans two heartbeats).
    // (trace, config) pairs: bsort:42 and interp:42 under +sfpf and
    // +both (single-context); bsort:42 and bsort:43 under +both and
    // +pgu (2-context) - 7 distinct, bsort:42/+both counted once.
    std::vector<RunSpec> specs;
    for (const char *pred : {"gshare", "perceptron"}) {
        for (const char *workload : {"bsort", "interp"}) {
            for (bool both : {false, true}) {
                RunSpec spec;
                spec.workload = workload;
                spec.predictor = pred;
                spec.maxInsts = heartbeatInsts + 5000;
                spec.engine.useSfpf = true;
                spec.engine.usePgu = both;
                specs.push_back(spec);
            }
        }
        for (bool sfpf : {true, false}) {
            RunSpec spec;
            spec.workload = "bsort";
            spec.predictor = pred;
            spec.maxInsts = heartbeatInsts + 5000;
            spec.engine.useSfpf = sfpf;
            spec.engine.usePgu = true;
            spec.context.contexts = 2;
            spec.context.quantum = 5000;
            specs.push_back(spec);
        }
    }
    const std::uint64_t engines = 2 * (2 * 2 + 2 * 2);
    const std::uint64_t distinct = 7;

    for (bool watchdog : {false, true}) {
        for (RunSpec &spec : specs)
            spec.watchdogMillis = watchdog ? 10 * 60 * 1000 : 0;
        for (unsigned jobs : {1u, 4u, 8u}) {
            SCOPED_TRACE("jobs " + std::to_string(jobs) +
                         (watchdog ? ", watchdog armed" : ""));
            SweepRunner runner(SweepRunner::Config{jobs, 0});
            for (const RunResult &r : runner.run(specs))
                ASSERT_TRUE(r.status.ok()) << r.status.toString();
            const SweepRunner::CacheStats stats = runner.cacheStats();
            EXPECT_EQ(stats.scheduleInserts, distinct);
            EXPECT_EQ(stats.scheduleHits, engines - distinct);
        }
    }
}

TEST(SweepRunner, RecordsTheNextTraceAheadOfRepeats)
{
    // Two traces with three cells each, workload-major: A0 A1 A2 B0
    // B1 B2. At --jobs 2 record-ahead submits B0 second, so it runs
    // beside A0. The hooks make that observable: A0 and A1 both wait
    // for B0 to start. In plain grid order A0 and A1 would hold both
    // workers, B0 could not start, and both would time out.
    struct Gate
    {
        std::mutex mtx;
        std::condition_variable cv;
        bool open = false;
    };
    const auto gate = std::make_shared<Gate>();
    const auto waitForB0 = [gate](unsigned) {
        std::unique_lock<std::mutex> lock(gate->mtx);
        return gate->cv.wait_for(lock, std::chrono::seconds(5),
                                 [&] { return gate->open; })
            ? Status()
            : Status(StatusCode::DeadlineExceeded,
                     "B0 did not run beside A0");
    };
    const auto openGate = [gate](unsigned) {
        {
            std::lock_guard<std::mutex> lock(gate->mtx);
            gate->open = true;
        }
        gate->cv.notify_all();
        return Status();
    };

    std::vector<RunSpec> specs;
    for (const char *workload : {"bsort", "interp"}) {
        for (int config = 0; config < 3; ++config) {
            RunSpec spec;
            spec.workload = workload;
            spec.engine.useSfpf = config >= 1;
            spec.engine.usePgu = config >= 2;
            spec.maxInsts = 3000;
            specs.push_back(spec);
        }
    }
    specs[0].faultHook = waitForB0;
    specs[1].faultHook = waitForB0;
    specs[3].faultHook = openGate;
    SweepRunner runner(SweepRunner::Config{2, 0});
    for (const RunResult &result : runner.run(specs))
        EXPECT_TRUE(result.status.ok()) << result.status.toString();
}

TEST(SweepRunner, TraceCacheHoldsABoundedWindow)
{
    // 24 traces (3 workloads x 8 measurement seeds, one compile
    // each), three engine configurations per trace, workload-major.
    constexpr std::uint64_t traces = 24;
    std::vector<RunSpec> specs;
    for (const char *workload : {"bsort", "interp", "dchain"}) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            for (int config = 0; config < 3; ++config) {
                RunSpec spec;
                spec.workload = workload;
                spec.seed = seed;
                spec.compileSeed = 42;
                spec.engine.useSfpf = config >= 1;
                spec.engine.usePgu = config >= 2;
                spec.maxInsts = 3000;
                specs.push_back(spec);
            }
        }
    }

    // Serially, in grid order, a trace is freed before the next one
    // is recorded.
    SweepRunner serial(SweepRunner::Config{1, 0});
    for (const RunResult &result : serial.run(specs))
        ASSERT_TRUE(result.status.ok()) << result.status.toString();
    EXPECT_EQ(serial.cacheStats().records, traces);
    EXPECT_EQ(serial.cacheStats().traceReleases, traces);
    EXPECT_EQ(serial.cacheStats().peakLiveTraces, 1u);

    // With J workers the bound is 2J + 1, from the dispatch order
    // alone. A trace is cached from the start of its first cell until
    // its last cell finishes. Workers start cells in submission order,
    // so the started cells are always a prefix of the dispatch order.
    // A cached trace therefore either has a cell running (at most J
    // traces) or has started cells before the end of that prefix and
    // unstarted cells after it. Record-ahead submits the leader of
    // trace t + J just before the repeats of trace t, so at most
    // J + 1 traces straddle the prefix end. The queue depth does not
    // enter: a queued cell holds no trace.
    constexpr unsigned jobs = 4;
    SweepRunner parallel(SweepRunner::Config{jobs, 0});
    for (const RunResult &result : parallel.run(specs))
        ASSERT_TRUE(result.status.ok()) << result.status.toString();
    EXPECT_EQ(parallel.cacheStats().records, traces);
    EXPECT_EQ(parallel.cacheStats().traceReleases, traces);
    EXPECT_LE(parallel.cacheStats().peakLiveTraces, 2u * jobs + 1);
}

TEST(SweepRunner, RunOneKeepsItsTracesCached)
{
    RunSpec spec;
    spec.workload = "bsort";
    spec.maxInsts = 3000;
    SweepRunner runner(SweepRunner::Config{1, 0});
    ASSERT_TRUE(runner.runOne(spec).status.ok());
    ASSERT_TRUE(runner.runOne(spec).status.ok());
    EXPECT_EQ(runner.cacheStats().records, 1u);
    EXPECT_EQ(runner.cacheStats().traceHits, 1u);
    EXPECT_EQ(runner.cacheStats().traceReleases, 0u);
}

// ---------------------------------------------------------------------
// SweepService: the crash-safe campaign coordinator
// (bench/sweep_service.hh).

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

ServiceConfig
serviceConfig(const std::string &journal)
{
    ServiceConfig config;
    config.journalPath = journal;
    config.batchCells = 2; // small batches: more commit boundaries
    return config;
}

TEST(SweepService, DrainsAGridIntoTheJournal)
{
    const std::string journal = tempPath("drain.pabpj");
    const std::vector<RunSpec> grid = smallGrid(4000);
    SweepRunner runner(SweepRunner::Config{2, 0});
    SweepService service(runner, serviceConfig(journal));
    Expected<ServiceReport> report = service.runShard(grid);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_TRUE(report.value().drained);
    EXPECT_EQ(report.value().ownedCells, grid.size());
    EXPECT_EQ(report.value().executed, grid.size());
    EXPECT_EQ(report.value().quarantined, 0u);

    Expected<std::vector<JournalRecord>> records =
        readJournalFile(journal);
    ASSERT_TRUE(records.ok()) << records.status().toString();
    ASSERT_EQ(records.value().size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(records.value()[i].fingerprint,
                  specFingerprint(grid[i]));
        EXPECT_EQ(records.value()[i].kind, JournalRecord::Kind::Result);
        EXPECT_FALSE(records.value()[i].blob.empty());
    }
    std::remove(journal.c_str());
}

TEST(SweepService, KillAndResumeConvergeToIdenticalJournalBytes)
{
    const std::vector<RunSpec> grid = smallGrid(4000);

    // Reference: one uninterrupted single-threaded campaign.
    const std::string clean = tempPath("clean.pabpj");
    {
        SweepRunner runner(SweepRunner::Config{1, 0});
        SweepService service(runner, serviceConfig(clean));
        Expected<ServiceReport> report = service.runShard(grid);
        ASSERT_TRUE(report.ok()) << report.status().toString();
        ASSERT_TRUE(report.value().drained);
    }

    // The same campaign killed twice mid-flight (the stopAfter hook
    // models SIGKILL between record commits), then re-invoked to
    // completion - at a different worker count for good measure.
    const std::string bumpy = tempPath("bumpy.pabpj");
    const std::uint64_t stops[] = {2, 3, 0};
    for (std::uint64_t stop : stops) {
        SweepRunner runner(SweepRunner::Config{stop ? 1u : 8u, 0});
        ServiceConfig config = serviceConfig(bumpy);
        config.stopAfter = stop;
        SweepService service(runner, config);
        Expected<ServiceReport> report = service.runShard(grid);
        ASSERT_TRUE(report.ok()) << report.status().toString();
        EXPECT_EQ(report.value().stopped, stop != 0);
        EXPECT_EQ(report.value().drained, stop == 0);
    }

    EXPECT_EQ(readBytes(bumpy), readBytes(clean));
    std::remove(clean.c_str());
    std::remove(bumpy.c_str());
}

TEST(SweepService, QuarantinesPoisonCellsAndStillDrains)
{
    std::vector<RunSpec> grid = smallGrid(4000);
    grid[4].faultHook = [](unsigned) {
        return Status(StatusCode::Corrupt, "poisoned cell");
    };

    const std::string journal = tempPath("poison.pabpj");
    SweepRunner runner(SweepRunner::Config{2, 0});
    SweepService service(runner, serviceConfig(journal));
    Expected<ServiceReport> report = service.runShard(grid);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_TRUE(report.value().drained);
    EXPECT_EQ(report.value().quarantined, 1u);
    const std::string first_bytes = readBytes(journal);

    Expected<std::vector<JournalRecord>> records =
        readJournalFile(journal);
    ASSERT_TRUE(records.ok());
    ASSERT_EQ(records.value().size(), grid.size());
    EXPECT_EQ(records.value()[4].kind, JournalRecord::Kind::Quarantine);
    EXPECT_EQ(records.value()[4].statusCode,
              static_cast<std::uint8_t>(StatusCode::Corrupt));
    EXPECT_NE(records.value()[4].blob.find("poisoned cell"),
              std::string::npos);

    // Re-invoking re-runs ONLY the quarantined cell; the
    // deterministic failure re-quarantines, and the drain compaction
    // converges back to the same bytes.
    Expected<ServiceReport> again = service.runShard(grid);
    ASSERT_TRUE(again.ok()) << again.status().toString();
    EXPECT_EQ(again.value().alreadyDone, grid.size() - 1);
    EXPECT_EQ(again.value().executed, 1u);
    EXPECT_EQ(again.value().quarantined, 1u);
    EXPECT_EQ(readBytes(journal), first_bytes);
    std::remove(journal.c_str());
}

TEST(SweepService, WatchdogQuarantineDoesNotStallTheShard)
{
    std::vector<RunSpec> grid = smallGrid(4000);
    grid.push_back(overrunningSpec());

    const std::string journal = tempPath("hung.pabpj");
    SweepRunner runner(SweepRunner::Config{2, 0});
    SweepService service(runner, serviceConfig(journal));
    Expected<ServiceReport> report = service.runShard(grid);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_TRUE(report.value().drained);
    EXPECT_EQ(report.value().quarantined, 1u);

    Expected<std::vector<JournalRecord>> records =
        readJournalFile(journal);
    ASSERT_TRUE(records.ok());
    ASSERT_EQ(records.value().size(), grid.size());
    EXPECT_EQ(records.value().back().kind,
              JournalRecord::Kind::Quarantine);
    EXPECT_EQ(records.value().back().statusCode,
              static_cast<std::uint8_t>(StatusCode::DeadlineExceeded));
    for (std::size_t i = 0; i + 1 < records.value().size(); ++i)
        EXPECT_EQ(records.value()[i].kind, JournalRecord::Kind::Result);
    std::remove(journal.c_str());
}

TEST(SweepService, ShardJournalsTogetherCoverTheGridExactlyOnce)
{
    const std::vector<RunSpec> grid = smallGrid(4000);
    constexpr std::uint32_t shards = 2;
    std::map<std::uint64_t, unsigned> coverage;
    std::uint64_t owned_total = 0;
    for (std::uint32_t s = 0; s < shards; ++s) {
        const std::string journal =
            deriveShardJournalPath(tempPath("cover.pabpj"),
                                   ShardSpec{s, shards});
        ServiceConfig config = serviceConfig(journal);
        config.shard = ShardSpec{s, shards};
        SweepRunner runner(SweepRunner::Config{2, 0});
        SweepService service(runner, config);
        Expected<ServiceReport> report = service.runShard(grid);
        ASSERT_TRUE(report.ok()) << report.status().toString();
        EXPECT_TRUE(report.value().drained);
        owned_total += report.value().ownedCells;

        JournalHeader header;
        Expected<std::vector<JournalRecord>> records =
            readJournalFile(journal, {}, &header);
        ASSERT_TRUE(records.ok());
        EXPECT_EQ(header.shardIndex, s);
        EXPECT_EQ(header.shardCount, shards);
        for (const JournalRecord &rec : records.value())
            ++coverage[rec.fingerprint];
        std::remove(journal.c_str());
    }
    EXPECT_EQ(owned_total, grid.size());
    EXPECT_EQ(coverage.size(), grid.size());
    for (const RunSpec &spec : grid) {
        auto it = coverage.find(specFingerprint(spec));
        ASSERT_NE(it, coverage.end());
        EXPECT_EQ(it->second, 1u);
    }
}

TEST(SweepService, BatchesStraddlingATraceRecordItOnce)
{
    // Four traces with five cells each, workload-major: with three
    // cells per batch every trace straddles at least two batches.
    std::vector<RunSpec> grid;
    for (const char *workload : {"bsort", "interp"}) {
        for (std::uint64_t seed : {1u, 2u}) {
            for (const char *predictor :
                 {"gshare", "bimodal", "gag", "agree", "yags"}) {
                RunSpec spec;
                spec.workload = workload;
                spec.seed = seed;
                spec.compileSeed = 42;
                spec.predictor = predictor;
                spec.maxInsts = 4000;
                grid.push_back(spec);
            }
        }
    }
    const std::uint64_t distinct_traces = 4;

    const std::string batched = tempPath("batched.pabpj");
    const std::string whole = tempPath("whole.pabpj");
    for (std::size_t batch_cells : {std::size_t{3}, std::size_t{0}}) {
        SweepRunner runner(SweepRunner::Config{2, 0});
        ServiceConfig config =
            serviceConfig(batch_cells ? batched : whole);
        config.batchCells = batch_cells;
        SweepService service(runner, config);
        Expected<ServiceReport> report = service.runShard(grid);
        ASSERT_TRUE(report.ok()) << report.status().toString();
        ASSERT_TRUE(report.value().drained);
        EXPECT_EQ(report.value().quarantined, 0u);
        EXPECT_EQ(runner.cacheStats().records, distinct_traces)
            << "batchCells " << batch_cells;
        EXPECT_EQ(runner.cacheStats().traceReleases, distinct_traces)
            << "batchCells " << batch_cells;
    }
    EXPECT_EQ(readBytes(batched), readBytes(whole));
    std::remove(batched.c_str());
    std::remove(whole.c_str());
}

TEST(SweepService, DeriveShardJournalPathNamesShards)
{
    EXPECT_EQ(deriveShardJournalPath("results/e6.pabpj", {0, 1}),
              "results/e6.pabpj");
    EXPECT_EQ(deriveShardJournalPath("results/e6.pabpj", {2, 4}),
              "results/e6-shard2of4.pabpj");
    EXPECT_EQ(deriveShardJournalPath("plain", {1, 2}),
              "plain-shard1of2");
    EXPECT_EQ(deriveShardJournalPath("dir.d/plain", {1, 2}),
              "dir.d/plain-shard1of2");
}

TEST(SweepShard, ParseShardSpecTakesDigitsOnlyIOfN)
{
    struct Case
    {
        const char *text;
        std::optional<ShardSpec> want;
    };
    for (const Case &c : {
             Case{"0/1", ShardSpec{0, 1}},
             Case{"2/4", ShardSpec{2, 4}},
             Case{"03/08", ShardSpec{3, 8}},
             Case{"4294967294/4294967295",
                  ShardSpec{4294967294u, 4294967295u}},
             Case{"1/-2", std::nullopt},
             Case{"0/-1", std::nullopt},
             Case{"-0/2", std::nullopt},
             Case{"+0/2", std::nullopt},
             Case{"0/+2", std::nullopt},
             Case{" 0/2", std::nullopt},
             Case{"0/2 ", std::nullopt},
             Case{"0 /2", std::nullopt},
             Case{"0x0/2", std::nullopt},
             Case{"0/2x", std::nullopt},
             Case{"0/0", std::nullopt},
             Case{"2/2", std::nullopt},
             Case{"5/2", std::nullopt},
             Case{"0/4294967296", std::nullopt},
             Case{"0/99999999999999999999999", std::nullopt},
             Case{"0/1/2", std::nullopt},
             Case{"/2", std::nullopt},
             Case{"0/", std::nullopt},
             Case{"0", std::nullopt},
             Case{"", std::nullopt},
         }) {
        EXPECT_EQ(parseShardSpec(c.text), c.want) << "'" << c.text << "'";
    }
}

struct SweepdRun
{
    int exitCode = -1;
    std::string err;
};

/** Run @p bin with @p args; its exit code and stderr. */
SweepdRun
runTool(const char *bin, const std::string &args)
{
    const std::string err = tempPath("tool.err");
    const std::string cmd = std::string(bin) + " " + args +
        " > /dev/null 2> " + err;
    const int rc = std::system(cmd.c_str());
    EXPECT_NE(rc, -1);
    std::ifstream in(err);
    std::ostringstream text;
    text << in.rdbuf();
    std::remove(err.c_str());
    return {WIFEXITED(rc) ? WEXITSTATUS(rc) : -1, text.str()};
}

SweepdRun
runSweepd(const std::string &args)
{
    return runTool(PABP_SWEEPD_BIN, args);
}

TEST(SweepdOptions, BadSeedsAndSizesAreSetupErrors)
{
    const std::string journal = tempPath("bad.pabpj");
    const std::string cell = "--workloads interp --predictors gshare "
                             "--configs base --steps 4000 --journal " +
        journal;
    struct Case
    {
        const char *flag;
        const char *value;
    };
    // An empty list, an unknown predictor kind or a size the factory
    // refuses once ran as an empty "drained" grid or as a campaign of
    // quarantined cells.
    for (const Case &c : {Case{"seeds", "abc"},
                          Case{"seeds", "99999999999999999999999"},
                          Case{"sizes", "12x"}, Case{"seeds", ","},
                          Case{"sizes", ""}, Case{"workloads", ","},
                          Case{"predictors", "gsahre"},
                          Case{"sizes", "40"}}) {
        const SweepdRun run = runSweepd(
            cell + " --" + c.flag + " '" + c.value + "'");
        EXPECT_EQ(run.exitCode, 2) << c.flag << " " << c.value;
        EXPECT_NE(run.err.find(std::string("pabp-sweepd: bad --") +
                               c.flag + " '" + c.value + "'"),
                  std::string::npos)
            << run.err;
    }
    // Rejected before the journal is touched.
    EXPECT_FALSE(fileExists(journal));

    const SweepdRun good = runSweepd(cell + " --seeds 1,2");
    EXPECT_EQ(good.exitCode, 0) << good.err;
    Expected<std::vector<JournalRecord>> records =
        readJournalFile(journal);
    ASSERT_TRUE(records.ok()) << records.status().toString();
    EXPECT_EQ(records.value().size(), 2u); // one cell per seed
    std::remove(journal.c_str());
}

TEST(SweepdOptions, BadShardAndIntegersAreSetupErrors)
{
    // A signed shard count once parsed as a huge unsigned one: sweepd
    // wrote '<base>-shard0of4294967295.pabpj', ran nothing and said
    // "drained". A non-numeric --steps ran 0-instruction cells.
    const std::string journal = tempPath("badnum.pabpj");
    const std::string wrapped =
        deriveShardJournalPath(journal, {0, 4294967295u});
    std::remove(journal.c_str());
    std::remove(wrapped.c_str());
    const std::string cell = "--workloads interp --predictors gshare "
                             "--configs base --steps 4000 --journal " +
        journal;
    struct Case
    {
        const char *flag;
        const char *value;
    };
    for (const Case &c :
         {Case{"shard", "0/-1"}, Case{"shard", "1/-2"},
          Case{"shard", "+0/2"}, Case{"shard", "0/4294967296"},
          Case{"steps", "abc"}, Case{"steps", "-1"},
          Case{"steps", "12x"}, Case{"jobs", "-1"},
          Case{"jobs", "4294967296"}, Case{"batch-cells", "-5"},
          Case{"max-attempts", "1.5"}}) {
        const SweepdRun run = runSweepd(
            cell + " --" + c.flag + " '" + c.value + "'");
        EXPECT_EQ(run.exitCode, 2) << c.flag << " " << c.value;
        EXPECT_NE(run.err.find(std::string("pabp-sweepd: bad --") +
                               c.flag + " '" + c.value + "'"),
                  std::string::npos)
            << run.err;
    }
    // Rejected before any journal is created.
    EXPECT_FALSE(fileExists(journal));
    EXPECT_FALSE(fileExists(wrapped));
}

TEST(ExperimentsOptions, UnknownOnlyNameFailsBeforeAnyCellRuns)
{
    // e3 is valid and cheap; the unknown name must still stop the
    // whole run before its grid is built or a metrics file written.
    const std::string metrics = tempPath("metrics");
    for (const char *only : {"e3,e99", "e11", "E3"}) {
        const SweepdRun run = runTool(
            PABP_EXPERIMENTS_BIN, std::string("--only ") + only +
                " --steps 2000 --summary-dir= --metrics-dir " + metrics);
        EXPECT_EQ(run.exitCode, 1) << only;
        EXPECT_NE(run.err.find(std::string("fatal: bad --only '") +
                               only + "'"),
                  std::string::npos)
            << run.err;
        EXPECT_EQ(run.err.find("pabp-experiments:"), std::string::npos)
            << run.err;
        EXPECT_FALSE(std::filesystem::exists(metrics)) << only;
    }
}

} // namespace
} // namespace pabp::bench
