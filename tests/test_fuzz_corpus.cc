/**
 * @file
 * Tier-1 corpus replay (docs/FUZZING.md): every minimised case under
 * tests/corpus/ runs all of its differential oracles in-process and
 * must pass, the corpus must keep its promised coverage (every
 * predictor kind, every engine-flag combination, the emulator edge
 * cases), the harness self-check must still catch the re-introduced
 * PR-4 cursor-clamp bug, and the pabp-fuzz binary must honour the
 * pabp-stats exit conventions (0 pass / 1 divergence / 2 usage).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/fuzz_case.hh"
#include "fuzz/fuzz_runner.hh"
#include "fuzz/oracles.hh"
#include "fuzz/shrink.hh"
#include "util/fnv.hh"

#ifndef PABP_CORPUS_DIR
#error "PABP_CORPUS_DIR must point at tests/corpus"
#endif
#ifndef PABP_FUZZ_BIN
#error "PABP_FUZZ_BIN must point at the pabp-fuzz executable"
#endif

namespace pabp::fuzz {
namespace {

namespace fs = std::filesystem;

std::vector<std::string>
corpusPaths()
{
    std::vector<std::string> paths;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(PABP_CORPUS_DIR)) {
        if (entry.path().extension() == ".pabp")
            paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    return paths;
}

RunEnv
testEnv()
{
    RunEnv env;
    env.scratchDir = ::testing::TempDir();
    return env;
}

// ---------------------------------------------------------------------
// The corpus itself: every case parses, replays green, and the set
// covers what ISSUE/docs promise.

TEST(FuzzCorpus, EveryCaseReplaysClean)
{
    std::vector<std::string> paths = corpusPaths();
    ASSERT_GE(paths.size(), 25u)
        << "corpus shrank below the documented floor";

    RunEnv env = testEnv();
    for (const std::string &path : paths) {
        Expected<FuzzCase> parsed = readCaseFile(path);
        ASSERT_TRUE(parsed.ok())
            << path << ": " << parsed.status().toString();
        Expected<CaseOutcome> outcome = runCase(parsed.value(), env);
        ASSERT_TRUE(outcome.ok())
            << path << ": " << outcome.status().toString();
        EXPECT_NE(outcome.value().oraclesRun, 0u) << path;
        for (const FuzzReport &fail : outcome.value().failures) {
            ADD_FAILURE() << path << ": oracle "
                          << oracleName(fail.oracle) << ": "
                          << fail.status.toString();
        }
    }
}

TEST(FuzzCorpus, EveryCaseReformatsAsPinned)
{
    // Parsing then re-formatting the corpus, pinned by hash: each
    // key's reader and writer, in the corpus files' own values.
    Fnv1a fnv;
    std::size_t cases = 0;
    for (const std::string &path : corpusPaths()) {
        Expected<FuzzCase> c = readCaseFile(path);
        ASSERT_TRUE(c.ok()) << c.status().toString();
        fnv.str(formatCase(c.value()));
        ++cases;
    }
    EXPECT_EQ(cases, 37u);
    EXPECT_EQ(fnv.value(), 0x635e6c482cade700ull);
}

TEST(FuzzCorpus, CoversEveryPredictorKind)
{
    const char *const kinds[] = {"static-taken", "static-nottaken",
                                 "bimodal",      "gshare",
                                 "gag",          "local",
                                 "agree",        "yags",
                                 "perceptron",   "comb",
                                 "tage"};
    std::set<std::string> seen;
    for (const std::string &path : corpusPaths()) {
        Expected<FuzzCase> parsed = readCaseFile(path);
        ASSERT_TRUE(parsed.ok()) << path;
        seen.insert(parsed.value().predictor);
    }
    for (const char *kind : kinds)
        EXPECT_TRUE(seen.count(kind)) << "no corpus case for " << kind;
}

TEST(FuzzCorpus, CoversEveryEngineFlagCombination)
{
    const char *const specs[] = {"base",
                                 "sfpf",
                                 "pgu",
                                 "sfpf+pgu",
                                 "spec",
                                 "jrs",
                                 "sfpf+pgu+spec",
                                 "sfpf+pgu+jrs",
                                 "sfpf+train",
                                 "sfpf+consdef"};
    std::set<std::string> seen;
    for (const std::string &path : corpusPaths()) {
        Expected<FuzzCase> parsed = readCaseFile(path);
        ASSERT_TRUE(parsed.ok()) << path;
        seen.insert(engineSpecString(parsed.value().engine));
    }
    for (const char *spec : specs)
        EXPECT_TRUE(seen.count(spec)) << "no corpus case for " << spec;
}

TEST(FuzzCorpus, CoversEmulatorEdgeCases)
{
    bool divEdges = false, emptyRas = false, calls = false;
    bool deepNest = false, corruptTrace = false;
    for (const std::string &path : corpusPaths()) {
        Expected<FuzzCase> parsed = readCaseFile(path);
        ASSERT_TRUE(parsed.ok()) << path;
        const FuzzCase &c = parsed.value();
        divEdges |= c.gen.divEdgePercent > 0;
        emptyRas |= c.gen.emptyRas;
        calls |= c.gen.callDepth > 0;
        deepNest |= c.gen.predNestDepth >= 4;
        corruptTrace |= c.corruptFlips > 0 || c.corruptTruncate > 0;
    }
    EXPECT_TRUE(divEdges) << "no INT64_MIN/-1 division edge case";
    EXPECT_TRUE(emptyRas) << "no empty-RAS ret case";
    EXPECT_TRUE(calls) << "no call/return depth case";
    EXPECT_TRUE(deepNest) << "no deep predicate-nesting case";
    EXPECT_TRUE(corruptTrace) << "no trace-corruption case";
}

TEST(FuzzCorpus, CoversMultiContextInterference)
{
    bool tagged = false, partitioned = false, rasUnderCtx = false;
    for (const std::string &path : corpusPaths()) {
        Expected<FuzzCase> parsed = readCaseFile(path);
        ASSERT_TRUE(parsed.ok()) << path;
        const FuzzCase &c = parsed.value();
        if (c.contexts < 2)
            continue;
        tagged |= c.ctxTagBits > 0;
        partitioned |= !c.ctxShared;
        rasUnderCtx |= c.gen.emptyRas && c.gen.callDepth > 0;
    }
    EXPECT_TRUE(tagged)
        << "no multi-context case with context-tagged tables";
    EXPECT_TRUE(partitioned)
        << "no multi-context case with partitioned history";
    EXPECT_TRUE(rasUnderCtx)
        << "no multi-context case exercising RAS overflow/underflow";
}

// ---------------------------------------------------------------------
// Acceptance criterion: the re-introduced PR-4 cursor-clamp bug is
// caught by the checkpoint oracle and minimised to <= 20 trace
// instructions. checkHarness() asserts both internally; this repeats
// the shrink bound here so the test names the contract.

TEST(FuzzHarness, CatchesAndMinimisesInjectedClampBug)
{
    RunEnv env = testEnv();
    std::ostringstream log;
    Status check = checkHarness(env, log);
    ASSERT_TRUE(check.ok()) << check.toString() << "\n" << log.str();

    RunEnv buggy = env;
    buggy.injectClampBug = true;
    FuzzCase c;
    c.seed = 7;
    c.oracles = static_cast<unsigned>(Oracle::Checkpoint);
    Expected<CaseOutcome> outcome = runCase(c, buggy);
    ASSERT_TRUE(outcome.ok()) << outcome.status().toString();
    ASSERT_FALSE(outcome.value().passed())
        << "checkpoint oracle missed the injected clamp bug";

    ShrinkResult r = shrinkCase(c, buggy, 200);
    EXPECT_GT(r.accepted, 0u);
    EXPECT_LE(r.shrunk.maxInsts, 20u)
        << "reproducer not minimised to <= 20 instructions";
    Expected<CaseOutcome> again = runCase(r.shrunk, buggy);
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE(again.value().passed())
        << "minimised case no longer reproduces";
    // Without the injected bug the same minimised case is green.
    Expected<CaseOutcome> clean = runCase(r.shrunk, env);
    ASSERT_TRUE(clean.ok());
    EXPECT_TRUE(clean.value().passed());
}

// ---------------------------------------------------------------------
// CLI smoke: exit conventions of the installed binary.

int
runTool(const std::string &argstr)
{
    std::string cmd = std::string(PABP_FUZZ_BIN) + " " + argstr +
        " > /dev/null 2>&1";
    int rc = std::system(cmd.c_str());
    EXPECT_NE(rc, -1);
    return WEXITSTATUS(rc);
}

TEST(FuzzCli, ReplayPassExitsZero)
{
    EXPECT_EQ(runTool("--scratch-dir " + ::testing::TempDir() +
                      " --replay " PABP_CORPUS_DIR
                      "/pred-gshare.pabp"),
              0);
}

TEST(FuzzCli, InjectedDivergenceExitsOne)
{
    EXPECT_EQ(runTool("--scratch-dir " + ::testing::TempDir() +
                      " --inject-clamp-bug --replay " PABP_CORPUS_DIR
                      "/pred-gshare.pabp"),
              1);
}

TEST(FuzzCli, UsageErrorsExitTwo)
{
    EXPECT_EQ(runTool(""), 2); // no mode picked
    EXPECT_EQ(runTool("--replay /nonexistent/case.pabp"), 2);
    EXPECT_EQ(runTool("--no-such-flag"), 2);
}

TEST(FuzzCli, HelpDocumentsReplayAndExitsZero)
{
    std::string out = std::string(PABP_FUZZ_BIN) + " --help > " +
        ::testing::TempDir() + "/fuzz-help.txt 2>&1";
    int rc = std::system(out.c_str());
    ASSERT_NE(rc, -1);
    EXPECT_EQ(WEXITSTATUS(rc), 0);
    std::ifstream in(::testing::TempDir() + "/fuzz-help.txt");
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_NE(text.str().find("--replay"), std::string::npos);
    EXPECT_NE(text.str().find("--check-harness"), std::string::npos);
    EXPECT_NE(text.str().find("--mine"), std::string::npos);
}

TEST(FuzzCli, CheckHarnessExitsZero)
{
    EXPECT_EQ(runTool("--scratch-dir " + ::testing::TempDir() +
                      " --check-harness"),
              0);
}

TEST(FuzzCli, MiningScorerFailureExitsThreeWithoutQuarantine)
{
    // Exit 3 is the mining-specific verdict: the predictability
    // SCORER failed, which is a scoring-infrastructure problem, not
    // a correctness divergence. Nothing may be quarantined or
    // emitted - an empty emit dir is the proof that scorer trouble
    // never masquerades as a reproducer.
    namespace fs = std::filesystem;
    const std::string dir =
        ::testing::TempDir() + "mine-scorer-fail";
    fs::create_directories(dir);
    EXPECT_EQ(runTool("--mine low-entropy-gap --runs 2 "
                      "--mine-steps 1 --inject-scorer-failure "
                      "--scratch-dir " +
                      ::testing::TempDir() + " --emit-dir " + dir),
              3);
    std::size_t files = 0;
    for (const fs::directory_entry &e : fs::directory_iterator(dir)) {
        (void)e;
        ++files;
    }
    EXPECT_EQ(files, 0u);
}

TEST(FuzzCli, MiningUnknownStrategyExitsTwo)
{
    EXPECT_EQ(runTool("--mine no-such-strategy"), 2);
}

} // namespace
} // namespace pabp::fuzz
