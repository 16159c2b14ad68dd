/**
 * @file
 * Property tests for the predictability analyzer
 * (core/predictability.hh). The entropy estimator is pinned against
 * analytic generators whose conditional entropies are known in
 * closed form - made EXACT (not approximate) by the analyzer's
 * warm-up rule: the first k occurrences of a PC never enter the
 * k-conditioned table, so a fully-determined sequence really reports
 * H == 0.0, with no cold-start residue. Also covers the bounded-table
 * eviction remainders, the trace-level characterization fronts and
 * the `pabp-stats --characterize` command line.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/predictability.hh"
#include "sim/decoded_trace.hh"
#include "sim/emulator.hh"
#include "sim/trace_io.hh"
#include "util/metrics.hh"
#include "workloads/workload.hh"

#ifndef PABP_STATS_BIN
#error "PABP_STATS_BIN must point at the pabp-stats executable"
#endif

namespace pabp {
namespace {

constexpr std::uint32_t kPc = 0x40;

/** Deterministic splitmix-style bit source for the fair-coin pin. */
std::uint64_t
mixBits(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

PredictabilityReport
reportFor(const std::vector<bool> &outcomes,
          PredictabilityConfig cfg = {})
{
    PredictabilityAnalyzer an(cfg);
    for (bool taken : outcomes)
        an.observe(kPc, taken);
    return an.report();
}

// ---------------------------------------------------------------------
// Analytic entropy pins.

TEST(PredictabilityEntropy, AlwaysTakenIsZeroAtEveryK)
{
    std::vector<bool> outcomes(4096, true);
    const PredictabilityReport rep = reportFor(outcomes);

    EXPECT_EQ(rep.occurrences, 4096u);
    EXPECT_DOUBLE_EQ(rep.takenRate(), 1.0);
    EXPECT_DOUBLE_EQ(rep.transitionRate(), 0.0);
    ASSERT_EQ(rep.entropy.size(), 4u);
    for (double h : rep.entropy)
        EXPECT_DOUBLE_EQ(h, 0.0);
    // Warm-up accounting: the k-table only sees occurrences k..N-1.
    ASSERT_EQ(rep.conditioned.size(), 4u);
    EXPECT_EQ(rep.conditioned[0], 4096u);
    EXPECT_EQ(rep.conditioned[1], 4092u);
    EXPECT_EQ(rep.conditioned[2], 4088u);
    EXPECT_EQ(rep.conditioned[3], 4080u);
}

TEST(PredictabilityEntropy, FairCoinApproachesOneBit)
{
    std::vector<bool> outcomes;
    for (std::uint64_t i = 0; i < (1u << 15); ++i)
        outcomes.push_back((mixBits(i) & 1) != 0);
    const PredictabilityReport rep = reportFor(outcomes);

    EXPECT_NEAR(rep.takenRate(), 0.5, 0.02);
    EXPECT_NEAR(rep.transitionRate(), 0.5, 0.02);
    // Unconditioned and lightly-conditioned entropy sit at ~1 bit;
    // history carries no information about an independent coin.
    EXPECT_GT(rep.entropy[0], 0.99);
    EXPECT_LE(rep.entropy[0], 1.0);
    EXPECT_GT(rep.entropy[1], 0.99); // k=4: 2048 samples/pattern
    EXPECT_GT(rep.entropy[2], 0.95); // k=8: ~128 samples/pattern
    // k=16 is deliberately NOT pinned near 1: with 2^15 samples over
    // 2^16 patterns the empirical estimator overfits toward 0. That
    // bias is a property of frequentist conditional entropy, not a
    // bug, and the docs call it out.
}

TEST(PredictabilityEntropy, AlternatorResolvesAtAnyPositiveK)
{
    std::vector<bool> outcomes;
    for (int i = 0; i < 4096; ++i)
        outcomes.push_back(i % 2 == 0);
    const PredictabilityReport rep = reportFor(outcomes);

    // Equal taken/not-taken counts: exactly one bit unconditioned.
    EXPECT_DOUBLE_EQ(rep.entropy[0], 1.0);
    EXPECT_DOUBLE_EQ(rep.takenRate(), 0.5);
    // Every outcome differs from its predecessor except the first.
    EXPECT_EQ(rep.transitions, 4095u);
    // One previous outcome fully determines the next - EXACTLY zero,
    // thanks to the warm-up rule.
    EXPECT_DOUBLE_EQ(rep.entropy[1], 0.0);
    EXPECT_DOUBLE_EQ(rep.entropy[2], 0.0);
    EXPECT_DOUBLE_EQ(rep.entropy[3], 0.0);
}

TEST(PredictabilityEntropy, PeriodEightPatternResolvesOnlyAtDeepK)
{
    // Period-8 pattern chosen so one 4-bit history window occurs at
    // two phases with DIFFERENT successors (0,1,0,1 -> 0 at one
    // phase, -> 1 at another): a 4-bit history cannot fully resolve
    // it, an 8-bit history pins the phase and resolves everything.
    const bool base[8] = {true, true, false, false,
                          true, false, true, false};
    std::vector<bool> outcomes;
    for (int i = 0; i < 8 * 512; ++i)
        outcomes.push_back(base[i % 8]);
    const PredictabilityReport rep = reportFor(outcomes);

    EXPECT_DOUBLE_EQ(rep.entropy[0], 1.0); // four of eight taken
    EXPECT_GT(rep.entropy[1], 0.2);        // k=4: ambiguous window
    EXPECT_LT(rep.entropy[1], 0.3);
    EXPECT_DOUBLE_EQ(rep.entropy[2], 0.0); // k=8 resolves - exactly
    EXPECT_DOUBLE_EQ(rep.entropy[3], 0.0); // deeper stays resolved
}

TEST(PredictabilityEntropy, BinaryEntropyEndpoints)
{
    EXPECT_DOUBLE_EQ(binaryEntropy(0.0), 0.0);
    EXPECT_DOUBLE_EQ(binaryEntropy(1.0), 0.0);
    EXPECT_DOUBLE_EQ(binaryEntropy(0.5), 1.0);
    EXPECT_NEAR(binaryEntropy(0.25), 0.811278, 1e-6);
    EXPECT_DOUBLE_EQ(binaryEntropy(0.25), binaryEntropy(0.75));
}

// ---------------------------------------------------------------------
// Bounded tables: deterministic eviction, explicit remainders.

TEST(PredictabilityEviction, PcFoldKeepsTotalsExact)
{
    PredictabilityConfig cfg;
    cfg.pcCapacity = 2;
    PredictabilityAnalyzer an(cfg);
    // 0x10: 8 occurrences, 0x20: 4, 0x30 arrives at capacity and
    // evicts the least-observed tracked PC (0x20).
    for (int i = 0; i < 8; ++i)
        an.observe(0x10, true);
    for (int i = 0; i < 4; ++i)
        an.observe(0x20, i % 2 == 0);
    for (int i = 0; i < 6; ++i)
        an.observe(0x30, false);

    const PredictabilityReport rep = an.report();
    EXPECT_EQ(rep.perPc.size(), 2u);
    EXPECT_TRUE(rep.perPc.count(0x10));
    EXPECT_TRUE(rep.perPc.count(0x30));
    EXPECT_EQ(rep.evictedBranches, 1u);
    EXPECT_EQ(rep.evictedOccurrences, 4u);
    // Whole-trace totals never lose the folded PC's outcomes.
    EXPECT_EQ(rep.occurrences, 18u);
    EXPECT_EQ(rep.taken, 8u + 2u);
    EXPECT_DOUBLE_EQ(rep.takenRate(), 10.0 / 18.0);
}

TEST(PredictabilityEviction, PcFoldBreaksTiesTowardHighestPc)
{
    PredictabilityConfig cfg;
    cfg.pcCapacity = 2;
    PredictabilityAnalyzer an(cfg);
    an.observe(0x10, true); // tied at one occurrence each
    an.observe(0x20, true);
    an.observe(0x30, true); // evicts 0x20 (tie -> highest PC)

    const PredictabilityReport rep = an.report();
    EXPECT_TRUE(rep.perPc.count(0x10));
    EXPECT_TRUE(rep.perPc.count(0x30));
    EXPECT_EQ(rep.evictedBranches, 1u);
}

TEST(PredictabilityEviction, PatternFoldCountsRemainder)
{
    PredictabilityConfig cfg;
    cfg.historyLengths = {4};
    cfg.patternCapacity = 2;
    PredictabilityAnalyzer an(cfg);
    // A period-8 pattern visits 8 distinct 4-bit windows; with room
    // for 2 the rest fold into the remainder bucket, but every
    // conditioned outcome is still accounted for.
    const bool base[8] = {true, true, false, false,
                          true, false, true, false};
    for (int i = 0; i < 8 * 64; ++i)
        an.observe(kPc, base[i % 8]);

    const PredictabilityReport rep = an.report();
    EXPECT_GT(rep.evictedPatterns, 0u);
    ASSERT_EQ(rep.conditioned.size(), 1u);
    EXPECT_EQ(rep.conditioned[0], 8u * 64u - 4u);
    // The merged remainder is an upper bound: entropy stays finite
    // and within [0, 1].
    EXPECT_GE(rep.entropy[0], 0.0);
    EXPECT_LE(rep.entropy[0], 1.0);
}

TEST(PredictabilityConfigCheck, RejectsMalformedConfigs)
{
    PredictabilityConfig cfg;
    cfg.historyLengths = {};
    EXPECT_FALSE(PredictabilityAnalyzer::validateConfig(cfg).ok());
    cfg.historyLengths = {0, 4, 4};
    EXPECT_FALSE(PredictabilityAnalyzer::validateConfig(cfg).ok());
    cfg.historyLengths = {0, 32};
    EXPECT_FALSE(PredictabilityAnalyzer::validateConfig(cfg).ok());
    cfg.historyLengths = {0, 4};
    cfg.patternCapacity = 0;
    EXPECT_FALSE(PredictabilityAnalyzer::validateConfig(cfg).ok());
    cfg = PredictabilityConfig{};
    EXPECT_TRUE(PredictabilityAnalyzer::validateConfig(cfg).ok());
}

// ---------------------------------------------------------------------
// Trace-level characterization.

TEST(PredictabilityTrace, EventBudgetMatchesReplayBudget)
{
    Workload wl = makeWorkload("bsort", 42);
    CompileOptions copts;
    CompiledProgram cp = compileWorkload(wl, copts);
    Emulator emu(cp.prog);
    if (wl.init)
        wl.init(emu.state());
    DecodedTrace trace = recordTrace(emu, 20'000);

    const PredictabilityReport whole = characterizeTrace(trace);
    const PredictabilityReport half =
        characterizeTrace(trace, PredictabilityConfig{},
                          trace.size() / 2);
    EXPECT_LT(half.occurrences, whole.occurrences);
    EXPECT_GT(half.occurrences, 0u);
}

// ---------------------------------------------------------------------
// `pabp-stats --characterize`: the tool prints exactly the document
// the library builds, and refuses anything but a PABPTRC2 trace with
// a typed error and exit status 2.

struct ToolRun
{
    int exitCode = -1;
    std::string out;
    std::string err;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

ToolRun
runStats(const std::string &args)
{
    const std::string base = ::testing::TempDir() + "pabp-stats-cli";
    const std::string cmd = std::string(PABP_STATS_BIN) + " " + args +
        " > " + base + ".out 2> " + base + ".err";
    const int rc = std::system(cmd.c_str());
    EXPECT_NE(rc, -1);
    return {WEXITSTATUS(rc), slurp(base + ".out"),
            slurp(base + ".err")};
}

TEST(PabpStatsCharacterize, MatchesLibraryOnRecordedTrace)
{
    Workload wl = makeWorkload("interp", 42);
    CompileOptions copts;
    CompiledProgram cp = compileWorkload(wl, copts);
    Emulator emu(cp.prog);
    if (wl.init)
        wl.init(emu.state());
    const DecodedTrace trace = recordTrace(emu, 30'000);
    const std::string path =
        ::testing::TempDir() + "pabp-stats-characterize.trace";
    ASSERT_TRUE(trySaveTraceFile(trace, path).ok());

    MetricsExporter ex;
    ex.setText("source", path);
    exportPredictability(ex, characterizeTrace(trace));
    std::ostringstream expected;
    ex.writeJson(expected);

    const ToolRun run = runStats("--characterize " + path);
    EXPECT_EQ(run.exitCode, 0) << run.err;
    EXPECT_EQ(run.out, expected.str());
    // Guard against a vacuous pass.
    EXPECT_NE(run.out.find("\"predictability.occurrences\""),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(PabpStatsCharacterize, RetiredV1TraceIsVersionMismatch)
{
    const std::string path =
        ::testing::TempDir() + "pabp-stats-characterize-v1.trace";
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "PABPTRC1" << std::string(32, '\0');
    }
    const ToolRun run = runStats("--characterize " + path);
    EXPECT_EQ(run.exitCode, 2);
    EXPECT_TRUE(run.out.empty()) << run.out;
    EXPECT_NE(run.err.find("VersionMismatch"), std::string::npos)
        << run.err;
    std::remove(path.c_str());
}

} // namespace
} // namespace pabp
