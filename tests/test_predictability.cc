/**
 * @file
 * Property tests for the predictability analyzer
 * (core/predictability.hh). The entropy estimator is pinned against
 * analytic generators whose conditional entropies are known in
 * closed form - made EXACT (not approximate) by the analyzer's
 * warm-up rule: the first k occurrences of a PC never enter the
 * k-conditioned table, so a fully-determined sequence really reports
 * H == 0.0, with no cold-start residue. Also covers the bounded-table
 * eviction remainders and tie rules, golden bytes of two traces that
 * fold thousands of patterns, the trace-level characterization fronts
 * and the `pabp-stats --characterize` command line.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/predictability.hh"
#include "sim/decoded_trace.hh"
#include "sim/emulator.hh"
#include "sim/trace_io.hh"
#include "util/metrics.hh"
#include "util/stats.hh"
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

TEST(PredictabilityEviction, PcFoldSwapsTheLastSlotIntoAMiddleVictim)
{
    PredictabilityConfig cfg;
    cfg.pcCapacity = 3;
    PredictabilityAnalyzer an(cfg);
    constexpr std::uint32_t a = 0x10, b = 0x20, c = 0x30, d = 0x40;
    for (bool t : {true, true, true})
        an.observe(a, t);
    an.observe(b, true);
    for (bool t : {true, false})
        an.observe(c, t);
    // d evicts b, the least-observed PC, from the middle of the
    // tracked set; c must keep its counts wherever it now lives.
    for (bool t : {false, false})
        an.observe(d, t);
    for (bool t : {true, false})
        an.observe(c, t);
    an.observe(d, false);
    // b returns as a new PC: a and d tie at three occurrences, so
    // the higher PC, d, folds.
    an.observe(b, true);

    const PredictabilityReport rep = an.report();
    ASSERT_EQ(rep.perPc.size(), 3u);
    ASSERT_TRUE(rep.perPc.count(a));
    ASSERT_TRUE(rep.perPc.count(b));
    ASSERT_TRUE(rep.perPc.count(c));
    EXPECT_EQ(rep.perPc.at(a).occurrences, 3u);
    EXPECT_EQ(rep.perPc.at(a).taken, 3u);
    EXPECT_EQ(rep.perPc.at(b).occurrences, 1u);
    EXPECT_EQ(rep.perPc.at(c).occurrences, 4u);
    EXPECT_EQ(rep.perPc.at(c).taken, 2u);
    EXPECT_EQ(rep.perPc.at(c).transitions, 3u);
    EXPECT_EQ(rep.evictedBranches, 2u);
    EXPECT_EQ(rep.evictedOccurrences, 1u + 3u);
    EXPECT_EQ(rep.occurrences, 12u);
    EXPECT_EQ(rep.taken, 7u);
}

/** Outcomes for one PC under {k = 2}: each outcome o observed at
 *  pattern p moves the next observation to pattern (p << 1 | o) & 3,
 *  so a sequence is a walk over the four 2-bit patterns. */
PredictabilityReport
twoBitReport(const std::vector<bool> &outcomes)
{
    PredictabilityConfig cfg;
    cfg.historyLengths = {2};
    cfg.patternCapacity = 2;
    return reportFor(outcomes, cfg);
}

TEST(PredictabilityEviction, PatternFoldBreaksTiesTowardHighestPattern)
{
    // Warm-up 0,1 starts the walk at pattern 1.
    //   p1 o1 -> {1:[0,1]}              next p3
    //   p3 o0 -> {1:[0,1] 3:[1,0]}      next p2 (tied at one each)
    //   p2 o1 -> fold 3 (tie: highest)  next p1
    //   p1 o1 -> 1 is still tracked: no second fold.
    // Folding the lower pattern 1 instead would make its return
    // fold again.
    const PredictabilityReport rep =
        twoBitReport({false, true, true, false, true, true});
    EXPECT_EQ(rep.evictedPatterns, 1u);
    EXPECT_EQ(rep.conditioned[0], 4u);
    EXPECT_DOUBLE_EQ(rep.entropy[0], 0.0);
}

TEST(PredictabilityEviction, FoldedPatternReentersAtOne)
{
    // Warm-up 0,0 starts the walk at pattern 0.
    //   p0 o0 x3, p0 o1  -> 0:[3,1]              next p1
    //   p1 o1            -> 1:[0,1]              next p3
    //   p3 o1            -> fold 1 (n=1)         next p3
    //   p3 o1 x4, p3 o0  -> 3:[1,5]              next p2
    //   p2 o0            -> fold 0 (n=4)         next p0
    //   p0 o1            -> fold 2 (n=1); 0 re-enters as [0,1]
    // The remainder holds [0,1] + [3,1] + [1,0] = [4,2].
    const PredictabilityReport rep = twoBitReport(
        {false, false, false, false, false, true, true, true, true,
         true, true, true, false, false, true});
    EXPECT_EQ(rep.evictedPatterns, 3u);
    EXPECT_EQ(rep.conditioned[0], 13u);
    // Ascending patterns, then the remainder: 0:[0,1], 3:[1,5],
    // remainder [4,2].
    const double expected = 1.0 / 13.0 * binaryEntropy(1.0) +
        6.0 / 13.0 * binaryEntropy(5.0 / 6.0) +
        6.0 / 13.0 * binaryEntropy(2.0 / 6.0);
    EXPECT_DOUBLE_EQ(rep.entropy[0], expected);
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
// Guard distance (PredictabilityReport::guardDistance, bench E12):
// analytic pins on hand-built lanes, then the old per-DynInst E12
// accumulator as a differential oracle on every suite workload.

/** Lanes of @p n events over a three-instruction program: pc 0 a nop,
 *  pc 1 a compare writing p5 and p6, pc 2 a branch guarded by p5.
 *  @p defines and @p branches list the event indices of each; every
 *  other event is the nop. */
DecodedTrace
guardLanes(std::size_t n, const std::vector<std::size_t> &defines,
           const std::vector<std::size_t> &branches)
{
    using Class = DecodedTrace::Class;
    Inst cmp;
    cmp.op = Opcode::Cmp;
    cmp.pdst1 = 5;
    cmp.pdst2 = 6;
    Inst br;
    br.op = Opcode::Br;
    br.qp = 5;
    DecodedTrace t;
    t.prog.insts = {Inst{}, cmp, br};
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t pc = 0;
        Class cls = Class::Other;
        std::uint8_t flags = 1; // guard true
        if (std::find(defines.begin(), defines.end(), i) !=
            defines.end()) {
            pc = 1;
            cls = Class::PredDefine;
            flags |= 2u << 2; // two predicate writes
        } else if (std::find(branches.begin(), branches.end(), i) !=
                   branches.end()) {
            pc = 2;
            cls = Class::CondBranch;
        }
        t.pcs.push_back(pc);
        t.cls.push_back(static_cast<std::uint8_t>(cls));
        t.flags.push_back(flags);
        t.predReg0.push_back(pc == 1 ? 5 : 0);
        t.predReg1.push_back(pc == 1 ? 6 : 0);
        t.predVal.push_back(0);
        t.nextPcs.push_back(0);
    }
    return t;
}

TEST(PredictabilityGuardDistance, DefineAtIBranchAtIPlusDIsOneSampleAtD)
{
    // One bucket edge on each side of every limit.
    for (std::size_t d : {1u, 3u, 4u, 7u, 8u, 15u, 16u, 31u, 32u, 63u,
                          64u, 200u}) {
        const std::size_t i = 9;
        const PredictabilityReport rep =
            characterizeTrace(guardLanes(i + d + 5, {i}, {i + d}));
        const PredictabilityReport::GuardDistance &g = rep.guardDistance;
        EXPECT_EQ(g.count, 1u) << d;
        EXPECT_EQ(g.sum, d) << d;
        std::size_t bucket = 0;
        while (bucket < g.limits.size() && d >= g.limits[bucket])
            ++bucket;
        for (std::size_t b = 0; b < g.buckets.size(); ++b)
            EXPECT_EQ(g.buckets[b], b == bucket ? 1u : 0u)
                << "d=" << d << " bucket " << b;
        EXPECT_EQ(g.mean(), static_cast<double>(d));
    }
}

TEST(PredictabilityGuardDistance, NeverWrittenGuardIsItsOwnIndex)
{
    // No define at all: the distance is the branch's sequence number.
    const PredictabilityReport none =
        characterizeTrace(guardLanes(100, {}, {0, 70, 99}));
    EXPECT_EQ(none.guardDistance.count, 3u);
    EXPECT_EQ(none.guardDistance.sum, 0u + 70u + 99u);
    EXPECT_EQ(none.guardDistance.buckets[0], 1u); // seq 0
    EXPECT_EQ(none.guardDistance.buckets[5], 2u);
}

TEST(PredictabilityGuardDistance, LatestDefineWinsAndBudgetCuts)
{
    // Defines at 2 and 20, branches at 10 (d=8) and 25 (d=5).
    const DecodedTrace t = guardLanes(40, {2, 20}, {10, 25});
    const PredictabilityReport whole = characterizeTrace(t);
    EXPECT_EQ(whole.guardDistance.count, 2u);
    EXPECT_EQ(whole.guardDistance.sum, 13u);
    EXPECT_EQ(whole.guardDistance.buckets[1], 1u);
    EXPECT_EQ(whole.guardDistance.buckets[2], 1u);
    // A 20-event budget sees only the first branch.
    const PredictabilityReport cut =
        characterizeTrace(t, PredictabilityConfig{}, 20);
    EXPECT_EQ(cut.guardDistance.count, 1u);
    EXPECT_EQ(cut.guardDistance.sum, 8u);
}

/** The E12 accumulator the guard-distance tally replaced: fed one
 *  DynInst at a time by a stepping emulator. */
struct DistanceOracle
{
    std::vector<std::uint64_t> lastWrite =
        std::vector<std::uint64_t>(numPredRegs, 0);
    Histogram histo{16, 4};
    std::uint64_t inBucket[6] = {};
    std::uint64_t total = 0;

    void
    observe(const DynInst &dyn)
    {
        const Inst &inst = *dyn.inst;
        if (inst.op == Opcode::Br && inst.qp != 0) {
            std::uint64_t distance = dyn.seq - lastWrite[inst.qp];
            histo.sample(distance);
            ++total;
            if (distance < 4)
                ++inBucket[0];
            else if (distance < 8)
                ++inBucket[1];
            else if (distance < 16)
                ++inBucket[2];
            else if (distance < 32)
                ++inBucket[3];
            else if (distance < 64)
                ++inBucket[4];
            else
                ++inBucket[5];
        }
        for (unsigned w = 0; w < dyn.numPredWrites; ++w)
            lastWrite[dyn.predWrites[w].reg] = dyn.seq;
    }
};

TEST(PredictabilityGuardDistance, MatchesStepDrivenOracleOnEverySuiteWorkload)
{
    constexpr std::uint64_t steps = 300'000;
    for (const std::string &name : workloadNames()) {
        Workload wl = makeWorkload(name, 42);
        CompiledProgram cp = compileWorkload(wl, CompileOptions{});

        Emulator stepper(cp.prog);
        if (wl.init)
            wl.init(stepper.state());
        DistanceOracle oracle;
        DynInst dyn;
        for (std::uint64_t n = 0; n < steps && stepper.step(dyn); ++n)
            oracle.observe(dyn);

        Emulator recorder(cp.prog);
        if (wl.init)
            wl.init(recorder.state());
        const PredictabilityReport::GuardDistance g =
            characterizeTrace(recordTrace(recorder, steps)).guardDistance;

        EXPECT_GT(g.count, 0u) << name;
        EXPECT_EQ(g.count, oracle.total) << name;
        EXPECT_EQ(g.count, oracle.histo.count()) << name;
        EXPECT_EQ(g.sum, oracle.histo.sumOfSamples()) << name;
        EXPECT_EQ(g.mean(), oracle.histo.mean()) << name;
        for (std::size_t b = 0; b < g.buckets.size(); ++b)
            EXPECT_EQ(g.buckets[b], oracle.inBucket[b])
                << name << " bucket " << b;
    }
}

// ---------------------------------------------------------------------
// Eviction-path goldens: 300k-step interp and bsearch traces fold
// thousands of k=16 patterns at the default patternCapacity, so the
// exported bytes pin the fold order, the remainder buckets and the
// ascending-pattern entropy sums.

std::uint64_t
fnv1a64(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
characterizedJson(const std::string &workload, std::uint64_t steps)
{
    Workload wl = makeWorkload(workload, 42);
    CompileOptions copts;
    CompiledProgram cp = compileWorkload(wl, copts);
    Emulator emu(cp.prog);
    if (wl.init)
        wl.init(emu.state());
    const DecodedTrace trace = recordTrace(emu, steps);
    MetricsExporter ex;
    exportPredictability(ex, characterizeTrace(trace));
    std::ostringstream out;
    ex.writeJson(out);
    return out.str();
}

TEST(PredictabilityGolden, InterpPatternFoldsExactBytes)
{
    const std::string json = characterizedJson("interp", 300'000);
    EXPECT_NE(json.find("\"predictability.evicted_patterns\": 19060"),
              std::string::npos)
        << json;
    EXPECT_EQ(json.size(), 1333u);
    EXPECT_EQ(fnv1a64(json), 0x8b60c945883fcaa0ull);
}

TEST(PredictabilityGolden, BsearchPatternFoldsExactBytes)
{
    const std::string json = characterizedJson("bsearch", 300'000);
    EXPECT_NE(json.find("\"predictability.evicted_patterns\": 17915"),
              std::string::npos)
        << json;
    EXPECT_EQ(json.size(), 1238u);
    EXPECT_EQ(fnv1a64(json), 0x2248efac298ee399ull);
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
    // Per test: ctest runs the tests of this file in parallel.
    const std::string base = ::testing::TempDir() + "pabp-stats-cli-" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
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
