/**
 * @file
 * Differential tests of the flat-table predictability analyzer
 * against the std::map reference (tests/predictability_reference.hh).
 * Every comparison is on the exportPredictability JSON bytes and the
 * report's entropy doubles, so a different fold victim, a lost
 * remainder count or a reordered floating-point entropy sum all fail
 * here. Covers the suite
 * workloads, generated fuzz programs under tiny capacities, a stream
 * with more PCs than pcCapacity, and the direct/hashed table
 * boundary.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/predictability.hh"
#include "fuzz/fuzz_gen.hh"
#include "predictability_reference.hh"
#include "sim/decoded_trace.hh"
#include "sim/emulator.hh"
#include "sim/trace_io.hh"
#include "util/metrics.hh"
#include "workloads/workload.hh"

namespace pabp {
namespace {

std::string
exportedJson(const PredictabilityReport &rep)
{
    MetricsExporter ex;
    exportPredictability(ex, rep);
    std::ostringstream out;
    ex.writeJson(out);
    return out.str();
}

/**
 * True when @p fast and @p ref export the same bytes and hold the
 * same entropy doubles. The JSON prints nine significant digits, so
 * only the doubles themselves (which the mining scorer compares) pin
 * the ascending-pattern summation order to the last bit.
 */
bool
sameReports(const PredictabilityReport &fast,
            const PredictabilityReport &ref, const std::string &label)
{
    const std::string got = exportedJson(fast);
    const std::string want = exportedJson(ref);
    EXPECT_EQ(got, want) << label;
    bool same = got == want && fast.entropy == ref.entropy;
    for (const auto &[pc, per] : fast.perPc) {
        const auto it = ref.perPc.find(pc);
        same = same && it != ref.perPc.end() &&
            per.entropy == it->second.entropy;
    }
    EXPECT_TRUE(same) << label << ": reports differ";
    return same;
}

/** Both analyzers over one trace. */
bool
sameBytesOnTrace(const DecodedTrace &trace,
                 const PredictabilityConfig &cfg,
                 const std::string &label,
                 PredictabilityReport *fast_out = nullptr)
{
    const PredictabilityReport fast = characterizeTrace(trace, cfg);
    if (fast_out)
        *fast_out = fast;
    return sameReports(
        fast, test::referenceCharacterizeTrace(trace, cfg), label);
}

PredictabilityConfig
configOf(std::vector<unsigned> ks, std::size_t pcs, std::size_t patterns)
{
    PredictabilityConfig cfg;
    cfg.historyLengths = std::move(ks);
    cfg.pcCapacity = pcs;
    cfg.patternCapacity = patterns;
    return cfg;
}

/** Deterministic splitmix64 step. */
std::uint64_t
mixBits(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

// ---------------------------------------------------------------------
// The suite workloads, default config: the shape every characterized
// sweep cell runs. interp and bsearch fold thousands of k=16
// patterns here.

class PredictabilityOracleSuite
    : public ::testing::TestWithParam<std::string>
{};

TEST_P(PredictabilityOracleSuite, WorkloadMatchesReference)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Workload wl = makeWorkload(GetParam(), seed);
        CompileOptions copts;
        CompiledProgram cp = compileWorkload(wl, copts);
        Emulator emu(cp.prog);
        if (wl.init)
            wl.init(emu.state());
        const DecodedTrace trace = recordTrace(emu, 300'000);
        if (!sameBytesOnTrace(trace, PredictabilityConfig{},
                              GetParam() + " seed " +
                                  std::to_string(seed)))
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(
    , PredictabilityOracleSuite, ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// ---------------------------------------------------------------------
// Generated programs, both lowerings, under the default config and
// three capacity-stress configs that fold PCs and patterns on almost
// every trace.

TEST(PredictabilityOracle, FuzzProgramsMatchReferenceUnderStress)
{
    const std::vector<PredictabilityConfig> configs = {
        PredictabilityConfig{},
        configOf({0, 1, 2, 6}, 3, 5),
        configOf({0, 4, 8, 16}, 8, 100),
        configOf({2, 31}, 2, 2),
    };
    std::uint64_t foldedPcs = 0;
    std::uint64_t foldedPatterns = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        fuzz::FuzzProgramConfig gen;
        gen.items = 4 + static_cast<unsigned>(seed % 13);
        gen.branchDensity = 40 + static_cast<unsigned>(seed % 61);
        gen.dataBranchPercent = seed % 3 == 0 ? 50 : 0;
        fuzz::clampConfig(gen);
        const Workload body = fuzz::makeFuzzWorkload(seed, gen);
        for (bool if_convert : {false, true}) {
            Workload wl = body;
            CompiledProgram cp = compileWorkload(
                wl, fuzz::fuzzCompileOptions(gen, if_convert));
            Emulator emu(cp.prog, EmuConfig{1u << 16, 0});
            if (body.init)
                body.init(emu.state());
            const DecodedTrace trace = recordTrace(emu, 20'000);
            for (std::size_t c = 0; c < configs.size(); ++c) {
                PredictabilityReport rep;
                if (!sameBytesOnTrace(
                        trace, configs[c],
                        "seed " + std::to_string(seed) +
                            (if_convert ? " converted" : " branchy") +
                            " config " + std::to_string(c),
                        &rep))
                    return;
                foldedPcs += rep.evictedBranches;
                foldedPatterns += rep.evictedPatterns;
            }
        }
    }
    // Guard against a vacuous pass: both fold paths must have run.
    EXPECT_GT(foldedPcs, 0u);
    EXPECT_GT(foldedPatterns, 0u);
}

// ---------------------------------------------------------------------
// Synthetic streams fed straight to observe().

struct SyntheticEvent
{
    std::uint32_t pc;
    bool taken;
};

/** A skewed many-PC stream: PC popularity falls off with its index,
 *  and each PC has its own taken bias. */
std::vector<SyntheticEvent>
manyPcStream(unsigned pcs, unsigned events, std::uint64_t seed)
{
    std::vector<SyntheticEvent> out;
    out.reserve(events);
    for (unsigned i = 0; i < events; ++i) {
        const std::uint64_t r = mixBits(seed * 1'000'003 + i);
        // Two draws multiplied skew toward low indices.
        const std::uint64_t a = (r & 0xffff) % pcs;
        const std::uint64_t b = ((r >> 16) & 0xffff) % pcs;
        const auto idx = static_cast<std::uint32_t>(a * b / pcs);
        const std::uint64_t bias = mixBits(idx) % 100;
        out.push_back({0x1000 + 4 * idx, ((r >> 32) % 100) < bias});
    }
    return out;
}

/** Both analyzers over one stream. */
bool
sameBytesOnStream(const std::vector<SyntheticEvent> &events,
                  const PredictabilityConfig &cfg,
                  const std::string &label,
                  PredictabilityReport *fast_out = nullptr)
{
    PredictabilityAnalyzer fast(cfg);
    test::ReferencePredictabilityAnalyzer ref(cfg);
    for (const SyntheticEvent &e : events) {
        fast.observe(e.pc, e.taken);
        ref.observe(e.pc, e.taken);
    }
    const PredictabilityReport rep = fast.report();
    if (fast_out)
        *fast_out = rep;
    return sameReports(rep, ref.report(), label);
}

TEST(PredictabilityOracle, MorePcsThanCapacityMatchesReference)
{
    const std::vector<PredictabilityConfig> configs = {
        PredictabilityConfig{},
        configOf({0, 4, 8, 16}, 64, 16),
    };
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        const std::vector<SyntheticEvent> events =
            manyPcStream(3000, 150'000, seed);
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const std::string label = "seed " + std::to_string(seed) +
                " config " + std::to_string(c);
            PredictabilityReport rep;
            if (!sameBytesOnStream(events, configs[c], label, &rep))
                return;
            EXPECT_GT(rep.evictedBranches, 0u) << label;
        }
    }
}

TEST(PredictabilityOracle, DirectHashedBoundaryMatchesReference)
{
    // 2^k == patternCapacity is the largest direct table;
    // 2^k == 2 * patternCapacity the smallest hashed one that folds.
    // k = 12 is the largest direct table any capacity allows, so
    // k = 13 is hashed even when it can never fold.
    const std::vector<PredictabilityConfig> configs = {
        configOf({0, 4}, 1024, 16),
        configOf({0, 4}, 1024, 8),
        configOf({12, 13}, 1024, 4096),
        configOf({12, 13}, 1024, 8192),
    };
    std::vector<SyntheticEvent> events;
    for (unsigned i = 0; i < 60'000; ++i) {
        const std::uint64_t r = mixBits(i);
        events.push_back({0x40u + 4u * static_cast<std::uint32_t>(r % 3),
                          (r >> 8) % 100 < 70});
    }
    for (std::size_t c = 0; c < configs.size(); ++c) {
        PredictabilityReport rep;
        sameBytesOnStream(events, configs[c],
                          "config " + std::to_string(c), &rep);
        // Configs 1 and 2 hold a hashed table too small for the
        // stream's patterns, so they really fold.
        if (c == 1 || c == 2)
            EXPECT_GT(rep.evictedPatterns, 0u) << "config " << c;
        else
            EXPECT_EQ(rep.evictedPatterns, 0u) << "config " << c;
    }
}

} // namespace
} // namespace pabp
