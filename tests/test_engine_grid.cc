/**
 * @file
 * Cross-configuration invariant grid: every combination of
 * (workload, SFPF, PGU, availability delay) must satisfy the
 * engine's accounting invariants. This is the broad safety net over
 * the whole configuration space the experiments sample from.
 *
 * The second grid runs EVERY registered predictor kind
 * (bpred/factory.hh, allPredictorKinds()) under base/+sfpf/+pgu/
 * +both with targets modelled. The kind list is pulled from the
 * factory's own registry and cross-checked against
 * kNumPredictorKinds, so adding a predictor without growing the
 * registry fails this file loudly instead of silently shipping a
 * kind the grid never exercised.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "bpred/factory.hh"
#include "core/engine.hh"
#include "workloads/workload.hh"

namespace pabp {
namespace {

using GridParam = std::tuple<std::string, bool, bool, unsigned>;

class EngineGrid : public ::testing::TestWithParam<GridParam>
{};

TEST_P(EngineGrid, AccountingInvariantsHold)
{
    const auto &[name, sfpf, pgu, delay] = GetParam();

    Workload wl = makeWorkload(name, 7);
    CompileOptions copts;
    CompiledProgram cp = compileWorkload(wl, copts);
    PredictorPtr pred = makePredictor("gshare", 11);
    EngineConfig ecfg;
    ecfg.useSfpf = sfpf;
    ecfg.usePgu = pgu;
    ecfg.availDelay = delay;
    ecfg.pgu.delay = delay;
    PredictionEngine engine(*pred, ecfg);
    Emulator emu(cp.prog);
    if (wl.init)
        wl.init(emu.state());
    runTrace(emu, engine, 250000);

    const EngineStats &s = engine.stats();

    // Class decomposition is exact.
    EXPECT_EQ(s.all.branches, s.region.branches + s.normal.branches);
    EXPECT_EQ(s.all.taken, s.region.taken + s.normal.taken);
    EXPECT_EQ(s.all.mispredicts,
              s.region.mispredicts + s.normal.mispredicts);
    EXPECT_EQ(s.all.squashed, s.region.squashed + s.normal.squashed);
    EXPECT_EQ(s.all.falseGuard,
              s.region.falseGuard + s.normal.falseGuard);

    // Counts are bounded by their populations.
    EXPECT_LE(s.all.mispredicts, s.all.branches);
    EXPECT_LE(s.all.taken, s.all.branches);
    EXPECT_LE(s.all.squashed, s.all.falseGuard); // 100% accuracy
    EXPECT_LE(s.all.branches + s.uncondBranches, s.insts);

    // Techniques only act when armed.
    if (!sfpf) {
        EXPECT_EQ(s.all.squashed, 0u);
    }
    if (!pgu) {
        EXPECT_EQ(engine.pguBitsInserted(), 0u);
    }
    if (pgu) {
        EXPECT_LE(engine.pguBitsInserted(), s.predicateDefines);
    }

    // Taken branches can never have had a false guard.
    EXPECT_LE(s.all.taken, s.all.branches - s.all.falseGuard);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineGrid,
    ::testing::Combine(
        ::testing::Values("histogram", "dchain", "filter", "bsearch",
                          "interp"),
        ::testing::Bool(), ::testing::Bool(),
        ::testing::Values(0u, 8u, 32u)),
    [](const ::testing::TestParamInfo<GridParam> &info) {
        return std::get<0>(info.param) +
            (std::get<1>(info.param) ? "_sfpf" : "_nosfpf") +
            (std::get<2>(info.param) ? "_pgu" : "_nopgu") + "_d" +
            std::to_string(std::get<3>(info.param));
    });

// ---------------------------------------------------------------------
// Registry exhaustiveness: the factory's kind table IS the source of
// truth, and this file consumes it, so a kind added to one but not
// the other cannot pass.

TEST(PredictorRegistry, EveryKindIsRegisteredAndConstructible)
{
    const std::vector<std::string> &kinds = allPredictorKinds();
    ASSERT_EQ(kinds.size(), kNumPredictorKinds);

    std::set<std::string> unique(kinds.begin(), kinds.end());
    EXPECT_EQ(unique.size(), kinds.size());
    for (const std::string &kind : kinds) {
        Expected<PredictorPtr> pred = tryMakePredictor(kind, 12);
        ASSERT_TRUE(pred.ok())
            << kind << ": " << pred.status().toString();
        EXPECT_NE(pred.value(), nullptr) << kind;
    }

    // The fuzz seed-derivation contract: the registry order is
    // append-only, so the long-standing kinds keep their indices.
    ASSERT_GE(kinds.size(), 4u);
    EXPECT_EQ(kinds[0], "static-taken");
    EXPECT_EQ(kinds[1], "static-nottaken");
    EXPECT_EQ(kinds[2], "bimodal");
    EXPECT_EQ(kinds[3], "gshare");
}

// ---------------------------------------------------------------------
// Every registered predictor kind x {base, +sfpf, +pgu, +both}, with
// branch targets modelled (BTB/RAS), on one branchy workload.

using KindParam = std::tuple<std::string, bool, bool>;

class PredictorKindGrid : public ::testing::TestWithParam<KindParam>
{};

TEST_P(PredictorKindGrid, InvariantsHoldWithTargetsModelled)
{
    const auto &[kind, sfpf, pgu] = GetParam();

    Workload wl = makeWorkload("interp", 7);
    CompileOptions copts;
    CompiledProgram cp = compileWorkload(wl, copts);
    PredictorPtr pred = makePredictor(kind, 11);
    EngineConfig ecfg;
    ecfg.useSfpf = sfpf;
    ecfg.usePgu = pgu;
    ecfg.modelTargets = true;
    PredictionEngine engine(*pred, ecfg);
    Emulator emu(cp.prog);
    if (wl.init)
        wl.init(emu.state());
    runTrace(emu, engine, 100'000);

    const EngineStats &s = engine.stats();
    ASSERT_GT(s.all.branches, 0u) << kind;

    EXPECT_EQ(s.all.branches, s.region.branches + s.normal.branches);
    EXPECT_EQ(s.all.mispredicts,
              s.region.mispredicts + s.normal.mispredicts);
    EXPECT_LE(s.all.mispredicts, s.all.branches);
    EXPECT_LE(s.all.taken, s.all.branches);
    EXPECT_LE(s.all.taken, s.all.branches - s.all.falseGuard);
    if (!sfpf) {
        EXPECT_EQ(s.all.squashed, 0u);
    }
    if (!pgu) {
        EXPECT_EQ(engine.pguBitsInserted(), 0u);
    }

    // The degenerate statics bound the rest: nothing mispredicts
    // MORE dynamic branches than there are dynamic branches, and a
    // real table-driven predictor on this workload must beat the
    // always-wrong direction at least somewhere.
    if (kind == "static-taken" || kind == "static-nottaken") {
        EXPECT_LE(s.all.mispredicts, s.all.branches);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, PredictorKindGrid,
    ::testing::Combine(::testing::ValuesIn(allPredictorKinds()),
                       ::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<KindParam> &info) {
        std::string kind = std::get<0>(info.param);
        std::replace(kind.begin(), kind.end(), '-', '_');
        return kind + (std::get<1>(info.param) ? "_sfpf" : "_nosfpf") +
            (std::get<2>(info.param) ? "_pgu" : "_nopgu");
    });

} // namespace
} // namespace pabp
