/**
 * @file
 * Tests for the extension tier: perceptron and agree predictors, the
 * predicate value predictor, speculative squash, and the exit-sinking
 * codegen ablation (including semantic equivalence in both layouts).
 */

#include <gtest/gtest.h>

#include "bpred/agree.hh"
#include "bpred/factory.hh"
#include "bpred/perceptron.hh"
#include "core/engine.hh"
#include "core/pred_value_pred.hh"
#include "sim/emulator.hh"
#include "util/rng.hh"
#include "workloads/random_gen.hh"
#include "workloads/workload.hh"

namespace pabp {
namespace {

double
trainOnPattern(BranchPredictor &pred, std::uint32_t pc,
               const std::vector<bool> &pattern, int reps)
{
    int correct = 0, total = 0, warmup = reps / 2;
    for (int r = 0; r < reps; ++r) {
        for (bool taken : pattern) {
            bool predicted = pred.predict(pc);
            pred.update(pc, taken);
            if (r >= warmup) {
                correct += predicted == taken;
                ++total;
            }
        }
    }
    return static_cast<double>(correct) / total;
}

TEST(Perceptron, LearnsBias)
{
    PerceptronPredictor pred(8, 16);
    EXPECT_GT(trainOnPattern(pred, 10, {true}, 40), 0.99);
}

TEST(Perceptron, LearnsAlternation)
{
    PerceptronPredictor pred(8, 16);
    EXPECT_GT(trainOnPattern(pred, 10, {true, false}, 100), 0.98);
}

TEST(Perceptron, LearnsLinearlySeparableCorrelation)
{
    // outcome = parity is NOT linearly separable; outcome = history
    // bit 3 is. The perceptron must nail the latter.
    PerceptronPredictor pred(8, 16);
    Rng rng(5);
    std::vector<bool> history(64, false);
    int correct = 0, total = 0;
    for (int i = 0; i < 8000; ++i) {
        bool outcome = history[3];
        bool predicted = pred.predict(21);
        pred.update(21, outcome);
        history.insert(history.begin(), outcome);
        history.pop_back();
        // Inject noise bits like PGU would.
        bool noise = rng.chance(0.5);
        pred.injectHistoryBit(noise);
        history.insert(history.begin(), noise);
        history.pop_back();
        if (i > 4000) {
            correct += predicted == outcome;
            ++total;
        }
    }
    EXPECT_GT(static_cast<double>(correct) / total, 0.97);
}

TEST(Perceptron, WeightsSaturate)
{
    PerceptronPredictor pred(4, 8, 4); // tiny weights
    for (int i = 0; i < 1000; ++i) {
        pred.predict(3);
        pred.update(3, true);
    }
    // No overflow misbehaviour: still predicts taken afterwards.
    EXPECT_TRUE(pred.predict(3));
}

TEST(Perceptron, InjectionShiftsHistory)
{
    PerceptronPredictor pred(4, 8);
    pred.injectHistoryBit(true);
    EXPECT_EQ(pred.history() & 1, 1u);
    EXPECT_TRUE(pred.hasGlobalHistory());
}

TEST(Perceptron, StorageAccountsWeights)
{
    PerceptronPredictor pred(4, 8, 8);
    // 16 rows x 9 weights x 8 bits + 8 history bits.
    EXPECT_EQ(pred.storageBits(), 16u * 9 * 8 + 8);
}

TEST(Agree, LearnsBiasedBranches)
{
    AgreePredictor pred(10, 10);
    EXPECT_GT(trainOnPattern(pred, 5, {true}, 40), 0.99);
    EXPECT_GT(trainOnPattern(pred, 6, {false}, 40), 0.99);
}

TEST(Agree, OppositeBiasesShareCountersGracefully)
{
    // Two branches with opposite bias aliasing to agree counters:
    // both map to "agree", so interference is constructive.
    AgreePredictor pred(4, 10); // tiny agree table to force aliasing
    double acc_a = trainOnPattern(pred, 100, {true}, 60);
    double acc_b = trainOnPattern(pred, 101, {false}, 60);
    EXPECT_GT(acc_a, 0.95);
    EXPECT_GT(acc_b, 0.95);
}

TEST(Agree, FirstOutcomeSetsBias)
{
    AgreePredictor pred(8, 8);
    pred.predict(9);
    pred.update(9, false); // bias = not-taken
    // Counters start weakly-agree, so the next prediction follows
    // the bias.
    EXPECT_FALSE(pred.predict(9));
}

TEST(Agree, InjectionSupported)
{
    AgreePredictor pred(8, 8);
    EXPECT_TRUE(pred.hasGlobalHistory());
    pred.injectHistoryBit(true);
}

TEST(FactoryExtensions, BuildsNewKinds)
{
    for (const char *kind : {"agree", "perceptron"}) {
        PredictorPtr pred = makePredictor(kind, 12);
        ASSERT_NE(pred, nullptr);
        pred->predict(1);
        pred->update(1, true);
        EXPECT_GT(pred->storageBits(), 0u);
    }
}

TEST(PredValuePredictor, LearnsGuardBias)
{
    PredicateValuePredictor pvp(8);
    for (int i = 0; i < 10; ++i)
        pvp.train(42, false);
    EXPECT_FALSE(pvp.predictGuard(42));
    EXPECT_TRUE(pvp.confident(42));
}

TEST(PredValuePredictor, NotConfidentWhenFluttering)
{
    PredicateValuePredictor pvp(8);
    for (int i = 0; i < 20; ++i)
        pvp.train(7, i % 2 == 0);
    EXPECT_FALSE(pvp.confident(7));
}

/** Engine helper (duplicated small utility, kept local on purpose). */
EngineStats
runWorkloadEngine(Workload wl, EngineConfig ecfg,
                  const CompileOptions &copts, std::uint64_t steps)
{
    CompiledProgram cp = compileWorkload(wl, copts);
    PredictorPtr pred = makePredictor("gshare", 12);
    PredictionEngine engine(*pred, ecfg);
    Emulator emu(cp.prog);
    if (wl.init)
        wl.init(emu.state());
    runTrace(emu, engine, steps);
    return engine.stats();
}

TEST(SpeculativeSquash, AddsCoverageBeyondFilter)
{
    // At a large delay the filter starves; speculation must add
    // squashes (counted separately) on strongly-biased guards.
    EngineConfig base;
    base.useSfpf = true;
    base.availDelay = 32;
    EngineConfig spec = base;
    spec.useSpeculativeSquash = true;

    CompileOptions copts;
    EngineStats b = runWorkloadEngine(makeWorkload("filter", 13), base,
                                      copts, 400000);
    EngineStats s = runWorkloadEngine(makeWorkload("filter", 13), spec,
                                      copts, 400000);
    EXPECT_EQ(b.specSquashed, 0u);
    EXPECT_GT(s.specSquashed, 0u);
    // The wrong-squash rate must be small on biased guards.
    EXPECT_LT(static_cast<double>(s.specSquashedWrong),
              0.05 * static_cast<double>(s.specSquashed) + 1.0);
}

TEST(SpeculativeSquash, NeverFiresWhenDisabled)
{
    EngineConfig base;
    base.useSfpf = true;
    CompileOptions copts;
    EngineStats stats = runWorkloadEngine(makeWorkload("dchain", 13),
                                          base, copts, 300000);
    EXPECT_EQ(stats.specSquashed, 0u);
    EXPECT_EQ(stats.specSquashedWrong, 0u);
}

TEST(SinkAblation, InPlaceExitsStillValid)
{
    for (const std::string &name : workloadNames()) {
        Workload wl = makeWorkload(name, 23);
        CompileOptions copts;
        copts.lowering.sinkExits = false;
        CompiledProgram cp = compileWorkload(wl, copts);
        EXPECT_EQ(validateProgram(cp.prog), "") << name;
        EXPECT_GE(cp.info.numRegions, 1u) << name;
    }
}

TEST(SinkAblation, EquivalenceHoldsWithoutSinking)
{
    for (std::uint64_t seed = 500; seed < 512; ++seed) {
        Workload wl = makeRandomWorkload(seed);
        CompileOptions normal_opts;
        normal_opts.ifConvert = false;
        CompiledProgram normal = compileWorkload(wl, normal_opts);

        CompileOptions conv_opts;
        conv_opts.lowering.sinkExits = false;
        CompiledProgram conv = compileWorkload(wl, conv_opts);

        Emulator a(normal.prog, EmuConfig{1 << 16, 20'000'000});
        Emulator c(conv.prog, EmuConfig{1 << 16, 20'000'000});
        wl.init(a.state());
        wl.init(c.state());
        a.run(20'000'000);
        c.run(20'000'000);
        ASSERT_TRUE(a.state().halted && c.state().halted) << seed;
        EXPECT_TRUE(a.state().sameArchOutcome(c.state())) << seed;
    }
}

TEST(SinkAblation, SinkingIncreasesGuardDistance)
{
    // Measure mean define-to-branch distance both ways on filter.
    auto mean_distance = [](bool sink) {
        Workload wl = makeWorkload("filter", 29);
        CompileOptions copts;
        copts.lowering.sinkExits = sink;
        CompiledProgram cp = compileWorkload(wl, copts);
        Emulator emu(cp.prog);
        wl.init(emu.state());
        std::vector<std::uint64_t> last_write(numPredRegs, 0);
        double sum = 0.0;
        std::uint64_t count = 0;
        DynInst dyn;
        for (std::uint64_t i = 0; i < 300000 && emu.step(dyn); ++i) {
            const Inst &inst = *dyn.inst;
            if (inst.op == Opcode::Br && inst.qp != 0 &&
                inst.regionBranch) {
                sum += static_cast<double>(dyn.seq -
                                           last_write[inst.qp]);
                ++count;
            }
            for (unsigned w = 0; w < dyn.numPredWrites; ++w)
                last_write[dyn.predWrites[w].reg] = dyn.seq;
        }
        return count ? sum / static_cast<double>(count) : 0.0;
    };
    EXPECT_GT(mean_distance(true), mean_distance(false));
}

} // namespace
} // namespace pabp
