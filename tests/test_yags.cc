/**
 * @file
 * YAGS predictor tests: default/exception behaviour, aliasing
 * tolerance, pattern learning, injection, factory integration.
 */

#include <gtest/gtest.h>

#include "bpred/factory.hh"
#include "bpred/gshare.hh"
#include "bpred/yags.hh"
#include "util/rng.hh"

namespace pabp {
namespace {

double
patternAccuracy(BranchPredictor &pred, std::uint32_t pc,
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

TEST(Yags, LearnsBias)
{
    YagsPredictor pred(10, 9);
    EXPECT_GT(patternAccuracy(pred, 12, {true}, 40), 0.99);
    YagsPredictor pred2(10, 9);
    EXPECT_GT(patternAccuracy(pred2, 12, {false}, 40), 0.99);
}

TEST(Yags, LearnsAlternationViaExceptions)
{
    YagsPredictor pred(10, 10);
    EXPECT_GT(patternAccuracy(pred, 12, {true, false}, 200), 0.95);
}

TEST(Yags, LearnsLongerPattern)
{
    YagsPredictor pred(12, 11);
    EXPECT_GT(
        patternAccuracy(pred, 12, {true, true, false, true}, 300),
        0.95);
}

TEST(Yags, ToleratesOppositeBiasAliasing)
{
    // Many branches with conflicting biases on a small predictor:
    // YAGS (choice table is per-PC) should beat plain gshare.
    auto stress = [](BranchPredictor &pred) {
        Rng rng(17);
        int correct = 0, total = 0;
        for (int i = 0; i < 60000; ++i) {
            std::uint32_t pc = static_cast<std::uint32_t>(
                rng.below(512));
            bool outcome = pc & 1; // half biased T, half NT
            bool predicted = pred.predict(pc);
            pred.update(pc, outcome);
            if (i > 30000) {
                correct += predicted == outcome;
                ++total;
            }
        }
        return static_cast<double>(correct) / total;
    };
    YagsPredictor yags(10, 8);
    GSharePredictor gshare(9); // similar budget class
    EXPECT_GT(stress(yags), stress(gshare));
    EXPECT_GT(stress(yags), 0.97);
}

TEST(Yags, InjectionShiftsHistory)
{
    YagsPredictor pred(8, 8);
    EXPECT_TRUE(pred.hasGlobalHistory());
    pred.injectHistoryBit(true); // must not crash; affects indexing
    pred.predict(0);
    pred.update(0, true);
}

TEST(Yags, StorageAccounting)
{
    YagsPredictor pred(10, 9, 8);
    // choice 1024x2 + 2 caches x 512 x (2 cnt + 8 tag + 1 valid) + ghr
    EXPECT_EQ(pred.storageBits(), 1024u * 2 + 2u * 512 * 11 + 9);
}

TEST(Yags, FactoryBuildsIt)
{
    PredictorPtr pred = makePredictor("yags", 12);
    ASSERT_NE(pred, nullptr);
    pred->predict(1);
    pred->update(1, true);
    EXPECT_NE(pred->name().find("yags"), std::string::npos);
}

} // namespace
} // namespace pabp
