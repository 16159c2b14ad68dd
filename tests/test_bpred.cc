/**
 * @file
 * Baseline predictor tests: learning behaviour, history mechanics,
 * injection, storage accounting, BTB and RAS, the factory.
 */

#include <gtest/gtest.h>

#include "bpred/btb.hh"
#include "bpred/combining.hh"
#include "bpred/factory.hh"
#include "bpred/gshare.hh"
#include "bpred/local.hh"
#include "bpred/simple.hh"
#include "util/rng.hh"

namespace pabp {
namespace {

/** Train on a repeating outcome pattern; return accuracy tail. */
double
accuracyOnPattern(BranchPredictor &pred, std::uint32_t pc,
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

TEST(StaticPredictors, FixedDirections)
{
    StaticPredictor taken(true), not_taken(false);
    EXPECT_TRUE(taken.predict(1));
    EXPECT_FALSE(not_taken.predict(1));
    EXPECT_EQ(taken.storageBits(), 0u);
}

TEST(Bimodal, LearnsBias)
{
    BimodalPredictor pred(10);
    EXPECT_GT(accuracyOnPattern(pred, 100, {true}, 20), 0.99);
    BimodalPredictor pred2(10);
    EXPECT_GT(accuracyOnPattern(pred2, 100, {false}, 20), 0.99);
}

TEST(Bimodal, FailsOnAlternation)
{
    // Strict alternation defeats a 2-bit counter (classic result).
    BimodalPredictor pred(10);
    double acc = accuracyOnPattern(pred, 4, {true, false}, 100);
    EXPECT_LT(acc, 0.7);
}

TEST(Bimodal, DistinctPcsIndependent)
{
    BimodalPredictor pred(10);
    accuracyOnPattern(pred, 1, {true}, 10);
    accuracyOnPattern(pred, 2, {false}, 10);
    EXPECT_TRUE(pred.predict(1));
    EXPECT_FALSE(pred.predict(2));
}

TEST(Bimodal, StorageBits)
{
    EXPECT_EQ(BimodalPredictor(10).storageBits(), 1024u * 2);
    EXPECT_EQ(BimodalPredictor(12, 3).storageBits(), 4096u * 3);
}

TEST(GShare, LearnsAlternation)
{
    GSharePredictor pred(10);
    double acc = accuracyOnPattern(pred, 4, {true, false}, 100);
    EXPECT_GT(acc, 0.99);
}

TEST(GShare, LearnsLongerPattern)
{
    GSharePredictor pred(12);
    double acc =
        accuracyOnPattern(pred, 4, {true, true, false, true, false},
                          200);
    EXPECT_GT(acc, 0.99);
}

TEST(GShare, HistoryShiftsOnUpdate)
{
    GSharePredictor pred(8);
    EXPECT_EQ(pred.history(), 0u);
    pred.predict(1);
    pred.update(1, true);
    EXPECT_EQ(pred.history() & 1, 1u);
    pred.predict(1);
    pred.update(1, false);
    EXPECT_EQ(pred.history() & 3, 2u);
}

TEST(GShare, InjectedBitsEnterHistory)
{
    GSharePredictor pred(8);
    pred.injectHistoryBit(true);
    pred.injectHistoryBit(false);
    pred.injectHistoryBit(true);
    EXPECT_EQ(pred.history() & 7, 0b101u);
    EXPECT_TRUE(pred.hasGlobalHistory());
}

TEST(GShare, InjectedCorrelationIsLearnable)
{
    // Outcome equals a bit injected 1 step earlier: with injection
    // the predictor becomes near-perfect; without, it flounders.
    Rng rng(3);
    GSharePredictor with_inject(10);
    GSharePredictor without(10);
    int correct_with = 0, correct_without = 0, total = 0;
    for (int i = 0; i < 4000; ++i) {
        bool bit = rng.chance(0.5);
        with_inject.injectHistoryBit(bit);
        bool p1 = with_inject.predict(7);
        with_inject.update(7, bit);
        bool p2 = without.predict(7);
        without.update(7, bit);
        if (i > 2000) {
            correct_with += p1 == bit;
            correct_without += p2 == bit;
            ++total;
        }
    }
    EXPECT_GT(correct_with, total * 0.98);
    EXPECT_LT(correct_without, total * 0.8);
}

TEST(GShare, StorageBits)
{
    GSharePredictor pred(12);
    EXPECT_EQ(pred.storageBits(), 4096u * 2 + 12);
}

TEST(GAg, LearnsGlobalPattern)
{
    GAgPredictor pred(10);
    double acc = accuracyOnPattern(pred, 4, {true, false, false}, 200);
    EXPECT_GT(acc, 0.99);
}

TEST(GAg, InjectionSupported)
{
    GAgPredictor pred(8);
    EXPECT_TRUE(pred.hasGlobalHistory());
    pred.injectHistoryBit(true); // must not crash, must shift state
    pred.predict(0);
}

TEST(Local, LearnsPerBranchPattern)
{
    LocalPredictor pred(10, 10, 12);
    double acc =
        accuracyOnPattern(pred, 4, {true, true, true, false}, 200);
    EXPECT_GT(acc, 0.99);
}

TEST(Local, NoGlobalHistory)
{
    LocalPredictor pred(10, 10, 12);
    EXPECT_FALSE(pred.hasGlobalHistory());
}

TEST(Local, StorageBits)
{
    LocalPredictor pred(10, 10, 12);
    EXPECT_EQ(pred.storageBits(), 1024u * 10 + 4096u * 2);
}

TEST(Combining, BeatsWorstComponent)
{
    // Alternation at one PC (gshare wins), heavy bias at another
    // (bimodal fine): the tournament should track both.
    CombiningPredictor pred(std::make_unique<BimodalPredictor>(10),
                            std::make_unique<GSharePredictor>(10), 10);
    double acc_alt = accuracyOnPattern(pred, 8, {true, false}, 150);
    double acc_bias = accuracyOnPattern(pred, 9, {true}, 150);
    EXPECT_GT(acc_alt, 0.95);
    EXPECT_GT(acc_bias, 0.99);
}

TEST(Combining, InjectionReachesComponents)
{
    auto gshare = std::make_unique<GSharePredictor>(8);
    GSharePredictor *raw = gshare.get();
    CombiningPredictor pred(std::make_unique<BimodalPredictor>(8),
                            std::move(gshare), 8);
    EXPECT_TRUE(pred.hasGlobalHistory());
    pred.injectHistoryBit(true);
    EXPECT_EQ(raw->history() & 1, 1u);
}

TEST(Combining, StorageSumsComponents)
{
    CombiningPredictor pred(std::make_unique<BimodalPredictor>(8),
                            std::make_unique<GSharePredictor>(8), 8);
    EXPECT_EQ(pred.storageBits(),
              256u * 2 + (256u * 2 + 8) + 256u * 2);
}

TEST(Btb, MissThenHit)
{
    Btb btb(4, 2);
    EXPECT_FALSE(btb.lookup(100).has_value());
    btb.update(100, 777);
    auto hit = btb.lookup(100);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 777u);
    EXPECT_EQ(btb.misses(), 1u);
    EXPECT_EQ(btb.hits(), 1u);
}

TEST(Btb, LruEvictsOldest)
{
    Btb btb(0, 2); // one set, two ways
    btb.update(1, 10);
    btb.update(2, 20);
    btb.lookup(1); // refresh 1
    btb.update(3, 30); // evicts 2
    EXPECT_TRUE(btb.lookup(1).has_value());
    EXPECT_FALSE(btb.lookup(2).has_value());
    EXPECT_TRUE(btb.lookup(3).has_value());
}

TEST(Btb, UpdateRefreshesExistingEntry)
{
    Btb btb(0, 2);
    btb.update(1, 10);
    btb.update(1, 99);
    auto hit = btb.lookup(1);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 99u);
}

TEST(Ras, PushPopOrder)
{
    ReturnAddressStack ras(4);
    ras.push(10);
    ras.push(20);
    EXPECT_EQ(ras.pop().value(), 20u);
    EXPECT_EQ(ras.pop().value(), 10u);
    EXPECT_FALSE(ras.pop().has_value());
}

TEST(Ras, OverflowWrapsOverwritingOldest)
{
    ReturnAddressStack ras(2);
    ras.push(1);
    ras.push(2);
    ras.push(3); // overwrites 1
    EXPECT_EQ(ras.pop().value(), 3u);
    EXPECT_EQ(ras.pop().value(), 2u);
    EXPECT_FALSE(ras.pop().has_value());
}

TEST(Factory, BuildsEveryKind)
{
    for (const char *kind :
         {"static-taken", "static-nottaken", "bimodal", "gshare", "gag",
          "local", "agree", "yags", "perceptron", "comb", "tage"}) {
        PredictorPtr pred = makePredictor(kind, 10);
        ASSERT_NE(pred, nullptr) << kind;
        pred->predict(1);
        pred->update(1, true);
    }
}

TEST(Factory, RejectsOutOfRangeSizeWithTypedError)
{
    // 0 and >= 31 used to reach `1 << entries_log2` table sizing
    // unvalidated; both must now fail with InvalidArgument, not UB
    // or a constructor panic.
    for (unsigned bad : {0u, 25u, 31u, 64u}) {
        for (const char *kind : {"gshare", "tage", "yags", "local"}) {
            Expected<PredictorPtr> made = tryMakePredictor(kind, bad);
            ASSERT_FALSE(made.ok()) << kind << " at " << bad;
            EXPECT_EQ(made.status().code(),
                      StatusCode::InvalidArgument)
                << kind << " at " << bad;
        }
    }
    // The static kinds ignore entries_log2 and stay constructible.
    EXPECT_TRUE(tryMakePredictor("static-taken", 0).ok());
}

TEST(Factory, UnknownKindIsNotFound)
{
    Expected<PredictorPtr> made = tryMakePredictor("oracle", 10);
    ASSERT_FALSE(made.ok());
    EXPECT_EQ(made.status().code(), StatusCode::NotFound);
}

TEST(Factory, ExtremeValidSizesBuildEveryKind)
{
    // The clamp floors (yags' cache, comb's halves, perceptron's
    // rows, tage's tagged tables) must keep the whole valid range
    // constructible, bottom edge included.
    for (unsigned size : {1u, 2u, 24u}) {
        for (const char *kind :
             {"bimodal", "gshare", "gag", "local", "agree", "yags",
              "perceptron", "comb", "tage"}) {
            Expected<PredictorPtr> made = tryMakePredictor(kind, size);
            ASSERT_TRUE(made.ok())
                << kind << " at " << size << ": "
                << made.status().toString();
            made.value()->predict(4);
            made.value()->update(4, true);
        }
    }
}

TEST(Factory, ClampWarningPrintsOncePerProcess)
{
    // local caps its history at 10 bits, so 2^17 entries clamp. No
    // other test builds local at 17, so the first build here is the
    // first time this process meets the message; the second build
    // must stay quiet.
    const std::string line =
        "local: nominal local history bits 17 clamped to 10";
    ::testing::internal::CaptureStderr();
    ASSERT_TRUE(tryMakePredictor("local", 17).ok());
    ASSERT_TRUE(tryMakePredictor("local", 17).ok());
    const std::string err = ::testing::internal::GetCapturedStderr();
    std::size_t lines = 0;
    for (std::size_t at = err.find(line); at != std::string::npos;
         at = err.find(line, at + line.size()))
        ++lines;
    EXPECT_EQ(lines, 1u) << err;
}

} // namespace
} // namespace pabp
