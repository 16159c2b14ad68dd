/**
 * @file
 * Unit tests for the util library: RNG, saturating counters, stats,
 * tables, options.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

#include "util/options.hh"
#include "util/rng.hh"
#include "util/sat_counter.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace pabp {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, ZeroSeedRemapped)
{
    Rng z(0);
    EXPECT_NE(z.next(), 0u); // state must never be stuck at zero
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        std::int64_t v = r.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng r(11);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.02);
}

TEST(SatCounter, DefaultsWeaklyNotTaken)
{
    SatCounter c(2);
    EXPECT_EQ(c.raw(), 1u);
    EXPECT_FALSE(c.predictTaken());
}

TEST(SatCounter, SaturatesHigh)
{
    SatCounter c(2);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.raw(), 3u);
    EXPECT_TRUE(c.isSaturated());
    EXPECT_TRUE(c.predictTaken());
}

TEST(SatCounter, SaturatesLow)
{
    SatCounter c(2);
    for (int i = 0; i < 10; ++i)
        c.decrement();
    EXPECT_EQ(c.raw(), 0u);
    EXPECT_TRUE(c.isSaturated());
    EXPECT_FALSE(c.predictTaken());
}

TEST(SatCounter, HysteresisNeedsTwoFlips)
{
    SatCounter c(2, 3); // strongly taken
    c.update(false);
    EXPECT_TRUE(c.predictTaken()); // still taken after one miss
    c.update(false);
    EXPECT_FALSE(c.predictTaken());
}

class SatCounterWidth : public ::testing::TestWithParam<unsigned>
{};

TEST_P(SatCounterWidth, MsbRuleThreshold)
{
    unsigned bits = GetParam();
    unsigned max = (1u << bits) - 1;
    for (unsigned v = 0; v <= max; ++v) {
        SatCounter c(bits, static_cast<int>(v));
        EXPECT_EQ(c.predictTaken(), v >= (max + 1) / 2)
            << "bits=" << bits << " v=" << v;
    }
}

TEST_P(SatCounterWidth, IncrementReachesMaxExactly)
{
    unsigned bits = GetParam();
    SatCounter c(bits, 0);
    unsigned max = (1u << bits) - 1;
    for (unsigned i = 0; i < max; ++i)
        c.increment();
    EXPECT_EQ(c.raw(), max);
    c.increment();
    EXPECT_EQ(c.raw(), max);
}

INSTANTIATE_TEST_SUITE_P(Widths, SatCounterWidth,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(4, 10);
    h.sample(0);
    h.sample(9);
    h.sample(10);
    h.sample(39);
    h.sample(40); // overflow
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.overflowCount(), 1u);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.mean(), (0 + 9 + 10 + 39 + 40) / 5.0);
}

TEST(Table, AlignedPrint)
{
    Table t({"name", "value"});
    t.startRow();
    t.cell("x");
    t.cell(std::uint64_t{7});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("| name"), std::string::npos);
    EXPECT_NE(out.find("| x"), std::string::npos);
    EXPECT_EQ(t.at(0, 1), "7");
}

TEST(Table, NumericFormatting)
{
    Table t({"a", "b"});
    t.startRow();
    t.cell(0.12345, 3);
    t.percentCell(0.125);
    EXPECT_EQ(t.at(0, 0), "0.123");
    EXPECT_EQ(t.at(0, 1), "12.50%");
}

TEST(Table, CsvOutput)
{
    Table t({"a", "b"});
    t.startRow();
    t.cell("1");
    t.cell("2");
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Options, DefaultsAndOverrides)
{
    Options o;
    o.declare("steps", "100", "run length");
    o.declare("name", "gshare", "predictor");
    const char *argv[] = {"prog", "--steps=250"};
    ASSERT_TRUE(o.parse(2, argv));
    EXPECT_EQ(o.integer("steps"), 250);
    EXPECT_EQ(o.str("name"), "gshare");
}

TEST(Options, SpaceSeparatedValue)
{
    Options o;
    o.declare("k", "1", "k");
    const char *argv[] = {"prog", "--k", "9"};
    ASSERT_TRUE(o.parse(3, argv));
    EXPECT_EQ(o.integer("k"), 9);
}

TEST(Options, HelpReturnsFalse)
{
    Options o;
    o.declare("k", "1", "k");
    const char *argv[] = {"prog", "--help"};
    EXPECT_FALSE(o.parse(2, argv));
}

TEST(Options, FlagAndRealParsing)
{
    Options o;
    o.declare("csv", "0", "emit csv");
    o.declare("ratio", "0.5", "a ratio");
    const char *argv[] = {"prog", "--csv", "--ratio=0.25"};
    ASSERT_TRUE(o.parse(3, argv));
    EXPECT_TRUE(o.flag("csv"));
    EXPECT_DOUBLE_EQ(o.real("ratio"), 0.25);
}

TEST(Options, ParseUnsignedTakesWholeDecimalTokensOnly)
{
    struct Case
    {
        const char *text;
        std::uint64_t max;
        bool ok;
        std::uint64_t value;
    };
    constexpr std::uint64_t u64max = ~std::uint64_t{0};
    for (const Case &c : {
             Case{"0", u64max, true, 0},
             Case{"42", u64max, true, 42},
             Case{"007", u64max, true, 7},
             Case{"18446744073709551615", u64max, true, u64max},
             Case{"4294967295", 4294967295u, true, 4294967295u},
             Case{"4294967296", 4294967295u, false, 0},
             Case{"18446744073709551616", u64max, false, 0},
             Case{"99999999999999999999999", u64max, false, 0},
             Case{"", u64max, false, 0},
             Case{"-1", u64max, false, 0},
             Case{"+1", u64max, false, 0},
             Case{" 1", u64max, false, 0},
             Case{"1 ", u64max, false, 0},
             Case{"12x", u64max, false, 0},
             Case{"abc", u64max, false, 0},
             Case{"0x10", u64max, false, 0},
             Case{"1e3", u64max, false, 0},
         }) {
        std::uint64_t out = 123;
        EXPECT_EQ(parseUnsigned(c.text, c.max, out), c.ok) << c.text;
        EXPECT_EQ(out, c.ok ? c.value : 123u) << c.text;
    }
}

TEST(Options, IntegerAcceptsSignedDecimalInRange)
{
    Options o;
    o.declare("n", "0", "n");
    for (const auto &[text, want] :
         std::vector<std::pair<const char *, std::int64_t>>{
             {"0", 0},
             {"-5", -5},
             {"9223372036854775807", INT64_MAX},
             {"-9223372036854775808", INT64_MIN}}) {
        const std::string arg = std::string("--n=") + text;
        const char *argv[] = {"prog", arg.c_str()};
        ASSERT_TRUE(o.parse(2, argv));
        EXPECT_EQ(o.integer("n"), want) << text;
    }
}

TEST(Options, MalformedIntegersAreFatalAndNameTheOption)
{
    for (const char *text :
         {"abc", "12x", "", "-", "--1", "+5", " 5", "0x10",
          "9223372036854775808", "-9223372036854775809"}) {
        Options o;
        o.declare("steps", "0", "steps");
        const std::string arg = std::string("--steps=") + text;
        const char *argv[] = {"prog", arg.c_str()};
        ASSERT_TRUE(o.parse(2, argv));
        EXPECT_EXIT((void)o.integer("steps"),
                    ::testing::ExitedWithCode(1), "bad --steps")
            << text;
    }
}

TEST(Options, UnsignedIntegerRejectsNegativeAndOutOfRange)
{
    Options o;
    o.declare("jobs", "0", "jobs");
    o.declare("steps", "0", "steps");
    const char *good[] = {"prog", "--jobs=4294967295",
                          "--steps=18446744073709551615"};
    ASSERT_TRUE(o.parse(3, good));
    EXPECT_EQ(o.unsignedInteger<unsigned>("jobs"), 4294967295u);
    EXPECT_EQ(o.unsignedInteger("steps"), ~std::uint64_t{0});

    for (const char *text : {"-1", "4294967296", "abc", "1.5"}) {
        const std::string arg = std::string("--jobs=") + text;
        const char *argv[] = {"prog", arg.c_str()};
        ASSERT_TRUE(o.parse(2, argv));
        EXPECT_EXIT((void)o.unsignedInteger<unsigned>("jobs"),
                    ::testing::ExitedWithCode(1), "bad --jobs")
            << text;
    }
}

} // namespace
} // namespace pabp
