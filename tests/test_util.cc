/**
 * @file
 * Unit tests for the util library: RNG, saturating counters, stats,
 * tables, options, CRC-32 and the mapped lane.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

#include "util/crc32.hh"
#include "util/mapped_lane.hh"
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

/** The textbook byte-at-a-time CRC-32 the slice-by-8 loop replaces. */
std::uint32_t
bytewiseCrc(std::uint32_t state, const unsigned char *p, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i) {
        state ^= p[i];
        for (int k = 0; k < 8; ++k)
            state = (state & 1) ? 0xedb88320u ^ (state >> 1) : state >> 1;
    }
    return state;
}

std::uint32_t
referenceCrc(const unsigned char *p, std::size_t len)
{
    return bytewiseCrc(0xffffffffu, p, len) ^ 0xffffffffu;
}

std::vector<unsigned char>
randomBytes(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<unsigned char> bytes(n);
    for (unsigned char &b : bytes)
        b = static_cast<unsigned char>(rng.below(256));
    return bytes;
}

TEST(Crc32, KnownAnswer)
{
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
    EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment)
{
    const std::vector<unsigned char> bytes = randomBytes(64 + 8, 7);
    for (std::size_t start = 0; start < 8; ++start)
        for (std::size_t len = 0; len <= 64; ++len)
            ASSERT_EQ(crc32(bytes.data() + start, len),
                      referenceCrc(bytes.data() + start, len))
                << "start " << start << ", length " << len;
}

TEST(Crc32, MatchesBytewiseReferenceOnAnEmulatorImage)
{
    // The size of the emulator memory image a checkpoint checksums,
    // from an odd start.
    const std::vector<unsigned char> bytes = randomBytes((8u << 20) + 3, 11);
    EXPECT_EQ(crc32(bytes.data() + 3, 8u << 20),
              referenceCrc(bytes.data() + 3, 8u << 20));
}

TEST(Crc32, AnySplitIntoUpdatesGivesTheOneShotValue)
{
    const std::vector<unsigned char> bytes = randomBytes(200, 13);
    const std::uint32_t want = referenceCrc(bytes.data(), bytes.size());
    Rng rng(17);
    for (int trial = 0; trial < 200; ++trial) {
        Crc32 crc;
        std::size_t at = 0;
        while (at < bytes.size()) {
            const std::size_t n = std::min<std::size_t>(
                rng.below(20), bytes.size() - at);
            crc.update(bytes.data() + at, n);
            at += n;
        }
        ASSERT_EQ(crc.value(), want) << "trial " << trial;
    }
    Crc32 crc;
    crc.update(bytes.data(), 100);
    crc.reset();
    crc.update(bytes.data(), bytes.size());
    EXPECT_EQ(crc.value(), want);
}

TEST(MappedLane, GrowsZeroFilledAndKeepsContents)
{
    MappedLane<std::uint32_t> lane;
    for (std::uint32_t i = 0; i < 5000; ++i)
        lane.push_back(i * 3);
    ASSERT_EQ(lane.size(), 5000u);
    // Growing past the capacity moves the mapping and keeps the data.
    lane.resize(100000);
    for (std::uint32_t i = 0; i < 5000; ++i)
        ASSERT_EQ(lane[i], i * 3);
    for (std::size_t i = 5000; i < lane.size(); ++i)
        ASSERT_EQ(lane[i], 0u);
    // Entries written, cut off and grown back are zero again.
    lane[4000] = 7;
    lane.resize(3000);
    lane.resize(6000);
    EXPECT_EQ(lane[2999], 2999u * 3);
    for (std::size_t i = 3000; i < 6000; ++i)
        ASSERT_EQ(lane[i], 0u);
}

TEST(MappedLane, ShrinkKeepsWholePagesAndCopiesAreDeep)
{
    MappedLane<std::uint8_t> lane;
    lane.reserve(1u << 20);
    EXPECT_GE(lane.capacity(), 1u << 20);
    lane.resize(10000);
    lane[9999] = 9;
    lane.shrink_to_fit();
    EXPECT_EQ(lane.capacity(), anon_map::roundToPages(10000));
    EXPECT_EQ(lane[9999], 9);

    MappedLane<std::uint8_t> copy = lane;
    copy[9999] = 1;
    EXPECT_EQ(lane[9999], 9);
    EXPECT_FALSE(copy == lane);
    copy[9999] = 9;
    EXPECT_TRUE(copy == lane);
    const MappedLane<std::uint8_t> slice(lane.begin() + 9990, lane.end());
    EXPECT_EQ(slice.size(), 10u);
    EXPECT_EQ(slice[9], 9);

    MappedLane<std::uint8_t> moved = std::move(lane);
    EXPECT_EQ(moved.size(), 10000u);
    EXPECT_EQ(lane.size(), 0u);
    moved.resize(0);
    moved.shrink_to_fit();
    EXPECT_EQ(moved.capacity(), 0u);
}

TEST(MappedLane, AMappingReusedFromThePoolReadsZero)
{
    const void *old = nullptr;
    {
        MappedLane<std::uint32_t> a;
        a.resize(5000);
        std::fill(a.begin(), a.end(), 0xffffffffu);
        old = a.data();
    }
    // The freed mapping waits in the pool for a lane of its size.
    MappedLane<std::uint32_t> b;
    b.resize(5000);
    EXPECT_EQ(static_cast<const void *>(b.data()), old);
    for (std::size_t i = 0; i < b.size(); ++i)
        ASSERT_EQ(b[i], 0u) << i;
    b.resize(10);
    b.resize(5000);
    for (std::size_t i = 0; i < b.size(); ++i)
        ASSERT_EQ(b[i], 0u) << i;
}

TEST(MappedLane, TailPastSizeIsPoisonedUnderAsan)
{
    // A lane's mapping runs to a page end, past any heap redzone, so
    // under ASan the lane poisons [size, capacity) itself.
    MappedLane<std::uint8_t> lane;
    lane.resize(100);
    const volatile std::uint8_t *p = lane.data();
    EXPECT_EQ(p[99], 0);
#if defined(__SANITIZE_ADDRESS__)
    EXPECT_DEATH((void)p[100], "use-after-poison");
#endif
    lane.resize(200);
    EXPECT_EQ(p[199], 0);
#if defined(__SANITIZE_ADDRESS__)
    EXPECT_DEATH((void)p[200], "use-after-poison");
#endif
    EXPECT_EQ(lane.capacity(), anon_map::pageBytes());
}

} // namespace
} // namespace pabp
