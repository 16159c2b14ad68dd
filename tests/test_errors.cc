/**
 * @file
 * Error-path tests, on both sides of the recoverable/fatal split:
 * the panic/fatal discipline (gem5-style - panic for internal
 * invariants, fatal at CLI shims) must actually fire on the
 * documented conditions, while the library-level try* surfaces must
 * return typed Status values instead of terminating.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "bpred/factory.hh"
#include "isa/program.hh"
#include "sim/trace_io.hh"
#include "util/options.hh"
#include "util/sat_counter.hh"

namespace pabp {
namespace {

using ::testing::ExitedWithCode;
using ::testing::KilledBySignal;

TEST(ErrorPaths, EncodeRejectsOutOfRangeField)
{
    Inst inst = makeMovImm(1, 0);
    inst.qp = 200; // beyond the 6-bit encoding space
    EXPECT_DEATH((void)encode(inst), "assertion failed");
}

TEST(ErrorPaths, DecodeRejectsInvalidOpcode)
{
    EncodedInst enc;
    enc.word0 = 0xff; // opcode field beyond NumOpcodes
    EXPECT_DEATH((void)decode(enc), "invalid opcode");
}

TEST(ErrorPaths, UnknownPredictorIsFatal)
{
    EXPECT_EXIT((void)makePredictor("oracle", 10), ExitedWithCode(1),
                "unknown predictor kind");
}

TEST(ErrorPaths, UnknownOptionIsFatal)
{
    Options opts;
    opts.declare("steps", "1", "steps");
    const char *argv[] = {"prog", "--bogus=1"};
    EXPECT_EXIT((void)opts.parse(2, argv), ExitedWithCode(1),
                "unknown option");
}

TEST(ErrorPaths, UndeclaredOptionQueryIsFatal)
{
    Options opts;
    EXPECT_EXIT((void)opts.str("nope"), ExitedWithCode(1),
                "undeclared option");
}

TEST(ErrorPaths, SatCounterWidthAsserted)
{
    EXPECT_DEATH(SatCounter c(0), "assertion failed");
    EXPECT_DEATH(SatCounter c(9), "assertion failed");
}

// Regression: the seed's trace reader called pabp_panic on a short
// read, so a truncated *user-supplied* file took the process down.
// Truncation is environmental, not an internal invariant; it must
// surface as StatusCode::Truncated through the recoverable API.
TEST(ErrorPaths, TruncatedTraceIsRecoverableNotPanic)
{
    std::string bytes("PABPTRC2\x02", 9); // magic + partial version
    std::istringstream is(bytes);
    Expected<DecodedTrace> loaded = readTrace(is);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::Truncated);
}

TEST(ErrorPaths, UnknownPredictorIsTypedViaTryFactory)
{
    Expected<PredictorPtr> made = tryMakePredictor("oracle", 10);
    ASSERT_FALSE(made.ok());
    EXPECT_EQ(made.status().code(), StatusCode::NotFound);
}

TEST(ErrorPaths, UnknownOptionIsTypedViaTryParse)
{
    Options opts;
    opts.declare("steps", "1", "steps");
    const char *argv[] = {"prog", "--bogus=1"};
    bool help = false;
    Status status = opts.tryParse(2, argv, help);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::InvalidArgument);
}

TEST(ErrorPaths, TryDecodeRejectsInvalidEncodingWithoutPanic)
{
    EncodedInst enc;
    enc.word0 = 0xff; // opcode field beyond NumOpcodes
    EXPECT_FALSE(tryDecode(enc).has_value());
}

} // namespace
} // namespace pabp
