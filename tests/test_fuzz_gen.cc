/**
 * @file
 * Property tests for the fuzz generator and its case/shrink
 * machinery (docs/FUZZING.md): fixed seed => byte-identical program;
 * generated IR always verifies and its if-converted lowering always
 * passes pred_verify; the branch-density knob is monotone in the
 * static branch count; the `.pabp` case format round-trips; and the
 * shrinker converges to the smallest still-failing knob values.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "compiler/pred_verify.hh"
#include "fuzz/fuzz_case.hh"
#include "fuzz/fuzz_gen.hh"
#include "fuzz/fuzz_runner.hh"
#include "fuzz/shrink.hh"
#include "util/fnv.hh"

namespace pabp::fuzz {
namespace {

std::vector<EncodedInst>
encodeAll(const Program &prog)
{
    std::vector<EncodedInst> out;
    out.reserve(prog.insts.size());
    for (const Inst &inst : prog.insts)
        out.push_back(encode(inst));
    return out;
}

// ---------------------------------------------------------------------
// Determinism: equal (seed, config) gives byte-identical programs.

TEST(FuzzGen, FixedSeedGivesByteIdenticalPrograms)
{
    FuzzProgramConfig cfg;
    cfg.callDepth = 2;
    cfg.divEdgePercent = 30;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        FuzzPrograms a = buildFuzzPrograms(seed, cfg);
        FuzzPrograms b = buildFuzzPrograms(seed, cfg);
        EXPECT_EQ(encodeAll(a.branchy.prog), encodeAll(b.branchy.prog))
            << "seed " << seed;
        EXPECT_EQ(encodeAll(a.converted.prog),
                  encodeAll(b.converted.prog))
            << "seed " << seed;
        EXPECT_EQ(a.body.fn.dump(), b.body.fn.dump()) << "seed " << seed;
    }
    // The config fingerprint names the workload (and so its cache
    // entries and metrics files): pinned to its historical value.
    EXPECT_EQ(configFingerprint(cfg), 0x2b88a34965866bffull);
}

TEST(FuzzGen, DifferentSeedsGiveDifferentPrograms)
{
    FuzzProgramConfig cfg;
    FuzzPrograms a = buildFuzzPrograms(1, cfg);
    FuzzPrograms b = buildFuzzPrograms(2, cfg);
    EXPECT_NE(encodeAll(a.branchy.prog), encodeAll(b.branchy.prog));
}

// ---------------------------------------------------------------------
// Well-formedness: IR verifies, lowerings validate, converted code
// passes the pred_verify codegen contract - across seeds and knobs.

TEST(FuzzGen, GeneratedProgramsAlwaysVerify)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        FuzzProgramConfig cfg;
        cfg.branchDensity = static_cast<unsigned>((seed * 17) % 101);
        cfg.hbPressure = static_cast<unsigned>((seed * 31) % 101);
        cfg.predNestDepth = static_cast<unsigned>(seed % 5);
        cfg.loopDepth = static_cast<unsigned>(seed % 4);
        cfg.callDepth = static_cast<unsigned>(seed % 4);
        cfg.divEdgePercent = seed % 2 ? 40 : 0;
        cfg.emptyRas = (seed % 5) == 0;

        FuzzPrograms p = buildFuzzPrograms(seed, cfg);
        EXPECT_EQ(verifyFunction(p.body.fn), "") << "seed " << seed;
        EXPECT_EQ(validateProgram(p.branchy.prog), "")
            << "seed " << seed;
        EXPECT_EQ(validateProgram(p.converted.prog), "")
            << "seed " << seed;
        EXPECT_EQ(verifyPredicatedProgram(p.converted.prog), "")
            << "seed " << seed;
    }
}

// ---------------------------------------------------------------------
// Knob monotonicity: raising branchDensity with a fixed seed never
// removes a static branch (each item has its own rng stream, so the
// branchy/straight flips are independent).

TEST(FuzzGen, BranchDensityIsMonotoneInStaticBranches)
{
    const unsigned densities[] = {0, 20, 40, 60, 80, 100};
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        unsigned prev = 0;
        for (unsigned density : densities) {
            FuzzProgramConfig cfg;
            cfg.items = 16;
            cfg.branchDensity = density;
            Workload wl = makeFuzzWorkload(seed, cfg);
            unsigned count = staticCondBranches(wl.fn);
            EXPECT_GE(count, prev)
                << "seed " << seed << " density " << density;
            prev = count;
        }
        // Full density must actually add branches over zero density
        // (zero still has the outer loop's one CondBranch).
        FuzzProgramConfig zero;
        zero.items = 16;
        zero.branchDensity = 0;
        FuzzProgramConfig full = zero;
        full.branchDensity = 100;
        EXPECT_GT(staticCondBranches(makeFuzzWorkload(seed, full).fn),
                  staticCondBranches(makeFuzzWorkload(seed, zero).fn))
            << "seed " << seed;
    }
}

// The data-branch knob is drawn only when nonzero, so turning it on
// must strictly add static branches for a branch-free base config,
// and the programs must still pass every verification layer (the
// knob reserves its own stream register; a clash with the counter or
// driver registers would corrupt control flow, not just data).
TEST(FuzzGen, DataBranchKnobAddsBranchesAndVerifies)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        FuzzProgramConfig off;
        off.items = 8;
        off.branchDensity = 0;
        FuzzProgramConfig on = off;
        on.dataBranchPercent = 100;
        EXPECT_GT(staticCondBranches(makeFuzzWorkload(seed, on).fn),
                  staticCondBranches(makeFuzzWorkload(seed, off).fn))
            << "seed " << seed;

        FuzzPrograms p = buildFuzzPrograms(seed, on);
        EXPECT_EQ(verifyFunction(p.body.fn), "") << "seed " << seed;
        EXPECT_EQ(validateProgram(p.branchy.prog), "")
            << "seed " << seed;
        EXPECT_EQ(validateProgram(p.converted.prog), "")
            << "seed " << seed;
        EXPECT_EQ(verifyPredicatedProgram(p.converted.prog), "")
            << "seed " << seed;
    }
}

TEST(FuzzGen, ClampConfigEnforcesRanges)
{
    FuzzProgramConfig cfg;
    cfg.items = 1000;
    cfg.branchDensity = 400;
    cfg.predNestDepth = 99;
    cfg.loopDepth = 99;
    cfg.callDepth = 99;
    cfg.hbPressure = 101;
    cfg.divEdgePercent = 300;
    cfg.repeats = 100000;
    cfg.dataWindow = 1000; // not a power of two
    clampConfig(cfg);
    EXPECT_EQ(cfg.items, 32u);
    EXPECT_EQ(cfg.branchDensity, 100u);
    EXPECT_EQ(cfg.predNestDepth, 4u);
    EXPECT_EQ(cfg.loopDepth, 4u);
    EXPECT_EQ(cfg.callDepth, 6u);
    EXPECT_EQ(cfg.hbPressure, 100u);
    EXPECT_EQ(cfg.divEdgePercent, 100u);
    // The cap leaves the miner room to grow run length well past the
    // campaign draw's range (mining climbs repeats multiplicatively).
    EXPECT_EQ(cfg.repeats, 4096);
    EXPECT_EQ(cfg.dataWindow, 512); // rounded down to a power of two

    FuzzProgramConfig tiny;
    tiny.items = 0;
    tiny.repeats = 0;
    tiny.dataWindow = 3;
    clampConfig(tiny);
    EXPECT_EQ(tiny.items, 1u);
    EXPECT_EQ(tiny.repeats, 1);
    EXPECT_EQ(tiny.dataWindow, 16);
}

// ---------------------------------------------------------------------
// Case format: canonical round trip and typed parse errors.

TEST(FuzzCaseFormat, RoundTripsThroughText)
{
    FuzzCase c;
    c.name = "roundtrip";
    c.seed = 123456789;
    c.predictor = "perceptron";
    c.sizeLog2 = 9;
    c.engine.useSfpf = true;
    c.engine.usePgu = true;
    c.engine.useSpeculativeSquash = true;
    c.engine.specGate = EngineConfig::SpecGate::Jrs;
    c.engine.availDelay = 17;
    c.oracles = static_cast<unsigned>(Oracle::Replay) |
        static_cast<unsigned>(Oracle::Trace);
    c.maxInsts = 7777;
    c.gen.items = 5;
    c.gen.branchDensity = 33;
    c.gen.predNestDepth = 3;
    c.gen.loopDepth = 1;
    c.gen.callDepth = 2;
    c.gen.hbPressure = 91;
    c.gen.divEdgePercent = 12;
    c.gen.dataBranchPercent = 45;
    c.gen.emptyRas = true;
    c.gen.dataWindow = 256;
    c.gen.repeats = 9;
    c.corruptFlips = 4;
    c.corruptSeed = 55;
    c.corruptTruncate = 13;

    Expected<FuzzCase> back = parseCase(formatCase(c));
    ASSERT_TRUE(back.ok()) << back.status().toString();
    const FuzzCase &r = back.value();
    EXPECT_EQ(r.name, c.name);
    EXPECT_EQ(r.seed, c.seed);
    EXPECT_EQ(r.predictor, c.predictor);
    EXPECT_EQ(r.sizeLog2, c.sizeLog2);
    EXPECT_EQ(engineSpecString(r.engine), engineSpecString(c.engine));
    EXPECT_EQ(r.engine.availDelay, c.engine.availDelay);
    EXPECT_EQ(r.oracles, c.oracles);
    EXPECT_EQ(r.maxInsts, c.maxInsts);
    EXPECT_TRUE(r.gen == c.gen);
    EXPECT_EQ(r.corruptFlips, c.corruptFlips);
    EXPECT_EQ(r.corruptSeed, c.corruptSeed);
    EXPECT_EQ(r.corruptTruncate, c.corruptTruncate);
}

TEST(FuzzCaseFormat, TypedParseErrors)
{
    EXPECT_EQ(parseCase("seed=1\n").status().code(),
              StatusCode::BadMagic); // no format line
    EXPECT_EQ(parseCase("format=pabp-fuzz-case-v9\n").status().code(),
              StatusCode::VersionMismatch);
    EXPECT_EQ(
        parseCase("format=pabp-fuzz-case-v1\nbogus_key=1\n")
            .status()
            .code(),
        StatusCode::ParseError);
    EXPECT_EQ(
        parseCase("format=pabp-fuzz-case-v1\nseed=12x\n")
            .status()
            .code(),
        StatusCode::ParseError);
    EXPECT_EQ(
        parseCase("format=pabp-fuzz-case-v1\noracles=nope\n")
            .status()
            .code(),
        StatusCode::ParseError);
    EXPECT_EQ(
        parseCase("format=pabp-fuzz-case-v1\nengine=sfpf+warp\n")
            .status()
            .code(),
        StatusCode::ParseError);

    // A number too big for its field is rejected, naming the key,
    // rather than wrapping into a different (smaller) case.
    const char *const too_big[][2] = {
        {"size_log2", "4294967304"},
        {"items", "4294967298"},
        {"repeats", "9223372036854775808"},
        {"data_window", "18446744073709551615"},
    };
    for (const auto &[key, value] : too_big) {
        const Status st =
            parseCase(std::string("format=pabp-fuzz-case-v1\n") + key +
                      "=" + value + "\n")
                .status();
        EXPECT_EQ(st.code(), StatusCode::ParseError) << key;
        EXPECT_NE(st.message().find(key), std::string::npos)
            << st.toString();
    }
}

TEST(FuzzCaseFormat, DerivedCasesFormatAsPinned)
{
    // The canonical text of the first thousand campaign cases, pinned
    // by hash: every key, default, value and line order of the format.
    Fnv1a fnv;
    for (std::uint64_t seed = 1; seed <= 1000; ++seed)
        fnv.str(formatCase(deriveCase(seed)));
    EXPECT_EQ(fnv.value(), 0x49dfd478199ead4dull);
}

TEST(FuzzCaseFormat, EngineSpecRoundTrips)
{
    const char *const specs[] = {"base",
                                 "sfpf",
                                 "pgu",
                                 "sfpf+pgu",
                                 "spec",
                                 "jrs",
                                 "sfpf+pgu+spec",
                                 "sfpf+pgu+jrs",
                                 "sfpf+train",
                                 "sfpf+consdef"};
    for (const char *spec : specs) {
        Expected<EngineConfig> cfg = parseEngineSpec(spec);
        ASSERT_TRUE(cfg.ok()) << spec;
        EXPECT_EQ(engineSpecString(cfg.value()), spec) << spec;
    }
}

TEST(FuzzCaseFormat, EngineSpecCarriesPguValueAndDelay)
{
    Expected<EngineConfig> cfg = parseEngineSpec("sfpf+pgu+pguboth+pgudelay64");
    ASSERT_TRUE(cfg.ok()) << cfg.status().toString();
    EXPECT_TRUE(cfg.value().useSfpf);
    EXPECT_TRUE(cfg.value().usePgu);
    EXPECT_EQ(cfg.value().pgu.value, PguValue::BothWrites);
    EXPECT_EQ(cfg.value().pgu.delay, 64u);
    EXPECT_EQ(engineSpecString(cfg.value()), "sfpf+pgu+pguboth+pgudelay64");
    for (const char *spec : {"pgu+pgudelay1", "pgu+pgudelay0", "pgu+pguboth",
                             "pgu+pgudelay4294967295"}) {
        Expected<EngineConfig> c = parseEngineSpec(spec);
        ASSERT_TRUE(c.ok()) << spec;
        EXPECT_EQ(engineSpecString(c.value()), spec);
    }
    // The default delay and value write no token.
    EXPECT_EQ(engineSpecString(parseEngineSpec("pgu+pgudelay8").value()),
              "pgu");
    for (const char *bad : {"pgu+pgudelay", "pgu+pgudelay-1", "pgu+pgudelay1x",
                            "pgu+pgudelay4294967296", "pgu+pgudelay +1"}) {
        EXPECT_EQ(parseEngineSpec(bad).status().code(),
                  StatusCode::ParseError)
            << bad;
    }
}

TEST(FuzzCaseFormat, OracleMaskFormatting)
{
    EXPECT_EQ(formatOracleMask(allOracles), "all");
    unsigned two = static_cast<unsigned>(Oracle::IfConvert) |
        static_cast<unsigned>(Oracle::Checkpoint);
    EXPECT_EQ(formatOracleMask(two), "ifconvert,checkpoint");
    Expected<unsigned> parsed = parseOracleMask("ifconvert,checkpoint");
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), two);
    EXPECT_TRUE(parseOracleMask("all").ok());
    EXPECT_FALSE(parseOracleMask("").ok());
}

// ---------------------------------------------------------------------
// Shrinker: converges to the smallest still-failing knobs and
// respects its evaluation budget.

TEST(FuzzShrink, ConvergesToMinimalFailingKnobs)
{
    FuzzCase start;
    start.gen.items = 8;
    start.maxInsts = 20'000;

    // Synthetic failure: reproduces iff items >= 4 AND maxInsts >= 100.
    FailPredicate pred = [](const FuzzCase &c) {
        return c.gen.items >= 4 && c.maxInsts >= 100;
    };
    ASSERT_TRUE(pred(start));
    ShrinkResult r = shrinkCaseWith(start, pred, 200);
    EXPECT_EQ(r.shrunk.gen.items, 4u);
    // Binary descent halves toward the floor and stops once the
    // midpoint stops reproducing, so it converges to within 2x of
    // the true threshold (100 here), not to it exactly.
    EXPECT_GE(r.shrunk.maxInsts, 100u);
    EXPECT_LT(r.shrunk.maxInsts, 212u);
    EXPECT_TRUE(pred(r.shrunk));
    EXPECT_GT(r.accepted, 0u);
    // Irrelevant knobs collapse to their floors.
    EXPECT_EQ(r.shrunk.gen.repeats, 1);
    EXPECT_EQ(r.shrunk.gen.callDepth, 0u);
    EXPECT_EQ(r.shrunk.gen.branchDensity, 0u);
}

TEST(FuzzShrink, MinimizesMultiKnobCaseAsPinned)
{
    FuzzCase start;
    start.name = "shrink-pin";
    start.seed = 99;
    start.predictor = "tage";
    start.sizeLog2 = 10;
    start.engine.useSfpf = true;
    start.engine.usePgu = true;
    start.engine.availDelay = 3;
    start.gen.items = 12;
    start.gen.branchDensity = 80;
    start.gen.predNestDepth = 3;
    start.gen.loopDepth = 3;
    start.gen.callDepth = 4;
    start.gen.hbPressure = 70;
    start.gen.divEdgePercent = 40;
    start.gen.dataBranchPercent = 30;
    start.gen.emptyRas = true;
    start.gen.dataWindow = 2048;
    start.gen.repeats = 40;
    start.corruptFlips = 6;
    start.corruptSeed = 5;
    start.corruptTruncate = 100;
    start.contexts = 4;
    start.ctxSchedule = ScheduleKind::Bursty;
    start.ctxQuantum = 64;
    start.ctxSeed = 3;
    start.ctxShared = false;
    start.ctxTagBits = 3;

    // A failure that needs several knobs at once, so every shrink step
    // - floors, binary descent, the two boolean steps - shows in the
    // result.
    FailPredicate pred = [](const FuzzCase &c) {
        return c.gen.items >= 3 && c.maxInsts >= 300 &&
            c.gen.callDepth >= 2 && c.gen.hbPressure >= 20 &&
            c.gen.dataWindow >= 100 && c.corruptTruncate >= 7 &&
            c.contexts >= 2 && !c.ctxShared && c.gen.repeats >= 5 &&
            c.gen.divEdgePercent + c.gen.dataBranchPercent >= 25;
    };
    ASSERT_TRUE(pred(start));
    ShrinkResult r = shrinkCaseWith(start, pred, 200);
    const std::string want = "# pabp fuzz case (docs/FUZZING.md)\n"
                             "format=pabp-fuzz-case-v1\n"
                             "name=shrink-pin\n"
                             "seed=99\n"
                             "predictor=tage\n"
                             "size_log2=10\n"
                             "engine=sfpf+pgu\n"
                             "avail_delay=3\n"
                             "oracles=all\n"
                             "max_insts=324\n"
                             "items=3\n"
                             "repeats=5\n"
                             "branch_density=0\n"
                             "pred_nest=0\n"
                             "loop_depth=0\n"
                             "call_depth=2\n"
                             "hb_pressure=35\n"
                             "div_edges=0\n"
                             "data_branches=30\n"
                             "empty_ras=0\n"
                             "data_window=128\n"
                             "corrupt_flips=0\n"
                             "corrupt_seed=5\n"
                             "corrupt_truncate=12\n"
                             "contexts=2\n"
                             "ctx_schedule=bursty\n"
                             "ctx_quantum=64\n"
                             "ctx_seed=3\n"
                             "ctx_shared=0\n"
                             "ctx_tag_bits=0\n";
    EXPECT_EQ(formatCase(r.shrunk), want);
    EXPECT_EQ(r.accepted, 28u);
    EXPECT_EQ(r.attempts, 87u);
}

TEST(FuzzShrink, RespectsBudget)
{
    FuzzCase start;
    FailPredicate pred = [](const FuzzCase &) { return true; };
    ShrinkResult r = shrinkCaseWith(start, pred, 3);
    EXPECT_LE(r.attempts, 3u);
}

// ---------------------------------------------------------------------
// Campaign derivation: deterministic in the seed.

TEST(FuzzCampaign, DeriveCaseIsDeterministic)
{
    for (std::uint64_t seed : {1ull, 7ull, 99999ull}) {
        FuzzCase a = deriveCase(seed);
        FuzzCase b = deriveCase(seed);
        EXPECT_EQ(formatCase(a), formatCase(b)) << seed;
    }
    EXPECT_NE(formatCase(deriveCase(1)), formatCase(deriveCase(2)));
}

} // namespace
} // namespace pabp::fuzz
