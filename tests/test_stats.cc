/**
 * @file
 * Observability-layer tests: Histogram edge cases, the StatGroup
 * gauge registry, per-branch attribution (BranchProfile),
 * the metrics exporter's golden JSON bytes and round-trip parser,
 * checkpoint-resume equivalence of exported metrics, jobs-1-vs-N
 * byte identity of metric files, and the diffMetrics report backing
 * the pabp-stats tool.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bpred/gshare.hh"
#include "core/branch_profile.hh"
#include "core/engine.hh"
#include "core/predictability.hh"
#include "isa/program.hh"
#include "sweep.hh"
#include "util/metrics.hh"
#include "util/stats.hh"
#include "workloads/workload.hh"

namespace pabp::bench {
namespace {

std::string
tempPath(const std::string &name)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + info->name() + "_" + name;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

// ---------------------------------------------------------------------
// Histogram edge cases (the behaviour documented in util/stats.hh).

TEST(HistogramStats, MeanOverZeroSamplesIsZero)
{
    Histogram h(4, 10);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
}

TEST(HistogramStats, BoundarySamplesLandInTheirOwnBucket)
{
    Histogram h(4, 10);
    h.sample(0);  // lower edge of bucket 0
    h.sample(9);  // upper edge of bucket 0
    h.sample(10); // lower edge of bucket 1
    h.sample(39); // last in-range value
    h.sample(40); // first overflow value
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.overflowCount(), 1u);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sumOfSamples(), 0u + 9 + 10 + 39 + 40);
    EXPECT_DOUBLE_EQ(h.mean(), 98.0 / 5.0);
}

// ---------------------------------------------------------------------
// StatGroup registry: gauges over component-owned counters.

TEST(StatGroupRegistry, GaugesReadTheLiveComponentCounter)
{
    StatGroup group;
    std::uint64_t owned = 0;
    group.gauge("component.counter", [&owned] { return owned; });
    EXPECT_EQ(group.value("component.counter"), 0u);
    owned = 7;
    EXPECT_EQ(group.value("component.counter"), 7u);
    EXPECT_TRUE(group.has("component.counter"));
    EXPECT_FALSE(group.has("component.other"));
}

TEST(StatGroupRegistry, SnapshotReadsEveryGauge)
{
    StatGroup group;
    std::uint64_t first = 3;
    std::uint64_t second = 11;
    group.gauge("b.gauge", [&second] { return second; });
    group.gauge("a.gauge", [&first] { return first; });
    auto snap = group.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap.begin()->first, "a.gauge"); // sorted by name
    EXPECT_EQ(snap.at("a.gauge"), 3u);
    EXPECT_EQ(snap.at("b.gauge"), 11u);
}

// ---------------------------------------------------------------------
// BranchProfile: bounded attribution with an explicit remainder.

TEST(BranchProfileTable, EvictionFoldsIntoRemainderNotThinAir)
{
    BranchProfile profile(2);
    profile.at(0x10).lookups = 5;
    profile.at(0x10).mispredicts = 3;
    profile.at(0x20).lookups = 8;
    profile.at(0x20).mispredicts = 1;
    // Third PC at capacity: 0x20 (fewest mispredicts) is evicted.
    profile.at(0x30).lookups = 1;
    EXPECT_EQ(profile.size(), 2u);
    EXPECT_EQ(profile.evictedBranches(), 1u);
    EXPECT_EQ(profile.evictedRemainder().lookups, 8u);
    EXPECT_EQ(profile.evictedRemainder().mispredicts, 1u);
    EXPECT_TRUE(profile.entries().count(0x10));
    EXPECT_TRUE(profile.entries().count(0x30));

    // Total accounting: tracked + evicted covers every event.
    std::uint64_t lookups = profile.evictedRemainder().lookups;
    for (const auto &[pc, c] : profile.entries())
        lookups += c.lookups;
    EXPECT_EQ(lookups, 5u + 8u + 1u);
}

TEST(BranchProfileTable, CapacityZeroRoutesEverythingToRemainder)
{
    BranchProfile profile(0);
    profile.at(0x10).lookups += 1;
    profile.at(0x20).lookups += 1;
    EXPECT_EQ(profile.size(), 0u);
    EXPECT_EQ(profile.evictedBranches(), 0u);
    EXPECT_EQ(profile.evictedRemainder().lookups, 2u);
}

TEST(BranchProfileTable, TopByMispredictsIsDeterministic)
{
    BranchProfile profile(8);
    profile.at(0x30).mispredicts = 2;
    profile.at(0x10).mispredicts = 5;
    profile.at(0x20).mispredicts = 5;
    auto top = profile.topByMispredicts(2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].first, 0x10u); // ties break toward lower PC
    EXPECT_EQ(top[1].first, 0x20u);
}

// ---------------------------------------------------------------------
// Value-predictor training population. Pins the gating fix: with the
// speculative-squash extension armed, the guard value predictor
// trains ONLY on branches whose guard was unresolved at fetch - the
// population it can ever act on. (It used to train on every guarded
// branch, flooding the table with easy resolved cases and inflating
// the confidence gate.) The attribution table counts exactly that
// population per PC, so the two must agree to the event.

TEST(EngineSpecSquash, PvpTrainsOnlyOnFetchUnresolvedGuards)
{
    Workload wl = makeWorkload("interp", 42);
    CompileOptions copts;
    CompiledProgram cp = compileWorkload(wl, copts);
    GSharePredictor pred(12);

    EngineConfig ecfg;
    ecfg.useSfpf = true;
    ecfg.useSpeculativeSquash = true;
    PredictionEngine engine(pred, ecfg);
    StatGroup group;
    engine.registerStats(group);

    Emulator emu(cp.prog);
    if (wl.init)
        wl.init(emu.state());
    runTrace(emu, engine, 50000);

    const BranchProfile &profile = engine.branchProfile();
    std::uint64_t unknown = profile.evictedRemainder().guardUnknown;
    std::uint64_t known = profile.evictedRemainder().guardKnown;
    for (const auto &[pc, c] : profile.entries()) {
        unknown += c.guardUnknown;
        known += c.guardKnown;
    }
    // Both populations must be present, or the pin is vacuous.
    ASSERT_GT(unknown, 0u);
    ASSERT_GT(known, 0u);
    EXPECT_EQ(group.value("pvp.trains"), unknown)
        << "pvp must train once per fetch-unresolved guard and "
           "never on resolved ones";
}

// ---------------------------------------------------------------------
// Target-structure observability: with EngineConfig::modelTargets
// armed, the engine registers the btb.* / ras.* gauges and the
// engine.btb_target_misses / ras_hits / ras_misses counters; they
// agree with EngineStats, and a freshly constructed engine - the only
// way back to cold counters - reads zero on all of them.
// (Direction-only engines register none of these - the gated-export
// contract that keeps old metric files byte-identical.)

TEST(EngineTargetStats, BtbAndRasGaugesCountAndReset)
{
    // main calls a one-add leaf 300 times: every call pushes, every
    // return pops its own address, so a private RAS never misses.
    Program p;
    p.name = "call-loop";
    p.insts = {
        makeMovImm(1, 300),
        makeCmpImm(CmpRel::Gt, CmpType::Unc, 1, 2, 1, 0),
        makeBr(7, 2),
        makeCall(8),
        makeAluImm(Opcode::Sub, 1, 1, 1),
        makeBr(1),
        makeNop(),
        makeHalt(),
        makeAluImm(Opcode::Add, 2, 2, 1),
        makeRet(),
    };
    ASSERT_EQ(validateProgram(p), "");

    GSharePredictor pred(12);
    EngineConfig ecfg;
    ecfg.modelTargets = true;
    ecfg.rasDepth = 16;
    PredictionEngine engine(pred, ecfg);
    StatGroup group;
    engine.registerStats(group);

    Emulator emu(p);
    runTrace(emu, engine, 20000);
    const EngineStats &stats = engine.stats();

    EXPECT_EQ(group.value("ras.pushes"), 300u);
    EXPECT_EQ(group.value("ras.pops"), 300u);
    EXPECT_EQ(group.value("ras.overflows"), 0u);
    EXPECT_EQ(group.value("ras.underflows"), 0u);
    EXPECT_EQ(group.value("engine.ras_hits"), stats.rasHits);
    EXPECT_EQ(stats.rasHits, 300u);
    EXPECT_EQ(group.value("engine.ras_misses"), 0u);
    EXPECT_GT(group.value("btb.hits") + group.value("btb.misses"),
              0u);
    EXPECT_GT(group.value("btb.misses"), 0u) << "cold BTB must miss";
    EXPECT_EQ(group.value("engine.btb_target_misses"),
              stats.btbTargetMisses);
    EXPECT_GT(stats.btbTargetMisses, 0u);

    GSharePredictor coldPred(12);
    PredictionEngine cold(coldPred, ecfg);
    StatGroup coldGroup;
    cold.registerStats(coldGroup);
    EXPECT_EQ(cold.stats(), EngineStats{});
    for (const char *name :
         {"btb.hits", "btb.misses", "ras.pushes", "ras.pops",
          "engine.btb_target_misses", "engine.ras_hits",
          "engine.ras_misses"}) {
        EXPECT_TRUE(coldGroup.has(name)) << name;
        EXPECT_EQ(coldGroup.value(name), 0u) << name;
    }
}

TEST(EngineTargetStats, DirectionOnlyEngineRegistersNoTargetGauges)
{
    GSharePredictor pred(12);
    PredictionEngine engine(pred, EngineConfig{});
    StatGroup group;
    engine.registerStats(group);
    for (const auto &[name, value] : group.snapshot()) {
        EXPECT_EQ(name.rfind("btb.", 0), std::string::npos) << name;
        EXPECT_EQ(name.rfind("ras.", 0), std::string::npos) << name;
        EXPECT_NE(name, "engine.btb_target_misses");
    }
}

// ---------------------------------------------------------------------
// Metrics exporter: golden bytes, round-trip, file writing.

TEST(MetricsGolden, ExactJsonBytes)
{
    // The byte-exact document shape is part of the determinism
    // contract (docs/PARALLEL.md); any layout change must be
    // deliberate and bump the schema version when it re-shapes the
    // document.
    MetricsExporter ex;
    ex.setInt("engine.insts", 1234);
    ex.setReal("engine.mpki", 6.25);
    ex.setText("spec.workload", "bsort");
    ex.declareTable("branches", {"pc", "lookups", "mispredicts"});
    ex.addRow("branches", {64, 100, 7});
    ex.addRow("branches", {96, 50, 0});

    std::ostringstream os;
    ex.writeJson(os);
    const std::string golden = "{\n"
        "  \"schema\": \"pabp.metrics\",\n"
        "  \"version\": 1,\n"
        "  \"metrics\": {\n"
        "    \"engine.insts\": 1234,\n"
        "    \"engine.mpki\": 6.25,\n"
        "    \"spec.workload\": \"bsort\"\n"
        "  },\n"
        "  \"tables\": {\n"
        "    \"branches\": {\n"
        "      \"columns\": [\"pc\", \"lookups\", \"mispredicts\"],\n"
        "      \"rows\": [\n"
        "        [64, 100, 7],\n"
        "        [96, 50, 0]\n"
        "      ]\n"
        "    }\n"
        "  }\n"
        "}\n";
    EXPECT_EQ(os.str(), golden);
}

TEST(MetricsGolden, PredictabilityExportExactBytes)
{
    // The predictability.* names (docs/OBSERVABILITY.md) ride the
    // same byte-stability contract as every other exported metric:
    // adding names is fine, re-shaping existing ones must be
    // deliberate. Inputs are chosen so every entropy is exactly 0 or
    // 1 bit - no floating-point formatting surprises.
    PredictabilityAnalyzer an;
    for (int i = 0; i < 8; ++i)
        an.observe(64, i % 2 == 0); // alternator: H(k0)=1, H(k>0)=0
    for (int i = 0; i < 4; ++i)
        an.observe(96, true); // constant: H == 0 everywhere

    MetricsExporter ex;
    exportPredictability(ex, an.report());
    std::ostringstream os;
    ex.writeJson(os);
    const std::string golden = "{\n"
        "  \"schema\": \"pabp.metrics\",\n"
        "  \"version\": 1,\n"
        "  \"metrics\": {\n"
        "    \"predictability.conditioned.k0\": 12,\n"
        "    \"predictability.conditioned.k16\": 0,\n"
        "    \"predictability.conditioned.k4\": 4,\n"
        "    \"predictability.conditioned.k8\": 0,\n"
        "    \"predictability.entropy.k0\": 0.666666667,\n"
        "    \"predictability.entropy.k16\": 0,\n"
        "    \"predictability.entropy.k4\": 0,\n"
        "    \"predictability.entropy.k8\": 0,\n"
        "    \"predictability.evicted_branches\": 0,\n"
        "    \"predictability.evicted_occurrences\": 0,\n"
        "    \"predictability.evicted_patterns\": 0,\n"
        "    \"predictability.occurrences\": 12,\n"
        "    \"predictability.static_branches\": 2,\n"
        "    \"predictability.taken\": 8,\n"
        "    \"predictability.taken_rate\": 0.666666667,\n"
        "    \"predictability.transition_rate\": 0.583333333,\n"
        "    \"predictability.transitions\": 7\n"
        "  },\n"
        "  \"tables\": {\n"
        "    \"predictability\": {\n"
        "      \"columns\": [\"pc\", \"occurrences\", \"taken\", "
        "\"transitions\", \"entropy_k0_millibits\", "
        "\"entropy_k4_millibits\", \"entropy_k8_millibits\", "
        "\"entropy_k16_millibits\"],\n"
        "      \"rows\": [\n"
        "        [64, 8, 4, 7, 1000, 0, 0, 0],\n"
        "        [96, 4, 4, 0, 0, 0, 0, 0]\n"
        "      ]\n"
        "    }\n"
        "  }\n"
        "}\n";
    EXPECT_EQ(os.str(), golden);
}

TEST(MetricsGolden, EmptyDocumentShape)
{
    MetricsExporter ex;
    std::ostringstream os;
    ex.writeJson(os);
    EXPECT_EQ(os.str(),
              "{\n  \"schema\": \"pabp.metrics\",\n  \"version\": 1,\n"
              "  \"metrics\": {},\n  \"tables\": {}\n}\n");
}

TEST(MetricsGolden, RoundTripParse)
{
    MetricsExporter ex;
    ex.setInt("a.count", 42);
    ex.setReal("a.rate", 0.5);
    ex.setText("a.name", "he said \"hi\"\n");
    ex.declareTable("t", {"k", "v"});
    ex.addRow("t", {1, 2});
    std::ostringstream os;
    ex.writeJson(os);

    Expected<JsonValue> doc = parseJson(os.str());
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    const JsonValue &root = doc.value();
    ASSERT_EQ(root.kind, JsonValue::Kind::Object);
    EXPECT_EQ(root.find("schema")->text, "pabp.metrics");
    EXPECT_EQ(root.find("version")->intValue, 1u);
    const JsonValue *metrics = root.find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_EQ(metrics->find("a.count")->intValue, 42u);
    EXPECT_EQ(metrics->find("a.rate")->number, 0.5);
    EXPECT_EQ(metrics->find("a.name")->text, "he said \"hi\"\n");
    const JsonValue *table = root.find("tables")->find("t");
    ASSERT_NE(table, nullptr);
    ASSERT_EQ(table->find("rows")->items.size(), 1u);
    EXPECT_EQ(table->find("rows")->items[0].items[1].intValue, 2u);
}

TEST(MetricsGolden, HistogramExportKeysSortInBucketOrder)
{
    Histogram h(12, 4);
    h.sample(0);
    h.sample(47);
    h.sample(48);
    MetricsExporter ex;
    ex.addHistogram("dist", h);
    std::ostringstream os;
    ex.writeJson(os);
    const std::string text = os.str();
    // Zero-padded indices: bucket 2 sorts before bucket 11.
    EXPECT_NE(text.find("\"dist.bucket.0000\": 1"), std::string::npos);
    EXPECT_NE(text.find("\"dist.bucket.0011\": 1"), std::string::npos);
    EXPECT_NE(text.find("\"dist.overflow\": 1"), std::string::npos);
    EXPECT_LT(text.find("dist.bucket.0002"),
              text.find("dist.bucket.0011"));
}

TEST(MetricsParse, RejectsMalformedDocuments)
{
    EXPECT_FALSE(parseJson("").ok());
    EXPECT_FALSE(parseJson("{\"a\": 1} trailing").ok());
    EXPECT_FALSE(parseJson("{\"a\": }").ok());
    EXPECT_FALSE(parseJson("{\"a\": \"unterminated").ok());
    EXPECT_FALSE(parseJson("{\"a\": \"bad \\q escape\"}").ok());
    std::string deep(100, '[');
    EXPECT_FALSE(parseJson(deep).ok());
    EXPECT_TRUE(parseJson("{\"a\": [1, 2.5, true, null]}").ok());
}

TEST(MetricsDiff, ReportsUnionOfMetricsAndKeyedRows)
{
    MetricsExporter a, b;
    a.setInt("same", 1);
    b.setInt("same", 1);
    a.setInt("changed", 10);
    b.setInt("changed", 13);
    a.setInt("only.a", 5);
    b.setInt("only.b", 6);
    a.declareTable("branches", BranchProfile::tableColumns());
    b.declareTable("branches", BranchProfile::tableColumns());
    a.addRow("branches", {64, 10, 5, 2, 0, 0, 0, 0, 0});
    b.addRow("branches", {64, 10, 5, 1, 0, 0, 0, 0, 0});

    auto parse = [](const MetricsExporter &ex) {
        std::ostringstream os;
        ex.writeJson(os);
        Expected<JsonValue> doc = parseJson(os.str());
        EXPECT_TRUE(doc.ok());
        return doc.value();
    };
    JsonValue da = parse(a), db = parse(b);

    std::ostringstream report;
    std::size_t diffs = diffMetrics(da, db, report);
    // changed, only.a (10 -> absent), only.b (absent -> 6), one row.
    EXPECT_EQ(diffs, 4u);
    EXPECT_NE(report.str().find("changed: 10 -> 13 (+3)"),
              std::string::npos);
    EXPECT_NE(report.str().find("branches[pc=64]"), std::string::npos);

    std::ostringstream self;
    EXPECT_EQ(diffMetrics(da, da, self), 0u);
    EXPECT_TRUE(self.str().empty());
}

TEST(MetricsDiff, TopKSuppressionIsExplicit)
{
    MetricsExporter a, b;
    a.declareTable("branches", {"pc", "mispredicts"});
    b.declareTable("branches", {"pc", "mispredicts"});
    for (std::uint64_t pc = 0; pc < 5; ++pc) {
        a.addRow("branches", {pc, pc});
        b.addRow("branches", {pc, pc + 1});
    }
    auto parse = [](const MetricsExporter &ex) {
        std::ostringstream os;
        ex.writeJson(os);
        return parseJson(os.str()).value();
    };
    std::ostringstream report;
    std::size_t diffs = diffMetrics(parse(a), parse(b), report, 2);
    EXPECT_EQ(diffs, 5u); // every difference counted...
    EXPECT_NE(report.str().find("3 more differing row(s) suppressed"),
              std::string::npos); // ...and the cut is announced
}

// ---------------------------------------------------------------------
// Sweep-layer export: per-cell files, determinism, resume equivalence.

/** One metrics-enabled trace cell. */
RunSpec
metricsSpec(const std::string &dir)
{
    RunSpec spec;
    spec.workload = "interp";
    spec.maxInsts = 20000;
    spec.engine.useSfpf = true;
    spec.engine.usePgu = true;
    spec.metricsDir = dir;
    return spec;
}

TEST(SweepMetrics, CellWritesVersionedDocument)
{
    const std::string dir = tempPath("mdir");
    RunSpec spec = metricsSpec(dir);
    SweepRunner runner(SweepRunner::Config{1, 0});
    RunResult result = runner.runOne(spec);
    ASSERT_TRUE(result.status.ok()) << result.status.toString();

    const std::string path =
        metricsFilePath(dir, specFingerprint(spec));
    Expected<JsonValue> doc = parseJson(readFile(path));
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    const JsonValue &root = doc.value();
    EXPECT_EQ(root.find("schema")->text, "pabp.metrics");
    const JsonValue *metrics = root.find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_EQ(metrics->find("engine.insts")->intValue,
              result.engine.insts);
    EXPECT_EQ(metrics->find("engine.all.mispredicts")->intValue,
              result.engine.all.mispredicts);
    EXPECT_EQ(metrics->find("sfpf.squashes")->intValue,
              result.engine.all.squashed);
    EXPECT_EQ(metrics->find("pgu.bits_inserted")->intValue,
              result.pguBits);
    EXPECT_EQ(metrics->find("spec.workload")->text, "interp");
    // The resume flag must NOT be exported (resume equivalence).
    EXPECT_EQ(metrics->find("resumed"), nullptr);
    EXPECT_EQ(metrics->find("spec.resumed"), nullptr);

    // Per-branch attribution table is present and accounts for every
    // lookup the engine saw.
    const JsonValue *table = root.find("tables")->find("branches");
    ASSERT_NE(table, nullptr);
    std::uint64_t lookups =
        metrics->find("branch_profile.evicted.lookups")->intValue;
    for (const JsonValue &row : table->find("rows")->items)
        lookups += row.items[1].intValue;
    EXPECT_EQ(lookups, result.engine.all.branches);

    std::remove(path.c_str());
}

TEST(SweepMetrics, TwoCellExportsDoNotLeakAcrossCells)
{
    // Two identical cells in one grid: each builds, runs and exports
    // independently, so the second file's counters equal the first's
    // (a shared/reused engine would double-count into the second
    // export).
    const std::string dir1 = tempPath("cell1");
    const std::string dir2 = tempPath("cell2");
    std::vector<RunSpec> specs = {metricsSpec(dir1),
                                  metricsSpec(dir2)};
    SweepRunner runner(SweepRunner::Config{1, 0});
    std::vector<RunResult> results = runner.run(specs);
    ASSERT_TRUE(results[0].status.ok());
    ASSERT_TRUE(results[1].status.ok());
    EXPECT_EQ(results[0].engine, results[1].engine);
    EXPECT_EQ(results[0].pguBits, results[1].pguBits);

    const std::uint64_t fp = specFingerprint(specs[0]);
    const std::string f1 = metricsFilePath(dir1, fp);
    const std::string f2 = metricsFilePath(dir2, fp);
    EXPECT_EQ(readFile(f1), readFile(f2));
    std::remove(f1.c_str());
    std::remove(f2.c_str());
}

TEST(SweepMetrics, FilesAreByteIdenticalAcrossJobCounts)
{
    auto grid = [](const std::string &dir) {
        std::vector<RunSpec> specs;
        for (const char *name : {"bsort", "interp", "dchain"}) {
            for (int config = 0; config < 2; ++config) {
                RunSpec spec;
                spec.workload = name;
                spec.engine.useSfpf = config >= 1;
                spec.engine.usePgu = config >= 1;
                spec.maxInsts = 15000;
                spec.metricsDir = dir;
                specs.push_back(spec);
            }
        }
        return specs;
    };
    const std::string dir1 = tempPath("jobs1");
    const std::string dir4 = tempPath("jobs4");
    std::vector<RunSpec> grid1 = grid(dir1);
    std::vector<RunSpec> grid4 = grid(dir4);

    SweepRunner serial(SweepRunner::Config{1, 0});
    SweepRunner parallel(SweepRunner::Config{4, 0});
    for (const RunResult &r : serial.run(grid1))
        ASSERT_TRUE(r.status.ok()) << r.status.toString();
    for (const RunResult &r : parallel.run(grid4))
        ASSERT_TRUE(r.status.ok()) << r.status.toString();

    for (std::size_t i = 0; i < grid1.size(); ++i) {
        const std::uint64_t fp = specFingerprint(grid1[i]);
        const std::string f1 = metricsFilePath(dir1, fp);
        const std::string f4 = metricsFilePath(dir4, fp);
        EXPECT_EQ(readFile(f1), readFile(f4)) << grid1[i].workload;
        std::remove(f1.c_str());
        std::remove(f4.c_str());
    }
}

TEST(SweepMetrics, CharacterizedCellsByteIdenticalAcrossJobCounts)
{
    // Characterization rides the shared decoded trace, so the
    // exported predictability.* bytes must be identical at jobs=1
    // and jobs=8 and across replay strategies - the analyzer is
    // pure over the stream, and the stream is cached per program.
    auto grid = [](const std::string &dir, bool fast) {
        std::vector<RunSpec> specs;
        for (const char *name : {"bsort", "interp", "dchain"}) {
            RunSpec spec;
            spec.workload = name;
            spec.maxInsts = 15000;
            spec.metricsDir = dir;
            spec.characterize = true;
            spec.fastReplay = fast;
            specs.push_back(spec);
        }
        return specs;
    };
    const std::string dir1 = tempPath("jobs1");
    const std::string dir8 = tempPath("jobs8");
    const std::string dirRef = tempPath("ref");
    std::vector<RunSpec> grid1 = grid(dir1, true);
    std::vector<RunSpec> grid8 = grid(dir8, true);
    std::vector<RunSpec> gridRef = grid(dirRef, false);

    SweepRunner serial(SweepRunner::Config{1, 0});
    SweepRunner parallel(SweepRunner::Config{8, 0});
    std::vector<RunResult> serialResults = serial.run(grid1);
    for (const RunResult &r : serialResults)
        ASSERT_TRUE(r.status.ok()) << r.status.toString();
    for (const RunResult &r : parallel.run(grid8))
        ASSERT_TRUE(r.status.ok()) << r.status.toString();
    for (const RunResult &r : serial.run(gridRef))
        ASSERT_TRUE(r.status.ok()) << r.status.toString();

    for (std::size_t i = 0; i < grid1.size(); ++i) {
        // The report handle is populated and non-trivial.
        ASSERT_NE(serialResults[i].predictability, nullptr);
        EXPECT_GT(serialResults[i].predictability->occurrences, 0u);

        const std::uint64_t fp = specFingerprint(grid1[i]);
        const std::string f1 = metricsFilePath(dir1, fp);
        const std::string f8 = metricsFilePath(dir8, fp);
        const std::string fr = metricsFilePath(dirRef, fp);
        const std::string bytes = readFile(f1);
        EXPECT_EQ(bytes, readFile(f8)) << grid1[i].workload;
        EXPECT_EQ(bytes, readFile(fr)) << grid1[i].workload;
        EXPECT_NE(bytes.find("\"predictability.entropy.k0\""),
                  std::string::npos)
            << grid1[i].workload;
        EXPECT_NE(bytes.find("\"predictability.tier0."),
                  std::string::npos)
            << grid1[i].workload;
        std::remove(f1.c_str());
        std::remove(f8.c_str());
        std::remove(fr.c_str());
    }
}

TEST(SweepMetrics, UnwritableMetricsDirFailsTheCell)
{
    // metricsDir colliding with an existing FILE: the cell must fail
    // with a typed IoError, never exit clean without its file.
    const std::string blocker = tempPath("blocker");
    { std::ofstream(blocker) << "in the way"; }
    RunSpec spec = metricsSpec(blocker);
    SweepRunner runner(SweepRunner::Config{1, 0});
    RunResult result = runner.runOne(spec);
    EXPECT_FALSE(result.status.ok());
    EXPECT_EQ(result.status.code(), StatusCode::IoError);
    std::remove(blocker.c_str());
}

/** Copy a checkpoint across spec fingerprints (budget differs). */
void
aliasCheckpoint(const std::string &base, const RunSpec &from,
                const RunSpec &to)
{
    std::ifstream src(derivedCheckpointPath(base, specFingerprint(from)),
                      std::ios::binary);
    std::ofstream dst(derivedCheckpointPath(base, specFingerprint(to)),
                      std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(src.good());
    ASSERT_TRUE(dst.good());
    dst << src.rdbuf();
}

TEST(SweepMetrics, ResumedRunExportsIdenticalMetricsFile)
{
    // The stats double-count / lost-state class of bug, pinned at
    // the observable artifact: a run split across a checkpoint must
    // export the byte-identical metrics file of an uninterrupted
    // run - engine counters, per-branch attribution, PGU influence
    // cursor and all.
    const std::string base = tempPath("split.ckpt");
    RunSpec half = metricsSpec(tempPath("half"));
    half.checkpointEvery = 5000;
    half.maxInsts = 10000;
    half.checkpointPath = base;
    SweepRunner runner(SweepRunner::Config{1, 0});
    ASSERT_TRUE(runner.runOne(half).status.ok());

    RunSpec full = metricsSpec(tempPath("resumed"));
    full.maxInsts = 20000;
    full.resumePath = base;
    aliasCheckpoint(base, half, full);
    RunResult resumed = runner.runOne(full);
    ASSERT_TRUE(resumed.status.ok()) << resumed.status.toString();
    ASSERT_TRUE(resumed.resumed);

    RunSpec straight = metricsSpec(tempPath("straight"));
    straight.maxInsts = 20000;
    RunResult uninterrupted = runner.runOne(straight);
    ASSERT_TRUE(uninterrupted.status.ok());

    EXPECT_EQ(resumed.engine, uninterrupted.engine);
    EXPECT_EQ(resumed.profile, uninterrupted.profile);
    const std::string resumed_file = metricsFilePath(
        full.metricsDir, specFingerprint(full));
    const std::string straight_file = metricsFilePath(
        straight.metricsDir, specFingerprint(straight));
    EXPECT_EQ(readFile(resumed_file), readFile(straight_file));

    std::remove(derivedCheckpointPath(base, specFingerprint(half))
                    .c_str());
    std::remove(derivedCheckpointPath(base, specFingerprint(full))
                    .c_str());
    std::remove(resumed_file.c_str());
    std::remove(straight_file.c_str());
}

TEST(SweepMetrics, ResumedTargetModellingExportsIdenticalFile)
{
    // Satellite of the BTB/RAS wiring fix: the target structures are
    // part of the checkpoint now (ckpt version 3), so a resumed
    // modelTargets run reproduces the uninterrupted run's target
    // stats - and its metrics file, btb.*/ras.* gauges included -
    // byte for byte.
    const std::string base = tempPath("targets.ckpt");
    RunSpec half = metricsSpec(tempPath("tgt_half"));
    half.engine.modelTargets = true;
    half.checkpointEvery = 5000;
    half.maxInsts = 10000;
    half.checkpointPath = base;
    SweepRunner runner(SweepRunner::Config{1, 0});
    ASSERT_TRUE(runner.runOne(half).status.ok());

    RunSpec full = metricsSpec(tempPath("tgt_resumed"));
    full.engine.modelTargets = true;
    full.maxInsts = 20000;
    full.resumePath = base;
    aliasCheckpoint(base, half, full);
    RunResult resumed = runner.runOne(full);
    ASSERT_TRUE(resumed.status.ok()) << resumed.status.toString();
    ASSERT_TRUE(resumed.resumed);

    RunSpec straight = metricsSpec(tempPath("tgt_straight"));
    straight.engine.modelTargets = true;
    straight.maxInsts = 20000;
    RunResult uninterrupted = runner.runOne(straight);
    ASSERT_TRUE(uninterrupted.status.ok());

    // Vacuity guard: the cell must actually have modelled targets.
    ASSERT_GT(uninterrupted.engine.btbTargetMisses, 0u);
    EXPECT_EQ(resumed.engine, uninterrupted.engine);
    EXPECT_EQ(resumed.profile, uninterrupted.profile);
    const std::string resumed_file = metricsFilePath(
        full.metricsDir, specFingerprint(full));
    const std::string straight_file = metricsFilePath(
        straight.metricsDir, specFingerprint(straight));
    EXPECT_EQ(readFile(resumed_file), readFile(straight_file));

    std::remove(derivedCheckpointPath(base, specFingerprint(half))
                    .c_str());
    std::remove(derivedCheckpointPath(base, specFingerprint(full))
                    .c_str());
    std::remove(metricsFilePath(half.metricsDir, specFingerprint(half))
                    .c_str());
    std::remove(resumed_file.c_str());
    std::remove(straight_file.c_str());
}

TEST(SweepMetrics, ResumedConflictProfilingMatchesUninterrupted)
{
    // Pins the gshare serialization fix: conflict-profiling state
    // (lookup/conflict counters, last-writer tags) is checkpointed,
    // so a resumed profileConflicts run reports the same counts - and
    // exports the same metrics file - as an uninterrupted one.
    const std::string base = tempPath("prof.ckpt");
    RunSpec half;
    half.workload = "bsort";
    half.profileConflicts = true;
    half.maxInsts = 10000;
    half.checkpointEvery = 5000;
    half.checkpointPath = base;
    half.metricsDir = tempPath("prof_half");
    SweepRunner runner(SweepRunner::Config{1, 0});
    ASSERT_TRUE(runner.runOne(half).status.ok());

    RunSpec full = half;
    full.checkpointEvery = 0;
    full.checkpointPath.clear();
    full.maxInsts = 20000;
    full.resumePath = base;
    full.metricsDir = tempPath("prof_resumed");
    aliasCheckpoint(base, half, full);
    RunResult resumed = runner.runOne(full);
    ASSERT_TRUE(resumed.status.ok()) << resumed.status.toString();
    ASSERT_TRUE(resumed.resumed);

    RunSpec straight = full;
    straight.resumePath.clear();
    straight.metricsDir = tempPath("prof_straight");
    RunResult uninterrupted = runner.runOne(straight);
    ASSERT_TRUE(uninterrupted.status.ok());

    ASSERT_GT(uninterrupted.lookups, 0u);
    EXPECT_EQ(resumed.lookups, uninterrupted.lookups);
    EXPECT_EQ(resumed.conflicts, uninterrupted.conflicts);
    const std::string resumed_file = metricsFilePath(
        full.metricsDir, specFingerprint(full));
    const std::string straight_file = metricsFilePath(
        straight.metricsDir, specFingerprint(straight));
    EXPECT_EQ(readFile(resumed_file), readFile(straight_file));

    std::remove(derivedCheckpointPath(base, specFingerprint(half))
                    .c_str());
    std::remove(derivedCheckpointPath(base, specFingerprint(full))
                    .c_str());
    std::remove(metricsFilePath(half.metricsDir, specFingerprint(half))
                    .c_str());
    std::remove(resumed_file.c_str());
    std::remove(straight_file.c_str());
}

TEST(SweepMetrics, ProfilingModeMismatchFallsBackToFreshRun)
{
    // A checkpoint taken WITHOUT conflict profiling must not load
    // into a profiling predictor (its counters would be garbage);
    // the sweep treats it as a spec mismatch and runs fresh.
    GSharePredictor plain(10);
    std::stringstream buf;
    StateSink sink(buf);
    plain.saveState(sink);
    GSharePredictor profiling(10);
    profiling.enableConflictProfiling();
    StateSource src(buf);
    Status status = profiling.loadState(src);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::InvalidArgument);
}

} // namespace
} // namespace pabp::bench
