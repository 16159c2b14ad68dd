/**
 * @file
 * pabp-benchmark - one run of one benchmark workload.
 *
 *   pabp-benchmark --workload W --seed N --seconds S --trace 0|1
 *                  --spec BENCHMARK.json [--smoke 1] [--json-out F]
 *                  [--trace-out F] [--work-dir D]
 *
 * --trace 0 times whole sweep passes through the production entry
 * points (SweepRunner::run, SweepService::runShard): one untimed
 * warm-up pass, then fresh-runner passes until S seconds have passed,
 * reporting the median of the end-to-end metrics and, as setup_s, the
 * time from main() to the first timed pass. A host-speed reference
 * (calibrate.cc) sampled before the warm-up and after every pass
 * scales those times to a nominal host. --trace 1 runs one
 * production pass and then re-executes the grid serially with a span
 * around every layer call (traced.cc), reporting per-layer metrics.
 *
 * Both modes check the outputs: failed cells, captured metrics bytes
 * that differ across passes or from a reference-loop re-run, traced
 * cells whose stats differ from the production cells, and a campaign
 * journal that does not read back strictly. Any failure makes the
 * result "correct": false and the exit status 1.
 *
 * The last stdout line is one JSON object
 *   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
 * carrying the metrics BENCHMARK.json declares for the mode; every
 * line before it reads "name workload value unit". --json-out writes
 * the full detail (median, min, max, n per metric, every layer).
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "sweep_service.hh"
#include "util/journal.hh"
#include "util/metrics.hh"
#include "util/options.hh"
#include "util/simd.hh"

using namespace pabp;
using namespace pabp::perf;

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

double
processCpuS()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
        1e6;
}

/** Start a new peak-RSS interval: the kernel's high-water mark drops
 *  to the current RSS (Linux, /proc/<pid>/clear_refs "5"). */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak RSS since the last resetPeakRss(), in MB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    return 0.0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Nearest-rank percentile of @p v (sorted in place). */
double
percentile(std::vector<double> &v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p * static_cast<double>(v.size()));
    return v[static_cast<std::size_t>(std::max(1.0, rank)) - 1];
}

/** A metric's samples, reported as median/min/max/n. */
struct Samples
{
    std::string unit;
    std::vector<double> values;

    double
    median() const
    {
        std::vector<double> v = values;
        std::sort(v.begin(), v.end());
        const std::size_t n = v.size();
        return n == 0 ? 0.0
                      : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
    }
};

/** Everything the run measured, keyed by metric name. */
using Report = std::map<std::string, Samples>;

void
add(Report &r, const std::string &name, const std::string &unit, double v)
{
    Samples &s = r[name];
    s.unit = unit;
    s.values.push_back(std::isfinite(v) ? v : 0.0);
}

/** Tally of checked cells; any failure makes the run incorrect. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    cell(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::cerr << "pabp-benchmark: check failed: " << what << "\n";
        }
    }
};

std::string
describe(const std::vector<bench::RunSpec> &grid, std::size_t i)
{
    return "cell " + std::to_string(i) + " (" + grid[i].workload + ", " +
        grid[i].predictor + ", seed " + std::to_string(grid[i].seed) + ")";
}

/** What one production (e2e) pass did. */
struct E2ePass
{
    double wallS = 0.0;
    double cpuS = 0.0;
    double peakRssMb = 0.0;
    std::size_t cells = 0;
    /** Per cell, grid order: completed with Ok status, and its
     *  captured metrics bytes. */
    std::vector<bool> cellOk;
    std::vector<std::string> blobs;
    /** Campaign only: journal record fingerprints, grid order. */
    std::vector<std::uint64_t> journalFps;
    /** SweepRunner::run workloads only. */
    std::vector<bench::RunResult> results;
    bench::SweepRunner::CacheStats cache;
};

/**
 * One pass over @p grid with a fresh runner, so every cache starts
 * cold. Wall and CPU time cover the run/runShard call; the peak RSS
 * covers the whole pass.
 */
E2ePass
runE2ePass(const std::vector<bench::RunSpec> &grid, bool campaign,
           unsigned jobs, const std::string &journal)
{
    E2ePass out;
    out.cells = grid.size();
    resetPeakRss();
    bench::SweepRunner runner(bench::SweepRunner::Config{jobs, 0});
    std::optional<bench::SweepService> service;
    std::vector<bench::RunSpec> shard;
    if (campaign) {
        std::filesystem::remove(journal);
        bench::ServiceConfig cfg;
        cfg.journalPath = journal;
        service.emplace(runner, cfg);
        shard = grid;
    }

    const double cpu0 = processCpuS();
    const Clock::time_point t1 = Clock::now();
    if (service) {
        Expected<bench::ServiceReport> report =
            service->runShard(std::move(shard));
        out.wallS = secondsSince(t1);
        out.cpuS = processCpuS() - cpu0;
        // The campaign's cells are checked through its drained
        // journal, which must read back strictly.
        Expected<std::vector<JournalRecord>> records =
            readJournalFile(journal);
        const bool drained = report.ok() && report.value().drained &&
            records.ok() && records.value().size() == out.cells;
        for (std::size_t i = 0; i < out.cells; ++i) {
            const JournalRecord *rec =
                drained ? &records.value()[i] : nullptr;
            out.cellOk.push_back(rec &&
                                 rec->kind == JournalRecord::Kind::Result);
            out.blobs.push_back(rec ? rec->blob : std::string());
            out.journalFps.push_back(rec ? rec->fingerprint : 0);
        }
    } else {
        out.results = runner.run(grid);
        out.wallS = secondsSince(t1);
        out.cpuS = processCpuS() - cpu0;
        for (const bench::RunResult &r : out.results) {
            out.cellOk.push_back(r.status.ok());
            out.blobs.push_back(r.metricsJson);
        }
    }
    out.cache = runner.cacheStats();
    out.peakRssMb = peakRssMb();
    return out;
}

/** Every cell of @p pass succeeded (campaign: one Result record per
 *  cell, in grid order) and, given @p ref, wrote the same bytes. */
void
checkPass(const E2ePass &pass, const E2ePass *ref,
          const std::vector<bench::RunSpec> &grid, Checks &checks)
{
    for (std::size_t i = 0; i < pass.cells; ++i) {
        bool ok = pass.cellOk[i] && !pass.blobs[i].empty();
        if (!pass.journalFps.empty())
            ok = ok && pass.journalFps[i] == bench::specFingerprint(grid[i]);
        if (ref)
            ok = ok && pass.blobs[i] == ref->blobs[i];
        checks.cell(ok, describe(grid, i) +
                            " failed or changed its metrics bytes");
    }
}

/** Every 16th Trace cell re-run through the reference per-instruction
 *  loop must capture the same metrics bytes as its fast cell. */
void
checkReferenceReplay(const std::vector<bench::RunSpec> &grid,
                     const E2ePass &ref, unsigned jobs, Checks &checks)
{
    std::vector<std::size_t> picked;
    std::vector<bench::RunSpec> specs;
    std::size_t trace_cells = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (grid[i].mode != bench::RunMode::Trace || trace_cells++ % 16)
            continue;
        picked.push_back(i);
        specs.push_back(grid[i]);
        specs.back().fastReplay = false;
    }
    if (specs.empty())
        return;
    bench::SweepRunner runner(bench::SweepRunner::Config{jobs, 0});
    const std::vector<bench::RunResult> results = runner.run(specs);
    for (std::size_t k = 0; k < specs.size(); ++k)
        checks.cell(results[k].status.ok() &&
                        results[k].metricsJson == ref.blobs[picked[k]],
                    describe(grid, picked[k]) +
                        " differs between fast and reference replay");
}

bool
samePipe(const PipelineStats &a, const PipelineStats &b)
{
    return a.insts == b.insts && a.cycles == b.cycles &&
        a.icacheMisses == b.icacheMisses &&
        a.dcacheMisses == b.dcacheMisses && a.l2Misses == b.l2Misses &&
        a.btbMisses == b.btbMisses && a.rasHits == b.rasHits &&
        a.rasMisses == b.rasMisses &&
        a.mispredictStallCycles == b.mispredictStallCycles;
}

/** The traced cells must reproduce the production cells exactly. */
void
checkTraced(const TracedPass &traced,
            const std::vector<bench::RunResult> &ref,
            const std::vector<bench::RunSpec> &grid, Checks &checks)
{
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const bench::RunResult &t = traced.results[i];
        const bench::RunResult &r = ref[i];
        checks.cell(t.status.ok() && r.status.ok() && t.engine == r.engine &&
                        t.profile == r.profile && t.pguBits == r.pguBits &&
                        (grid[i].mode != bench::RunMode::Timed ||
                         samePipe(t.pipe, r.pipe)) &&
                        t.metricsJson == r.metricsJson,
                    describe(grid, i) +
                        " traced stats or metrics bytes differ from e2e");
    }
}

/** Per-unit cost of the layers that stream instructions or events. */
struct StreamLayer
{
    Layer layer;
    const char *unit; ///< "inst" or "event"
};
constexpr StreamLayer kStreamLayers[] = {
    {Layer::SimRecord, "inst"},       {Layer::SimDecode, "event"},
    {Layer::CoreCharacterize, "event"}, {Layer::CoreReplay, "event"},
    {Layer::CoreRefLoop, "inst"},     {Layer::Pipeline, "inst"},
};

void
addRates(Report &r, const std::string &prefix, const char *unit,
         double self_ns, double work)
{
    add(r, prefix + "ns_per_" + unit, "ns", ratio(self_ns, work));
    add(r, prefix + "m" + unit + "_per_s", std::string("M") + unit + "/s",
        ratio(work * 1e3, self_ns));
}

/** Per-layer metrics of one traced pass. */
void
addLayerMetrics(Report &r, const std::vector<Span> &spans, std::uint32_t pass,
                std::size_t cells, double wall_s, double e2e_cpu_s,
                std::vector<double> &cell_ms)
{
    struct Agg
    {
        double calls = 0, selfNs = 0, work = 0;
        double variantNs = 0, variantWork = 0;
        double cellCalls = 0; ///< spans tied to a grid cell
    };
    Agg agg[kNumLayers];
    for (const Span &s : spans) {
        if (s.pass != pass)
            continue;
        if (s.layer == Layer::Cell)
            cell_ms.push_back(static_cast<double>(s.durationNs()) / 1e6);
        Agg &a = agg[static_cast<std::size_t>(s.layer)];
        a.calls += 1;
        a.selfNs += static_cast<double>(s.selfNs());
        a.work += static_cast<double>(s.work);
        if (s.cell < cells)
            a.cellCalls += 1;
        if (s.variant) {
            a.variantNs += static_cast<double>(s.selfNs());
            a.variantWork += static_cast<double>(s.work);
        }
    }

    const double wall_ns = wall_s * 1e9;
    double layered_ns = 0;
    for (std::size_t l = 0; l < kNumLayers; ++l) {
        const Layer layer = static_cast<Layer>(l);
        if (layer == Layer::Cell)
            continue;
        const Agg &a = agg[l];
        const std::string p = std::string(layerName(layer)) + ".";
        layered_ns += a.selfNs;
        add(r, p + "calls", "count", a.calls);
        add(r, p + "self_s", "s", a.selfNs / 1e9);
        add(r, p + "share", "fraction", ratio(a.selfNs, wall_ns));
    }
    for (const StreamLayer &sl : kStreamLayers) {
        const Agg &a = agg[static_cast<std::size_t>(sl.layer)];
        addRates(r, std::string(layerName(sl.layer)) + ".", sl.unit,
                 a.selfNs, a.work);
    }

    // Replay: a repeat batch has the same trace, predicate config and
    // chunk range as an earlier one, so it can hit the schedule cache.
    const Agg &rp = agg[static_cast<std::size_t>(Layer::CoreReplay)];
    add(r, "core.replay.batches", "count", rp.calls);
    addRates(r, "core.replay.first_", "event", rp.selfNs - rp.variantNs,
             rp.work - rp.variantWork);
    addRates(r, "core.replay.repeat_", "event", rp.variantNs, rp.variantWork);
    add(r, "core.replay.repeat_speedup", "x",
        ratio(ratio(rp.selfNs - rp.variantNs, rp.work - rp.variantWork),
              ratio(rp.variantNs, rp.variantWork)));

    const Agg &mt = agg[static_cast<std::size_t>(Layer::UtilMetrics)];
    add(r, "util.metrics.bytes", "bytes", mt.work);
    const Agg &jn = agg[static_cast<std::size_t>(Layer::UtilJournal)];
    add(r, "util.journal.appends", "count", jn.cellCalls);
    add(r, "util.journal.bytes", "bytes", jn.work);
    add(r, "util.journal.compact_s", "s", jn.variantNs / 1e9);
    add(r, "util.journal.compact_share", "fraction",
        ratio(jn.variantNs, wall_ns));

    add(r, "trace.wall_s", "s", wall_s);
    add(r, "trace.coverage", "fraction", ratio(layered_ns, wall_ns));
    add(r, "trace.overhead_frac", "fraction", ratio(wall_s, e2e_cpu_s) - 1.0);
}

/** A metric BENCHMARK.json declares. */
struct Declared
{
    std::string name;
    std::string unit;
};

Expected<std::vector<Declared>>
readDeclared(const std::string &path, const std::string &section)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Status(StatusCode::IoError, "cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    Expected<JsonValue> doc = parseJson(text.str());
    if (!doc.ok())
        return doc.status();
    const JsonValue *list = doc.value().find(section);
    if (!list || list->kind != JsonValue::Kind::Array)
        return Status(StatusCode::Corrupt,
                      path + " has no '" + section + "' list");
    std::vector<Declared> out;
    for (const JsonValue &item : list->items) {
        const JsonValue *name = item.find("name");
        const JsonValue *unit = item.find("unit");
        if (!name || !unit)
            return Status(StatusCode::Corrupt,
                          path + ": metric without name or unit");
        out.push_back({name->text, unit->text});
    }
    return out;
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Removes the run's scratch directory however main() returns. */
struct ScratchDir
{
    std::filesystem::path path;
    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Clock::time_point main_start = Clock::now();
    Options opts;
    opts.declare("workload", "", "benchmark workload to run");
    opts.declare("seed", "1", "workload seed (cells use seed, seed+1, ...)");
    opts.declare("seconds", "10", "how long to keep running passes");
    opts.declare("trace", "0",
                 "0 = end-to-end passes, 1 = traced per-layer run");
    opts.declare("smoke", "0",
                 "200k-instruction cells, one timed or traced pass");
    opts.declare("spec", "BENCHMARK.json",
                 "benchmark definition naming the reported metrics");
    opts.declare("json-out", "", "write the full results here");
    opts.declare("trace-out", "",
                 "write the traced run's spans here (Chrome trace JSON)");
    opts.declare("work-dir", "benchmark/build/work",
                 "scratch directory for journals and checkpoints");
    bool help = false;
    Status parsed = opts.tryParse(argc, argv, help);
    if (!parsed.ok()) {
        std::cerr << "pabp-benchmark: " << parsed.message() << "\n";
        return 2;
    }
    if (help)
        return 0;
    if (kSanitized) {
        std::cerr << "pabp-benchmark: refusing to time a sanitizer build\n";
        return 2;
    }
    const std::string workload = opts.str("workload");
    const std::vector<std::string> &known = benchWorkloads();
    if (std::find(known.begin(), known.end(), workload) == known.end()) {
        std::cerr << "pabp-benchmark: unknown --workload '" << workload
                  << "'\n";
        return 2;
    }
    const bool traced = opts.flag("trace");
    const bool smoke = opts.flag("smoke");
    const double seconds = opts.real("seconds");
    Expected<std::vector<Declared>> declared = readDeclared(
        opts.str("spec"), traced ? "per_layer" : "end_to_end");
    if (!declared.ok()) {
        std::cerr << "pabp-benchmark: " << declared.status().toString()
                  << "\n";
        return 2;
    }
    // One process per workload with at most four sweep workers.
    const unsigned jobs =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);

    ScratchDir scratch{std::filesystem::path(opts.str("work-dir")) /
                       ("run-" + std::to_string(getpid()))};
    std::filesystem::create_directories(scratch.path);
    GridOptions gopts;
    gopts.seed = static_cast<std::uint64_t>(opts.integer("seed"));
    gopts.smoke = smoke;
    gopts.workDir = scratch.path.string();
    const std::vector<bench::RunSpec> grid = buildGrid(workload, gopts);
    const std::string journal = (scratch.path / "campaign.pabpj").string();
    const bool campaign = isCampaign(workload);

    Checks checks;
    Report report;
    SpanRecorder rec;
    if (!traced) {
        // Host-reference samples are taken before the warm-up pass and
        // after every pass; every time is then scaled to nominal host
        // speed by nominal ÷ their median (calibrate.cc). The detail
        // file keeps the unscaled values as "<name>.raw".
        std::vector<HostSample> host;
        auto sample = [&] {
            host.push_back(sampleHost(jobs));
            checks.cell(host.back().end == host[0].end,
                        "host reference did different work");
        };

        // Set-up is everything before the first timed pass, including
        // the untimed warm-up pass: a cold sweep in a fresh process,
        // which is also the byte reference for every later pass.
        const double pre_s = secondsSince(main_start);
        sample();
        const Clock::time_point w0 = Clock::now();
        E2ePass ref = runE2ePass(grid, campaign, jobs, journal);
        checkPass(ref, nullptr, grid, checks);
        add(report, "setup_s.raw", "s", pre_s + secondsSince(w0));
        sample();

        // Timed passes continue while one more, as long as the last
        // with its reference sample, still ends inside the time budget.
        const Clock::time_point start = Clock::now();
        const int min_passes = smoke ? 1 : 3;
        double last = 0.0;
        for (int n = 0; n < min_passes ||
             (!smoke && secondsSince(start) + last <= seconds);
             ++n) {
            const Clock::time_point t = Clock::now();
            const E2ePass p = runE2ePass(grid, campaign, jobs, journal);
            sample();
            checkPass(p, &ref, grid, checks);
            add(report, "cells_per_s.raw", "cells/s",
                ratio(p.cells, p.wallS));
            add(report, "cpu_ms_per_cell.raw", "ms",
                ratio(p.cpuS * 1e3, p.cells));
            add(report, "peak_rss_mb", "MB", p.peakRssMb);
            add(report, "wall_s", "s", p.wallS);
            add(report, "sweep.cpu_util", "fraction",
                ratio(p.cpuS, p.wallS * jobs));
            last = secondsSince(t);
        }

        const double scale = hostScale(host);
        for (double v : report["setup_s.raw"].values)
            add(report, "setup_s", "s", v * scale);
        for (double v : report["cells_per_s.raw"].values)
            add(report, "cells_per_s", "cells/s", v / scale);
        for (double v : report["cpu_ms_per_cell.raw"].values)
            add(report, "cpu_ms_per_cell", "ms", v * scale);
        for (const HostSample &h : host) {
            add(report, "host.ref_wall_s", "s", h.wallS);
            add(report, "host.ref_cpu_s", "s", h.cpuS);
        }
        checkReferenceReplay(grid, ref, jobs, checks);
        add(report, "failed_frac", "fraction",
            ratio(static_cast<double>(checks.failed),
                  static_cast<double>(checks.attempted)));
    } else {
        E2ePass ref = runE2ePass(grid, campaign, jobs, journal);
        checkPass(ref, nullptr, grid, checks);
        const bench::SweepRunner::CacheStats &cs = ref.cache;
        add(report, "sweep.cpu_util", "fraction",
            ratio(ref.cpuS, ref.wallS * jobs));
        add(report, "sweep.program_hit_rate", "fraction",
            ratio(cs.hits, cs.hits + cs.compiles));
        add(report, "sweep.trace_hit_rate", "fraction",
            ratio(cs.traceHits, cs.traceHits + cs.records));

        // The campaign's journal holds no stats, so its traced cells
        // are compared with the same grid through SweepRunner::run,
        // whose metrics bytes must match the journal's.
        std::vector<bench::RunResult> stats_ref;
        if (campaign) {
            bench::SweepRunner runner(bench::SweepRunner::Config{jobs, 0});
            stats_ref = runner.run(grid);
            for (std::size_t i = 0; i < grid.size(); ++i)
                checks.cell(stats_ref[i].status.ok() &&
                                stats_ref[i].metricsJson == ref.blobs[i],
                            describe(grid, i) +
                                " differs between runner and journal");
        } else {
            stats_ref = std::move(ref.results);
        }
        checkReferenceReplay(grid, ref, jobs, checks);

        std::vector<double> cell_ms;
        const std::string traced_journal =
            (scratch.path / "traced.pabpj").string();
        const Clock::time_point start = Clock::now();
        double last = 0.0;
        for (std::uint32_t pass = 0;
             pass == 0 ||
             (!smoke && secondsSince(start) + last <= seconds);
             ++pass) {
            TracedPass tp =
                runTracedPass(grid, campaign, traced_journal, rec, pass);
            last = tp.wallS;
            checkTraced(tp, stats_ref, grid, checks);
            checks.cell(tp.compiles == cs.compiles &&
                            tp.records == cs.records && tp.journalOk,
                        "traced pass " + std::to_string(pass) +
                            " compiled/recorded differently from the "
                            "sweep, or its journal did not read back");
            addLayerMetrics(report, rec.spans(), pass, grid.size(), tp.wallS,
                            ref.cpuS, cell_ms);
        }
        add(report, "cell.samples", "count", cell_ms.size());
        add(report, "cell.p50_ms", "ms", percentile(cell_ms, 0.5));
        add(report, "cell.p90_ms", "ms", percentile(cell_ms, 0.9));
    }

    const bool correct = checks.failed == 0;
    for (const auto &[name, s] : report)
        std::cout << name << " " << workload << " " << s.median() << " "
                  << s.unit << "\n";

    if (!opts.str("json-out").empty()) {
        std::ofstream out(opts.str("json-out"));
        out << "{\"workload\": \"" << workload << "\", \"seed\": "
            << gopts.seed << ", \"trace\": " << (traced ? 1 : 0)
            << ", \"smoke\": " << (smoke ? 1 : 0) << ", \"jobs\": " << jobs
            << ", \"cells\": " << grid.size() << ", \"simd\": \""
            << simd::levelName(simd::activeLevel())
            << "\", \"build_type\": \"" << PABP_BENCH_BUILD_TYPE
            << "\", \"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << checks.attempted
            << ", \"failed\": " << checks.failed << ", \"metrics\": {";
        bool first = true;
        for (const auto &[name, s] : report) {
            const auto [lo, hi] =
                std::minmax_element(s.values.begin(), s.values.end());
            out << (first ? "\n" : ",\n") << "  \"" << name
                << "\": {\"median\": " << number(s.median())
                << ", \"min\": " << number(*lo) << ", \"max\": "
                << number(*hi) << ", \"n\": " << s.values.size()
                << ", \"unit\": \"" << s.unit << "\"}";
            first = false;
        }
        out << "\n}}\n";
    }
    if (traced && !opts.str("trace-out").empty()) {
        std::ofstream out(opts.str("trace-out"));
        rec.writeChromeTrace(out);
    }

    std::ostringstream line;
    line << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << checks.attempted
         << ", \"failed\": " << checks.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < declared.value().size(); ++i) {
        const Declared &d = declared.value()[i];
        auto it = report.find(d.name);
        if (it == report.end() || it->second.unit != d.unit) {
            std::cerr << "pabp-benchmark: " << opts.str("spec")
                      << " declares " << d.name << " [" << d.unit
                      << "], which this run does not measure\n";
            return 2;
        }
        line << (i ? ", " : "") << "\"" << d.name
             << "\": {\"value\": " << number(it->second.median())
             << ", \"unit\": \"" << d.unit << "\"}";
    }
    line << "}}";
    std::cout << line.str() << std::endl;
    return correct ? 0 : 1;
}
