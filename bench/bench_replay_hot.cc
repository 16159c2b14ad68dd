/**
 * @file
 * Replay-loop throughput microbench (docs/PERF.md). Records each
 * suite workload once, then replays the identical event stream
 * through the reference loop (replayTraceFrom: materialise a DynInst
 * per event, virtual predict+update) and the fast loop
 * (PredictionEngine::processBatch over the trace's lanes),
 * timing both and HARD-FAILING unless their EngineStats and
 * BranchProfile are bit-identical - a fast path that drifts is not a
 * fast path, it is a different simulator.
 *
 * Reports instructions/sec per (predictor, workload, engine config) -
 * --predictor takes a comma-separated kind list, default
 * "gshare,tage" so the devirtualised TAGE arm is gated alongside
 * gshare - and writes a machine-readable throughput record (--out,
 * default
 * BENCH_replay.json) in the pabp.metrics JSON format; the perf-smoke
 * stage of scripts/run_experiments.sh keeps it under version-control
 * adjacent paths. Unlike the sweep binaries this one times the host,
 * so its numbers (not its equivalence verdict) vary machine to
 * machine.
 */

#include <chrono>
#include <string>
#include <vector>

#include "bpred/factory.hh"
#include "common.hh"
#include "core/engine.hh"
#include "sim/trace_io.hh"
#include "util/metrics.hh"

using namespace pabp;
using namespace pabp::bench;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opts = standardOptions();
    opts.declare("predictor", "gshare,tage",
                 "comma-separated predictor kinds to time");
    opts.declare("size-log2", "12", "predictor table size (log2)");
    opts.declare("repeats", "3",
                 "timed repetitions per loop; the best is reported");
    opts.declare("out", "BENCH_replay.json",
                 "throughput record path (pabp.metrics JSON)");
    if (!opts.parse(argc, argv))
        return 0;
    const std::uint64_t steps = opts.unsignedInteger("steps");
    const std::uint64_t seed = opts.unsignedInteger("seed");
    const std::string predictor_list = opts.str("predictor");
    const unsigned size_log2 = opts.unsignedInteger<unsigned>("size-log2");
    const unsigned repeats =
        std::max(1u, opts.unsignedInteger<unsigned>("repeats"));

    std::vector<std::string> predictors;
    for (std::size_t pos = 0; pos <= predictor_list.size();) {
        std::size_t comma = predictor_list.find(',', pos);
        if (comma == std::string::npos)
            comma = predictor_list.size();
        if (comma > pos)
            predictors.push_back(
                predictor_list.substr(pos, comma - pos));
        pos = comma + 1;
    }

    std::cout << "replay-hot: reference vs fast replay loop on "
              << predictor_list << " at 2^" << size_log2 << ", "
              << steps << " steps\n\n";

    struct Config
    {
        const char *label;
        bool sfpf;
        bool pgu;
    };
    const Config configs[] = {
        {"base", false, false},
        {"+both", true, true},
    };

    MetricsExporter ex;
    ex.setText("replay.predictor", predictor_list);
    ex.setInt("replay.size_log2", size_log2);
    ex.setInt("replay.steps", steps);
    ex.setInt("replay.repeats", repeats);

    Table table({"predictor", "workload", "config", "events",
                 "ref-Mi/s", "fast-Mi/s", "speedup"});
    bool all_equal = true;
    double min_speedup = 0.0;
    bool have_speedup = false;
    // Per-config minima: the perf-smoke regression gate tracks base
    // and +both separately (the +both fast path has its own budget -
    // ISSUE 7), while replay.min_speedup keeps the historical
    // all-config meaning.
    double min_speedup_base = 0.0, min_speedup_both = 0.0;
    bool have_base = false, have_both = false;

    for (const std::string &name : workloadNames()) {
        Workload wl = makeWorkload(name, seed);
        CompileOptions copts;
        copts.ifConvert = true;
        CompiledProgram cp = compileWorkload(wl, copts);

        Emulator rec_emu(cp.prog);
        if (wl.init)
            wl.init(rec_emu.state());
        const DecodedTrace trace = recordTrace(rec_emu, steps);

        // Predictor matrix inside the workload loop: the recorded
        // trace is predictor-independent and shared.
        for (const std::string &predictor : predictors)
        for (const Config &config : configs) {
            EngineConfig ecfg;
            ecfg.useSfpf = config.sfpf;
            ecfg.usePgu = config.pgu;

            auto run_ref = [&](EngineStats &stats,
                               BranchProfile &profile) {
                PredictorPtr pred =
                    makePredictor(predictor, size_log2);
                PredictionEngine engine(*pred, ecfg);
                auto start = std::chrono::steady_clock::now();
                replayTraceFrom(trace, engine, 0, steps);
                double elapsed = secondsSince(start);
                stats = engine.stats();
                profile = engine.branchProfile();
                return elapsed;
            };
            auto run_fast = [&](EngineStats &stats,
                                BranchProfile &profile) {
                PredictorPtr pred =
                    makePredictor(predictor, size_log2);
                PredictionEngine engine(*pred, ecfg);
                auto start = std::chrono::steady_clock::now();
                engine.processBatch(trace, 0, steps);
                double elapsed = secondsSince(start);
                stats = engine.stats();
                profile = engine.branchProfile();
                return elapsed;
            };

            EngineStats ref_stats, fast_stats;
            BranchProfile ref_profile, fast_profile;
            double ref_best = 0.0, fast_best = 0.0;
            for (unsigned r = 0; r < repeats; ++r) {
                double t = run_ref(ref_stats, ref_profile);
                ref_best = r == 0 ? t : std::min(ref_best, t);
                t = run_fast(fast_stats, fast_profile);
                fast_best = r == 0 ? t : std::min(fast_best, t);
            }

            const bool equal = ref_stats == fast_stats &&
                ref_profile == fast_profile;
            if (!equal) {
                all_equal = false;
                std::cerr << "FAILED: fast replay diverges from the "
                             "reference loop on "
                          << name << " (" << predictor << ", "
                          << config.label << ")\n";
            }

            const double events =
                static_cast<double>(trace.size());
            const double ref_ips =
                ref_best > 0.0 ? events / ref_best : 0.0;
            const double fast_ips =
                fast_best > 0.0 ? events / fast_best : 0.0;
            const double speedup =
                ref_ips > 0.0 ? fast_ips / ref_ips : 0.0;
            if (!have_speedup || speedup < min_speedup) {
                min_speedup = speedup;
                have_speedup = true;
            }
            if (config.sfpf || config.pgu) {
                if (!have_both || speedup < min_speedup_both) {
                    min_speedup_both = speedup;
                    have_both = true;
                }
            } else {
                if (!have_base || speedup < min_speedup_base) {
                    min_speedup_base = speedup;
                    have_base = true;
                }
            }

            table.startRow();
            table.cell(predictor);
            table.cell(name);
            table.cell(std::string(config.label));
            table.cell(static_cast<std::uint64_t>(trace.size()));
            table.cell(ref_ips / 1e6, 1);
            table.cell(fast_ips / 1e6, 1);
            table.cell(speedup, 2);

            const std::string key = "replay." + predictor + "." +
                name + "." + config.label + ".";
            ex.setInt(key + "events", trace.size());
            ex.setReal(key + "ref_insts_per_sec", ref_ips);
            ex.setReal(key + "fast_insts_per_sec", fast_ips);
            ex.setReal(key + "speedup", speedup);
            ex.setInt(key + "stats_equal", equal ? 1 : 0);
        }
    }

    ex.setReal("replay.min_speedup",
               have_speedup ? min_speedup : 0.0);
    ex.setReal("replay.min_speedup.base",
               have_base ? min_speedup_base : 0.0);
    ex.setReal("replay.min_speedup.both",
               have_both ? min_speedup_both : 0.0);
    ex.setInt("replay.all_equal", all_equal ? 1 : 0);

    emitTable(table, opts.flag("csv"), std::cout);
    std::cout << "min speedup: " << min_speedup << "x (base "
              << min_speedup_base << "x, +both " << min_speedup_both
              << "x), equivalence: " << (all_equal ? "ok" : "FAILED")
              << "\n";

    Status written = ex.writeJsonFile(opts.str("out"));
    if (!written.ok()) {
        std::cerr << "FAILED: cannot write " << opts.str("out")
                  << ": " << written.toString() << "\n";
        return 1;
    }
    return all_equal ? 0 : 1;
}
