/**
 * @file
 * Trace record/replay/inspect tool built on the sim/trace_io API.
 *
 *   tracetool --record=dchain --out=dchain.trace [--steps=1000000]
 *   tracetool --replay=dchain.trace [--predictor=gshare] [--sfpf] [--pgu]
 *   tracetool --inspect=dchain.trace
 *
 * Record once, then sweep predictor configurations over the same
 * dynamic stream without re-emulating - the standard trace-driven
 * methodology, end to end.
 */

#include <cstdio>
#include <string>

#include "bpred/factory.hh"
#include "core/checkpoint.hh"
#include "core/engine.hh"
#include "sim/trace_io.hh"
#include "util/logging.hh"
#include "util/options.hh"
#include "workloads/workload.hh"

using namespace pabp;

namespace {

int
doRecord(const Options &opts)
{
    std::string name = opts.str("record");
    std::string out = opts.str("out");
    auto steps = opts.unsignedInteger("steps");

    Workload wl = makeWorkload(name, 42);
    CompileOptions copts;
    CompiledProgram cp = compileWorkload(wl, copts);
    Emulator emu(cp.prog);
    if (wl.init)
        wl.init(emu.state());
    RecordedTrace trace = recordTrace(emu, steps);
    saveTraceFile(trace, out);
    std::printf("recorded %zu events of %s into %s\n", trace.size(),
                name.c_str(), out.c_str());
    return 0;
}

int
doReplay(const Options &opts)
{
    TraceReadOptions topts;
    topts.salvage = opts.flag("salvage");
    TraceReadInfo tinfo;
    Expected<RecordedTrace> loaded =
        tryLoadTraceFile(opts.str("replay"), topts, &tinfo);
    if (!loaded.ok())
        pabp_fatal(loaded.status().toString());
    const RecordedTrace &trace = loaded.value();
    if (tinfo.salvaged)
        std::printf("salvaged trace: kept %zu events, dropped %llu\n",
                    trace.size(),
                    static_cast<unsigned long long>(
                        tinfo.eventsDropped));

    PredictorPtr pred = makePredictor(
        opts.str("predictor"),
        opts.unsignedInteger<unsigned>("size-log2"));
    EngineConfig ecfg;
    ecfg.useSfpf = opts.flag("sfpf");
    ecfg.usePgu = opts.flag("pgu");
    PredictionEngine engine(*pred, ecfg);

    // Optional checkpoint/resume around the replay loop. The replay
    // cursor travels inside the checkpoint, so a resumed run picks up
    // exactly where the saved one stopped; the trace fingerprint
    // travels with it, so a resume on any other trace is refused.
    const std::uint64_t trace_id = traceFingerprint(trace);
    std::uint64_t pos = 0;
    std::string ckpt_path = opts.str("checkpoint-file");
    auto every = opts.unsignedInteger("checkpoint-every");
    if (!opts.str("resume").empty()) {
        CheckpointRefs refs{nullptr, &engine, &pos, &trace_id};
        Status status = loadCheckpoint(opts.str("resume"), refs);
        if (!status.ok())
            pabp_fatal(status.toString());
        std::printf("resumed at event %llu from %s\n",
                    static_cast<unsigned long long>(pos),
                    opts.str("resume").c_str());
    }
    if (every == 0) {
        replayTraceFrom(trace, engine, pos, trace.size());
    } else {
        while (pos < trace.size()) {
            pos = replayTraceFrom(trace, engine, pos, every);
            CheckpointRefs refs{nullptr, &engine, &pos, &trace_id};
            Status status = saveCheckpoint(ckpt_path, refs);
            if (!status.ok())
                pabp_fatal(status.toString());
        }
    }

    const EngineStats &s = engine.stats();
    std::printf("replayed %llu insts on %s (sfpf=%d pgu=%d)\n",
                static_cast<unsigned long long>(s.insts),
                pred->name().c_str(), ecfg.useSfpf, ecfg.usePgu);
    std::printf("  cond branches : %llu\n",
                static_cast<unsigned long long>(s.all.branches));
    std::printf("  mispredicts   : %llu (%.3f%%)\n",
                static_cast<unsigned long long>(s.all.mispredicts),
                100.0 * s.all.mispredictRate());
    std::printf("  squashed      : %llu\n",
                static_cast<unsigned long long>(s.all.squashed));
    std::printf("  region branch : %llu (%.3f%% mispredict)\n",
                static_cast<unsigned long long>(s.region.branches),
                100.0 * s.region.mispredictRate());
    return 0;
}

int
doInspect(const Options &opts)
{
    RecordedTrace trace = loadTraceFile(opts.str("inspect"));
    std::uint64_t branches = 0, taken = 0, guards_false = 0;
    std::uint64_t defines = 0, region_insts = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        DynInst dyn = trace.materialise(i);
        if (dyn.inst->isConditionalBranch()) {
            ++branches;
            taken += dyn.taken;
            guards_false += !dyn.guard;
        }
        defines += dyn.inst->writesPredicate();
        region_insts += dyn.inst->regionId >= 0;
    }
    std::printf("trace: %zu events, %zu static instructions\n",
                trace.size(), trace.prog.size());
    std::printf("  cond branches  : %llu (%.1f%% taken, %.1f%% false "
                "guard)\n",
                static_cast<unsigned long long>(branches),
                branches ? 100.0 * taken / branches : 0.0,
                branches ? 100.0 * guards_false / branches : 0.0);
    std::printf("  pred defines   : %llu\n",
                static_cast<unsigned long long>(defines));
    std::printf("  region insts   : %llu (%.1f%%)\n",
                static_cast<unsigned long long>(region_insts),
                trace.size() ? 100.0 * region_insts / trace.size() : 0.0);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    opts.declare("record", "", "workload name to record");
    opts.declare("out", "out.trace", "output path for --record");
    opts.declare("replay", "", "trace file to replay");
    opts.declare("inspect", "", "trace file to summarise");
    opts.declare("steps", "1000000", "events to record");
    opts.declare("predictor", "gshare", "predictor kind for --replay");
    opts.declare("size-log2", "12", "predictor size for --replay");
    opts.declare("sfpf", "0", "arm the squash filter on replay");
    opts.declare("pgu", "0", "arm predicate global update on replay");
    opts.declare("salvage", "0",
                 "recover the valid prefix of a damaged trace");
    opts.declare("checkpoint-every", "0",
                 "checkpoint the replay every N events (0 = off)");
    opts.declare("checkpoint-file", "pabp.ckpt",
                 "checkpoint path for --checkpoint-every");
    opts.declare("resume", "", "resume replay from a checkpoint file");
    if (!opts.parse(argc, argv))
        return 0;

    if (!opts.str("record").empty())
        return doRecord(opts);
    if (!opts.str("replay").empty())
        return doReplay(opts);
    if (!opts.str("inspect").empty())
        return doInspect(opts);
    opts.printHelp(argv[0]);
    return 1;
}
