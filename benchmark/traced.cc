/**
 * @file
 * The traced run: a serial re-execution of a workload grid that calls
 * each layer's public function directly and records a span around
 * every call. It mirrors SweepRunner::executeSpec (bench/sweep.cc)
 * step for step, so its per-cell results must equal the production
 * cells' - main.cc checks that they do.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <tuple>

#include "bench.hh"
#include "bpred/factory.hh"
#include "core/checkpoint.hh"
#include "core/h2p.hh"
#include "sweep_service.hh"
#include "util/journal.hh"
#include "util/metrics.hh"
#include "util/stats.hh"
#include "workloads/workload.hh"

namespace pabp::perf {

const char *
layerName(Layer layer)
{
    static constexpr const char *names[kNumLayers] = {
        "cell",        "workloads",         "compiler",
        "bpred",       "sim.record",        "sim.decode",
        "sim.emulator", "core.characterize", "core.replay",
        "core.ref_loop", "core.checkpoint", "pipeline",
        "util.metrics", "util.journal"};
    return names[static_cast<std::size_t>(layer)];
}

std::int64_t
SpanRecorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

std::size_t
SpanRecorder::open(Layer layer, std::uint32_t cell, bool variant)
{
    Span s;
    s.pass = pass;
    s.cell = cell;
    s.layer = layer;
    s.variant = variant;
    s.parent = stack.empty() ? -1 : static_cast<std::int32_t>(stack.back());
    s.startNs = nowNs();
    all.push_back(s);
    stack.push_back(all.size() - 1);
    return all.size() - 1;
}

void
SpanRecorder::close(std::size_t id, std::uint64_t work)
{
    Span &s = all[id];
    s.endNs = nowNs();
    s.work = work;
    stack.pop_back();
    if (s.parent >= 0)
        all[static_cast<std::size_t>(s.parent)].childNs += s.durationNs();
}

void
SpanRecorder::writeChromeTrace(std::ostream &os) const
{
    // One thread per pass keeps passes apart in the viewer; the cell
    // index rides along as an argument so a cell's spans group.
    os << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        os << (i ? ",\n" : "") << "{\"name\":\"" << layerName(s.layer)
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.pass
           << ",\"ts\":" << static_cast<double>(s.startNs) / 1e3
           << ",\"dur\":" << static_cast<double>(s.durationNs()) / 1e3
           << ",\"args\":{\"cell\":" << s.cell << ",\"work\":" << s.work
           << ",\"variant\":" << (s.variant ? 1 : 0) << "}}";
    }
    os << "\n]}\n";
}

namespace {

using ProgramHandle = std::shared_ptr<const CompiledProgram>;
using TraceHandle = std::shared_ptr<const DecodedTrace>;
using ReportHandle = std::shared_ptr<const PredictabilityReport>;

/**
 * The sweep runner's program cache key is (workload, compile seed,
 * compile options); the benchmark's grids vary only ifConvert among
 * the compile options, so that is all this key carries.
 */
std::string
programKey(const bench::RunSpec &spec)
{
    return spec.workload + ":" +
        std::to_string(spec.compileSeed.value_or(spec.seed)) + ":" +
        (spec.ifConvert ? "1" : "0");
}

/** Per-pass caches and counters: a fresh one per pass, the way every
 *  e2e pass uses a fresh SweepRunner. */
class TracedExecutor
{
  public:
    explicit TracedExecutor(SpanRecorder &rec) : rec(rec) {}

    bench::RunResult runCell(const bench::RunSpec &spec, std::uint32_t cell);

    std::uint64_t compiles = 0;
    std::uint64_t records = 0;

  private:
    SpanRecorder &rec;
    std::map<std::string, ProgramHandle> programs;
    std::map<std::string, TraceHandle> traces;
    std::map<std::string, ReportHandle> reports;
    /** Replay batches already run this pass: (trace, predicate
     *  config, chunk range) - a repeat may hit the schedule cache. */
    std::set<std::tuple<const DecodedTrace *, bool, bool, bool,
                        std::uint64_t, std::uint64_t>>
        batchesSeen;

    Workload workloadFor(const bench::RunSpec &spec, std::uint64_t seed,
                         std::uint32_t cell);
    ProgramHandle compiled(const bench::RunSpec &spec, std::uint32_t cell);
    TraceHandle decoded(const bench::RunSpec &spec,
                        const CompiledProgram &program, std::uint32_t cell);
    ReportHandle characterized(const bench::RunSpec &spec,
                               const CompiledProgram &program,
                               std::uint32_t cell);
    void replay(const bench::RunSpec &spec, const DecodedTrace &trace,
                PredictionEngine &engine, std::uint32_t cell);
    Status refLoop(const bench::RunSpec &spec, const CompiledProgram &cp,
                   const StateInit &init, PredictionEngine &engine,
                   std::uint32_t cell);
    void captureMetrics(const bench::RunSpec &spec,
                        bench::RunResult &result, PredictionEngine &engine,
                        std::uint32_t cell);
};

Workload
TracedExecutor::workloadFor(const bench::RunSpec &spec, std::uint64_t seed,
                            std::uint32_t cell)
{
    ScopedSpan span(rec, Layer::Workloads, cell);
    return makeWorkload(spec.workload, seed);
}

ProgramHandle
TracedExecutor::compiled(const bench::RunSpec &spec, std::uint32_t cell)
{
    ProgramHandle &slot = programs[programKey(spec)];
    if (slot)
        return slot;
    Workload wl =
        workloadFor(spec, spec.compileSeed.value_or(spec.seed), cell);
    CompileOptions copts = spec.compile;
    copts.ifConvert = spec.ifConvert;
    ScopedSpan span(rec, Layer::Compiler, cell);
    slot = std::make_shared<const CompiledProgram>(
        compileWorkload(wl, copts));
    span.work = slot->prog.insts.size();
    ++compiles;
    return slot;
}

TraceHandle
TracedExecutor::decoded(const bench::RunSpec &spec,
                        const CompiledProgram &program, std::uint32_t cell)
{
    TraceHandle &slot = traces[programKey(spec) + ":" +
                               std::to_string(spec.seed) + ":" +
                               std::to_string(spec.maxInsts)];
    if (slot)
        return slot;
    Workload wl = workloadFor(spec, spec.seed, cell);
    RecordedTrace recorded;
    {
        ScopedSpan span(rec, Layer::SimRecord, cell);
        Emulator emu(program.prog);
        if (wl.init)
            wl.init(emu.state());
        recorded = recordTrace(emu, spec.maxInsts);
        span.work = recorded.size();
    }
    ScopedSpan span(rec, Layer::SimDecode, cell);
    slot = std::make_shared<const DecodedTrace>(
        DecodedTrace::build(recorded));
    span.work = slot->size();
    ++records;
    return slot;
}

ReportHandle
TracedExecutor::characterized(const bench::RunSpec &spec,
                              const CompiledProgram &program,
                              std::uint32_t cell)
{
    ReportHandle &slot = reports[programKey(spec) + ":" +
                                 std::to_string(spec.seed) + ":" +
                                 std::to_string(spec.maxInsts)];
    if (slot)
        return slot;
    TraceHandle trace = decoded(spec, program, cell);
    ScopedSpan span(rec, Layer::CoreCharacterize, cell);
    slot = std::make_shared<const PredictabilityReport>(characterizeTrace(
        *trace, PredictabilityConfig{}, spec.maxInsts));
    span.work = std::min<std::uint64_t>(trace->size(), spec.maxInsts);
    return slot;
}

void
TracedExecutor::replay(const bench::RunSpec &spec, const DecodedTrace &trace,
                       PredictionEngine &engine, std::uint32_t cell)
{
    // With no watchdog armed the sweep asks for the whole remaining
    // budget in each batch (CellDeadline::slice).
    std::uint64_t processed = 0;
    while (processed < spec.maxInsts) {
        const std::uint64_t chunk = spec.maxInsts - processed;
        const bool repeat =
            !batchesSeen
                 .emplace(&trace, spec.engine.useSfpf, spec.engine.usePgu,
                          spec.engine.useSpeculativeSquash, processed, chunk)
                 .second;
        std::uint64_t next = processed;
        {
            ScopedSpan span(rec, Layer::CoreReplay, cell, repeat);
            next = engine.processBatch(trace, processed, chunk);
            span.work = next - processed;
        }
        if (next == processed)
            break; // trace exhausted before the budget
        processed = next;
    }
}

Status
TracedExecutor::refLoop(const bench::RunSpec &spec,
                        const CompiledProgram &cp, const StateInit &init,
                        PredictionEngine &engine, std::uint32_t cell)
{
    std::optional<Emulator> emu;
    {
        ScopedSpan span(rec, Layer::SimEmulator, cell);
        emu.emplace(cp.prog);
        if (init)
            init(emu->state());
    }
    const std::string ckpt_file = bench::derivedCheckpointPath(
        spec.checkpointPath, bench::specFingerprint(spec));
    // Unarmed, the sweep runs each checkpoint interval in one runTrace.
    std::uint64_t done = 0;
    while (done < spec.maxInsts) {
        const std::uint64_t chunk =
            std::min(spec.checkpointEvery, spec.maxInsts - done);
        std::uint64_t ran = 0;
        {
            ScopedSpan span(rec, Layer::CoreRefLoop, cell);
            ran = runTrace(*emu, engine, chunk);
            span.work = ran;
        }
        done += ran;
        ScopedSpan span(rec, Layer::CoreCheckpoint, cell);
        Status status =
            saveCheckpoint(ckpt_file, CheckpointRefs{&*emu, &engine, &done});
        if (!status.ok())
            return status;
        if (ran < chunk)
            break; // workload halted before the budget
    }
    return Status();
}

void
TracedExecutor::captureMetrics(const bench::RunSpec &spec,
                               bench::RunResult &result,
                               PredictionEngine &engine, std::uint32_t cell)
{
    // The same calls, in the same order, as the sweep's
    // buildCellMetrics + writeCellOutputs for a single-engine cell.
    ScopedSpan span(rec, Layer::UtilMetrics, cell);
    MetricsExporter ex;
    ex.setText("spec.workload", spec.workload);
    ex.setText("spec.predictor", spec.predictor);
    ex.setText("spec.mode",
               spec.mode == bench::RunMode::Timed ? "timed" : "trace");
    ex.setInt("spec.size_log2", spec.sizeLog2);
    ex.setInt("spec.seed", spec.seed);
    ex.setInt("spec.compile_seed", spec.compileSeed.value_or(spec.seed));
    ex.setInt("spec.max_insts", spec.maxInsts);
    char fp_hex[17];
    std::snprintf(fp_hex, sizeof(fp_hex), "%016llx",
                  static_cast<unsigned long long>(
                      bench::specFingerprint(spec)));
    ex.setText("spec.fingerprint", fp_hex);

    StatGroup group;
    engine.registerStats(group);
    ex.addGroup(group);
    ex.setReal("engine.mpki", engine.stats().mpki());
    engine.branchProfile().exportTo(ex);
    if (result.predictability) {
        exportPredictability(ex, *result.predictability);
        Expected<H2pClassification> cls =
            classifyH2p(engine.branchProfile());
        if (cls.ok())
            aggregatePredictabilityByTier(ex, cls.value(),
                                          *result.predictability);
    }
    ex.setInt("compile.num_regions", result.numRegions);
    ex.setInt("compile.num_region_branches", result.numRegionBranches);
    if (spec.mode == bench::RunMode::Timed) {
        const PipelineStats &p = result.pipe;
        ex.setInt("pipeline.insts", p.insts);
        ex.setInt("pipeline.cycles", p.cycles);
        ex.setInt("pipeline.icache_misses", p.icacheMisses);
        ex.setInt("pipeline.dcache_misses", p.dcacheMisses);
        ex.setInt("pipeline.l2_misses", p.l2Misses);
        ex.setInt("pipeline.btb_misses", p.btbMisses);
        ex.setInt("pipeline.ras_hits", p.rasHits);
        ex.setInt("pipeline.ras_misses", p.rasMisses);
        ex.setInt("pipeline.mispredict_stall_cycles",
                  p.mispredictStallCycles);
        ex.setReal("pipeline.ipc", p.ipc());
    }
    std::ostringstream os;
    ex.writeJson(os);
    result.metricsJson = os.str();
    span.work = result.metricsJson.size();
}

bench::RunResult
TracedExecutor::runCell(const bench::RunSpec &spec, std::uint32_t cell)
{
    ScopedSpan cell_span(rec, Layer::Cell, cell);
    bench::RunResult result;
    if (spec.watchdogMillis > 0) {
        // An armed watchdog slices every engine loop at heartbeatInsts;
        // the spans below mirror only the unsliced loops.
        result.status = Status(StatusCode::InvalidArgument,
                               "traced run does not mirror watchdog cells");
        return result;
    }

    ProgramHandle program = compiled(spec, cell);
    const CompiledProgram &cp = *program;
    result.numRegions = cp.info.numRegions;
    result.numRegionBranches = cp.info.numRegionBranches;
    // executeSpec builds the measurement-seed workload for every cell,
    // whether or not the cell emulates live.
    const Workload init_wl = workloadFor(spec, spec.seed, cell);
    if (spec.characterize)
        result.predictability = characterized(spec, cp, cell);

    PredictorPtr pred;
    {
        ScopedSpan span(rec, Layer::Bpred, cell);
        Expected<PredictorPtr> made =
            tryMakePredictor(spec.predictor, spec.sizeLog2);
        if (!made.ok()) {
            result.status = made.status();
            return result;
        }
        pred = std::move(made.value());
    }

    if (spec.mode == bench::RunMode::Timed) {
        EngineConfig ecfg = spec.engine;
        ecfg.modelTargets = true;
        PredictionEngine engine(*pred, ecfg);
        Pipeline pipe(engine, spec.pipeline);
        std::optional<Emulator> emu;
        {
            ScopedSpan span(rec, Layer::SimEmulator, cell);
            emu.emplace(cp.prog);
            if (init_wl.init)
                init_wl.init(emu->state());
        }
        {
            ScopedSpan span(rec, Layer::Pipeline, cell);
            result.pipe = pipe.run(*emu, spec.maxInsts);
            span.work = result.pipe.insts;
        }
        result.engine = engine.stats();
        result.pguBits = engine.pguBitsInserted();
        result.profile = engine.branchProfile();
        captureMetrics(spec, result, engine, cell);
        return result;
    }

    PredictionEngine engine(*pred, spec.engine);
    if (spec.fastReplay && spec.checkpointEvery == 0 &&
        spec.resumePath.empty()) {
        TraceHandle trace = decoded(spec, cp, cell);
        replay(spec, *trace, engine, cell);
    } else if (spec.checkpointEvery > 0 && spec.resumePath.empty()) {
        result.status = refLoop(spec, cp, init_wl.init, engine, cell);
        if (!result.status.ok())
            return result;
    } else {
        // The grids never build these cells (reference or resuming
        // cells without checkpoints); refuse rather than mis-time.
        result.status = Status(StatusCode::InvalidArgument,
                               "traced run covers fast-replay and "
                               "checkpointing Trace cells only");
        return result;
    }
    result.engine = engine.stats();
    result.pguBits = engine.pguBitsInserted();
    result.profile = engine.branchProfile();
    captureMetrics(spec, result, engine, cell);
    return result;
}

} // anonymous namespace

TracedPass
runTracedPass(const std::vector<bench::RunSpec> &grid, bool campaign,
              const std::string &journal_path, SpanRecorder &rec,
              std::uint32_t pass)
{
    rec.setPass(pass);
    TracedPass out;
    out.results.reserve(grid.size());
    const std::int64_t start = rec.nowNs();
    TracedExecutor exec(rec);

    // The campaign's journal: the service opens it before the first
    // cell, appends each cell in grid order, compacts at drain and
    // reads the result back strictly.
    const std::uint32_t no_cell = static_cast<std::uint32_t>(grid.size());
    std::optional<JournalWriter> writer;
    std::vector<std::uint64_t> order;
    if (campaign) {
        std::filesystem::remove(journal_path);
        ScopedSpan span(rec, Layer::UtilJournal, no_cell);
        Expected<JournalWriter> opened =
            JournalWriter::open(journal_path, JournalHeader{});
        if (!opened.ok()) {
            out.journalOk = false;
        } else {
            writer.emplace(std::move(opened.value()));
        }
    }

    for (std::uint32_t i = 0; i < grid.size(); ++i) {
        out.results.push_back(exec.runCell(grid[i], i));
        if (!writer)
            continue;
        ScopedSpan span(rec, Layer::UtilJournal, i);
        const JournalRecord record =
            bench::recordForCell(grid[i], out.results.back());
        span.work = record.blob.size();
        order.push_back(record.fingerprint);
        if (!writer->append(record).ok())
            out.journalOk = false;
    }

    if (writer) {
        {
            ScopedSpan span(rec, Layer::UtilJournal, no_cell);
            writer->close();
        }
        {
            ScopedSpan span(rec, Layer::UtilJournal, no_cell, true);
            if (!compactJournal(journal_path, order).ok())
                out.journalOk = false;
        }
        ScopedSpan span(rec, Layer::UtilJournal, no_cell);
        Expected<std::vector<JournalRecord>> back =
            readJournalFile(journal_path);
        out.journalOk = out.journalOk && back.ok() &&
            back.value().size() == grid.size();
        for (std::size_t k = 0; out.journalOk && k < grid.size(); ++k)
            out.journalOk =
                back.value()[k].kind == JournalRecord::Kind::Result &&
                back.value()[k].fingerprint == order[k];
    }

    out.wallS = static_cast<double>(rec.nowNs() - start) / 1e9;
    out.compiles = exec.compiles;
    out.records = exec.records;
    return out;
}

} // namespace pabp::perf
