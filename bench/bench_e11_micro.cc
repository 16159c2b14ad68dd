/**
 * @file
 * E11: google-benchmark microbenchmarks of predictor lookup/update
 * throughput, the engine's per-instruction overhead, the cost of
 * compiling and of recording a workload, and the predictability
 * analyzer's per-event cost. These measure the
 * simulator itself (host-side cost), complementing the simulated
 * results of E1-E10.
 */

#include <benchmark/benchmark.h>

#include <atomic>

#include "bpred/factory.hh"
#include "core/engine.hh"
#include "core/predictability.hh"
#include "sim/emulator.hh"
#include "sim/trace_io.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"
#include "workloads/workload.hh"

namespace {

using namespace pabp;

void
BM_PredictorPredictUpdate(benchmark::State &state,
                          const std::string &kind)
{
    PredictorPtr pred = makePredictor(kind, 12);
    Rng rng(99);
    std::vector<std::uint32_t> pcs(1024);
    std::vector<bool> outcomes(1024);
    for (std::size_t i = 0; i < pcs.size(); ++i) {
        pcs[i] = static_cast<std::uint32_t>(rng.below(4096));
        outcomes[i] = rng.chance(0.6);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        bool taken = pred->predict(pcs[i]);
        benchmark::DoNotOptimize(taken);
        pred->update(pcs[i], outcomes[i]);
        i = (i + 1) & 1023;
    }
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK_CAPTURE(BM_PredictorPredictUpdate, bimodal, "bimodal");
BENCHMARK_CAPTURE(BM_PredictorPredictUpdate, gshare, "gshare");
BENCHMARK_CAPTURE(BM_PredictorPredictUpdate, local, "local");
BENCHMARK_CAPTURE(BM_PredictorPredictUpdate, comb, "comb");

void
BM_EmulatorThroughput(benchmark::State &state)
{
    Workload wl = makeDchain(42);
    CompileOptions copts;
    CompiledProgram compiled = compileWorkload(wl, copts);

    for (auto _ : state) {
        state.PauseTiming();
        Emulator emu(compiled.prog);
        if (wl.init)
            wl.init(emu.state());
        state.ResumeTiming();
        emu.run(100000);
        benchmark::DoNotOptimize(emu.instsExecuted());
    }
    state.SetItemsProcessed(state.iterations() * 100000);
}

BENCHMARK(BM_EmulatorThroughput)->Unit(benchmark::kMillisecond);

void
BM_EngineThroughput(benchmark::State &state)
{
    Workload wl = makeDchain(42);
    CompileOptions copts;
    CompiledProgram compiled = compileWorkload(wl, copts);
    PredictorPtr pred = makePredictor("gshare", 12);
    EngineConfig ecfg;
    ecfg.useSfpf = true;
    ecfg.usePgu = true;

    for (auto _ : state) {
        state.PauseTiming();
        Emulator emu(compiled.prog);
        if (wl.init)
            wl.init(emu.state());
        PredictionEngine engine(*pred, ecfg);
        state.ResumeTiming();
        runTrace(emu, engine, 100000);
        benchmark::DoNotOptimize(engine.stats().all.branches);
    }
    state.SetItemsProcessed(state.iterations() * 100000);
}

BENCHMARK(BM_EngineThroughput)->Unit(benchmark::kMillisecond);

void
BM_CompileWorkload(benchmark::State &state, const std::string &name)
{
    // The full default compile (profile, region selection,
    // if-converted lowering) of one suite workload per iteration;
    // its 200k-step profiling run is most of the cost.
    const Workload wl = makeWorkload(name, 42);
    for (auto _ : state) {
        state.PauseTiming();
        Workload copy = wl;
        state.ResumeTiming();
        CompiledProgram compiled = compileWorkload(copy, CompileOptions{});
        benchmark::DoNotOptimize(compiled.prog.insts.data());
    }
}

BENCHMARK_CAPTURE(BM_CompileWorkload, interp, "interp")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CompileWorkload, bsort, "bsort")
    ->Unit(benchmark::kMillisecond);

void
BM_RecordTrace(benchmark::State &state, const std::string &name)
{
    // Record 300k events into the replay lanes per iteration, from a
    // freshly built and initialised emulator as a sweep cell does.
    Workload wl = makeWorkload(name, 42);
    CompileOptions copts;
    CompiledProgram compiled = compileWorkload(wl, copts);
    std::int64_t events = 0;
    for (auto _ : state) {
        Emulator emu(compiled.prog);
        if (wl.init)
            wl.init(emu.state());
        DecodedTrace trace = recordTrace(emu, 300000);
        events += static_cast<std::int64_t>(trace.size());
        benchmark::DoNotOptimize(trace.pcs.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(events);
}

BENCHMARK_CAPTURE(BM_RecordTrace, interp, "interp")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RecordTrace, bsort, "bsort")
    ->Unit(benchmark::kMillisecond);

void
BM_CharacterizeTrace(benchmark::State &state, const std::string &name)
{
    // One default-config characterization of a recorded 300k-step
    // trace per iteration. interp folds thousands of k=16 patterns at
    // the default capacity; bsort folds none, so the pair brackets
    // the analyzer's eviction cost.
    Workload wl = makeWorkload(name, 42);
    CompileOptions copts;
    CompiledProgram compiled = compileWorkload(wl, copts);
    Emulator emu(compiled.prog);
    if (wl.init)
        wl.init(emu.state());
    const DecodedTrace trace = recordTrace(emu, 300000);

    for (auto _ : state) {
        PredictabilityReport rep = characterizeTrace(trace);
        benchmark::DoNotOptimize(rep.occurrences);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(trace.size()));
}

BENCHMARK_CAPTURE(BM_CharacterizeTrace, interp, "interp")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CharacterizeTrace, bsort, "bsort")
    ->Unit(benchmark::kMillisecond);

void
BM_ThreadPoolDispatch(benchmark::State &state)
{
    // Cost of pushing work through the sweep runner's pool: submit a
    // batch of trivial tasks and drain. Dominated by queue mutex
    // traffic, so it bounds how fine-grained sweep cells can usefully
    // be.
    const unsigned threads =
        static_cast<unsigned>(state.range(0));
    constexpr int batch = 256;
    ThreadPool pool(threads);
    for (auto _ : state) {
        std::atomic<int> done{0};
        for (int i = 0; i < batch; ++i)
            pool.submit([&done] {
                done.fetch_add(1, std::memory_order_relaxed);
            });
        pool.drain();
        if (done.load() != batch)
            state.SkipWithError("lost tasks");
    }
    state.SetItemsProcessed(state.iterations() * batch);
}

BENCHMARK(BM_ThreadPoolDispatch)->Arg(1)->Arg(2)->Arg(4);

} // namespace

BENCHMARK_MAIN();
