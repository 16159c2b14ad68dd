#!/usr/bin/env bash
# Build and run the full test suite under AddressSanitizer +
# UndefinedBehaviorSanitizer (the PABP_SANITIZE CMake option), in a
# separate build tree so the regular build stays untouched. The
# fault-injection tests are the main beneficiary: they walk every
# degraded path in the trace/checkpoint readers, where an
# out-of-bounds read on corrupt input would otherwise hide.
#
# A second stage rebuilds under ThreadSanitizer (PABP_TSAN) and runs
# the concurrency-bearing tests - the thread pool and the parallel
# sweep runner, including the jobs-1-vs-N determinism suite and the
# stats/metrics-export tests (per-cell metric files are written from
# worker threads, so the export path must be race-clean too) - so a
# data race in the sweep layer fails CI instead of surfacing as a
# once-in-a-thousand-runs wrong table. Set PABP_SKIP_TSAN=1 to run
# only the ASan/UBSan stage.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-asan}

cmake -B "$BUILD_DIR" -G Ninja -DPABP_SANITIZE=ON
cmake --build "$BUILD_DIR"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# Fuzz stage under ASan/UBSan (docs/FUZZING.md): the trace- and
# journal-corruption oracles feed bit-flipped and truncated PABPTRC2 /
# PABPJRN1 bytes to both the strict and the salvage readers - exactly
# the inputs where an out-of-bounds read would hide without
# sanitizers. Fixed seeds keep the stage deterministic; any divergence
# or sanitizer report fails.
FUZZ_RUNS=${FUZZ_RUNS:-25}
FUZZ_SEED=${FUZZ_SEED:-1}
"$BUILD_DIR"/tools/pabp-fuzz --replay-dir tests/corpus \
    --scratch-dir "$BUILD_DIR"
"$BUILD_DIR"/tools/pabp-fuzz --check-harness --scratch-dir "$BUILD_DIR"
"$BUILD_DIR"/tools/pabp-fuzz --runs "$FUZZ_RUNS" --seed "$FUZZ_SEED" \
    --scratch-dir "$BUILD_DIR"

# SIMD kernels under ASan/UBSan at BOTH dispatch tiers (util/simd.hh):
# the AVX2 scan kernels read the class lane in 32-byte vectors with
# scalar tail handling, and the perceptron kernels stride int16 rows -
# exactly the code where an off-by-one would read past a buffer
# without tripping anything in a normal run. PABP_SIMD forces the
# tier; on a host without AVX2 the avx2 pass falls back to scalar and
# is a harmless repeat. The fast-replay suite rides along so the whole
# batched engine (collectStops consumers, schedule-cache capture and
# hit paths) runs sanitized at each tier too. 'Tage|InjectContract'
# pins the TAGE folded-history machinery (circular raw-history buffer
# indexing, multi-bit injection, u-reset sweeps) and the
# bulk-vs-sequential inject contract for every predictor kind - the
# paths where a fold-width or wrap off-by-one would read garbage
# without ever failing a plain assertion. 'MultiCtx' interleaves N
# recorded traces through one predictor with per-slice history
# export/import swaps and shared BTB/RAS borrowing, and 'Btb' covers
# the target structures themselves - new pointer-juggling paths that
# deserve both tiers sanitized. 'TraceIo' runs the PABPTRC2 reader,
# which fills the class lane the scan kernels read straight from
# (possibly damaged) file bytes. 'Pipeline|OutcomeLane' runs the Timed
# cells' windows: each window's batch runs collectStops and
# captureSchedule at the tier, and the timing step reads the outcome
# bytes the batch wrote.
for tier in scalar avx2; do
    PABP_SIMD=$tier ctest --test-dir "$BUILD_DIR" --output-on-failure \
        -j "$(nproc)" \
        -R 'Simd|FastReplay|DecodedTrace|TraceIo|Tage|InjectContract|MultiCtx|Btb|ContextSchedule|Predictability|Mining|Pipeline|OutcomeLane'
done

if [ "${PABP_SKIP_TSAN:-0}" != "1" ]; then
    TSAN_DIR=${TSAN_DIR:-build-tsan}
    cmake -B "$TSAN_DIR" -G Ninja -DPABP_TSAN=ON
    cmake --build "$TSAN_DIR" --target pabp_tests
    # 'Sweep' also picks up the SweepService campaign tests (journal
    # commits from the coordinator while workers run); 'Journal'
    # covers the journal unit tests themselves. 'FastReplay' adds the
    # replay-schedule cache, whose find/insert runs under a mutex
    # against concurrent sweep workers sharing one recorded trace - the
    # sweep tests drive that concurrently, the FastReplay tests pin
    # the single-threaded semantics under the same build, and
    # 'ReplayScheduleCache' runs its single-flight slot with a capture
    # that throws while another thread waits on it. 'MultiCtx'
    # rides along because multi-context cells run inside sweep worker
    # threads and share the per-context recorded traces through the
    # same cache.
    # 'Metrics' also catches the characterized-cell byte-identity
    # suite: predictability reports are computed once per program in
    # the sweep's single-flight memo, which sweep workers race on.
    ctest --test-dir "$TSAN_DIR" --output-on-failure \
        -R 'ThreadPool|Sweep|Stats|Metrics|Journal|FastReplay|ReplayScheduleCache|MultiCtx|Predictability'
fi
