#!/usr/bin/env bash
# Regenerate every recorded result: build, test, run all experiments.
# Outputs land in test_output.txt and bench_output.txt at the repo
# root (the files EXPERIMENTS.md numbers are transcribed from).
# Exits nonzero when the build, the tests, or ANY experiment fails -
# a bench crash must not silently yield a truncated bench_output.txt
# that looks like a complete run.
#
# Every E-series experiment runs in ONE pabp-experiments process
# (bench/experiments.hh), which shares compiled programs, traces and
# predictability reports across experiments. JOBS controls its sweep
# parallelism (the --jobs flag; 0 = one worker per hardware thread).
# Output is byte-identical at any JOBS value, so it defaults to full
# parallelism.
#
# The driver exports each experiment's per-cell metrics JSON under
# METRICS_DIR/<experiment binary>/ (docs/OBSERVABILITY.md) and fails
# when a cell that ran left no metrics file - a run whose measurements
# vanished is not a successful run. E22 fails unless a mined workload
# dominates the suite, and the E20-E22 summary records land at the
# repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-0}
METRICS_DIR=${METRICS_DIR:-results/metrics}

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt
test "${PIPESTATUS[0]}" -eq 0

{
    if ! build/bench/pabp-experiments --jobs "$JOBS" \
        --metrics-dir "$METRICS_DIR" --summary-dir .; then
        echo "FAILED: build/bench/pabp-experiments"
    fi
    # The google-benchmark micro suite times the host and runs no
    # sweep cells; bench_replay_hot runs in the perf-smoke stage.
    if ! build/bench/bench_e11_micro; then
        echo "FAILED: build/bench/bench_e11_micro"
    fi
} 2>&1 | tee bench_output.txt

# --- Perf smoke (docs/PERF.md) ---------------------------------------
# Two checks on the fast replay path:
#  1. bench_replay_hot times the reference loop against the batched
#     loop on every suite workload and HARD-FAILS unless their stats
#     are bit-identical; its throughput record lands in
#     BENCH_replay.json at the repo root.
#  2. The combined-technique grid (E6) runs once per strategy into
#     separate metric directories. fastReplay is not fingerprinted,
#     so each cell writes the same filename either way - and every
#     pair of files must match BYTE FOR BYTE. Any drift is reported
#     through tools/pabp-stats and fails the run.
{
    echo "== perf smoke: replay-loop throughput =="
    # Regression gate: read the checked-in record's +both minimum
    # speedup BEFORE overwriting it, then fail if the fresh run comes
    # in more than 10% below it. Older records predate the per-config
    # key, so fall back to the all-config minimum; with no record at
    # all the fresh run just establishes the baseline.
    json_metric() {
        # Escape only dots: in sed BRE a backslashed '+' would turn
        # into the GNU one-or-more operator, not a literal.
        sed -n "s/.*\"$(printf '%s' "$2" | sed 's/\./\\./g')\": \([0-9.eE+-]*\),*/\1/p" "$1" 2>/dev/null | head -1
    }
    baseline_both=$(json_metric BENCH_replay.json replay.min_speedup.both)
    if [ -z "$baseline_both" ]; then
        baseline_both=$(json_metric BENCH_replay.json replay.min_speedup)
    fi
    # The predictor matrix covers the devirtualised predictor bindings
    # worth gating: gshare (the classic path) and tage (folded
    # histories make its batched loop the easiest to regress). The
    # aggregate replay.min_speedup.both spans every predictor x
    # workload cell, so tage is gated by the same threshold.
    build/bench/bench_replay_hot --steps 500000 \
        --predictor gshare,tage --out BENCH_replay.json
    new_both=$(json_metric BENCH_replay.json replay.min_speedup.both)
    if [ -n "$baseline_both" ] && [ -n "$new_both" ]; then
        if awk -v n="$new_both" -v b="$baseline_both" \
            'BEGIN { exit !(n < 0.9 * b) }'; then
            echo "FAILED: perf smoke: +both min speedup $new_both" \
                 "regressed >10% below the checked-in baseline" \
                 "$baseline_both"
        else
            echo "perf smoke: +both min speedup $new_both" \
                 "(checked-in baseline $baseline_both)"
        fi
    fi

    echo "== perf smoke: fast-vs-reference metric bytes (E6) =="
    # The driver writes under <metrics-dir>/<experiment binary>/.
    fast_dir=$METRICS_DIR/perf_smoke_fast/bench_e6_combined
    ref_dir=$METRICS_DIR/perf_smoke_ref/bench_e6_combined
    rm -rf "$METRICS_DIR/perf_smoke_fast" "$METRICS_DIR/perf_smoke_ref"
    build/bench/pabp-experiments --only e6 --steps 200000 \
        --jobs "$JOBS" --metrics-dir "$METRICS_DIR/perf_smoke_fast" \
        > /dev/null || echo "FAILED: perf smoke: E6 fast run"
    build/bench/pabp-experiments --only e6 --steps 200000 \
        --jobs "$JOBS" --fast-replay 0 \
        --metrics-dir "$METRICS_DIR/perf_smoke_ref" > /dev/null ||
        echo "FAILED: perf smoke: E6 reference run"
    pairs=0
    for fast_file in "$fast_dir"/pabp-metrics-*.json; do
        ref_file=$ref_dir/$(basename "$fast_file")
        if [ ! -f "$ref_file" ]; then
            echo "FAILED: perf smoke: $(basename "$fast_file") has" \
                 "no reference twin (fingerprint drift between" \
                 "replay strategies)"
            continue
        fi
        pairs=$((pairs + 1))
        if ! cmp -s "$fast_file" "$ref_file"; then
            echo "FAILED: perf smoke: fast and reference metrics" \
                 "differ: $(basename "$fast_file")"
            build/tools/pabp-stats "$fast_file" "$ref_file" || true
        fi
    done
    if [ "$pairs" -eq 0 ]; then
        echo "FAILED: perf smoke: no metric file pairs compared"
    else
        echo "perf smoke: $pairs metric file pair(s) byte-identical"
    fi

    echo "== perf smoke: multi-context fast-vs-reference bytes (E21) =="
    # Same contract as the E6 check, but over the interference grid:
    # every multi-context cell (interleaved contexts, history
    # export/import swaps, shared BTB/RAS) must produce byte-identical
    # metrics whether the batched or the reference replay loop drives
    # it. A reduced budget keeps this a smoke, not a rerun of E21.
    itf_fast_dir=$METRICS_DIR/perf_smoke_itf_fast/bench_e21_interference
    itf_ref_dir=$METRICS_DIR/perf_smoke_itf_ref/bench_e21_interference
    rm -rf "$METRICS_DIR/perf_smoke_itf_fast" \
        "$METRICS_DIR/perf_smoke_itf_ref"
    build/bench/pabp-experiments --only e21 --steps 100000 \
        --jobs "$JOBS" --summary-dir= \
        --metrics-dir "$METRICS_DIR/perf_smoke_itf_fast" > /dev/null ||
        echo "FAILED: perf smoke (E21): fast run"
    build/bench/pabp-experiments --only e21 --steps 100000 \
        --jobs "$JOBS" --fast-replay 0 --summary-dir= \
        --metrics-dir "$METRICS_DIR/perf_smoke_itf_ref" > /dev/null ||
        echo "FAILED: perf smoke (E21): reference run"
    itf_pairs=0
    for fast_file in "$itf_fast_dir"/pabp-metrics-*.json; do
        ref_file=$itf_ref_dir/$(basename "$fast_file")
        if [ ! -f "$ref_file" ]; then
            echo "FAILED: perf smoke (E21): $(basename "$fast_file")" \
                 "has no reference twin (fingerprint drift between" \
                 "replay strategies)"
            continue
        fi
        itf_pairs=$((itf_pairs + 1))
        if ! cmp -s "$fast_file" "$ref_file"; then
            echo "FAILED: perf smoke (E21): fast and reference" \
                 "metrics differ: $(basename "$fast_file")"
            build/tools/pabp-stats "$fast_file" "$ref_file" || true
        fi
    done
    if [ "$itf_pairs" -eq 0 ]; then
        echo "FAILED: perf smoke (E21): no metric file pairs compared"
    else
        echo "perf smoke (E21): $itf_pairs metric file pair(s)" \
             "byte-identical"
    fi
} 2>&1 | tee -a bench_output.txt

# --- Metrics packing (docs/OBSERVABILITY.md) -------------------------
# Consolidate each experiment's loose per-cell metrics files into one
# journal per experiment (<METRICS_DIR>/<binary>.pabpj) so a full run
# leaves a handful of queryable artifacts instead of hundreds of JSON
# files. The perf-smoke directories stay loose: their job is the
# byte-compare above, not archival.
{
    echo "== metrics packing =="
    packed=0
    for dir in "$METRICS_DIR"/*/; do
        name=$(basename "$dir")
        case "$name" in
            perf_smoke_*) continue ;;
        esac
        if ! ls "$dir"/pabp-metrics-*.json >/dev/null 2>&1; then
            continue
        fi
        if ! build/tools/pabp-stats --pack "$dir" \
            "$METRICS_DIR/$name.pabpj" > /dev/null; then
            echo "FAILED: pabp-stats --pack $dir"
        else
            packed=$((packed + 1))
        fi
    done
    echo "metrics packing: $packed journal(s) under $METRICS_DIR"
} 2>&1 | tee -a bench_output.txt

# --- Crash-safety smoke (docs/ROBUSTNESS.md) -------------------------
# The journal convergence guarantee, end to end against a real SIGKILL:
# run a small campaign cleanly, run the same campaign again but kill -9
# the service at a seeded-random moment, re-invoke it to completion,
# and require the two journals to match BYTE FOR BYTE. CRASH_SEED pins
# the kill timing for reproducibility; vary it to probe new interleavings.
CRASH_SEED=${CRASH_SEED:-7}
{
    echo "== crash safety: SIGKILL + resume convergence (seed $CRASH_SEED) =="
    crash_dir=results/crash-smoke
    rm -rf "$crash_dir"
    mkdir -p "$crash_dir"
    # 40 cells x 500k insts: long enough (~0.3s) that a kill inside
    # the delay window below usually lands mid-campaign.
    sweepd_args=(--configs base,sfpf,pgu,both --steps 500000
                 --jobs 2 --batch-cells 1)
    build/tools/pabp-sweepd "${sweepd_args[@]}" \
        --journal "$crash_dir/clean.pabpj" > /dev/null

    RANDOM=$CRASH_SEED
    delay=$((RANDOM % 300))
    build/tools/pabp-sweepd "${sweepd_args[@]}" \
        --journal "$crash_dir/killed.pabpj" > /dev/null &
    victim=$!
    sleep "0.$(printf '%03d' "$delay")"
    kill -9 "$victim" 2>/dev/null || true
    wait "$victim" 2>/dev/null || true

    if ! build/tools/pabp-sweepd "${sweepd_args[@]}" \
        --journal "$crash_dir/killed.pabpj"; then
        echo "FAILED: crash safety: resumed pabp-sweepd did not drain"
    elif ! cmp -s "$crash_dir/clean.pabpj" "$crash_dir/killed.pabpj"; then
        echo "FAILED: crash safety: killed+resumed journal differs" \
             "from the clean run's"
        build/tools/pabp-stats "$crash_dir/clean.pabpj" \
            "$crash_dir/killed.pabpj" || true
    else
        echo "crash safety: journals byte-identical after SIGKILL at" \
             "${delay}ms + resume"
    fi
} 2>&1 | tee -a bench_output.txt

# --- Fuzz stage (docs/FUZZING.md) ------------------------------------
# Deterministic differential testing: replay the committed corpus,
# prove the harness still catches the re-introduced PR-4 clamp bug,
# and run a bounded fixed-seed campaign. Every knob is pinned, so this
# stage is byte-reproducible; any divergence is minimised to a
# reproducer in FUZZ_EMIT_DIR and fails the run.
FUZZ_RUNS=${FUZZ_RUNS:-50}
FUZZ_SEED=${FUZZ_SEED:-1}
FUZZ_EMIT_DIR=${FUZZ_EMIT_DIR:-results/fuzz-failures}
{
    echo "== fuzz: corpus replay =="
    if ! build/tools/pabp-fuzz --replay-dir tests/corpus \
        --scratch-dir build; then
        echo "FAILED: pabp-fuzz --replay-dir tests/corpus"
    fi
    echo "== fuzz: harness self-check (injected clamp bug) =="
    if ! build/tools/pabp-fuzz --check-harness --scratch-dir build; then
        echo "FAILED: pabp-fuzz --check-harness"
    fi
    echo "== fuzz: campaign seeds [$FUZZ_SEED, $((FUZZ_SEED + FUZZ_RUNS))) =="
    mkdir -p "$FUZZ_EMIT_DIR"
    if ! build/tools/pabp-fuzz --runs "$FUZZ_RUNS" --seed "$FUZZ_SEED" \
        --emit-dir "$FUZZ_EMIT_DIR" --scratch-dir build; then
        echo "FAILED: pabp-fuzz campaign (reproducers in $FUZZ_EMIT_DIR)"
    fi
    # Adversarial mining smoke (docs/FUZZING.md): hill-climb the
    # generator knobs under the low-entropy-gap scorer with pinned
    # seeds and emit the winners as replayable .pabp workloads. Exit
    # 3 (scorer infrastructure failure) and exit 1 (oracle divergence
    # on a mined case) both fail the run; the emitted cases feed
    # E22's dominance check.
    MINE_DIR=${MINE_DIR:-results/mined-workloads}
    echo "== fuzz: adversarial mining (seeds 5..6) =="
    mkdir -p "$MINE_DIR"
    if ! build/tools/pabp-fuzz --mine low-entropy-gap --runs 2 \
        --seed 5 --mine-steps 6 --emit-dir "$MINE_DIR" \
        --scratch-dir build; then
        echo "FAILED: pabp-fuzz --mine low-entropy-gap"
    fi
} 2>&1 | tee -a bench_output.txt

# The loops ran in the pipelines' subshells, so their verdicts must
# be recovered from the transcript.
if grep -q '^FAILED: ' bench_output.txt; then
    echo "error: one or more experiments or checks failed" >&2
    exit 1
fi
