#!/usr/bin/env bash
# End-to-end checks of the pabp-experiments driver (registered as
# slow-labelled ctests in tests/CMakeLists.txt).
#
#   experiments_smoke.sh blocks BIN DIR
#       e3 and e12 alone and together, each at --jobs 1 and 4: every
#       experiment's stdout block and metrics files must be
#       byte-identical across all six runs.
#   experiments_smoke.sh checkpoint BIN DIR
#       e10 with --checkpoint-every must write checkpoints and print
#       the fresh run's table; --resume from them must print it again
#       without a cold-start fallback. e8 and e21 must not fail under
#       the same options.
#
# DIR is scratch space, emptied first and removed on success.
set -euo pipefail
mode=$1
bin=$2
dir=$3
rm -rf "$dir"
mkdir -p "$dir"
cd "$dir"

fail() {
    echo "FAILED: $*" >&2
    exit 1
}

case "$mode" in
blocks)
    run() { # label jobs only
        "$bin" --only "$3" --steps 20000 --jobs "$2" \
            --metrics-dir "m-$1" --summary-dir= > "$1.out"
    }
    for jobs in 1 4; do
        run "e3-j$jobs" "$jobs" e3
        run "e12-j$jobs" "$jobs" e12
        # --only order does not matter: blocks print in E-order.
        run "both-j$jobs" "$jobs" e12,e3
    done
    grep -q '^E3: ' e3-j1.out || fail "no E3 block"
    grep -q '^| fsm ' e12-j1.out || fail "no E12 rows"
    cat e3-j1.out e12-j1.out > blocks.out
    for out in e3-j4.out e12-j4.out; do
        cmp "${out/j4/j1}" "$out" || fail "$out differs from --jobs 1"
    done
    for out in both-j1.out both-j4.out; do
        cmp blocks.out "$out" || fail "$out is not the e3 then e12 blocks"
    done
    same_metrics() { # alone-dir subdir
        ls "$1/$2"/pabp-metrics-*.json > /dev/null ||
            fail "$2 wrote no metrics"
        for other in "${1/j1/j4}" m-both-j1 m-both-j4; do
            diff -r "$1/$2" "$other/$2" || fail "$other/$2 differs"
        done
    }
    same_metrics m-e3-j1 bench_e3_sfpf_sizes
    same_metrics m-e12-j1 bench_e12_distance_histo
    ;;
checkpoint)
    # A shard of e10 keeps the 8 MiB emulator checkpoints few.
    args=(--only e10 --steps 20000 --jobs 2 --shard 0/8 --summary-dir=)
    "$bin" "${args[@]}" > fresh.out
    mkdir ckpt
    "$bin" "${args[@]}" --checkpoint-every 5000 \
        --checkpoint-file ckpt/pabp.ckpt > checkpointed.out
    ls ckpt/pabp-*.ckpt > /dev/null || fail "no checkpoints written"
    cmp fresh.out checkpointed.out || fail "checkpointed table differs"
    "$bin" "${args[@]}" --resume ckpt/pabp.ckpt > resumed.out \
        2> resumed.err
    cmp fresh.out resumed.out || fail "resumed table differs"
    if grep -q 'falling back to a cold start' resumed.err; then
        fail "a cell did not resume from its checkpoint"
    fi
    # Timed (e8) and multi-context (e21) cells cannot checkpoint or,
    # multi-context, characterize; the driver runs them without those
    # options instead of failing them.
    mkdir ckpt-other
    "$bin" --only e8,e21 --steps 20000 --jobs 2 --shard 0/8 \
        --summary-dir= --characterize 1 --checkpoint-every 5000 \
        --checkpoint-file ckpt-other/pabp.ckpt > /dev/null ||
        fail "run options failed Timed or multi-context cells"
    ;;
*)
    fail "unknown mode '$mode'"
    ;;
esac

cd /
rm -rf "$dir"
