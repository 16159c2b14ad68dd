#!/usr/bin/env bash
# Build and run the pabp benchmark (see README.md in this directory).
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       One run of one workload, as BENCHMARK.json's "command" runs it.
#       The last stdout line is the run's result JSON.
#
#   bash benchmark/run.sh [--seed N] [--seconds S] [--smoke]
#       Every workload in its own process, end-to-end run first and
#       traced run second. Prints "name workload value unit" lines and
#       merges the results, with host information, into
#       benchmark/results/results-<time>.json. --smoke runs
#       200k-instruction cells, one timed or traced pass per mode.
#
# Builds an optimized (RelWithDebInfo) tree in benchmark/build/ first,
# and refuses to time a sanitizer or unoptimized build.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$here/build"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
    echo "run.sh: $root is not a pabp source tree; nothing to build" >&2
    exit 2
fi

jobs=$(nproc 2>/dev/null || echo 1)
(( jobs > 4 )) && jobs=4

mkdir -p "$build"
generator=()
command -v ninja >/dev/null 2>&1 && generator=(-G Ninja)
if [[ ! -f "$build/CMakeCache.txt" ]]; then
    if ! cmake -S "$here" -B "$build" "${generator[@]}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPABP_SANITIZE=OFF \
        -DPABP_TSAN=OFF >"$build/build.log" 2>&1; then
        tail -n 30 "$build/build.log" >&2
        rm -f "$build/CMakeCache.txt"
        echo "run.sh: configure failed (log: $build/build.log)" >&2
        exit 2
    fi
fi
cache_value() { sed -n "s/^$1:[A-Z]*=//p" "$build/CMakeCache.txt"; }
build_type="$(cache_value CMAKE_BUILD_TYPE)"
if [[ "$(cache_value PABP_SANITIZE)" == ON || "$(cache_value PABP_TSAN)" == ON ||
      ( "$build_type" != RelWithDebInfo && "$build_type" != Release ) ]]; then
    echo "run.sh: $build is a sanitizer or unoptimized ($build_type) build;" \
         "refusing to time it" >&2
    exit 2
fi
if ! cmake --build "$build" --target pabp-benchmark -j "$jobs" \
    >>"$build/build.log" 2>&1; then
    tail -n 30 "$build/build.log" >&2
    echo "run.sh: build failed (log: $build/build.log)" >&2
    exit 2
fi

bench=("$build/pabp-benchmark" --spec "$root/BENCHMARK.json"
       --work-dir "$build/work")

for arg in "$@"; do
    if [[ "$arg" == --workload ]]; then
        exec "${bench[@]}" "$@"
    fi
done

seed=1
seconds=""
smoke=0
while (( $# )); do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --smoke) smoke=1; shift ;;
        *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
    esac
done
if [[ -z "$seconds" ]]; then
    seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
        "$root/BENCHMARK.json")"
fi

stamp="$(date +%Y%m%d-%H%M%S)"
out="$here/results/$stamp"
mkdir -p "$out"
workloads="$(python3 -c 'import json, sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$root/BENCHMARK.json")"
status=0
for w in $workloads; do
    for trace in 0 1; do
        mode=e2e
        (( trace )) && mode=traced
        if ! "${bench[@]}" --workload "$w" --seed "$seed" --seconds "$seconds" \
            --trace "$trace" --smoke "$smoke" --json-out "$out/$w-$mode.json" \
            --trace-out "$out/$w-spans.json" 2>>"$out/stderr.log" \
            | sed '$d'; then
            echo "run.sh: $w ($mode) failed; see $out/stderr.log" >&2
            status=1
        fi
    done
done

cpu_model="$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1)"
python3 - "$out" "$here/results/results-$stamp.json" "$(nproc)" \
    "$cpu_model" "$build_type" <<'EOF'
import glob, json, os, sys
out, dest, nproc, cpu, build_type = sys.argv[1:]
runs = [json.load(open(p)) for p in sorted(glob.glob(os.path.join(out, "*-e2e.json")) +
                                           glob.glob(os.path.join(out, "*-traced.json")))]
simd = sorted({r["simd"] for r in runs})
merged = {
    "host": {"nproc": int(nproc), "cpu_model": cpu, "simd": ",".join(simd),
             "build_type": build_type},
    "runs": runs,
}
with open(dest, "w") as f:
    json.dump(merged, f, indent=1, sort_keys=True)
    f.write("\n")
print("results:", dest)
EOF
exit "$status"
