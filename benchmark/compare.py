#!/usr/bin/env python3
"""Compare two sets of pabp benchmark results, or tabulate one.

  python3 benchmark/compare.py --parent P1.json P2.json ... \
                               --change C1.json C2.json ...
  python3 benchmark/compare.py --layers RESULTS.json

Inputs are files written by run.sh (benchmark/results/results-*.json),
benchmark/baseline.json, or single --json-out files of pabp-benchmark.
Run the parent and the change alternately, at least ten pairs; the k-th
parent run of a workload is paired with the k-th change run.

For every workload and end-to-end metric of BENCHMARK.json the report
gives each side's median and quartiles, the pairs the change won, and
a verdict:
  regression  the change's median is worse than the parent's by more
              than the metric's bound;
  gain        the change won at least 9/10 of the pairs (ties count
              for neither) and the medians differ by more than the
              parent's interquartile range;
  unresolved  a side's spread (IQR / median) is wider than the bound,
              unless every change run beats every parent run;
  same        none of the above.
Exit status 1 when any metric regressed or any run failed a check.

--layers prints, per workload, each layer's share of the traced pass
(markdown), the table README.md quotes.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_runs(paths):
    """Detail runs from result files, in file order."""
    runs = []
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        runs.extend(doc["runs"] if "runs" in doc else [doc])
    return runs


def by_workload(runs, trace):
    out = {}
    for run in runs:
        if run["trace"] == trace:
            out.setdefault(run["workload"], []).append(run)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric, parent, change):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
    worse = (cm - pm) / pm if lower else (pm - cm) / pm
    spread = max((p3 - p1) / pm, (c3 - c1) / cm) if pm and cm else 0.0
    all_better = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    if worse > bound:
        word = "regression"
    elif spread > bound and not all_better:
        word = "unresolved"
    elif pairs and wins >= 0.9 * len(pairs) and abs(cm - pm) > (p3 - p1):
        word = "gain"
    else:
        word = "same"
    return (p1, pm, p3), (c1, cm, c3), wins, len(pairs), word


def compare(args, spec):
    parent = by_workload(load_runs(args.parent), 0)
    change = by_workload(load_runs(args.change), 0)
    failed = [r for r in load_runs(args.parent + args.change) if not r["correct"]]
    status = 1 if failed else 0
    for run in failed:
        print(f"FAILED CHECKS: {run['workload']} seed {run['seed']}: "
              f"{run['failed']} of {run['attempted']}")
    print(f"{'workload':16} {'metric':16} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'won':>7} verdict")
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if len(p_runs) < 10 or len(c_runs) < 10:
            print(f"note: {workload} has {len(p_runs)} parent and "
                  f"{len(c_runs)} change runs; the rule asks for 10 pairs")
        if not p_runs or not c_runs:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name]["median"] for r in p_runs]
            cv = [r["metrics"][name]["median"] for r in c_runs]
            pq, cq, wins, n, word = verdict(metric, pv, cv)
            if word == "regression":
                status = 1
            print(f"{workload:16} {name:16} "
                  f"{'/'.join(f'{v:.4g}' for v in pq):>32} "
                  f"{'/'.join(f'{v:.4g}' for v in cq):>32} "
                  f"{wins:>3}/{n:<3} {word}")
    return status


def layers(args):
    runs = by_workload(load_runs(args.layers), 1)
    names = sorted({k[:-len(".share")] for rs in runs.values() for r in rs
                    for k in r["metrics"] if k.endswith(".share")})
    workloads = sorted(runs)
    print("| layer | " + " | ".join(workloads) + " |")
    print("|---|" + "---|" * len(workloads))
    for name in names:
        cells = []
        for w in workloads:
            shares = [r["metrics"][name + ".share"]["median"] for r in runs[w]]
            cells.append(f"{statistics.median(shares):.3f}")
        print(f"| {name} | " + " | ".join(cells) + " |")
    cov = [f"{statistics.median(r['metrics']['trace.coverage']['median'] for r in runs[w]):.3f}"
           for w in workloads]
    print("| (coverage) | " + " | ".join(cov) + " |")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", nargs="+", default=[])
    ap.add_argument("--change", nargs="+", default=[])
    ap.add_argument("--layers", nargs="+")
    args = ap.parse_args()
    if args.layers:
        return layers(args)
    if not args.parent or not args.change:
        ap.error("give --parent and --change result files, or --layers")
    with open(SPEC) as f:
        spec = json.load(f)
    return compare(args, spec)


if __name__ == "__main__":
    sys.exit(main())
