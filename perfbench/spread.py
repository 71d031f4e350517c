#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workloads identify,codec,serve --seeds 1-10
    python3 perfbench/spread.py --workloads serve --seeds 1-5 --against 101-105

Run from the repository root. Every run is the command in BENCHMARK.json
with that workload and seed, for `run_seconds`; the runs of different
workloads are interleaved. For each end-to-end metric the table gives
the median, the spread (distance between the first and third quartile,
as a share of the median) and the metric's bound; `ok` means the
spread is below a third of the bound. With `--against`, a second set of
seeds is run the same way, each run alternating with the first set's,
and each median is compared with the first set's, as a share of it,
against the bound. The last line names the largest spread as a share of
its bound, over every bounded metric of both sets, setup_s included.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"warning: {workload} seed {seed}: {result['failed']} of "
              f"{result['attempted']} operations failed", file=sys.stderr)
    return {k: v["value"] for k, v in result["metrics"].items()}


def collect(bench, workloads, seed_sets, seconds, trace):
    """One value list per metric, workload and seed set; the i-th seeds
    of all sets run back to back, so the sets see the same machine."""
    values = [{w: {} for w in workloads} for _ in seed_sets]
    for i in range(max(len(s) for s in seed_sets)):
        for w in workloads:
            for k, seed_list in enumerate(seed_sets):
                if i < len(seed_list):
                    for name, v in run_once(bench, w, seed_list[i], seconds, trace).items():
                        values[k][w].setdefault(name, []).append(v)
    return values


def spread(vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default="identify,codec,serve")
    ap.add_argument("--seeds", type=seeds, default=seeds("1-5"))
    ap.add_argument("--against", type=seeds)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--verbose", action="store_true", help="print every run's values")
    args = ap.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",")
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    sets = [args.seeds] + ([args.against] if args.against else [])
    first, second = (collect(bench, workloads, sets, seconds, args.trace) + [None])[:2]
    worst = (0.0, None)
    for w in workloads:
        print(f"{w} ({len(args.seeds)} seeds, {seconds} s each)")
        for name, vals in first[w].items():
            m = declared[name]
            bound = m.get("bound")
            med = statistics.median(vals)
            s = spread(vals) if len(vals) > 1 and med else 0.0
            row = f"  {name:32} {med:14.6f} {m['unit']:8} spread {s:7.4f}"
            if bound is not None:
                row += f"  bound {bound:.3f}  {'ok' if s < bound / 3 else 'WIDE'}"
                worst = max(worst, (s / bound, f"{w} {name}"), key=lambda x: x[0])
            if second is not None:
                other_vals = second[w][name]
                other = statistics.median(other_vals)
                s2 = spread(other_vals) if len(other_vals) > 1 and other else 0.0
                worse = (med - other) / med if m["better"] == "higher" else (other - med) / med
                row += f"  second: median {other:.6f} ({worse:+.4f} worse), spread {s2:.4f}"
                if bound is not None:
                    worst = max(worst, (s2 / bound, f"{w} {name} (second)"), key=lambda x: x[0])
                    if worse > bound:
                        row += " BEYOND BOUND"
            print(row)
            if args.verbose:
                print("    " + " ".join(f"{v:.6g}" for v in vals))
    print(f"largest spread / bound, setup_s included: {worst[0]:.3f} ({worst[1]})")

if __name__ == "__main__":
    main()
