#!/usr/bin/env python3
"""Run the benchmark repeatedly and report each metric's median and spread.

Reads BENCHMARK.json at the repository root for the command, the run
length, the workloads and the end-to-end bounds, runs the command once per
(seed, workload) pair with the workloads interleaved, and prints for every
metric its median, first and third quartile (statistics.quantiles, n=4)
and spread = (q3 - q1) / median next to the metric's bound.

    python3 benchmark/spread.py                       # seeds 1-10, untraced
    python3 benchmark/spread.py --seeds 1,1,1,1,1 --json out.json
    python3 benchmark/spread.py --workloads chase_heavy --trace 1

Run it from the repository root. Exits nonzero if any run fails or a
spread (setup_s excepted) exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    if "-" in text and "," not in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="`a-b` or `a,b,c` (default 1-10)")
    ap.add_argument("--workloads", default=None, help="comma list (default: all)")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seconds", type=int, default=None, help="override run_seconds")
    ap.add_argument("--json", default=None, help="write medians and quartiles here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seeds_arg(args.seeds)

    values = {w: {} for w in workloads}
    ok = True
    for seed in seeds:
        for w in workloads:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", args.trace,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            if proc.returncode != 0 or not result or not result.get("correct"):
                ok = False
                print(f"FAIL {w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                continue
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"  {w} seed {seed}: ok ({result['attempted']} attempted)", file=sys.stderr)

    report = {}
    print(f"{'workload':<12} {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for w in workloads:
        report[w] = {}
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound:
                flag = "  OVER"
                ok = False
            elif bound is not None and spread > bound / 3:
                flag = "  >1/3"
            report[w][name] = {"median": med, "q1": q1, "q3": q3, "values": vals}
            print(f"{w:<12} {name:<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bound if bound is not None else '':>6}{flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=2)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
