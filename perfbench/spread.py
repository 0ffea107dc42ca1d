#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of the repository:

    python3 perfbench/spread.py --workload served-200 --runs 10
    python3 perfbench/spread.py --runs 10 --json perfbench/baseline.json

For every end-to-end metric (per-layer with --trace 1) it prints the
median, the first and third quartiles as statistics.quantiles(n=4) gives
them, the spread (Q3 - Q1) / median, and the bound from BENCHMARK.json;
rows raw.wall_per_sim_s and raw.setup_s give the same for the unscaled
host times (see README.md, "Reference host speed"). Seeds are --first-seed, --first-seed + 1, ... With --json it writes the
summary to that file, with the per-run values and, per seed, the modeled
metrics (which repeat exactly at a fixed seed and --seconds).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("run failed (%s seed %d):\n%s%s" %
                 (workload, seed, out.stdout, out.stderr))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("checks failed (%s seed %d):\n%s" %
                 (workload, seed, out.stdout))
    return result, out.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--runs", type=int, default=10, help=">= 2")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write the summary here")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    section = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[section]}
    summary = {}
    for workload in workloads:
        values, modeled, provenance, walls = {}, {}, None, []
        for i in range(args.runs):
            seed = args.first_seed + i
            start = time.time()
            result, stdout = run_once(workload, seed, args.seconds,
                                      args.trace)
            walls.append(time.time() - start)
            raw = {}
            for line in stdout.splitlines():
                if line.startswith("note       raw host time: "):
                    # Unscaled medians, to compare against the scaled ones.
                    fields = line.replace(",", "").split()
                    for key in ("wall_per_sim_s", "setup_s"):
                        raw["raw." + key] = float(fields[fields.index(key) + 1])
                elif line.startswith("# provenance: "):
                    provenance = line[len("# provenance: "):].rsplit(
                        " seed=", 1)[0]
                elif line.startswith("modeled "):
                    fields = line.split(None, 5)
                    modeled.setdefault(str(seed), {})[fields[1]] = {
                        "value": float(fields[2]), "unit": fields[3],
                        "note": fields[5] if len(fields) > 5 else ""}
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, value in raw.items():
                values.setdefault(name, []).append(value)
        rows = {}
        print("%s: %d runs, seeds %d..%d, %.0f-%.0f s per run" %
              (workload, args.runs, args.first_seed,
               args.first_seed + args.runs - 1, min(walls), max(walls)))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread, "samples": len(vals),
                          "bound": bound, "values": vals}
            print("  %-30s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "spread %.4f%s" %
                  (name, med, q1, q3, spread,
                   "" if bound is None else "  bound %.2f%s" %
                   (bound, "  OVER" if spread > bound else "")),
                  flush=True)
        summary[workload] = {"provenance": provenance, "metrics": rows,
                             "modeled_by_seed": modeled,
                             "run_wall_s": walls}
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"runs": args.runs, "first_seed": args.first_seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "workloads": summary}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
