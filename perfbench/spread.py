#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 --workloads campaign_5k,serve_point

Runs perfbench/run.py once per (workload, seed), with run_seconds from
BENCHMARK.json, and prints for every end-to-end metric its median and its
quartile spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median. A spread at or
above a third of the metric's bound is flagged. Raw results are appended as
JSON lines to --out, so two sets of runs can be compared afterwards with
--compare A B (medians of B against A, per workload and metric).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            runs.setdefault(row["workload"], []).append(row)
    return runs


def summarize(runs, spec):
    ok = True
    for workload, rows in sorted(runs.items()):
        print("%s (%d runs)" % (workload, len(rows)))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in rows
                      if name in r["metrics"]]
            if len(values) < 2:
                continue
            med, share = spread(values)
            flag = ""
            if name != "setup_s" and share >= metric["bound"] / 3:
                flag = "  <-- spread >= bound/3 (%.3f)" % (metric["bound"] / 3)
                ok = False
            print("  %-14s median %14.6g  spread %6.2f%%  bound %4.0f%%%s"
                  % (name, med, 100 * share, 100 * metric["bound"], flag))
    return ok


def compare(path_a, path_b, spec):
    a, b = load_runs(path_a), load_runs(path_b)
    ok = True
    for workload in sorted(set(a) & set(b)):
        print(workload)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name]["value"] for r in a[workload]]
            vb = [r["metrics"][name]["value"] for r in b[workload]]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if metric["better"] == "lower" \
                else (ma - mb) / ma
            flag = "  <-- worse than bound" if worse > metric["bound"] else ""
            ok = ok and not flag
            print("  %-14s %14.6g -> %14.6g  worse by %+6.2f%%%s"
                  % (name, ma, mb, 100 * worse, flag))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--out", default=os.path.join(
        ROOT, ".bench_build", "spread.jsonl"))
    parser.add_argument("--logs", default=None,
                        help="directory to keep each run's full output in")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        return 0 if compare(args.compare[0], args.compare[1], spec) else 1

    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    runs = {}
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, check=False)
            if args.logs:
                os.makedirs(args.logs, exist_ok=True)
                with open(os.path.join(args.logs, "%s-seed%d.log"
                                       % (workload, seed)), "w") as f:
                    f.write(proc.stdout + proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d failed (exit %d)\n%s" % (
                    workload, seed, proc.returncode, proc.stderr[-2000:]))
                return 1
            result = json.loads(lines[-1])
            result.update(workload=workload, seed=seed)
            with open(args.out, "a") as f:
                f.write(json.dumps(result) + "\n")
            runs.setdefault(workload, []).append(result)
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (k, v["value"])
                for k, v in result["metrics"].items())), flush=True)
    return 0 if summarize(runs, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
