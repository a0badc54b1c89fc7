#!/usr/bin/env python3
"""Diff two cloudmap metrics artifacts stage by stage.

Usage: diff_metrics.py A.json B.json [--label-a NAME] [--label-b NAME]

Prints a side-by-side table of every per-stage numeric field in either
artifact, with the relative change. Typical use is comparing the same
workload across thread counts:

    cloudmap_cli snapshot 42 t1.snap --threads 1 --metrics-json t1.json
    cloudmap_cli snapshot 42 t4.snap --threads 4 --metrics-json t4.json
    tools/diff_metrics.py t1.json t4.json --label-a 1-thread --label-b 4-thread

Structural fields (targets, traceroutes, probes, bgp_cache_misses) must be
identical across thread counts — that is the determinism contract — while
wall_ms, worker_utilization, and bgp_cache_hits may legitimately differ.
The exit status is always 0; this is a reporting tool, not a checker.
"""
import argparse
import json
import sys


def load_artifact(path):
    # Named exceptions only (the lint's py-bare-except rule): a missing or
    # garbled artifact is a clean usage error, not a traceback.
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        print("diff_metrics: cannot read %s: %s" % (path, error),
              file=sys.stderr)
        sys.exit(2)


def stage_rows(stage):
    rows = {}
    for key, value in stage.items():
        if key == "tallies":
            for name, tally in value.items():
                rows["tally." + name] = tally
        else:
            rows[key] = value
    return rows


def fmt(value):
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return "%.3f" % value
    return "%d" % value


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--label-a", default="A")
    parser.add_argument("--label-b", default="B")
    args = parser.parse_args()

    doc_a = load_artifact(args.a)
    doc_b = load_artifact(args.b)

    print("%s: seed %s, %s threads | %s: seed %s, %s threads"
          % (args.label_a, doc_a.get("seed"), doc_a.get("threads"),
             args.label_b, doc_b.get("seed"), doc_b.get("threads")))
    header = "%-22s %-24s %14s %14s %10s"
    print(header % ("stage", "metric", args.label_a, args.label_b, "delta"))
    print("-" * 88)

    stages = list(doc_a.get("stages", {}))
    for name in doc_b.get("stages", {}):
        if name not in stages:
            stages.append(name)
    for name in stages:
        rows_a = stage_rows(doc_a.get("stages", {}).get(name, {}))
        rows_b = stage_rows(doc_b.get("stages", {}).get(name, {}))
        keys = list(rows_a)
        keys += [key for key in rows_b if key not in rows_a]
        for key in keys:
            va = rows_a.get(key)
            vb = rows_b.get(key)
            if va == vb:
                delta = "="
            elif va in (None, 0) or vb is None:
                delta = "!"
            else:
                delta = "%+.1f%%" % (100.0 * (vb - va) / va)
            print(header % (name, key, fmt(va), fmt(vb), delta))


if __name__ == "__main__":
    main()
