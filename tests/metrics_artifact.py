#!/usr/bin/env python3
"""The metrics artifact and the lossy campaign end to end through the real CLI.

    metrics_artifact.py CLOUDMAP_CLI metrics|loss

Both phases run on the seed-42 quickstart world and check what leaves the
process: v3 snapshots and metrics artifacts.

The `metrics` phase (the MetricsArtifact ctest):

- a snapshot written with --metrics-json and --metrics-csv, whose JSON
  passes tools/validate_metrics.py and whose CSV is a stage,metric,value
  table;
- the same run at --threads 1 infers the same map
  (tools/diff_snapshots.py --expect-identical; whole-file equality is not
  expected, because the header records the thread count and the stage
  section the wall clocks), its artifact validates, and
  tools/diff_metrics.py sets the two accountings side by side;
- two plain runs infer the same map, and save -> load -> save through
  `query resave` is byte-identical;
- under --deterministic-metrics two runs agree to the byte, snapshot and
  JSON artifact alike;
- `query counts --metrics-json` carries every query counter
  (--require-query-counters), and `query vpis` and `query peers` answer;
- `cloudmap_cli diff` and diff_snapshots.py both read the pair.

Prove-it: seeds 42 and 43 must fail --expect-identical with exit 1, and the
first artifact with its `pinning` stage deleted must fail the validator
with exit 1. A stale flag (`snapshot 42 --snapshot x.snap`) must exit 2,
name the flag, and write no file named `--snapshot`.

The `loss` phase (the LossMatrix ctest), at router response scales 0.85 and
0.60, each with --retry-budget 3 --deterministic-metrics:

- the artifact carries every retry counter and a recovered target
  (--require-retry-counters --require-recovered);
- a second run writes the same bytes;
- diff_snapshots.py reports the drift against the clean snapshot;
- `query confidence`, with and without --min-confidence 0.5, and
  `query peers --min-confidence 0.25` answer.

Prove-it: the clean run (no injected loss, no retry budget) recovered
nothing, so its artifact must fail --require-recovered with exit 1.

Each run works in a private temporary directory (ctest runs cases
concurrently).
"""
import json
import os
import subprocess
import sys
import tempfile

STEP_TIMEOUT_S = 120
SEED = "42"
OTHER_SEED = "43"
LOSS_SCALES = ("0.85", "0.60")
TOOLS = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools"))


class CheckFailure(Exception):
    pass


def run(argv, cwd, expect_status=0):
    result = subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                            timeout=STEP_TIMEOUT_S, check=False)
    if result.returncode != expect_status:
        raise CheckFailure("%s exited %d, expected %d\nstdout: %s\n"
                           "stderr: %s" % (" ".join(argv), result.returncode,
                                           expect_status, result.stdout,
                                           result.stderr))
    print("ok: %s (exit %d)" % (" ".join(argv[1:]), result.returncode))
    return result


def tool(name, *args):
    return [sys.executable, os.path.join(TOOLS, name)] + list(args)


def expect_output(result, text):
    if text not in result.stdout + result.stderr:
        raise CheckFailure("expected %r in the output of the step above\n"
                           "stdout: %s\nstderr: %s"
                           % (text, result.stdout, result.stderr))


def same_bytes(work, a, b):
    with open(os.path.join(work, a), "rb") as first, \
            open(os.path.join(work, b), "rb") as second:
        if first.read() != second.read():
            raise CheckFailure("%s and %s differ" % (a, b))
    print("ok: %s and %s are byte-identical" % (a, b))


def metrics_phase(cli, work):
    run([cli, "snapshot", SEED, "a.snap", "--metrics-json", "m.json",
         "--metrics-csv", "m.csv"], work)
    run(tool("validate_metrics.py", "m.json"), work)
    with open(os.path.join(work, "m.csv")) as handle:
        rows = handle.read().splitlines()
    if len(rows) < 2 or rows[0] != "stage,metric,value":
        raise CheckFailure("m.csv is not a stage,metric,value table")
    print("ok: m.csv has %d stage,metric,value rows" % (len(rows) - 1))

    # The thread count changes the accounting, never the results.
    run([cli, "snapshot", SEED, "t1.snap", "--threads", "1",
         "--metrics-json", "t1.json"], work)
    run(tool("diff_snapshots.py", "a.snap", "t1.snap", "--expect-identical"),
        work)
    run(tool("validate_metrics.py", "t1.json"), work)
    run(tool("diff_metrics.py", "t1.json", "m.json", "--label-a", "1-thread",
             "--label-b", "auto"), work)

    run([cli, "snapshot", SEED, "world.snap"], work)
    run([cli, "snapshot", SEED, "world_again.snap"], work)
    run(tool("diff_snapshots.py", "world.snap", "world_again.snap",
             "--expect-identical"), work)
    run([cli, "query", "world.snap", "resave", "world_resaved.snap"], work)
    same_bytes(work, "world.snap", "world_resaved.snap")

    for side in ("det_a", "det_b"):
        run([cli, "snapshot", SEED, side + ".snap", "--deterministic-metrics",
             "--metrics-json", side + ".json"], work)
    same_bytes(work, "det_a.snap", "det_b.snap")
    same_bytes(work, "det_a.json", "det_b.json")

    run([cli, "query", "world.snap", "counts", "--metrics-json",
         "query_metrics.json"], work)
    run([cli, "query", "world.snap", "vpis"], work)
    run([cli, "query", "world.snap", "peers"], work)
    run(tool("validate_metrics.py", "query_metrics.json",
             "--require-query-counters"), work)

    run([cli, "diff", "world.snap", "world_again.snap"], work)
    run(tool("diff_snapshots.py", "world.snap", "world_again.snap"), work)

    # Prove-it: another seed is another map, and an artifact that lost a
    # stage is refused.
    run([cli, "snapshot", OTHER_SEED, "other.snap"], work)
    run(tool("diff_snapshots.py", "world.snap", "other.snap",
             "--expect-identical"), work, expect_status=1)
    with open(os.path.join(work, "m.json")) as handle:
        doc = json.load(handle)
    del doc["stages"]["pinning"]
    with open(os.path.join(work, "broken.json"), "w") as handle:
        json.dump(doc, handle)
    result = run(tool("validate_metrics.py", "broken.json"), work,
                 expect_status=1)
    expect_output(result, "missing stage 'pinning'")

    # An unknown flag is refused, not taken for the output file name.
    result = run([cli, "snapshot", SEED, "--snapshot", "x.snap"], work,
                 expect_status=2)
    expect_output(result, "unknown argument '--snapshot'")
    for name in ("--snapshot", "x.snap"):
        if os.path.exists(os.path.join(work, name)):
            raise CheckFailure("the refused command wrote " + name)
    print("ok: the stale --snapshot flag was refused and wrote nothing")


def loss_phase(cli, work):
    run([cli, "snapshot", SEED, "clean.snap", "--deterministic-metrics",
         "--metrics-json", "clean.json"], work)
    for scale in LOSS_SCALES:
        lossy = ["--response-scale", scale, "--retry-budget", "3",
                 "--deterministic-metrics"]
        snap = "lossy_%s.snap" % scale
        artifact = "lossy_%s.json" % scale
        again = "lossy_%s_again.snap" % scale
        run([cli, "snapshot", SEED, snap, "--metrics-json", artifact] + lossy,
            work)
        run(tool("validate_metrics.py", artifact, "--require-retry-counters",
                 "--require-recovered"), work)
        run([cli, "snapshot", SEED, again] + lossy, work)
        same_bytes(work, snap, again)
        run(tool("diff_snapshots.py", "clean.snap", snap), work)
        run([cli, "query", snap, "confidence"], work)
        run([cli, "query", snap, "confidence", "--min-confidence", "0.5"],
            work)
        run([cli, "query", snap, "peers", "--min-confidence", "0.25"], work)

    # Prove-it: the clean run recovered nothing, so the gate must fire.
    result = run(tool("validate_metrics.py", "clean.json",
                      "--require-retry-counters", "--require-recovered"),
                 work, expect_status=1)
    expect_output(result, "recovered_targets is 0")


PHASES = {"metrics": metrics_phase, "loss": loss_phase}


def main():
    if len(sys.argv) != 3 or sys.argv[2] not in PHASES:
        print(__doc__, file=sys.stderr)
        return 2
    cli = os.path.abspath(sys.argv[1])
    phase = sys.argv[2]
    with tempfile.TemporaryDirectory(prefix="metrics_artifact_") as work:
        try:
            PHASES[phase](cli, work)
        except (CheckFailure, subprocess.TimeoutExpired) as error:
            print("FAIL: %s" % error, file=sys.stderr)
            return 1
    print("ok: %s phase passed" % phase)
    return 0


if __name__ == "__main__":
    sys.exit(main())
