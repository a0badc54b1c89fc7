#!/usr/bin/env python3
"""The adversarial hazard matrix end to end through the real binaries.

    hazard_matrix.py CLOUDMAP_CLI LONGITUDINAL_CHURN

- `hazards list` and `hazards describe gauntlet` answer;
- `hazards score --json` sweeps every preset, and the scorecard passes
  tools/validate_scorecard.py with every preset required, the remote-peering
  recovery (the >= 2 ms rule) and the churn reconstruction;
- a second sweep writes the same bytes;
- two gauntlet snapshots of seed 42 (--deterministic-metrics) are
  byte-identical, and `cloudmap_cli diff` reads a clean snapshot against
  one of them;
- `longitudinal_churn --out-dir` persists its snapshot sequence (it exits
  non-zero when a planted turnover event fails to reconstruct), the
  independent Python reader (tools/diff_snapshots.py) reads every step, and
  `cloudmap_cli diff` reads steps 0 and 1;
- a misspelt flag (`longitudinal_churn --out-dri elsewhere`) exits 2, names
  the flag on stderr and writes no snapshot.

Prove-it: the scorecard with every remote_rule block's `recovered` zeroed
must fail --require-remote-recovery with exit 1.

Each run works in a private temporary directory (ctest runs cases
concurrently).
"""
import glob
import json
import os
import subprocess
import sys
import tempfile

from metrics_artifact import CheckFailure, expect_output, run, same_bytes, tool

SEED = "42"
PROFILES = "loss,remote-peering,mpls,rate-limit,route-churn,churn,gauntlet"


def matrix(cli, churn, work):
    run([cli, "hazards", "list"], work)
    run([cli, "hazards", "describe", "gauntlet"], work)

    run([cli, "hazards", "score", "--json", "scorecard.json"], work)
    run(tool("validate_scorecard.py", "scorecard.json", "--require-profiles",
             PROFILES, "--require-remote-recovery",
             "--require-churn-reconstruction"), work)
    run([cli, "hazards", "score", "--json", "scorecard_b.json"], work)
    same_bytes(work, "scorecard.json", "scorecard_b.json")

    # Prove-it: a scorecard whose remote-peering recovery is zeroed fails.
    with open(os.path.join(work, "scorecard.json")) as handle:
        doc = json.load(handle)
    zeroed = 0
    for row in doc["profiles"]:
        if "remote_rule" in row:
            row["remote_rule"]["recovered"] = 0
            zeroed += 1
    if zeroed == 0:
        raise CheckFailure("scorecard.json has no remote_rule block")
    with open(os.path.join(work, "scorecard_broken.json"), "w") as handle:
        json.dump(doc, handle)
    run(tool("validate_scorecard.py", "scorecard_broken.json",
             "--require-remote-recovery"), work, expect_status=1)

    gauntlet = ["--hazard-profile", "gauntlet", "--deterministic-metrics"]
    run([cli, "snapshot", SEED, "gauntlet_a.snap"] + gauntlet, work)
    run([cli, "snapshot", SEED, "gauntlet_b.snap"] + gauntlet, work)
    same_bytes(work, "gauntlet_a.snap", "gauntlet_b.snap")
    run([cli, "snapshot", SEED, "clean.snap", "--deterministic-metrics"],
        work)
    run([cli, "diff", "clean.snap", "gauntlet_a.snap"], work)

    # A misspelt flag is refused, not dropped with the sequence written into
    # the working directory.
    os.mkdir(os.path.join(work, "misspelt"))
    result = run([churn, "--out-dri", "elsewhere"],
                 os.path.join(work, "misspelt"), expect_status=2)
    expect_output(result, "unknown argument '--out-dri'")
    written = glob.glob(os.path.join(work, "misspelt", "**", "world_t*.snap"),
                        recursive=True)
    if written:
        raise CheckFailure("the refused command wrote " + ", ".join(written))
    print("ok: the misspelt --out-dri flag was refused and wrote nothing")

    os.mkdir(os.path.join(work, "churn"))
    run([churn, "--out-dir", "churn"], work)
    steps = sorted(glob.glob(os.path.join(work, "churn", "world_t*.snap")))
    if len(steps) < 2:
        raise CheckFailure("longitudinal_churn wrote %d snapshots"
                           % len(steps))
    run(tool("diff_snapshots.py", *steps), work)
    run([cli, "diff", os.path.join("churn", "world_t0.snap"),
         os.path.join("churn", "world_t1.snap")], work)


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    cli = os.path.abspath(sys.argv[1])
    churn = os.path.abspath(sys.argv[2])
    with tempfile.TemporaryDirectory(prefix="hazard_matrix_") as work:
        try:
            matrix(cli, churn, work)
        except (CheckFailure, subprocess.TimeoutExpired) as error:
            print("FAIL: %s" % error, file=sys.stderr)
            return 1
    print("ok: hazard matrix passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
