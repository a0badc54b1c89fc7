#!/usr/bin/env python3
"""The sharded campaign end to end through the real CLI.

    shard_matrix.py CLOUDMAP_CLI

Runs the seed-42 campaign three ways and requires byte-identical snapshots
(all under --deterministic-metrics):

- one process (`cloudmap_cli snapshot`);
- one shard, merged (`campaign --shard 0/1`, then `merge-shards`);
- four shards, merged, with round 1 split between --threads 1 (shards 0
  and 1) and --threads 4 (shards 2 and 3), so shard output cannot depend
  on the worker count either.

Then it audits the part files with the independent Python reader
(tools/diff_snapshots.py --shard-parts): every complete round passes
--expect-complete, and a partial set (two of four round-1 parts) audits
but fails --expect-complete with exit 1. Last, the prove-it step flips
one payload bit in a round-2 part: the auditor must refuse it (exit 2)
and `merge-shards` must refuse it too.

Each run works in a private temporary directory (ctest runs cases
concurrently).
"""
import glob
import os
import subprocess
import sys
import tempfile

STEP_TIMEOUT_S = 120
SEED = "42"
AUDITOR = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools",
    "diff_snapshots.py"))


class MatrixFailure(Exception):
    pass


def run(argv, cwd, expect_ok=True):
    result = subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                            timeout=STEP_TIMEOUT_S, check=False)
    if expect_ok and result.returncode != 0:
        raise MatrixFailure("%s exited %d\nstdout: %s\nstderr: %s" % (
            " ".join(argv), result.returncode, result.stdout, result.stderr))
    print("ok: %s (exit %d)" % (" ".join(argv[1:]), result.returncode))
    return result


def audit(work, parts, expect_complete=False, expect_status=0):
    argv = [sys.executable, AUDITOR, "--shard-parts"] + parts
    if expect_complete:
        argv.append("--expect-complete")
    result = run(argv, work, expect_ok=expect_status == 0)
    if result.returncode != expect_status:
        raise MatrixFailure("%s exited %d, expected %d\nstderr: %s" % (
            " ".join(argv), result.returncode, expect_status, result.stderr))


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


def matrix(cli, work):
    def parts(pattern):
        found = sorted(glob.glob(os.path.join(work, pattern)))
        if not found:
            raise MatrixFailure("no part files match " + pattern)
        return found

    run([cli, "snapshot", SEED, "single.snap", "--deterministic-metrics"],
        work)

    for shard_round in ("1", "2"):
        run([cli, "campaign", SEED, "parts1", "--shard", "0/1",
             "--shard-round", shard_round], work)
    run([cli, "merge-shards", SEED, "parts1", "1", "merged1.snap",
         "--deterministic-metrics"], work)

    for shard, threads in (("0", "1"), ("1", "1"), ("2", "4"), ("3", "4")):
        run([cli, "campaign", SEED, "parts4", "--shard", shard + "/4",
             "--shard-round", "1", "--threads", threads], work)
    for shard in ("0", "1", "2", "3"):
        run([cli, "campaign", SEED, "parts4", "--shard", shard + "/4",
             "--shard-round", "2"], work)
    run([cli, "merge-shards", SEED, "parts4", "4", "merged4.snap",
         "--deterministic-metrics"], work)

    single = read(os.path.join(work, "single.snap"))
    for merged in ("merged1.snap", "merged4.snap"):
        if read(os.path.join(work, merged)) != single:
            raise MatrixFailure(merged + " differs from single.snap")
        print("ok: %s is byte-identical to single.snap (%d bytes)"
              % (merged, len(single)))

    audit(work, parts("parts1.r1.s0of1.part"), expect_complete=True)
    audit(work, parts("parts4.r1.s*.part"), expect_complete=True)
    audit(work, parts("parts4.r2.s*.part"), expect_complete=True)
    # A partial set (one shard lost) still audits, but fails the
    # completeness gate.
    partial = parts("parts4.r1.s0of4.part") + parts("parts4.r1.s2of4.part")
    audit(work, partial)
    audit(work, partial, expect_complete=True, expect_status=1)

    # Prove-it: flip one payload bit in a round-2 part; the CRC must catch
    # it in both the Python auditor and the C++ merge.
    broken = os.path.join(work, "parts4.r2.s1of4.part")
    blob = bytearray(read(broken))
    blob[80] ^= 0x40
    with open(broken, "wb") as handle:
        handle.write(blob)
    audit(work, parts("parts4.r2.s*.part"), expect_complete=True,
          expect_status=2)
    result = run([cli, "merge-shards", SEED, "parts4", "4", "broken.snap",
                  "--deterministic-metrics"], work, expect_ok=False)
    if result.returncode <= 0:
        raise MatrixFailure("merge-shards exited %d on a corrupted part"
                            % result.returncode)
    print("ok: merge and auditor both rejected the corrupted part")


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    cli = os.path.abspath(sys.argv[1])
    with tempfile.TemporaryDirectory(prefix="shard_matrix_") as work:
        try:
            matrix(cli, work)
        except (MatrixFailure, subprocess.TimeoutExpired) as error:
            print("FAIL: %s" % error, file=sys.stderr)
            return 1
    print("ok: shard matrix passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
