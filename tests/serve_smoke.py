#!/usr/bin/env python3
"""End-to-end smoke test of the serve daemon through the real binaries.

    serve_smoke.py CLOUDMAP_CLI CLOUDMAP_SERVE

Writes two quickstart snapshots (seeds 42 and 43), starts cloudmap_serve on
the first with --port 0, runs every query class over loopback through
`cloudmap_cli remote`, hot-swaps to the second snapshot, and checks:

- remote `counts` prints exactly what local `cloudmap_cli query FILE counts`
  prints, for the first file before the swap and the second after it;
- `stats` reads `failed 0` and `swaps 1`;
- a swap to a missing path fails and raises `failed` to 1, so the
  zero-failure check above can fire;
- `stop` ends the daemon with exit 0 and its `stopped:` line.

Each run works in a private temporary directory (ctest runs cases
concurrently), and the daemon is killed on every exit path: by the
`finally` below, and by the kernel if this script itself is killed.
"""
import ctypes
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

STEP_TIMEOUT_S = 60
START_POLLS = 300  # 0.1 s apart
PR_SET_PDEATHSIG = 1


class SmokeFailure(Exception):
    pass


def die_with_parent():
    """Have the kernel kill the daemon if this script dies first (a ctest
    timeout kills the script, which then runs no `finally`)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG,
                                                signal.SIGKILL)
    except (OSError, AttributeError):
        pass


def run(argv, cwd, expect_ok=True):
    result = subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                            timeout=STEP_TIMEOUT_S, check=False)
    if expect_ok and result.returncode != 0:
        raise SmokeFailure("%s exited %d\nstdout: %s\nstderr: %s" % (
            " ".join(argv), result.returncode, result.stdout, result.stderr))
    print("ok: %s (exit %d)" % (" ".join(argv[1:]), result.returncode))
    return result


def scrape_port(log_path, daemon):
    for _ in range(START_POLLS):
        with open(log_path) as handle:
            first = handle.readline()
        match = re.match(r"listening on 127\.0\.0\.1:(\d+)$", first.strip())
        if match:
            return int(match.group(1))
        if daemon.poll() is not None:
            break
        time.sleep(0.1)
    with open(log_path) as handle:
        raise SmokeFailure("daemon never reported its port:\n" + handle.read())


def parse_stats(text):
    match = re.search(r"served (\d+), failed (\d+), swaps (\d+)", text)
    if not match:
        raise SmokeFailure("unreadable stats line: %r" % text)
    return {"served": int(match.group(1)), "failed": int(match.group(2)),
            "swaps": int(match.group(3))}


def smoke(cli, serve, work):
    first = os.path.join(work, "first.snap")
    second = os.path.join(work, "second.snap")
    run([cli, "snapshot", "42", first], work)
    run([cli, "snapshot", "43", second], work)
    local_counts = {path: run([cli, "query", path, "counts"], work).stdout
                    for path in (first, second)}
    if local_counts[first] == local_counts[second]:
        raise SmokeFailure("seeds 42 and 43 gave the same counts; the swap "
                           "check could not tell the files apart")

    log_path = os.path.join(work, "serve.log")
    with open(log_path, "w") as log:
        daemon = subprocess.Popen([serve, "--snapshot", first, "--port", "0"],
                                  cwd=work, stdout=log,
                                  stderr=subprocess.STDOUT,
                                  preexec_fn=die_with_parent)
    try:
        endpoint = "127.0.0.1:%d" % scrape_port(log_path, daemon)

        def remote(*args, expect_ok=True):
            return run([cli, "remote", endpoint] + list(args), work,
                       expect_ok=expect_ok)

        def expect_counts(path):
            got = remote("counts").stdout
            if got != local_counts[path]:
                raise SmokeFailure(
                    "remote counts differ from local counts of %s\n"
                    "remote:\n%slocal:\n%s" % (os.path.basename(path), got,
                                               local_counts[path]))

        remote("ping")
        expect_counts(first)
        remote("peers")
        remote("peers", "64512")
        remote("vpis")
        remote("metro", "0")
        remote("confidence")
        remote("confidence", "--min-confidence", "0.5")
        remote("lookup", "10.0.0.1")

        remote("swap", second)
        expect_counts(second)
        remote("vpis")

        stats = parse_stats(remote("stats").stdout)
        if stats["failed"] != 0 or stats["swaps"] != 1:
            raise SmokeFailure("after one swap the daemon reports %r; "
                               "expected failed 0, swaps 1" % stats)

        # Prove-it: a failed swap must show in the counter checked above.
        missing = os.path.join(work, "no-such.snap")
        if remote("swap", missing, expect_ok=False).returncode == 0:
            raise SmokeFailure("swap to a missing file succeeded")
        stats = parse_stats(remote("stats").stdout)
        if stats["failed"] != 1 or stats["swaps"] != 1:
            raise SmokeFailure("after a failed swap the daemon reports %r; "
                               "expected failed 1, swaps 1" % stats)
        expect_counts(second)

        remote("stop")
        status = daemon.wait(timeout=STEP_TIMEOUT_S)
        with open(log_path) as handle:
            log_text = handle.read()
        if status != 0:
            raise SmokeFailure("daemon exited %d after stop:\n%s"
                               % (status, log_text))
        if not re.search(r"^stopped: served", log_text, re.MULTILINE):
            raise SmokeFailure("no 'stopped:' line in the daemon log:\n"
                               + log_text)
        print("ok: daemon stopped cleanly")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    cli, serve = (os.path.abspath(path) for path in sys.argv[1:])
    # A SIGTERM (ctest's first stop) raises SystemExit, so `finally` runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    with tempfile.TemporaryDirectory(prefix="serve_smoke_") as work:
        try:
            smoke(cli, serve, work)
        except (SmokeFailure, subprocess.TimeoutExpired) as error:
            print("FAIL: %s" % error, file=sys.stderr)
            return 1
    print("ok: serve smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
