#!/usr/bin/env python3
"""Build and run one perfbench workload.

    python3 perfbench/run.py --workload campaign_5k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
benchmark project (perfbench/CMakeLists.txt: the cloudmap library from src/,
the cloudmap_serve daemon, the perfbench binary) in Release mode under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
rebuild what changed. Build output goes to <build>/build.log and stderr, so
the last line of stdout is the benchmark's JSON result. Exit status is the
benchmark's (0 = every output check passed), or 1 when the build fails or
the run overruns its time limit.
"""
import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("campaign_5k", "serve_point", "serve_mixed")
RUN_TIMEOUT_S = 175


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target)


def build(targets):
    build_dir = os.path.join(build_root(), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target"]
                 + targets)
    with open(log_path, "a") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                with open(log_path) as text:
                    tail = text.read().splitlines()[-25:]
                log("build failed: " + " ".join(step))
                for line in tail:
                    print(line, file=sys.stderr)
                # A failed configure must not be mistaken for a usable one.
                cache = os.path.join(build_dir, "CMakeCache.txt")
                if step[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                return None
    return build_dir


def run_benchmark(build_dir, args):
    root = build_root()
    command = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", os.path.join(root, "work",
                                   "%s-%d" % (args.workload, os.getpid())),
        "--trace-dir", os.path.join(root, "traces"),
        "--serve-bin", os.path.join(build_dir, "cloudmap_serve"),
    ]
    # Own process group, so a timeout stops the daemon the run started too.
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s; stopping it" % RUN_TIMEOUT_S)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    if args.selftest:
        build_dir = build(["perfbench_tests"])
        if build_dir is None:
            return 1
        return subprocess.run(["ctest", "--test-dir", build_dir,
                               "--output-on-failure"], check=False).returncode

    if (args.workload is None or args.seed is None or args.seconds is None
            or args.trace is None):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    build_dir = build(["perfbench", "cloudmap_serve"])
    if build_dir is None:
        return 1
    return run_benchmark(build_dir, args)


if __name__ == "__main__":
    sys.exit(main())
