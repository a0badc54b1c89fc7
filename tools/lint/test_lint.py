#!/usr/bin/env python3
"""Self-test for cloudmap_lint.py, run as the `LintSelfTest` ctest entry.

Every fixture directory under fixtures/ is a miniature repo root. A
directory named bad_<slug> must make the lint exit non-zero AND report the
expected rule id; a good_<slug> directory must lint clean. The manifest
below is the contract — adding a rule without a fixture pair fails here.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
LINT = os.path.join(HERE, "cloudmap_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")

# fixture directory -> rule id its bad half must trigger
EXPECTED_RULE = {
    "bad_nondet_call": "nondeterministic-call",
    "bad_hazard_nondet": "nondeterministic-call",
    "bad_unordered_iter": "unordered-iteration",
    "bad_unordered_iter_include": "unordered-iteration",
    "bad_raw_thread": "raw-thread",
    "bad_pragma_once": "pragma-once",
    "bad_include_order": "include-order",
    "bad_pragma_reason": "bad-pragma",
    "bad_hot_path_container": "hot-path-container",
    "bad_py_bare_except": "py-bare-except",
    "bad_py_wall_clock": "py-wall-clock",
    "bad_untrusted_alloc": "untrusted-alloc",
    "bad_untrusted_cast": "untrusted-cast",
    "bad_untrusted_extent": "untrusted-extent",
}


def run_lint(root):
    return subprocess.run(
        [sys.executable, LINT, "--root", root],
        capture_output=True, text=True, check=False)


def main():
    failures = []
    fixture_dirs = sorted(os.listdir(FIXTURES))

    missing = set(EXPECTED_RULE) - set(fixture_dirs)
    if missing:
        failures.append("manifest names missing fixtures: %s" %
                        ", ".join(sorted(missing)))

    for name in fixture_dirs:
        root = os.path.join(FIXTURES, name)
        if not os.path.isdir(root):
            continue
        result = run_lint(root)
        if name.startswith("bad_"):
            rule = EXPECTED_RULE.get(name)
            if rule is None:
                failures.append("%s: bad fixture not in the manifest" % name)
            elif result.returncode == 0:
                failures.append("%s: expected findings, lint exited 0" % name)
            elif "[%s]" % rule not in result.stdout:
                failures.append(
                    "%s: expected rule [%s], got:\n%s"
                    % (name, rule, result.stdout.strip() or "<no output>"))
        elif name.startswith("good_"):
            if result.returncode != 0:
                failures.append(
                    "%s: expected clean, lint reported:\n%s"
                    % (name, result.stdout.strip()))
        else:
            failures.append("%s: fixture must be named bad_* or good_*" %
                            name)

    # The tree itself must lint clean — the lint target's contract.
    repo_root = os.path.dirname(os.path.dirname(HERE))
    tree = run_lint(repo_root)
    if tree.returncode != 0:
        failures.append("repo tree is not lint-clean:\n%s" %
                        tree.stdout.strip())

    if failures:
        for failure in failures:
            print("FAIL: %s" % failure)
        return 1
    print("ok: %d fixtures + repo tree lint-clean" %
          sum(1 for d in fixture_dirs
              if os.path.isdir(os.path.join(FIXTURES, d))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
