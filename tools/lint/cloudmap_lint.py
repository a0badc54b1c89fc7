#!/usr/bin/env python3
"""cloudmap determinism & hygiene lint.

The repo's load-bearing promise is bit-identical fabrics, snapshots, and
metrics at every thread count. This lint makes the easy-to-break halves of
that promise *static*: sources of hidden nondeterminism (wall clocks,
ambient randomness, environment reads), iteration order leaking out of
unordered containers on serialization paths, and threads spawned outside
the one sanctioned pool. It also enforces the header hygiene the codebase
already follows (#pragma once, sorted include blocks).

Stdlib-only, no third-party deps. Two interfaces:

    python3 tools/lint/cloudmap_lint.py                  # lint the repo
    python3 tools/lint/cloudmap_lint.py --root DIR [p..] # lint another tree

Findings print as `path:line: [rule-id] message`; exit status is 0 when
clean, 1 when anything fired, 2 on usage errors.

Suppression pragmas (the reason is mandatory — an empty one is itself a
finding):

    // lint: wall-clock-ok(<reason>)   clocks, on the same or previous line
    // lint: env-ok(<reason>)          getenv
    // lint: rand-ok(<reason>)         rand / random_device
    // lint: sorted-ok(<reason>)       unordered iteration that is sorted
                                       (or provably order-insensitive)
    // lint: thread-ok(<reason>)       raw std::thread
    // lint: bounds-ok(<reason>)       untrusted-read family (parse paths)
    # lint: wall-clock-ok(<reason>)    Python wall clocks

Rules (C++ unless noted):

  nondeterministic-call   std::rand/srand/random_device, system_clock/
                          steady_clock/high_resolution_clock, time(),
                          clock(), getenv outside the allowlist (the obs
                          wall-clock layer, core/options env knobs).
  unordered-iteration     range-for / .begin() over a container declared
                          unordered_map/unordered_set (in the file, its
                          sibling header, or any src/ header it includes,
                          transitively), inside serialization paths
                          (src/io/, src/query/, src/scenario/, src/serve/,
                          src/obs/emit.cpp), without a sorted-ok pragma.
  raw-thread              std::thread (or #include <thread>) anywhere but
                          src/util/parallel.h.
  pragma-once             every header starts with #pragma once before any
                          code line.
  include-order           include blocks are lexicographically sorted; a
                          block never mixes <...> and "..." styles; the
                          own header of a .cpp comes first.
  bad-pragma              a lint pragma with an empty reason.
  hot-path-container      std::map / std::set in a file carrying a
                          `// lint: hot-path` marker — node-based containers
                          chase a pointer per element; hot paths use the
                          flat structures (FlatPrefixTrie, FlatHashMap,
                          sorted vectors).
  py-bare-except          (Python) a bare `except:` clause.
  py-wall-clock           (Python) wall-clock reads — diff and validation
                          tools must be deterministic.

Untrusted-read family (parse paths only — src/io/, src/serve/protocol.cpp,
src/serve/client.cpp — the code that interprets attacker-controllable
bytes; contract in DESIGN.md §14). A value read straight off the wire
(`cursor.u8()/.u16()/.u32()/.u64()`) is tainted until a visible cap:
a `need()` / `wire::bounded_count` / `wire::checked_read` call, or a
comparison in an if/while mentioning it. Suppressible only via
`// lint: bounds-ok(<reason>)`.

  untrusted-alloc         a tainted length/count flows into .resize() /
                          .reserve() / new[] with no cap in between — a
                          forged 4 GiB count becomes a 4 GiB allocation.
  untrusted-cast          static_cast of a raw wire read to an enum, a
                          signed type, or a narrower integer — values
                          outside the target's range slip through; use
                          wire::checked_read<T>(cursor, max).
  untrusted-extent        a tainted size flows into memcpy/memmove/memset
                          with no cap — reads or writes past the validated
                          extent.
"""

import argparse
import os
import re
import sys

# --------------------------------------------------------------------------
# Shared machinery


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


# `lint: <token>-ok(<reason>)` with a mandatory non-empty reason.
PRAGMA_RE = re.compile(r"lint:\s*([a-z-]+)-ok\(\s*([^)]*?)\s*\)")
# A pragma-shaped comment whose reason is empty (caught as its own finding).
EMPTY_PRAGMA_RE = re.compile(r"lint:\s*[a-z-]+-ok\(\s*\)")


def pragma_tokens(lines, index):
    """Pragma tokens that apply to lines[index] (same line or the line
    above, so a long expression can carry its pragma as a lead comment)."""
    tokens = set()
    for i in (index, index - 1):
        if 0 <= i < len(lines):
            for match in PRAGMA_RE.finditer(lines[i]):
                if match.group(2):
                    tokens.add(match.group(1))
    return tokens


def check_empty_pragmas(path, lines, findings):
    for i, line in enumerate(lines):
        if EMPTY_PRAGMA_RE.search(line):
            findings.append(Finding(
                path, i + 1, "bad-pragma",
                "lint pragma without a reason — say why the exception is "
                "safe, e.g. `// lint: sorted-ok(keys sorted below)`"))


def strip_comment(line):
    """Drop // comments and string literals so patterns in prose or log
    text don't fire. (Heuristic: no multi-line /* */ tracking — the
    codebase uses // comments.)"""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    cut = line.find("//")
    return line if cut < 0 else line[:cut]


# --------------------------------------------------------------------------
# C++ rules

# rule nondeterministic-call: pattern -> (pragma token, what to use instead)
NONDET_PATTERNS = [
    (re.compile(r"\bstd::rand\b|\bsrand\s*\(|\brandom_device\b"), "rand",
     "use the seeded splitmix64 streams in util/rng.h"),
    (re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)\b"),
     "wall-clock",
     "wall clocks may only feed the observability layer"),
    (re.compile(r"(?<![_A-Za-z0-9:])time\s*\(|\bclock\s*\(\)"),
     "wall-clock",
     "wall clocks may only feed the observability layer"),
    (re.compile(r"\bgetenv\b"), "env",
     "environment reads belong in core/options"),
]

# Files where nondeterministic-call never fires: the observability layer is
# the one place wall clocks are the point, and core/options is the one
# sanctioned environment-knob reader. Everything else needs a pragma.
NONDET_ALLOWLIST = (
    "src/obs/",
    "src/core/options.",
)

# Paths whose output ordering is a serialized artifact: iterating an
# unordered container here without sorting changes bytes run-to-run.
# src/scenario/ is on the list because scorecard JSON and churn snapshot
# sequences are byte-compared in CI.
ORDER_SENSITIVE = ("src/io/", "src/query/", "src/scenario/", "src/serve/",
                   "src/obs/emit.cpp")

# Identifier declared (or received as a parameter) with an unordered type.
UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set)\s*<[^;]*?>&?\s+(\w+)\s*[;,={()\[]")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(.*:\s*(.*)\)?\s*\{?\s*$")

THREAD_RE = re.compile(r"\bstd::thread\b|#\s*include\s*<thread>")
THREAD_HOME = "src/util/parallel.h"

# Files that declare themselves hot paths opt into the flat-structure rule.
HOT_PATH_MARKER_RE = re.compile(r"lint:\s*hot-path\s*$|lint:\s*hot-path\s")
HOT_PATH_CONTAINER_RE = re.compile(r"\bstd::(?:map|set)\s*<")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*([<"])([^>"]+)[>"]')

# --- untrusted-read family ---------------------------------------------------
# Parse paths: the code that interprets attacker-controllable bytes. Only
# here do the taint rules run — elsewhere a .resize(n) is just a resize.
PARSE_PATHS = ("src/io/", "src/serve/protocol.cpp", "src/serve/client.cpp")

# An identifier assigned straight from a cursor read. The (?<![\w.]) guard
# keeps `entry.size = in.u64()` from tainting every local named `size`.
TAINT_ASSIGN_RE = re.compile(
    r"(?<![\w.])(\w+)\s*=\s*\w+(?:_|\b)*\.\s*(u8|u16|u32|u64)\s*\(\s*\)")
READ_WIDTH = {"u8": 1, "u16": 2, "u32": 4, "u64": 8}

# static_cast of a raw wire read; safe only when the target is an unsigned
# integer at least as wide as the read. Enums, signed types, and narrower
# integers need wire::checked_read (which range-checks before the cast).
UNTRUSTED_CAST_RE = re.compile(
    r"static_cast\s*<\s*([^<>]+?)\s*>\s*\(\s*\w+\.\s*(u8|u16|u32|u64)"
    r"\s*\(\s*\)\s*\)")
UNSIGNED_WIDTH = {
    "std::uint8_t": 1, "uint8_t": 1, "unsigned char": 1,
    "std::uint16_t": 2, "uint16_t": 2,
    "std::uint32_t": 4, "uint32_t": 4, "unsigned": 4, "unsigned int": 4,
    "std::uint64_t": 8, "uint64_t": 8, "std::size_t": 8, "size_t": 8,
    "std::uintptr_t": 8, "uintptr_t": 8,
}

# A line that visibly caps a tainted value: the shared wire.h helpers, a
# need() precondition, an explicit min-clamp, or a comparison in a branch.
CAP_CALL_RE = re.compile(r"\bneed\s*\(|\bbounded_count\b|\bchecked_read\b|"
                         r"\bstd::min\b|\bstd::clamp\b")
CAP_BRANCH_RE = re.compile(r"\b(?:if|while|for)\s*\(")
COMPARISON_RE = re.compile(r"[<>]=?|[=!]=")

ALLOC_USE_RE = re.compile(
    r"\.\s*(?:resize|reserve)\s*\(([^;]*)\)|\bnew\s+[\w:<>]+\s*\[([^\]]*)\]")
EXTENT_USE_RE = re.compile(r"\bmem(?:cpy|move|set)\s*\(([^;]*)\)")


def check_untrusted_reads(rel_path, lines, findings):
    """Taint tracking, one function at a time (a `}` in column zero closes
    the scope): wire reads taint their identifier; an allocation, memcpy, or
    unchecked narrowing cast over a tainted identifier with no cap line in
    between is a finding."""
    taints = {}  # identifier -> line index of the tainting read

    def capped(name, start, end):
        word = re.compile(r"\b%s\b" % re.escape(name))
        for j in range(start + 1, end + 1):
            line = strip_comment(lines[j])
            if not word.search(line):
                continue
            if CAP_CALL_RE.search(line):
                return True
            if CAP_BRANCH_RE.search(line) and COMPARISON_RE.search(line):
                return True
        return False

    for i, raw in enumerate(lines):
        if raw.startswith("}"):
            taints.clear()
            continue
        line = strip_comment(raw)

        cast = UNTRUSTED_CAST_RE.search(line)
        if cast and "bounds" not in pragma_tokens(lines, i):
            target = re.sub(r"\bconst\b|\bvolatile\b", "", cast.group(1))
            target = " ".join(target.split())
            width = UNSIGNED_WIDTH.get(target)
            if width is None or width < READ_WIDTH[cast.group(2)]:
                findings.append(Finding(
                    rel_path, i + 1, "untrusted-cast",
                    "unchecked static_cast<%s> of a raw %s wire read — "
                    "out-of-range values slip through; use "
                    "wire::checked_read<%s>(cursor, <max>) or annotate "
                    "`// lint: bounds-ok(<reason>)`"
                    % (target, cast.group(2), target)))

        for match in TAINT_ASSIGN_RE.finditer(line):
            taints[match.group(1)] = i

        for use_re, rule, what in (
                (ALLOC_USE_RE, "untrusted-alloc",
                 "sizes an allocation"),
                (EXTENT_USE_RE, "untrusted-extent",
                 "bounds a raw memory operation")):
            for use in use_re.finditer(line):
                args = next(g for g in use.groups() if g is not None)
                for name, taint_line in sorted(taints.items()):
                    if not re.search(r"\b%s\b" % re.escape(name), args):
                        continue
                    if "bounds" in pragma_tokens(lines, i):
                        continue
                    if capped(name, taint_line, i):
                        continue
                    findings.append(Finding(
                        rel_path, i + 1, rule,
                        "wire-read value `%s` %s with no cap between the "
                        "read and the use — check it against the remaining "
                        "input (wire.h's need()/bounded_count) or annotate "
                        "`// lint: bounds-ok(<reason>)`"
                        % (name, what)))


def unordered_names(lines):
    names = set()
    for line in lines:
        for match in UNORDERED_DECL_RE.finditer(strip_comment(line)):
            names.add(match.group(1))
    return names


LOCAL_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')


def included_header_lines(root, lines, seen=None):
    """Lines of every src/ header that `lines` include, transitively: a
    member iterated here is often declared one or two headers away."""
    seen = set() if seen is None else seen
    out = []
    for line in lines:
        match = LOCAL_INCLUDE_RE.match(line)
        if not match:
            continue
        header = os.path.normpath(os.path.join(root, "src", match.group(1)))
        if header in seen or not os.path.isfile(header):
            continue
        seen.add(header)
        with open(header, "r", encoding="utf-8", errors="replace") as fh:
            header_lines = fh.read().splitlines()
        out.extend(header_lines)
        out.extend(included_header_lines(root, header_lines, seen))
    return out


def sibling_header_lines(abs_path):
    """Declarations for a .cpp often live in the sibling header (members
    like `by_peer_`); fold its names in when scanning the .cpp."""
    stem, ext = os.path.splitext(abs_path)
    if ext != ".cpp":
        return []
    header = stem + ".h"
    if not os.path.isfile(header):
        return []
    with open(header, "r", encoding="utf-8", errors="replace") as fh:
        return fh.read().splitlines()


def check_cpp(root, rel_path, abs_path, lines, findings):
    check_empty_pragmas(rel_path, lines, findings)

    # --- nondeterministic-call
    if not rel_path.startswith(NONDET_ALLOWLIST):
        for i, raw in enumerate(lines):
            line = strip_comment(raw)
            for pattern, token, hint in NONDET_PATTERNS:
                if pattern.search(line) and \
                        token not in pragma_tokens(lines, i):
                    findings.append(Finding(
                        rel_path, i + 1, "nondeterministic-call",
                        "nondeterministic call (%s); %s, or annotate "
                        "`// lint: %s-ok(<reason>)`"
                        % (pattern.search(line).group(0).strip(), hint,
                           token)))

    # --- unordered-iteration (order-sensitive paths only)
    if rel_path.startswith(ORDER_SENSITIVE) or rel_path in ORDER_SENSITIVE:
        names = unordered_names(lines)
        names |= unordered_names(sibling_header_lines(abs_path))
        names |= unordered_names(included_header_lines(root, lines))
        if names:
            member_re = re.compile(
                r"(?:^|[^\w])(%s)\b" % "|".join(map(re.escape, sorted(names))))
            for i, raw in enumerate(lines):
                line = strip_comment(raw)
                range_for = RANGE_FOR_RE.search(line)
                iterates = (range_for and member_re.search(
                    range_for.group(1))) or \
                    re.search(r"\b(%s)\s*\.\s*begin\s*\(" %
                              "|".join(map(re.escape, sorted(names))), line)
                if iterates and "sorted" not in pragma_tokens(lines, i):
                    findings.append(Finding(
                        rel_path, i + 1, "unordered-iteration",
                        "iteration over an unordered container on a "
                        "serialization path — sort the output or annotate "
                        "`// lint: sorted-ok(<reason>)`"))

    # --- untrusted-read family (parse paths only)
    if rel_path.startswith(PARSE_PATHS):
        check_untrusted_reads(rel_path, lines, findings)

    # --- hot-path-container (only in files carrying the hot-path marker)
    if any(HOT_PATH_MARKER_RE.search(line) for line in lines):
        for i, raw in enumerate(lines):
            if HOT_PATH_CONTAINER_RE.search(strip_comment(raw)):
                findings.append(Finding(
                    rel_path, i + 1, "hot-path-container",
                    "std::map/std::set in a `// lint: hot-path` file — "
                    "node-based containers chase a pointer per element; "
                    "use FlatPrefixTrie, FlatHashMap, or a sorted vector"))

    # --- raw-thread
    if rel_path != THREAD_HOME:
        for i, raw in enumerate(lines):
            if THREAD_RE.search(strip_comment(raw)) and \
                    "thread" not in pragma_tokens(lines, i):
                findings.append(Finding(
                    rel_path, i + 1, "raw-thread",
                    "raw std::thread outside util/parallel.h — use "
                    "parallel_for / parallel_transform so determinism "
                    "lives in the work decomposition"))

    # --- pragma-once
    if rel_path.endswith(".h"):
        seen_code = False
        has_pragma = False
        for raw in lines:
            stripped = raw.strip()
            if stripped.startswith("#pragma once"):
                has_pragma = not seen_code
                break
            if stripped and not stripped.startswith("//"):
                seen_code = True
        if not has_pragma:
            findings.append(Finding(
                rel_path, 1, "pragma-once",
                "header must start with #pragma once (before any code)"))

    # --- include-order
    check_include_order(rel_path, lines, findings)


def check_include_order(rel_path, lines, findings):
    """Include blocks (contiguous #include runs) must be internally sorted
    and style-pure (<...> xor "..."), with <...> blocks never after a
    "..." block — except the own header of foo.cpp, which comes first."""
    own = None
    if rel_path.endswith(".cpp"):
        own = os.path.splitext(os.path.basename(rel_path))[0] + ".h"

    blocks = []  # list of [ (line_no, style, path) ] per contiguous run
    current = []
    for i, raw in enumerate(lines):
        match = INCLUDE_RE.match(raw)
        if match:
            current.append((i + 1, match.group(1), match.group(2)))
        else:
            if current:
                blocks.append(current)
                current = []
    if current:
        blocks.append(current)

    first = True
    seen_quoted_block = False
    for block in blocks:
        if first and own and len(block) == 1 and \
                block[0][2].endswith("/" + own):
            first = False
            continue  # own-header block of the .cpp
        first = False
        styles = {style for _, style, _ in block}
        if len(styles) > 1:
            findings.append(Finding(
                rel_path, block[0][0], "include-order",
                "include block mixes <...> and \"...\" — split into a "
                "system block and a project block"))
            continue
        style = styles.pop()
        if style == '"':
            seen_quoted_block = True
        elif seen_quoted_block:
            findings.append(Finding(
                rel_path, block[0][0], "include-order",
                "<...> include block after a \"...\" block — system "
                "headers go first"))
        paths = [path for _, _, path in block]
        if paths != sorted(paths):
            findings.append(Finding(
                rel_path, block[0][0], "include-order",
                "include block not sorted: %s" %
                ", ".join(p for p, s in zip(paths, sorted(paths))
                          if p != s)))


# --------------------------------------------------------------------------
# Python rules

BARE_EXCEPT_RE = re.compile(r"^\s*except\s*:\s*(#.*)?$")
PY_WALL_CLOCK_RE = re.compile(
    r"\btime\s*\.\s*time\s*\(|\bdatetime\s*\.\s*now\s*\(|"
    r"\bdate\s*\.\s*today\s*\(|\btime\s*\.\s*monotonic\s*\(")


def check_python(rel_path, lines, findings):
    check_empty_pragmas(rel_path, lines, findings)
    for i, raw in enumerate(lines):
        if BARE_EXCEPT_RE.match(raw):
            findings.append(Finding(
                rel_path, i + 1, "py-bare-except",
                "bare `except:` swallows SystemExit/KeyboardInterrupt — "
                "name the exceptions this tool expects"))
        if PY_WALL_CLOCK_RE.search(raw) and \
                "wall-clock" not in pragma_tokens(lines, i):
            findings.append(Finding(
                rel_path, i + 1, "py-wall-clock",
                "wall-clock read in a tool whose output must be "
                "deterministic — drop it or annotate "
                "`# lint: wall-clock-ok(<reason>)`"))


# --------------------------------------------------------------------------
# Driver

# Trees never linted: generated build output and the lint's own fixture
# corpus (which is deliberately full of violations).
EXCLUDED_PARTS = ("build", ".git", "fixtures")


def iter_files(root, paths):
    for path in paths:
        base = os.path.join(root, path)
        if os.path.isfile(base):
            yield os.path.relpath(base, root)
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in EXCLUDED_PARTS)
            for name in sorted(filenames):
                yield os.path.relpath(os.path.join(dirpath, name), root)


def lint_tree(root, paths):
    findings = []
    for rel_path in iter_files(root, paths):
        rel_path = rel_path.replace(os.sep, "/")
        abs_path = os.path.join(root, rel_path)
        try:
            with open(abs_path, "r", encoding="utf-8",
                      errors="replace") as fh:
                lines = fh.read().splitlines()
        except OSError as error:
            findings.append(Finding(rel_path, 1, "io-error", str(error)))
            continue
        if rel_path.endswith((".h", ".cpp", ".cc", ".hpp")):
            check_cpp(root, rel_path, abs_path, lines, findings)
        elif rel_path.endswith(".py"):
            check_python(rel_path, lines, findings)
    return findings


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="cloudmap determinism & hygiene lint (see module "
                    "docstring for the rule catalogue)")
    parser.add_argument("--root", default=None,
                        help="tree root (default: the repo containing this "
                             "script)")
    parser.add_argument("paths", nargs="*",
                        help="files/dirs relative to the root "
                             "(default: src tools fuzz)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule ids and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ("nondeterministic-call", "unordered-iteration",
                     "raw-thread", "pragma-once", "include-order",
                     "bad-pragma", "hot-path-container", "untrusted-alloc",
                     "untrusted-cast", "untrusted-extent", "py-bare-except",
                     "py-wall-clock"):
            print(rule)
        return 0

    root = args.root
    if root is None:
        root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
    paths = args.paths
    if not paths:
        paths = [p for p in ("src", "tools", "fuzz") if
                 os.path.isdir(os.path.join(root, p))]
        if not paths:
            print("cloudmap_lint: nothing to lint under %s" % root,
                  file=sys.stderr)
            return 2

    findings = lint_tree(root, paths)
    for finding in findings:
        print(finding)
    if findings:
        print("cloudmap_lint: %d finding(s)" % len(findings),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
