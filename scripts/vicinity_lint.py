#!/usr/bin/env python3
"""Project-invariant linter for libvicinity (stdlib only).

Checks invariants no generic tool knows about:

  core-no-std-unordered-map  src/core hot paths must not use
                             std::unordered_map (per-node GNU-STL tables,
                             the paper's §3.2 layout, lose to the packed
                             arena; the comparison lives bench-side in
                             bench/bench_ablation_hash.cpp).
  core-no-raw-new            src/core must not allocate with raw `new`
                             (ownership goes through containers and
                             make_unique; raw new broke exception safety in
                             repair paths before).
  core-no-reinterpret-cast   src/core must not reinterpret_cast outside
                             the serialize region-view helpers
                             (index_format.h, serialize.cpp) — those are
                             the one audited place where on-disk bytes
                             become typed spans, with the bounds and
                             alignment checks to make it defined behavior.
  noexcept-no-throw          no `throw` inside a noexcept function body in
                             src/ (query kernels are noexcept: a throw
                             there is std::terminate at runtime).
  umbrella-header            every public header under src/ appears in the
                             umbrella header src/vicinity.h.
  bench-baseline-keys        every metric key in
                             bench/baselines/bench_smoke_baseline.json is
                             one check_bench_regression.py can actually
                             extract — a typo'd key would silently never
                             gate.
  net-syscall-eintr          every raw I/O syscall in src/net
                             (read/write/recv/send/sendmsg/readv/writev/
                             accept4/epoll_wait) must handle EINTR within a
                             few lines of the call — a signal-interrupted
                             syscall treated as a hard error drops
                             connections under load (SIGTERM during
                             drain, profilers, timers).
  net-syscall-shim           raw I/O syscalls in src/net must go through the
                             util::fi:: wrappers (util/fault_inject.h) —
                             `fi::read(...)`, not `::read(...)` — so the
                             chaos suite's fault injector sees every call
                             site; a bare syscall is a hole in fault
                             coverage that no test can exercise.
  net-no-blocking-outside-client
                             blocking socket calls (connect/poll/select/
                             getaddrinfo) are confined to src/net/client.cpp
                             — the server side is non-blocking epoll
                             throughout, and one blocking call on the event
                             loop stalls every connection.
  no-raw-std-mutex           src/core and src/cache must take locks through
                             the util::Mutex / util::MutexLock / util::CondVar
                             wrappers (util/mutex.h), never raw std::mutex /
                             std::shared_mutex / std::lock_guard & friends —
                             the wrappers carry the Clang thread-safety
                             capability annotations, so a raw primitive is
                             a lock the -Wthread-safety gate cannot see.

Suppress a finding by putting `vicinity-lint: allow(<rule>)` in a comment
on the offending line or the line above it.

Exit status: 0 when clean, 1 when any violation is found.
Usage: scripts/vicinity_lint.py [--root DIR]
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import re
import sys
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parent.parent

ALLOW_RE = re.compile(r"vicinity-lint:\s*allow\(([a-z0-9-]+)\)")


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving newlines so
    line numbers survive."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif c in "\"'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def allowed(lines: list[str], lineno: int, rule: str) -> bool:
    """True when line `lineno` (1-based) or the one above carries an allow
    marker for `rule` (checked against the ORIGINAL text, markers live in
    comments)."""
    for idx in (lineno - 1, lineno - 2):
        if 0 <= idx < len(lines):
            m = ALLOW_RE.search(lines[idx])
            if m and m.group(1) == rule:
                return True
    return False


def scan_pattern(path: Path, rule: str, pattern: re.Pattern,
                 message: str) -> list[Finding]:
    raw = path.read_text(encoding="utf-8", errors="replace")
    raw_lines = raw.splitlines()
    code_lines = strip_comments_and_strings(raw).splitlines()
    findings = []
    for lineno, line in enumerate(code_lines, start=1):
        if pattern.search(line) and not allowed(raw_lines, lineno, rule):
            findings.append(Finding(path, lineno, rule, message))
    return findings


def check_core_containers(root: Path) -> list[Finding]:
    pattern = re.compile(r"std\s*::\s*unordered_map|#\s*include\s*<unordered_map>")
    findings = []
    for path in sorted((root / "src" / "core").glob("*.[hc]*")):
        findings += scan_pattern(
            path, "core-no-std-unordered-map", pattern,
            "std::unordered_map in a core hot path (use util::FlatHashMap "
            "or the packed arena; the §3.2 hash-table comparison lives in "
            "bench/bench_ablation_hash.cpp)")
    return findings


def check_core_raw_new(root: Path) -> list[Finding]:
    # `new X`, `new (place) X`, `new X[n]` — but not make_unique/operator
    # overload declarations.
    pattern = re.compile(r"(?<![\w.])new\s+[A-Za-z_(:<]")
    findings = []
    for path in sorted((root / "src" / "core").glob("*.[hc]*")):
        findings += scan_pattern(
            path, "core-no-raw-new", pattern,
            "raw `new` in src/core (use std::make_unique or a container)")
    return findings


# The serialize region-view helpers are the one audited place where raw
# index bytes become typed spans (RegionView does the bounds + alignment
# checking that makes the cast defined behavior).
REINTERPRET_ALLOWED_FILES = {"index_format.h", "serialize.cpp"}


def check_core_reinterpret_cast(root: Path) -> list[Finding]:
    pattern = re.compile(r"\breinterpret_cast\b")
    findings = []
    for path in sorted((root / "src" / "core").glob("*.[hc]*")):
        if path.name in REINTERPRET_ALLOWED_FILES:
            continue
        findings += scan_pattern(
            path, "core-no-reinterpret-cast", pattern,
            "reinterpret_cast in src/core outside the serialize "
            "region-view helpers (index_format.h / serialize.cpp); go "
            "through RegionView::array_at/pod_at or a typed span")
    return findings


def check_noexcept_throw(root: Path) -> list[Finding]:
    """Flags `throw` inside the body of a function marked noexcept."""
    findings = []
    noexcept_re = re.compile(r"\bnoexcept\b(?!\s*\()")
    for path in sorted((root / "src").rglob("*.[hc]*")):
        raw = path.read_text(encoding="utf-8", errors="replace")
        raw_lines = raw.splitlines()
        code = strip_comments_and_strings(raw)
        for m in noexcept_re.finditer(code):
            # Find the body opened after the qualifier; stop at ';' (pure
            # declaration or `= default`).
            i = m.end()
            while i < len(code) and code[i] not in "{;":
                i += 1
            if i >= len(code) or code[i] == ";":
                continue
            depth = 0
            start = i
            while i < len(code):
                if code[i] == "{":
                    depth += 1
                elif code[i] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            body = code[start:i]
            for tm in re.finditer(r"\bthrow\b", body):
                lineno = code.count("\n", 0, start + tm.start()) + 1
                if not allowed(raw_lines, lineno, "noexcept-no-throw"):
                    findings.append(Finding(
                        path, lineno, "noexcept-no-throw",
                        "`throw` inside a noexcept body is std::terminate "
                        "at runtime"))
    return findings


def check_umbrella(root: Path) -> list[Finding]:
    umbrella = root / "src" / "vicinity.h"
    findings = []
    if not umbrella.is_file():
        return [Finding(umbrella, 1, "umbrella-header",
                        "umbrella header missing")]
    include_re = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)
    included = set(include_re.findall(umbrella.read_text()))
    for path in sorted((root / "src").rglob("*.h")):
        rel = path.relative_to(root / "src").as_posix()
        if rel == "vicinity.h":
            continue
        text = path.read_text(encoding="utf-8", errors="replace")
        # File-level suppression: the marker may sit anywhere in the header
        # (conventionally in its top comment).
        suppressed = any(m.group(1) == "umbrella-header"
                         for m in ALLOW_RE.finditer(text))
        if rel not in included and not suppressed:
            findings.append(Finding(
                path, 1, "umbrella-header",
                f'public header not included by src/vicinity.h '
                f'(add `#include "{rel}"` or an allow marker)'))
    return findings


NET_SYSCALL_RE = re.compile(
    r"::\s*(read|write|recv|send|sendmsg|readv|writev|accept4|epoll_wait)"
    r"\s*\(")
# How far below a syscall the EINTR handling may sit (the idiomatic
# `do { ... } while (r < 0 && errno == EINTR)` puts it 1-3 lines down).
EINTR_WINDOW_LINES = 10


def check_net_syscall_eintr(root: Path) -> list[Finding]:
    findings = []
    for path in sorted((root / "src" / "net").glob("*.[hc]*")):
        raw = path.read_text(encoding="utf-8", errors="replace")
        raw_lines = raw.splitlines()
        code_lines = strip_comments_and_strings(raw).splitlines()
        for lineno, line in enumerate(code_lines, start=1):
            m = NET_SYSCALL_RE.search(line)
            if not m:
                continue
            window = code_lines[lineno - 1:lineno - 1 + EINTR_WINDOW_LINES]
            if any("EINTR" in w for w in window):
                continue
            if allowed(raw_lines, lineno, "net-syscall-eintr"):
                continue
            findings.append(Finding(
                path, lineno, "net-syscall-eintr",
                f"::{m.group(1)}() without EINTR handling within "
                f"{EINTR_WINDOW_LINES} lines — a signal-interrupted syscall "
                f"must be retried, not treated as a connection error"))
    return findings


# Global-scope syscall spellings only: the lookbehind keeps `fi::read(`
# and `util::fi::write(` (the shim itself) from matching.
NET_RAW_SYSCALL_RE = re.compile(
    r"(?<![A-Za-z0-9_])::\s*"
    r"(read|write|recv|send|sendmsg|readv|writev|accept4|epoll_wait)"
    r"\s*\(")


def check_net_syscall_shim(root: Path) -> list[Finding]:
    findings = []
    for path in sorted((root / "src" / "net").glob("*.[hc]*")):
        raw = path.read_text(encoding="utf-8", errors="replace")
        raw_lines = raw.splitlines()
        code_lines = strip_comments_and_strings(raw).splitlines()
        for lineno, line in enumerate(code_lines, start=1):
            m = NET_RAW_SYSCALL_RE.search(line)
            if not m:
                continue
            if allowed(raw_lines, lineno, "net-syscall-shim"):
                continue
            findings.append(Finding(
                path, lineno, "net-syscall-shim",
                f"raw ::{m.group(1)}() bypasses the fault-injection shim — "
                f"call util::fi::{m.group(1)}() (util/fault_inject.h) so "
                f"chaos schedules cover this site"))
    return findings


BLOCKING_CALL_RE = re.compile(
    r"(::\s*(connect|poll|select)\s*\(|\bgetaddrinfo\s*\()")


def check_net_no_blocking_outside_client(root: Path) -> list[Finding]:
    findings = []
    for path in sorted((root / "src" / "net").glob("*.[hc]*")):
        if path.name == "client.cpp":
            continue
        findings += scan_pattern(
            path, "net-no-blocking-outside-client", BLOCKING_CALL_RE,
            "blocking socket call outside client.cpp — the server side is "
            "non-blocking epoll; one blocking call on the event loop stalls "
            "every connection")
    return findings


RAW_MUTEX_RE = re.compile(
    r"std\s*::\s*(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|lock_guard|unique_lock|scoped_lock|shared_lock|"
    r"condition_variable(_any)?)\b"
    r"|#\s*include\s*<(mutex|shared_mutex|condition_variable)>")
# Directories whose locking must go through the annotated wrappers. src/util
# is exempt: mutex.h is where the wrapping itself happens.
RAW_MUTEX_DIRS = ("core", "cache", "net")


def check_no_raw_std_mutex(root: Path) -> list[Finding]:
    findings = []
    for sub in RAW_MUTEX_DIRS:
        d = root / "src" / sub
        if not d.is_dir():
            continue
        for path in sorted(d.glob("*.[hc]*")):
            findings += scan_pattern(
                path, "no-raw-std-mutex", RAW_MUTEX_RE,
                f"raw std mutex/lock primitive in src/{sub} — use "
                "util::Mutex / util::MutexLock / util::CondVar "
                "(util/mutex.h) so the Clang thread-safety analysis sees "
                "the lock")
    return findings


def extractable_bench_keys(root: Path) -> set[str]:
    """The key universe check_bench_regression.py can produce, derived by
    importing it and feeding fully-populated synthetic payloads — so this
    lint stays in lockstep with the gate script instead of hardcoding."""
    spec = importlib.util.spec_from_file_location(
        "check_bench_regression",
        root / "scripts" / "check_bench_regression.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    throughput = {"throughput": [{"qps": 1.0}],
                  "latency_us": {"p50": 1.0, "p99": 1.0},
                  "path_latency_us": {"p50": 1.0, "p99": 1.0},
                  "index_open": {"speedup": 1.0, "mapped_ms": 1.0,
                                 "file_bytes": 1,
                                 "mapped_rss_delta_bytes": 1,
                                 "heap_rss_delta_bytes": 1}}
    updates = {"updates_per_sec": 1.0,
               "insert": {"per_sec": 1.0},
               "delete": {"per_sec": 1.0},
               "post_update_query": {"p50_us": 1.0, "p99_us": 1.0}}
    keys: set[str] = set()
    for prefix in ("", "directed_"):
        keys |= set(mod.throughput_metrics(throughput, prefix=prefix))
    keys |= set(mod.update_metrics(updates))
    # hasattr-guarded: fixture copies of the gate script may predate the
    # serving-layer metrics.
    if hasattr(mod, "server_metrics"):
        server = {"server_qps": 1.0,
                  "latency_us": {"p50": 1.0, "p99": 1.0}}
        keys |= set(mod.server_metrics(server))
    if hasattr(mod, "cached_server_metrics"):
        cached = {"server_qps": 1.0,
                  "latency_us": {"p50": 1.0, "p99": 1.0},
                  "cache": {"mb": 1, "hit_rate": 1.0}}
        keys |= set(mod.cached_server_metrics(cached))
    if hasattr(mod, "overload_server_metrics"):
        overload = {"server_qps": 1.0,
                    "latency_us": {"p50": 1.0, "p99": 1.0},
                    "robustness": {"slow_readers": 1,
                                   "rss_growth_mib": 1.0,
                                   "slow_client_closes": 1}}
        keys |= set(mod.overload_server_metrics(overload))
    return keys


def check_bench_keys(root: Path) -> list[Finding]:
    baseline_path = root / "bench" / "baselines" / "bench_smoke_baseline.json"
    if not baseline_path.is_file():
        return []
    allowed_keys = extractable_bench_keys(root)
    try:
        baseline = json.loads(baseline_path.read_text())
    except json.JSONDecodeError as e:
        return [Finding(baseline_path, 1, "bench-baseline-keys",
                        f"unparseable baseline: {e}")]
    findings = []
    for key in baseline.get("metrics", {}):
        if key not in allowed_keys:
            findings.append(Finding(
                baseline_path, 1, "bench-baseline-keys",
                f"metric '{key}' can never be produced by "
                f"check_bench_regression.py — it would silently never "
                f"gate (extractable: {', '.join(sorted(allowed_keys))})"))
    return findings


CHECKS = [
    check_core_containers,
    check_core_raw_new,
    check_core_reinterpret_cast,
    check_noexcept_throw,
    check_umbrella,
    check_bench_keys,
    check_net_syscall_eintr,
    check_net_syscall_shim,
    check_net_no_blocking_outside_client,
    check_no_raw_std_mutex,
]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, default=DEFAULT_ROOT,
                        help="repo root to lint (default: this checkout)")
    args = parser.parse_args(argv)
    root = args.root.resolve()

    findings: list[Finding] = []
    for check in CHECKS:
        findings += check(root)

    for f in findings:
        try:
            f.path = f.path.relative_to(root)
        except ValueError:
            pass
        print(f)
    if findings:
        print(f"vicinity-lint: {len(findings)} violation(s)")
        return 1
    print("vicinity-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
