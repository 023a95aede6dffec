#!/usr/bin/env python3
"""CLI-level startup-robustness tests for vicinityd.

The daemon's contract for operator error is: one-line diagnostic on
stderr, exit code 2 for bad invocations (flags, env), exit code 1 for
runtime faults (missing/corrupt files, legacy index files, occupied
port) — and never a stack trace, abort, or uncaught exception. Init
systems and test drivers branch on exactly this, so it is pinned here
against the real binary, process boundary included. A legacy VCNIDX04
index must name `vicinity_cli index upgrade`, and `vicinity_cli index`
must report it and refuse an incomplete upgrade invocation.

Usage: vicinityd_cli_test.py --build-dir <cmake build dir>
"""

import argparse
import os
import socket
import subprocess
import sys
import tempfile
from pathlib import Path

FAILURES = []

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "tests" / "data" / "golden"


def check(ok, msg):
    if ok:
        print(f"   ok: {msg}")
    else:
        FAILURES.append(msg)
        print(f"   FAIL: {msg}")


CRASH_MARKERS = (
    "terminate called",
    "Assertion",
    "Segmentation",
    "Aborted",
    "backtrace",
    "std::exception",
)


def run(vicinityd, args, env_extra=None, timeout=120):
    env = dict(os.environ)
    env.pop("VICINITY_FAULT_INJECT", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [str(vicinityd), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env, timeout=timeout)
    return proc


def assert_clean_failure(name, proc, want_code, single_line=False):
    """A failing invocation must exit with `want_code`, say something on
    stderr, and show no sign of a crash."""
    check(proc.returncode == want_code,
          f"{name}: exit {proc.returncode}, want {want_code}")
    lines = [ln for ln in proc.stderr.splitlines() if ln.strip()]
    check(len(lines) >= 1, f"{name}: empty stderr")
    if single_line:
        check(len(lines) == 1,
              f"{name}: want one diagnostic line, got {len(lines)}: {lines}")
    if lines:
        check(lines[-1].startswith("vicinityd:") or "usage:" in lines[0],
              f"{name}: diagnostic not prefixed: {lines[-1]!r}")
    for marker in CRASH_MARKERS:
        check(marker not in proc.stderr,
              f"{name}: crash marker {marker!r} in stderr")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build-dir", required=True, type=Path)
    args = ap.parse_args()

    build = args.build_dir.resolve()
    vicinityd = build / "src" / "vicinityd"
    cli = build / "examples" / "vicinity_cli"
    if not vicinityd.is_file() or not cli.is_file():
        print(f"missing binaries under {build}", file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory(prefix="vicinityd_cli_") as tmp:
        work = Path(tmp)
        graph = work / "g.bin"

        print("== flag validation (exit 2, one line) ==")
        assert_clean_failure(
            "bad port", run(vicinityd, ["--graph=x", "--port=notanumber"]),
            2, single_line=True)
        assert_clean_failure(
            "negative timeout",
            run(vicinityd, ["--graph=x", "--request-timeout-ms=-5"]),
            2, single_line=True)
        assert_clean_failure(
            "huge port", run(vicinityd, ["--graph=x", "--port=70000"]),
            2, single_line=True)
        assert_clean_failure(
            "unknown flag", run(vicinityd, ["--graph=x", "--frobnicate=1"]),
            2, single_line=True)
        assert_clean_failure(
            "value flag without value", run(vicinityd, ["--graph=x", "--port"]),
            2, single_line=True)
        assert_clean_failure(
            "bool flag with value", run(vicinityd, ["--graph=x", "--frozen=1"]),
            2, single_line=True)
        assert_clean_failure(
            "positional junk", run(vicinityd, ["--graph=x", "serve"]),
            2, single_line=True)
        assert_clean_failure(
            "bad alpha", run(vicinityd, ["--graph=x", "--alpha=banana"]),
            2, single_line=True)
        assert_clean_failure(
            "no arguments at all", run(vicinityd, []), 2)

        print("== malformed fault-injection env (exit 2) ==")
        assert_clean_failure(
            "bad inject env",
            run(vicinityd, ["--graph=x"],
                env_extra={"VICINITY_FAULT_INJECT": "eintr=banana"}),
            2, single_line=True)

        print("== runtime faults (exit 1, diagnostic not traceback) ==")
        assert_clean_failure(
            "missing graph file",
            run(vicinityd, [f"--graph={work / 'nope.bin'}"]), 1)
        junk = work / "junk.bin"
        junk.write_bytes(b"this is not a graph container" * 10)
        assert_clean_failure(
            "corrupt graph file", run(vicinityd, [f"--graph={junk}"]), 1)

        print("== generating a tiny real graph ==")
        subprocess.run(
            [str(cli), "gen", "--profile=livejournal", "--scale=0.0005",
             f"--out={graph}"],
            check=True, timeout=300, stdout=subprocess.DEVNULL)

        assert_clean_failure(
            "corrupt index file",
            run(vicinityd, [f"--graph={graph}", f"--index={junk}"]), 1)

        print("== legacy VCNIDX04 index (refused with the upgrade hint) ==")
        legacy = GOLDEN_DIR / "flat_v04_undirected.idx"
        proc = run(vicinityd, [f"--graph={graph}", f"--index={legacy}"])
        assert_clean_failure("legacy index", proc, 1)
        fatal = proc.stderr.strip().splitlines()[-1:] or [""]
        check(fatal[0].startswith("vicinityd: fatal:")
              and "vicinity_cli index upgrade" in fatal[0],
              f"legacy index: no upgrade hint in {fatal[0]!r}")
        proc = run(cli, ["index", "info", str(legacy)])
        check(proc.returncode == 0,
              f"index info on a legacy file: exit {proc.returncode}")
        check("VCNIDX04 legacy stream container" in proc.stdout,
              f"index info: not reported as legacy: {proc.stdout!r}")
        proc = run(cli, ["index", "upgrade", f"--graph={graph}",
                         f"--in={legacy}"])
        check(proc.returncode == 2,
              f"index upgrade without --out: exit {proc.returncode}, want 2")
        check("usage:" in proc.stderr,
              f"index upgrade without --out: no usage line: {proc.stderr!r}")

        # Hold a port open, then ask vicinityd to bind it.
        blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            assert_clean_failure(
                "occupied port",
                run(vicinityd, [f"--graph={graph}", f"--port={port}"]), 1)
        finally:
            blocker.close()

    if FAILURES:
        print(f"\n{len(FAILURES)} failure(s)")
        return 1
    print("\nall vicinityd CLI robustness checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
