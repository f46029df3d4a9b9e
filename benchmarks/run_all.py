#!/usr/bin/env python3
"""Run every benchmark in this directory, optionally in quick smoke mode.

Each ``test_bench_*.py`` file is executed in its own pytest process so one
broken benchmark cannot take the rest down.  With ``--quick`` the benchmarks
run in smoke mode: pytest-benchmark timing rounds are disabled and
``REPRO_BENCH_QUICK=1`` is exported so sweeps that honour it (see
``test_bench_fec_backends.py``) trim their configuration grids.  CI runs the
quick mode as a non-blocking job so the perf harness cannot silently rot.

Every run's tables land in the git-ignored ``benchmarks/results/quick/``.
The committed tables in ``benchmarks/results/`` change only with an explicit
``--commit``: after a full-mode run in which every benchmark passed, the
tables that run wrote are copied over the committed ones.

Usage::

    python benchmarks/run_all.py [--quick | --commit] [--pattern GLOB]
"""

from __future__ import annotations

import argparse
import glob
import os
import shutil
import subprocess
import sys
import time

from benchutil import QUICK_RESULTS_DIR, RESULTS_DIR

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


def discover(pattern: str) -> "list[str]":
    return sorted(glob.glob(os.path.join(BENCH_DIR, pattern)))


def run_one(path: str, quick: bool) -> "tuple[bool, float]":
    command = [sys.executable, "-m", "pytest", path, "-q", "-p", "no:cacheprovider"]
    if quick:
        command.append("--benchmark-disable")
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    if quick:
        env["REPRO_BENCH_QUICK"] = "1"
    start = time.perf_counter()
    result = subprocess.run(command, cwd=REPO_ROOT, env=env)
    return result.returncode == 0, time.perf_counter() - start


def commit_tables(written_since: float) -> "list[str]":
    """Copy the tables written since ``written_since`` over the committed ones."""
    committed = []
    for name in sorted(os.listdir(QUICK_RESULTS_DIR)):
        path = os.path.join(QUICK_RESULTS_DIR, name)
        if os.path.isfile(path) and os.path.getmtime(path) >= written_since:
            shutil.copyfile(path, os.path.join(RESULTS_DIR, name))
            committed.append(name)
    return committed


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke mode: disable timing rounds and trim sweep grids",
    )
    parser.add_argument(
        "--commit",
        action="store_true",
        help="after a full run with no failure, update the committed tables",
    )
    parser.add_argument(
        "--pattern",
        default="test_bench_*.py",
        help="glob (relative to benchmarks/) selecting which benchmarks to run",
    )
    args = parser.parse_args(argv)
    if args.commit and args.quick:
        parser.error("--commit publishes full-mode tables; drop --quick")

    started = time.time()
    paths = discover(args.pattern)
    if not paths:
        print(f"no benchmarks match {args.pattern!r}", file=sys.stderr)
        return 2

    failures = []
    for path in paths:
        name = os.path.basename(path)
        print(f"=== {name} ===", flush=True)
        ok, elapsed = run_one(path, quick=args.quick)
        status = "ok" if ok else "FAILED"
        print(f"=== {name}: {status} ({elapsed:.1f}s) ===\n", flush=True)
        if not ok:
            failures.append(name)

    mode = " (quick mode)" if args.quick else ""
    print(f"{len(paths) - len(failures)}/{len(paths)} benchmarks passed{mode}")
    print(f"result tables: {os.path.relpath(QUICK_RESULTS_DIR, REPO_ROOT)}/")
    if failures:
        print("failed:", ", ".join(failures), file=sys.stderr)
        return 1
    if args.commit:
        committed = commit_tables(started)
        print(f"committed to {os.path.relpath(RESULTS_DIR, REPO_ROOT)}/:", *committed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
