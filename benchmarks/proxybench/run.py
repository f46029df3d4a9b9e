#!/usr/bin/env python3
"""proxybench — the repository's benchmark.

    python benchmarks/proxybench/run.py                  # all four workloads
    python benchmarks/proxybench/run.py --workload bulk_chain --seed 3
    python benchmarks/proxybench/run.py --quick --trace  # smoke, with traces
    python benchmarks/proxybench/run.py --selfcheck      # same code, twice

Prints every metric by name with its unit, checks the outputs against the
reference oracles, writes ``out/results.json`` next to this file, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.  See
README.md in this directory for what is measured and why.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")


def _child_entry() -> int:
    """``--child <spec>``: pin, calibrate, and only then import the program."""
    import json

    spec = json.loads(sys.argv[2])
    if spec.get("cpu") is not None and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {spec["cpu"]})
    # Spin before anything heavy is imported: this is the "before" bracket
    # of the set-up time, and its own duration is taken out of it.
    from proxybench.spin import spin_ns_per_iter

    spin_started = time.perf_counter_ns()
    first_spin = spin_ns_per_iter()
    spin_seconds = (time.perf_counter_ns() - spin_started) / 1e9
    from proxybench import child

    return child.main(spec, first_spin, spin_seconds)


if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.stderr.write(f"proxybench: no program to measure at {SRC}\n")
    raise SystemExit(2)
sys.path.insert(0, SRC)
sys.path.insert(0, os.path.dirname(HERE))

if __name__ == "__main__" and len(sys.argv) > 2 and sys.argv[1] == "--child":
    raise SystemExit(_child_entry())

from proxybench import harness  # noqa: E402 - needs the paths set above

if __name__ == "__main__":
    raise SystemExit(harness.main(sys.argv[1:], OUT_DIR))
