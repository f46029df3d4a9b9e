#!/usr/bin/env python3
"""Compare two measurements of proxybench, one row per workload x metric.

    compare.py BASE.json NEW.json
        two ``out/results.json`` files (one invocation each)
    compare.py --worktrees BASE_DIR NEW_DIR [--pairs 10] [--workload NAME]
        run both checkouts as alternating pairs, then compare the pairs

Each row shows both medians with their quartiles, the change relative to
the base, and a verdict:

* ``improved`` — only from pairs: the new side won at least nine pairs in
  ten and the medians differ by more than the base's interquartile distance;
* ``regressed`` — the new median is worse than the base's by more than the
  metric's bound;
* ``unresolved`` — the spread between runs is wider than the bound, so the
  harness cannot tell (this is not "unchanged");
* ``within-bound`` — none of the above.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Sequence

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from proxybench import metrics, stats  # noqa: E402 - path set above


def _row(label: str, base: Dict[str, float], new: Dict[str, float],
         verdict: str) -> str:
    change = ((new["median"] - base["median"]) / base["median"]
              if base["median"] else 0.0)
    return (f"{label:<38} {base['median']:>11.5g} "
            f"[{base['q1']:.4g}, {base['q3']:.4g}] n={base['n']:<3} "
            f"{new['median']:>11.5g} [{new['q1']:.4g}, {new['q3']:.4g}] "
            f"n={new['n']:<3} {change:>+8.1%} of base  {verdict}")


def compare_results(base: Dict, new: Dict) -> List[str]:
    """Rows for two ``results.json`` payloads (window-level summaries)."""
    rows = []
    for name in metrics.WORKLOAD_NAMES:
        if name not in base["workloads"] or name not in new["workloads"]:
            continue
        for metric in metrics.END_TO_END:
            a = base["workloads"][name]["summaries"][metric.name]
            b = new["workloads"][name]["summaries"][metric.name]
            rows.append(_row(f"{name}.{metric.name}", a, b,
                             stats.spread_verdict(a, b, metric.bound,
                                                  metric.better)))
    return rows


def compare_pairs(base_runs: Dict[str, Dict[str, List[float]]],
                  new_runs: Dict[str, Dict[str, List[float]]]) -> List[str]:
    """Rows for per-run values collected as alternating pairs."""
    rows = []
    for name, by_metric in base_runs.items():
        for metric in metrics.END_TO_END:
            a, b = by_metric[metric.name], new_runs[name][metric.name]
            rows.append(_row(f"{name}.{metric.name}", stats.summarize(a),
                             stats.summarize(b),
                             stats.pair_verdict(a, b, metric.bound,
                                                metric.better)))
    return rows


def _run_once(checkout: str, workload: str, seed: int) -> Dict[str, float]:
    command = [sys.executable,
               os.path.join(checkout, "benchmarks", "proxybench", "run.py"),
               "--workload", workload, "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True, cwd=checkout)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: run failed on {workload} "
                         f"(exit {done.returncode})\n{done.stderr[-2000:]}")
    return {key: value["value"]
            for key, value in json.loads(lines[-1])["metrics"].items()}


def run_pairs(base_dir: str, new_dir: str, workloads: Sequence[str],
              pairs: int, seed: int):
    """Alternate which checkout runs first; one seed per pair."""
    sides = {"base": base_dir, "new": new_dir}
    runs = {side: {w: {m.name: [] for m in metrics.END_TO_END}
                   for w in workloads} for side in sides}
    for pair in range(pairs):
        order = ("base", "new") if pair % 2 == 0 else ("new", "base")
        for workload in workloads:
            for side in order:
                values = _run_once(sides[side], workload, seed + pair)
                for name, value in values.items():
                    runs[side][workload][name].append(value)
            print(f"pair {pair + 1}/{pairs}: {workload}", file=sys.stderr)
    return runs["base"], runs["new"]


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--worktrees", action="store_true",
                        help="BASE and NEW are checkouts to run, not files")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", choices=metrics.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    if args.worktrees:
        if args.pairs < 10:
            print("note: fewer than ten pairs cannot support 'improved'",
                  file=sys.stderr)
        names = [args.workload] if args.workload else metrics.WORKLOAD_NAMES
        rows = compare_pairs(*run_pairs(args.base, args.new, names,
                                        args.pairs, args.seed))
    else:
        with open(args.base, encoding="utf-8") as handle:
            base = json.load(handle)
        with open(args.new, encoding="utf-8") as handle:
            new = json.load(handle)
        print(f"base {base.get('git_sha', '?')[:12]}  "
              f"new {new.get('git_sha', '?')[:12]}")
        rows = compare_results(base, new)
    print(f"{'workload.metric':<38} {'base median [q1, q3]':<40} "
          f"{'new median [q1, q3]':<40} change  verdict")
    print("\n".join(rows))
    return 1 if any(row.endswith("regressed") for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
