"""Shared helpers for the benchmark/reproduction harness.

Every benchmark regenerates one of the paper's evaluation artifacts (or one
of the quantitative claims made in the text), prints the resulting table to
stdout (visible with ``pytest -s``) and also writes it under
``benchmarks/results/quick/`` so the numbers can be read back after a run.
The committed tables in ``benchmarks/results/`` change only through
``run_all.py --commit``, never as a side effect of a test run.
"""

from __future__ import annotations

import os
from typing import Iterable, List

#: The committed tables.  Nothing here writes them: ``run_all.py --commit``
#: copies a finished full-mode run's tables in from the run directory.
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: Where every run writes — pytest, ``run_all.py``, quick or full.  The
#: directory is git-ignored, so no run dirties the tree.
QUICK_RESULTS_DIR = os.path.join(RESULTS_DIR, "quick")


def results_dir() -> str:
    """Where this run's tables land (created on demand)."""
    os.makedirs(QUICK_RESULTS_DIR, exist_ok=True)
    return QUICK_RESULTS_DIR


def write_table(name: str, lines: Iterable[str]) -> str:
    """Print a result table and persist it as ``results/quick/<name>.txt``."""
    rows: List[str] = list(lines)
    text = "\n".join(rows) + "\n"
    print()
    print(text, end="")
    path = os.path.join(results_dir(), f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def format_row(values, widths) -> str:
    """Format one table row with fixed column widths."""
    cells = []
    for value, width in zip(values, widths):
        cells.append(f"{value:>{width}}" if not isinstance(value, str)
                     else f"{value:<{width}}")
    return "  ".join(str(cell) for cell in cells)
