"""The statistics the harness rests on, free of any ``repro`` import.

* :func:`percentile` / :func:`percentile_supported` — a timing percentile
  is trusted only when at least ten samples lie beyond it;
* :func:`summarize` — median, quartiles and sample count;
* :func:`undisturbed` — the calibration gate: a measurement is kept only
  when the two calibration readings that bracket it agree, i.e. the machine
  was in one state while it ran;
* :func:`machine_factor` — how much slower than the reference machine the
  bracket says this one was, raised to the metric's sensitivity;
* :func:`interleave` — the A B C D A B C D ... repetition order;
* :func:`spread_verdict` / :func:`pair_verdict` — "unresolved" whenever the
  run-to-run spread is wider than the metric's bound, "improved" only on
  nine wins in ten with a gap wider than the parent's own spread.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

#: Bracket readings may differ by this share of the smaller one.
BRACKET_TOLERANCE = 0.10
#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q < 1) by linear interpolation."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def percentile_supported(count: int, q: float) -> bool:
    """True when ``count`` samples leave at least ten beyond quantile ``q``."""
    return count * (1.0 - q) >= MIN_BEYOND


def summarize(values: Iterable[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles(n=4)``) and count."""
    data = [float(v) for v in values]
    if not data:
        raise ValueError("summary of no values")
    if len(data) < 4:  # too few to interpolate quartiles from
        q1, q3 = min(data), max(data)
    else:
        q1, _, q3 = statistics.quantiles(data, n=4)
    return {"median": statistics.median(data), "q1": q1, "q3": q3,
            "n": len(data)}


def relative_spread(summary: Dict[str, float]) -> float:
    """Interquartile distance as a share of the median."""
    median = summary["median"]
    return abs(summary["q3"] - summary["q1"]) / abs(median) if median else 0.0


def undisturbed(before: float, after: float) -> bool:
    """The calibration gate for one bracketed measurement."""
    low, high = sorted((before, after))
    return high - low <= BRACKET_TOLERANCE * low


def select_undisturbed(brackets: Sequence[Tuple[float, float]]) -> List[int]:
    """Indices of the bracketed measurements that pass the gate."""
    return [index for index, (before, after) in enumerate(brackets)
            if undisturbed(before, after)]


def machine_factor(before: float, after: float, reference: float,
                   sensitivity: float) -> float:
    """By what factor the machine slowed this measurement down.

    ``before``/``after`` are the bracketing calibration readings and
    ``reference`` the reading of the reference machine state.  A workload
    does not slow down as much as the calibration kernel does (part of its
    time is the kernel's, part is waiting), so the ratio is raised to the
    workload's ``sensitivity`` (0 = immune, 1 = moves like the kernel).
    Durations are divided by the factor and rates multiplied by it.
    """
    return ((before + after) / 2.0 / reference) ** sensitivity


def interleave(names: Sequence[str], repetitions: int) -> Iterator[str]:
    """A B C D A B C D ...: every workload sees every stretch of the run."""
    for _ in range(repetitions):
        yield from names


def run_with_retries(measure, wanted: int, planned: int, max_extra: int):
    """Call ``measure()`` until ``wanted`` undisturbed results are in hand.

    ``measure`` returns ``(results, kept)`` lists for one repetition;
    it is called ``planned`` times, then up to ``max_extra`` more while
    fewer than ``wanted`` results were kept.  Returns
    ``(all results, kept results, repetitions that kept nothing)``.
    """
    everything: list = []
    kept: list = []
    disturbed = 0
    repetition = 0
    while repetition < planned or (len(kept) < wanted
                                   and repetition < planned + max_extra):
        results, good = measure()
        everything.extend(results)
        kept.extend(good)
        disturbed += 0 if good else 1
        repetition += 1
    return everything, kept, disturbed


def is_worse(base: float, new: float, better: str) -> bool:
    """True when ``new`` reads worse than ``base`` for this direction."""
    return new < base if better == "higher" else new > base


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if not base:
        return 0.0
    change = (base - new) / abs(base) if better == "higher" else (
        new - base) / abs(base)
    return max(0.0, change)


def spread_verdict(base: Dict[str, float], new: Dict[str, float],
                   bound: float, better: str) -> str:
    """Compare two summaries of one metric under its regression bound.

    ``unresolved`` when either side's own spread exceeds the bound (the
    harness cannot tell), ``regressed`` when the new median is worse by
    more than the bound, otherwise ``within-bound``.
    """
    if max(relative_spread(base), relative_spread(new)) > bound:
        return "unresolved"
    if worsening(base["median"], new["median"], better) > bound:
        return "regressed"
    return "within-bound"


def pair_verdict(base_values: Sequence[float], new_values: Sequence[float],
                 bound: float, better: str) -> str:
    """The verdict over alternating (base, new) pairs of runs.

    ``improved`` needs the new side to win at least nine tenths of the
    pairs (ties count for neither) and the medians to differ by more than
    the base's interquartile distance.  ``regressed`` is the median rule of
    :func:`spread_verdict`.  With the base's spread above the bound, only a
    clean sweep (every new run better or worse than every base run)
    resolves.
    """
    base, new = summarize(base_values), summarize(new_values)
    pairs = list(zip(base_values, new_values))
    wins = sum(1 for b, n in pairs if is_worse(n, b, better))
    gap = abs(new["median"] - base["median"])
    new_better = is_worse(new["median"], base["median"], better)
    if relative_spread(base) > bound:
        if all(is_worse(n, b, better) for b in base_values
               for n in new_values):
            return "improved"
        if all(is_worse(b, n, better) for b in base_values
               for n in new_values):
            return "regressed"
        return "unresolved"
    if (new_better and pairs and wins >= 0.9 * len(pairs)
            and gap > base["q3"] - base["q1"]):
        return "improved"
    if worsening(base["median"], new["median"], better) > bound:
        return "regressed"
    return "within-bound"
