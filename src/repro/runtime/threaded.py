"""The thread-per-filter engine — the paper's original execution model.

Every chain element gets its own worker thread (``Filter.start``), which
drives the same ``Filter.pump`` step a cooperative engine calls and blocks
inside it where a cooperative step parks: the read waits on the buffer's own
lock for up to ``read_timeout``, the delivery blocks through buffer
back-pressure and splices, and a boundary hold waits for its release.
Simple and fully preemptive, it remains the default: for a handful of
streams its per-element isolation beats the cooperative engines' shared
scheduler.
"""

from __future__ import annotations

from ..obs.metrics import register_engine as _obs_register_engine
from .base import ExecutionEngine


class ThreadedEngine(ExecutionEngine):
    """One dedicated worker thread per chain element."""

    name = "threaded"

    def __init__(self) -> None:
        #: Worker threads launched over this engine's lifetime (plain int,
        #: written only under the callers' composition locks).
        self.elements_started = 0
        _obs_register_engine(self)

    def start_element(self, element) -> None:
        """Launch ``element``'s dedicated worker thread."""
        element.start()
        self.elements_started += 1

    def metrics_snapshot(self) -> dict:
        """Counters/gauges for the scrape-time engine collector."""
        return {
            "counters": {"elements_started": self.elements_started},
            "gauges": {},
        }
