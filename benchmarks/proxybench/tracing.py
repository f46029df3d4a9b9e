"""In-memory spans around the calls into each layer, from outside ``src/``.

:class:`Tracer` wraps a fixed list of public methods (``TARGETS``) for the
duration of a traced repetition.  Every call becomes a span: name, layer,
wall-clock start and end, the span that caused it (the innermost open span
on the same thread), and the *thread CPU time* it consumed — CPU, not wall,
because a threaded chain spends most of a ``write_many`` blocked on a full
buffer, and waiting is not work.

A layer's self time is its spans' CPU minus the CPU of their child spans.
``runtime`` has no methods of its own to wrap: it is what the process was
busy with outside every span — the engines' scheduling, thread hand-off and
the interpreter's own overhead.  The benchmark's own feed and sink are
spanned as layer ``harness`` and taken out of the total, so the seven
shares describe the program and sum to one.

Spans are kept in memory (the first ``SPAN_CAP`` of them; the per-layer
totals cover all) and written out once, after the run.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Tuple

from .metrics import LAYERS

#: Spans written to the trace file; totals are kept for every span.
SPAN_CAP = 20_000

#: (layer, "module:Class" or "module", attribute).  A method is listed on
#: the class that defines it, so an override is wrapped where it lives.
TARGETS: List[Tuple[str, str, str]] = [
    ("core", "repro.core.filter:Filter", "pump"),
    ("core", "repro.core.filter:Filter", "transform_chunks"),
    ("core", "repro.core.filter:PacketFilter", "transform_chunks"),
    ("core", "repro.core.endpoints:SinkEndPoint", "transform_chunks"),
    ("core", "repro.core.endpoints:IterableSource", "produce"),
    ("core", "repro.core.endpoints:IterableSource", "produce_many"),
    ("core", "repro.core.control_thread:ControlThread", "add"),
    ("core", "repro.core.control_thread:ControlThread", "remove"),
    ("filters", "repro.filters.passthrough:PassthroughFilter",
     "transform_chunks"),
    ("filters", "repro.filters.fec_filters:FecEncoderFilter",
     "transform_packets"),
    ("filters", "repro.filters.fec_filters:FecDecoderFilter",
     "transform_packets"),
    ("fec", "repro.fec.group:FecGroupEncoder", "add_batch"),
    ("fec", "repro.fec.group:FecGroupDecoder", "add_batch"),
    ("streams", "repro.streams.detachable:DetachableInputStream",
     "read_chunks"),
    ("streams", "repro.streams.detachable:DetachableOutputStream",
     "write_many"),
    ("streams", "repro.streams.detachable:DetachableOutputStream",
     "try_write_many"),
    ("streams", "repro.streams.detachable:DetachableOutputStream", "write"),
    ("streams", "repro.streams.detachable:DetachableOutputStream",
     "try_write"),
    ("streams", "repro.streams.framing:FrameDecoder", "feed"),
    ("streams", "repro.streams.framing", "encode_frame"),
    ("streams", "repro.core.filter", "encode_frame"),
    ("streams", "repro.core.endpoints", "encode_frame"),
    ("transport", "repro.transport.endpoints:TransportSink", "consume_many"),
    ("transport", "repro.transport.endpoints:TransportSource", "produce"),
    ("transport", "repro.transport.loopback:LoopbackChannel", "send"),
    ("transport", "repro.transport.udp:UdpChannel", "send_many"),
    ("transport", "repro.transport.udp:UdpReceiver", "poll"),
    ("transport", "repro.transport.udp:UdpReceiver", "pending"),
    ("chaos", "repro.chaos.transport:ChaosChannel", "send_many"),
    ("harness", "proxybench.workloads:StampedFeed", "_block"),
    ("harness", "proxybench.workloads:StampSink", "_check"),
]


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class _ThreadState:
    """One thread's open-span stack and CPU totals."""

    def __init__(self) -> None:
        self.stack: List[List[int]] = []   # [span id, child cpu ns]
        self.self_cpu: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}


class Tracer:
    """Wrap ``TARGETS`` with spans; collect per-layer self CPU time."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Tuple[Any, ...]] = []
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._originals: List[Tuple[Any, str, Any]] = []
        self._ids = itertools.count(1)
        self._busy_ns = 0
        self._window_cpu0 = 0

    # ---------------------------------------------------------- installation

    def install(self) -> None:
        """Replace every target with its span-recording wrapper."""
        for layer, owner_path, attribute in TARGETS:
            owner = _resolve(owner_path)
            original = owner.__dict__[attribute] if isinstance(
                owner, type) else getattr(owner, attribute)
            name = f"{owner_path.rpartition(':')[2] or owner_path}.{attribute}"
            setattr(owner, attribute, self._wrap(original, name, layer))
            self._originals.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Put the original callables back."""
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
        return state

    def _wrap(self, original: Callable, name: str, layer: str) -> Callable:
        tracer = self
        wall = time.perf_counter_ns
        cpu = time.thread_time_ns

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            state = tracer._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            frame = [next(tracer._ids), 0]
            stack.append(frame)
            wall0 = wall()
            cpu0 = cpu()
            try:
                return original(*args, **kwargs)
            finally:
                spent = cpu() - cpu0
                wall1 = wall()
                stack.pop()
                state.self_cpu[layer] = (state.self_cpu.get(layer, 0)
                                         + spent - frame[1])
                state.calls[name] = state.calls.get(name, 0) + 1
                if parent is not None:
                    parent[1] += spent
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append(
                        (frame[0], parent[0] if parent else None, name,
                         layer, wall0, wall1, spent))

        traced.__wrapped__ = original
        return traced

    # -------------------------------------------------------------- windows

    def start_window(self) -> None:
        """Begin attributing: spans record and process CPU counts as busy."""
        self._window_cpu0 = time.process_time_ns()
        self.enabled = True

    def end_window(self) -> None:
        """Stop attributing (a no-op when no window is open)."""
        if self.enabled:
            self.enabled = False
            self._busy_ns += time.process_time_ns() - self._window_cpu0

    # -------------------------------------------------------------- results

    def summary(self) -> Dict[str, Any]:
        """Per-layer self CPU, the process's busy CPU, and call counts."""
        self_cpu: Dict[str, int] = {}
        calls: Dict[str, int] = {}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for layer, value in state.self_cpu.items():
                self_cpu[layer] = self_cpu.get(layer, 0) + value
            for name, value in state.calls.items():
                calls[name] = calls.get(name, 0) + value
        return {"self_cpu_ns": self_cpu, "busy_ns": self._busy_ns,
                "calls": calls, "spans_kept": len(self.spans),
                "spans_total": sum(calls.values())}

    def dump(self, path: str, workload: str) -> None:
        """Write the kept spans and the summary to ``path``."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "workload": workload,
            "columns": ["id", "parent", "name", "layer", "start_ns",
                        "end_ns", "cpu_ns"],
            "spans": self.spans,
            "summary": self.summary(),
            "shares": layer_shares(self.summary()),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def layer_shares(summary: Dict[str, Any]) -> Dict[str, float]:
    """Each layer's share of the program's busy CPU (sums to one).

    The harness's own spans are removed from the total; ``runtime`` is the
    remainder after every wrapped layer's self time.
    """
    self_cpu = summary["self_cpu_ns"]
    total = summary["busy_ns"] - self_cpu.get("harness", 0)
    if total <= 0:
        return {layer: 0.0 for layer in LAYERS}
    shares = {layer: self_cpu.get(layer, 0) / total
              for layer in LAYERS if layer != "runtime"}
    shares["runtime"] = max(0.0, 1.0 - sum(shares.values()))
    return shares
