"""Stream supervision: error policies, restarts, bypass, stall watchdog.

The ControlThread's composition protocol already knows how to splice a
*dead* filter out of a live chain; this module decides **when** and **what
next**.  An :class:`ErrorPolicy` names the strategy per stream:

* ``fail`` — today's behaviour: a crashed filter closes its downstream
  (EOF propagates, the stream ends), plus a structured ``stream-error``
  event so the failure is observable.
* ``restart-filter`` — the crashed filter is spliced out and an
  equivalent replacement (same creation spec) is spliced back in, with a
  bounded retry budget and exponential backoff.  Chunks buffered inside
  the dead filter are lost (exactly what the paper's dead-element splice
  loses); everything upstream and downstream keeps flowing.
* ``bypass`` — the crashed filter is spliced out and *not* replaced: the
  stream degrades (no FEC, no compression, ...) but keeps running.

A :class:`StreamSupervisor` is a small per-stream daemon thread that
watches the Filter Vector for crashed elements and (optionally) for
*stalled* ones — queued input but no counter movement for
``stall_timeout_s`` — and applies the policy.  Recovery never runs on the
data path: the watchdog polls cheap per-filter counters and takes the
composition lock only to splice.

Stall *recovery* (abandon + splice-around) assumes the wedged filter runs
on its own thread — i.e. the threaded engine.  Under a cooperative engine
a transform that blocks forever stalls the shared scheduler itself; the
watchdog still emits ``stream-stall`` so the condition is visible, but
routing around it cannot help and is not attempted.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Optional, Union

from ..obs.events import (
    EVENT_FILTER_BYPASS,
    EVENT_FILTER_RESTART,
    EVENT_STREAM_ERROR,
    EVENT_STREAM_STALL,
)
from ..streams import (
    BrokenStreamError,
    NotConnectedError,
    StreamClosedError,
)
from .errors import CompositionError, ProxyError, StreamSupervisionError
from .filter import Filter

#: Errors that mean "the chain was torn down around the filter", not "the
#: filter failed" — supervision must never try to recover from teardown.
_TEARDOWN_ERRORS = (StreamClosedError, BrokenStreamError, NotConnectedError)

VALID_MODES = ("fail", "restart-filter", "bypass")


@dataclass(frozen=True)
class ErrorPolicy:
    """What a stream does when one of its filters crashes or stalls.

    ``stall_timeout_s`` arms the pump-stall watchdog: a filter with queued
    input whose throughput counters do not move for that long is declared
    stalled (``stream-stall`` event) and, under a recoverable mode,
    abandoned and routed around like a crash.  ``None`` disables it.
    """

    mode: str = "fail"
    max_restarts: int = 3
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 2.0
    stall_timeout_s: Optional[float] = None
    poll_interval_s: float = 0.05

    def __post_init__(self) -> None:
        if self.mode not in VALID_MODES:
            raise ValueError(
                f"unknown error policy mode {self.mode!r}; "
                f"expected one of {', '.join(VALID_MODES)}")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")

    @property
    def recoverable(self) -> bool:
        """True when the policy routes around failures (vs. reporting them)."""
        return self.mode in ("restart-filter", "bypass")

    @classmethod
    def resolve(cls, value: Union["ErrorPolicy", str, Dict[str, Any], None],
                ) -> Optional["ErrorPolicy"]:
        """Normalise an ``error_policy=`` argument.

        ``None`` means unsupervised (no watcher thread at all — exactly the
        pre-supervision behaviour); a string names a mode with defaults; a
        dict is a full serialised policy (e.g. off a cluster StreamSpec).
        """
        if value is None or isinstance(value, ErrorPolicy):
            return value
        if isinstance(value, str):
            return cls(mode=value)
        if isinstance(value, dict):
            return cls.from_dict(value)
        raise ValueError(
            f"error_policy must be an ErrorPolicy, mode name, dict, or None: "
            f"{value!r}")

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe payload (round-trips through StreamSpec.to_dict)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ErrorPolicy":
        known = {spec.name for spec in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown error policy fields {sorted(unknown)!r}")
        return cls(**payload)


def _restart_counter():
    from ..obs.metrics import default_registry

    return default_registry().counter(
        "repro_stream_filter_restarts_total",
        "Filters restarted in place by stream supervision",
        label_names=("stream",))


class StreamSupervisor:
    """Watches one ControlThread's chain and applies its ErrorPolicy."""

    def __init__(self, control, policy: ErrorPolicy) -> None:
        self.control = control
        self.policy = policy
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        # Crashes already acted on, keyed by id(filter) — a filter object
        # is handled at most once (restart creates a *new* object).
        self._handled: Dict[int, bool] = {}
        # Restart budget per filter *name*: a replacement that crashes
        # again burns the same budget, so a deterministic crasher cannot
        # restart forever.
        self._restarts: Dict[str, int] = {}
        # Stall tracking: filter id -> (progress marker, first-seen time).
        self._progress: Dict[int, tuple] = {}

    # ------------------------------------------------------------- lifecycle

    def start(self) -> "StreamSupervisor":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run,
                name=f"{self.control.name}-supervisor",
                daemon=True)
            self._thread.start()
        return self

    def stop(self, timeout: float = 2.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        # Final report-only pass: a filter that crashed in the last poll
        # window (fast streams end in milliseconds) still gets its
        # stream-error on the record.  No recovery this late — the chain
        # is being dismantled.
        for filter_obj in self.control.filters:
            key = id(filter_obj)
            if key in self._handled:
                continue
            if (filter_obj.finished and filter_obj.error is not None
                    and not isinstance(filter_obj.error, _TEARDOWN_ERRORS)):
                self._handled[key] = True
                self._emit_stream_error(filter_obj, str(filter_obj.error))

    # ------------------------------------------------------------- main loop

    def _run(self) -> None:
        while not self._stop.wait(self.policy.poll_interval_s):
            if self.control._shutdown:
                return
            try:
                self._scan()
            except Exception:  # noqa: BLE001 - the watchdog must survive
                pass

    def _scan(self) -> None:
        for filter_obj in self.control.filters:
            key = id(filter_obj)
            if key in self._handled:
                continue
            if filter_obj.finished and filter_obj.error is not None:
                self._handled[key] = True
                if isinstance(filter_obj.error, _TEARDOWN_ERRORS):
                    continue  # the chain ended around it; nothing to recover
                self._handle_failure(filter_obj)
            elif self.policy.stall_timeout_s is not None:
                self._check_stall(filter_obj, key)

    # --------------------------------------------------------- stall watchdog

    def _check_stall(self, filter_obj: Filter, key: int) -> None:
        # Work is pending when input is queued — or when the filter took a
        # batch and is busy inside its transform (the threaded step
        # drains the DIS whole, so a wedged transform shows available()==0
        # but _busy True).  An idle filter with neither is just waiting.
        queued = filter_obj.dis.available()
        busy = getattr(filter_obj, "_busy", False)
        if filter_obj.finished or (queued == 0 and not busy):
            self._progress.pop(key, None)
            return
        stats = filter_obj.stats
        marker = (stats.chunks_in, stats.chunks_out,
                  stats.bytes_in, stats.bytes_out)
        previous = self._progress.get(key)
        now = time.monotonic()
        if previous is None or previous[0] != marker:
            self._progress[key] = (marker, now)
            return
        if now - previous[1] < self.policy.stall_timeout_s:
            return
        # Queued input, no counter movement for the whole window: stalled.
        self._handled[key] = True
        self._progress.pop(key, None)
        self.control._emit_event(
            EVENT_STREAM_STALL, filter=filter_obj.name,
            queued_bytes=queued,
            stall_timeout_s=self.policy.stall_timeout_s, policy=self.policy.mode)
        if not self.policy.recoverable or not self._threaded(filter_obj):
            # Visible but unrecoverable (fail mode, or a cooperative engine
            # where the scheduler itself is the wedged thread).
            return
        filter_obj.abandon(StreamSupervisionError(
            f"filter {filter_obj.name!r} stalled with {queued} queued bytes "
            f"for {self.policy.stall_timeout_s}s"))
        self._handle_failure(filter_obj)

    @staticmethod
    def _threaded(filter_obj: Filter) -> bool:
        """True when the filter runs on its own worker thread."""
        return not filter_obj.cooperative

    # ------------------------------------------------------------- recovery

    def _handle_failure(self, dead: Filter) -> None:
        error_text = str(dead.error) if dead.error else "unknown error"
        if self.policy.mode == "restart-filter":
            self._restart(dead, error_text)
        elif self.policy.mode == "bypass":
            self._bypass(dead, error_text)
        else:
            self._emit_stream_error(dead, error_text)

    def _emit_stream_error(self, dead: Filter, error_text: str,
                           **fields) -> None:
        self.control._emit_event(
            EVENT_STREAM_ERROR, filter=dead.name, type=dead.type_name,
            error=error_text, policy=self.policy.mode, **fields)

    def _splice_out(self, dead: Filter) -> int:
        """Remove the dead filter (the ControlThread's dead-element splice).

        ``stop_filter=False`` skips the engine's blocking join — the thread
        of an *abandoned* filter may still be wedged in its transform; once
        the chain is detached around it, its next write raises and it dies.
        Returns the position the filter held.
        """
        position = self.control.position_of(dead)
        self.control.remove(dead, stop_filter=False)
        try:
            self.control.engine.stop_element(dead, timeout=0.2)
        except Exception:  # noqa: BLE001 - cleanup of an already-dead element
            pass
        return position

    def _bypass(self, dead: Filter, error_text: str) -> None:
        try:
            position = self._splice_out(dead)
        except (CompositionError, ProxyError) as exc:
            self._emit_stream_error(dead, error_text, splice_error=str(exc))
            return
        self.control._emit_event(
            EVENT_FILTER_BYPASS, filter=dead.name, type=dead.type_name,
            position=position, error=error_text)

    def _restart(self, dead: Filter, error_text: str) -> None:
        attempt = self._restarts.get(dead.name, 0)
        if attempt >= self.policy.max_restarts:
            # Budget exhausted: degrade to *fail*, not to silent bypass —
            # report, then close the dead filter's output so EOF reaches
            # the sink and the stream terminates instead of hanging
            # (recoverable policies suppress the automatic error-path EOF).
            self._emit_stream_error(dead, error_text,
                                    restarts_exhausted=attempt)
            try:
                dead._close_output()
            except Exception:  # noqa: BLE001 - best effort EOF propagation
                pass
            return
        self._restarts[dead.name] = attempt + 1
        delay = min(self.policy.backoff_s * (self.policy.backoff_factor
                                             ** attempt),
                    self.policy.max_backoff_s)
        if delay > 0:
            self._stop.wait(delay)  # backoff, but wake early on shutdown
        try:
            replacement = self._build_replacement(dead)
            replacement.close_output_on_error = False
            position = self._splice_out(dead)
            self.control.add(replacement, position=position)
        except (CompositionError, ProxyError, TypeError) as exc:
            self._emit_stream_error(dead, error_text, restart_error=str(exc))
            try:
                dead._close_output()
            except Exception:  # noqa: BLE001
                pass
            return
        self.control._emit_event(
            EVENT_FILTER_RESTART, filter=dead.name, type=dead.type_name,
            position=position, attempt=attempt + 1,
            max_restarts=self.policy.max_restarts, error=error_text,
            backoff_s=round(delay, 4))
        _restart_counter().labels(stream=self.control.name).inc()

    @staticmethod
    def _build_replacement(dead: Filter) -> Filter:
        """An equivalent fresh instance of the crashed filter.

        Registry-built filters carry their :class:`FilterSpec` (stamped by
        ``FilterRegistry.create``) and are rebuilt from it; hand-constructed
        filters fall back to ``type(dead)(name=dead.name)``, which covers
        any filter whose constructor takes only the base kwargs.
        """
        spec = getattr(dead, "creation_spec", None)
        if spec is not None:
            from .registry import default_registry

            return default_registry().create(spec)
        return type(dead)(name=dead.name)
