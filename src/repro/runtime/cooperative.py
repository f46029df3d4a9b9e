"""The cooperative scheduler shared by the event and asyncio engines.

:class:`CooperativeEngine` multiplexes every *cooperative* chain element
(filters, in-process sinks, non-blocking sources) onto one scheduler thread
that pumps an element only when it is ready:

* its DIS has buffered bytes (signalled by the stream's subscriber hook —
  no polling), or has reached end-of-stream and the filter must finalize;
* it has parked output to flush (after a boundary hold is released or a
  splice reattaches its DOS);
* its socket is readable, or its pacing timer is due;
* it has been asked to stop.

Elements that block on *external* input (``cooperative_capable = False``:
socket and callback sources, socket sinks) keep a dedicated thread, because
a cooperative scheduler must never block.

Everything about *what* runs is here: admission, the dirty and gated sets,
one round (candidates → :func:`pump_verdict` → ``pump()`` or :meth:`_park`
→ retire the finished), the element→fd map with suspend/resume, the
heartbeat ``scan_all`` net and the metrics.  A subclass is a wake-up driver
and supplies only *how it waits*: the scheduler thread's body
(:meth:`_run`), the wake-up (:meth:`_wake_locked`), where admission runs
(:meth:`_on_scheduler`), timers (:meth:`_arm_timer`, :meth:`_disarm_timer`)
and fd watching (:meth:`_watch_fd`, :meth:`_unwatch_fd`).

Flow control is the high-water-mark pattern: a pump step delivers with the
non-blocking ``DOS.try_write_many`` (which may overshoot the downstream
buffer's capacity by one ``pump_budget``) and the scheduler stops pumping an
element while its downstream buffer sits at or above capacity — no blocking
and therefore no scheduler deadlock.  One wake-up drains a ``pump_budget``
of chunks through :meth:`Filter.transform_chunks`, so the scheduling cost
amortizes over the batch at every hop.

The composition protocol is unchanged: pause/drain/reconnect splices, the
boundary-hold handshake and quiesce all work against the same Filter state
machine; the ControlThread cannot tell which engine is underneath.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from ..obs.metrics import register_engine as _obs_register_engine
from .base import EngineError, ExecutionEngine

#: Fallback wake-up period for the scheduler.  Every state change that can
#: make an element ready fires a notification, so this is a lost-wakeup
#: safety net, not a polling interval.
DEFAULT_HEARTBEAT_S = 0.5

#: Verdicts of :func:`pump_verdict` — one visit's answer to "pump this
#: element now, or where will its wake-up come from?".
READY = "ready"    # a pump step would make progress
HELD = "held"      # at a boundary hold; the release notification re-marks it
GATED = "gated"    # waits on another element (high-water, splice reattach)
IDLE = "idle"      # no input; its stream, socket or timer re-marks it


def pump_verdict(element) -> str:
    """Classify a cooperative element for one scheduler visit.

    It asks ``wants_input_pump()`` at most once: for a socket-backed source
    that question can cost a receive syscall.
    """
    if element.stop_requested:
        return READY
    if element.held:
        return HELD
    if element.pending_output:
        # Parked output can only move once the DOS is reattached.
        return READY if element.dos.connected else GATED
    if element.wants_input_pump():
        return GATED if _backpressured(element) else READY
    return IDLE


def _backpressured(element) -> bool:
    """True while the element's downstream buffer is at/over capacity."""
    dos = element.dos
    if not dos.connected:
        return False  # one transform will park in _pending; that's fine
    sink = dos.sink
    if sink is None:
        return False
    capacity = sink.buffer.capacity
    return capacity is not None and sink.available() >= capacity


class CooperativeEngine(ExecutionEngine):
    """One scheduler thread pumping ready elements; subclasses wait for it.

    A driver sets its own state, including ``_timers`` (any sized container
    of pending timers, read for the ``pending_timers`` gauge), before
    calling ``CooperativeEngine.__init__``, which registers the engine with
    the metrics collector.
    """

    def __init__(self, heartbeat_s: float = DEFAULT_HEARTBEAT_S) -> None:
        if heartbeat_s <= 0:
            raise EngineError("heartbeat_s must be positive")
        self._heartbeat_s = heartbeat_s
        # Guards the sets and maps below that notifiers and admission touch
        # from other threads; a driver may also sleep on it.
        self._cond = threading.Condition()
        self._thread: Optional[threading.Thread] = None
        self._stopping = False
        self._elements: List = []   # cooperatively pumped elements
        # Dirty-set scheduling: notifications mark the element whose
        # readiness changed, so a round touches O(notified) elements, not
        # O(all) — the difference between 8 and 256 streams on one thread.
        self._dirty: set = set()
        self._scan_all = False
        # Elements whose readiness depends on *another* element's progress
        # (downstream high-water, output parked across a splice); rechecked
        # every round.  Scheduler-thread-private.
        self._gated: set = set()
        # Socket readiness: element -> the fd its driver watches.  An
        # element parked for a reason its socket knows nothing about
        # (boundary hold, backpressure) has its fd taken off the watch and
        # put in _suspended, or a readable fd would spin the wait.  Only the
        # scheduler thread suspends.
        self._selectable_fds: Dict = {}
        self._suspended: set = set()
        # Scheduler metrics: plain ints written only by the scheduler
        # thread (GIL-atomic reads from the scrape-time collector may lag
        # an in-flight round, which dashboards tolerate by design).
        self._metric_rounds = 0
        self._metric_pumps = 0
        self._metric_timer_fires = 0
        self._metric_fd_wakeups = 0
        self._metric_scan_all_rounds = 0
        _obs_register_engine(self)

    # ----------------------------------------------------- driver interface

    def _run(self, started: threading.Event) -> None:
        """The scheduler thread: set ``started``, then round and wait."""
        raise NotImplementedError

    def _wake_locked(self) -> None:
        """Make the scheduler run a round soon (caller holds ``_cond``)."""
        raise NotImplementedError

    def _on_scheduler(self, fn, *args) -> None:
        """Run ``fn(*args)`` where the driver's fd watch may be changed."""
        raise NotImplementedError

    def _arm_timer(self, element, due: float) -> None:
        """Mark ``element`` dirty at monotonic time ``due``."""
        raise NotImplementedError

    def _disarm_timer(self, element) -> None:
        """Forget a retired element's timer (a driver may let it lapse)."""

    def _watch_fd(self, fd: int, element) -> bool:
        """Start reporting ``fd``'s readability as ``element``'s; True if so."""
        raise NotImplementedError

    def _unwatch_fd(self, fd: int) -> None:
        """Stop reporting ``fd``'s readability."""
        raise NotImplementedError

    # ------------------------------------------------------------- lifecycle

    def start_element(self, element) -> None:
        """Adopt ``element``: pump cooperatively, or thread if it blocks."""
        cooperative = getattr(element, "cooperative_capable", True)
        with self._cond:
            # Refuse before binding: a half-bound element could never be
            # started on another engine (bind marks it started).
            if self._stopping:
                raise EngineError(f"engine {self.name!r} has been shut down")
            if cooperative:
                self._ensure_thread()
                element.bind_engine(self)
        if cooperative:
            self._on_scheduler(self._admit, element)
            return
        # Blocking-I/O elements keep their dedicated thread; subscribe their
        # DIS so a threaded sink draining its buffer re-wakes any upstream
        # cooperative element gated on the high-water mark.  A recheck-wake
        # suffices — gated elements are candidates every round — so this
        # stays O(gated), not a full rescan per chunk.
        element.dis.subscribe(self._notify_recheck)
        element.start()

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the scheduler thread and wait for it (idempotent)."""
        with self._cond:
            self._stopping = True
            thread = self._thread
        self._notify_recheck()
        if thread is not None:
            thread.join(timeout=timeout)

    def _ensure_thread(self) -> None:
        """Start the scheduler thread if needed (caller holds the lock)."""
        if self._thread is not None and self._thread.is_alive():
            return
        started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, args=(started,),
            name=f"{self.name}-engine-{id(self):x}", daemon=True)
        self._thread.start()
        started.wait()

    def notify_element(self, element) -> None:
        """Mark ``element`` dirty and wake the scheduler (thread-safe)."""
        with self._cond:
            if element in self._dirty:
                # Marked since the last collection, and a wake-up is only
                # consumed right before a round: that round will pump it.
                return
            self._dirty.add(element)
            self._wake_locked()

    def _notify_recheck(self) -> None:
        """Wake the scheduler for a round over its gated set (thread-safe)."""
        with self._cond:
            self._wake_locked()

    def _admit(self, element) -> None:
        """Take ownership of a freshly bound element."""
        with self._cond:
            self._elements.append(element)
            self._register_fd(element)
        self.notify_element(element)

    # ------------------------------------------------------------ inspection

    @property
    def managed_count(self) -> int:
        """Number of elements currently pumped by the scheduler."""
        with self._cond:
            return len(self._elements)

    @property
    def scheduler_alive(self) -> bool:
        """Whether the scheduler thread is currently running."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    def metrics_snapshot(self) -> dict:
        """Counters/gauges for the scrape-time engine collector.

        Counter reads are lock-free (scheduler-thread-private plain ints);
        the depth gauges are read under the lock since notifiers mutate the
        dirty set as well as the scheduler.
        """
        with self._cond:
            gauges = {
                "dirty_depth": len(self._dirty),
                "gated_depth": len(self._gated),
                "managed_elements": len(self._elements),
                "pending_timers": len(self._timers),
            }
        return {
            "counters": {
                "scheduler_rounds": self._metric_rounds,
                "elements_pumped": self._metric_pumps,
                "timer_fires": self._metric_timer_fires,
                "selector_wakeups": self._metric_fd_wakeups,
                "scan_all_rounds": self._metric_scan_all_rounds,
            },
            "gauges": gauges,
        }

    # ------------------------------------------------------------ the round

    def _round(self, due=()) -> bool:
        """Pump the dirty, gated and ``due`` elements once; True on progress."""
        self._metric_rounds += 1
        with self._cond:
            if self._scan_all:
                candidates = list(self._elements)
                self._scan_all = False
                self._metric_scan_all_rounds += 1
            else:
                candidates = list(self._dirty | self._gated)
            self._dirty.clear()
        candidates.extend(due)
        progress = False
        finished = []
        for element in candidates:
            if element.finished:
                finished.append(element)
                continue
            try:
                verdict = pump_verdict(element)
                if verdict is READY:
                    self._gated.discard(element)
                    self._resume_fd(element)
                    self._metric_pumps += 1
                    progress = element.pump() or progress
                    # A pump that consumed input or delivered output
                    # re-marks the affected elements through the stream
                    # listeners, so follow-on work lands back in the dirty
                    # set by itself.
                else:
                    self._park(element, verdict)
            except Exception:  # noqa: BLE001 - a dying element (teardown
                pass           # races on its streams) must not kill the
                               # scheduler; pump reports via element.error
            if element.finished:
                finished.append(element)
        if finished:
            with self._cond:
                for element in finished:
                    self._gated.discard(element)
                    self._dirty.discard(element)
                    self._disarm_timer(element)
                    self._unregister_fd(element)
                    try:
                        self._elements.remove(element)
                    except ValueError:
                        pass
        return progress

    def _park(self, element, verdict: str) -> None:
        """File a not-ready element wherever its wake-up will come from.

        Cross-element conditions (downstream high-water, output parked
        across a splice) go to the every-round gated set; a paced source
        between items gets a timer; everything else is left alone — its own
        stream, socket, hold or stop notification re-marks it.
        """
        if verdict is IDLE:
            # Waiting for input: a socket-backed source must be watched for
            # that (it may have been suspended while held).
            self._resume_fd(element)
            due = element.next_due_s()
            if due is not None:
                self._arm_timer(element, due)
            return
        if verdict is GATED:
            self._gated.add(element)
        self._suspend_fd(element)

    # ----------------------------------------------------- socket readiness

    def _register_fd(self, element) -> None:
        """Watch ``element``'s readable fd, if it has one (under the lock).

        Only cooperative elements that expose ``selectable_fileno()`` (UDP
        transport sources) have one; everything else signals readiness
        through the stream/receiver subscription hooks.
        """
        accessor = getattr(element, "selectable_fileno", None)
        if not callable(accessor):
            return
        try:
            fd = accessor()
        except Exception:  # noqa: BLE001 - a dying element must not kill admit
            return
        if fd is not None and self._watch_fd(fd, element):
            self._selectable_fds[element] = fd

    def _unregister_fd(self, element) -> None:
        """Forget a finished element's fd (under the lock)."""
        fd = self._selectable_fds.pop(element, None)
        if fd is not None and element not in self._suspended:
            self._unwatch_fd(fd)
        self._suspended.discard(element)

    def _release(self) -> None:
        """Forget every timer and fd once the scheduler has stopped."""
        with self._cond:
            for element in list(self._elements):
                self._disarm_timer(element)
            for element in list(self._selectable_fds):
                self._unregister_fd(element)

    def _suspend_fd(self, element) -> None:
        """Take a parked element's fd off the watch (scheduler thread).

        A readable-but-unpumpable fd would end every idle wait at once — a
        busy spin.  The every-round gated recheck (or the hold-release
        notification) still reaches the element; the fd goes back on the
        watch when it is next pumped or idles for input.
        """
        with self._cond:
            fd = self._selectable_fds.get(element)
            if fd is None or element in self._suspended:
                return
            self._unwatch_fd(fd)
            self._suspended.add(element)

    def _resume_fd(self, element) -> None:
        """Put a previously suspended element's fd back on the watch."""
        if element not in self._suspended:
            return  # only this (scheduler) thread ever suspends: no lock
        with self._cond:
            self._suspended.discard(element)
            fd = self._selectable_fds.get(element)
            if fd is not None:
                self._watch_fd(fd, element)
