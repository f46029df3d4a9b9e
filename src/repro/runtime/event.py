"""The event-driven engine — readiness-scheduled cooperative execution.

Thread-per-filter burns a thread and a 50 ms polling wakeup per chain
element; a proxy hosting hundreds of streams spends its time context
switching instead of filtering.  ``EventEngine`` multiplexes every
*cooperative* element (filters and in-process sinks) onto one scheduler
thread that pumps an element only when it is ready:

* its DIS has buffered bytes (signalled by the stream's subscriber hook —
  no polling), or has reached end-of-stream and the filter must finalize;
* it has parked output to flush (after a boundary hold is released or a
  splice reattaches its DOS);
* it has been asked to stop.

Elements that block on *external* input (socket and callback sources,
socket sinks — anything marked ``cooperative_capable = False``) still get a
dedicated thread, because a cooperative scheduler must never block.
Non-blocking sources (:class:`~repro.core.endpoints.IterableSource`) are
pumped cooperatively too, their pacing handled by the scheduler's timer
wheel — so an N-stream proxy of in-process sources runs on *one* thread
instead of N × chain-length workers.

Sockets join the same loop through a :mod:`selectors`-based idle wait: a
cooperative element that exposes ``selectable_fileno()`` (the transport
layer's UDP sources, :class:`~repro.transport.endpoints.TransportSource`)
is registered with the scheduler's selector, and when the scheduler would
otherwise sleep it waits in ``selector.select`` instead — a readable socket
drops its element straight into the dirty set.  A self-pipe wakes the
select when an in-process notification lands first, so neither signal
source can stall the other.  N UDP streams therefore cost N *file
descriptors*, not N reader threads.

Flow control is cooperative too: a pump step delivers output with the
non-blocking ``DOS.try_write``/``try_write_many`` (which may overshoot the
downstream buffer's capacity by one pump step's worth of output — up to a
``pump_budget`` of transformed chunks) and the scheduler simply stops
pumping an element while its downstream buffer sits at or above capacity —
the classic high-water-mark pattern, with no blocking and therefore no
scheduler deadlock.

Batch granularity carries end to end: one readiness wakeup drains up to a
``pump_budget`` of chunks through :meth:`Filter.transform_chunks` (which
fused packet filters turn into a single vectorised call), the chunks
themselves are bytes-like objects moved by reference (``memoryview`` splits
included — see :mod:`repro.streams.buffer`), and a transport sink flushes
the whole budget through one ``send_many``.  The scheduler's dirty-set and
wakeup costs therefore amortize over the batch at every hop.

The composition protocol is unchanged: pause/drain/reconnect splices, the
boundary-hold handshake and quiesce all work against the same Filter state
machine; the ControlThread cannot tell which engine is underneath.
"""

from __future__ import annotations

import heapq
import os
import selectors
import socket
import threading
import time
from typing import Dict, List, Optional

from ..obs.metrics import register_engine as _obs_register_engine
from .base import (
    GATED,
    IDLE,
    READY,
    EngineError,
    ExecutionEngine,
    pump_verdict,
)

#: Fallback wakeup period for the scheduler.  Every state change that can
#: make an element ready fires a notification, so this is a liveness safety
#: net, not a polling interval.
DEFAULT_HEARTBEAT_S = 0.5


class EventEngine(ExecutionEngine):
    """Single-threaded cooperative scheduler for high-stream-count proxies."""

    name = "event"

    def __init__(self, heartbeat_s: float = DEFAULT_HEARTBEAT_S) -> None:
        if heartbeat_s <= 0:
            raise EngineError("heartbeat_s must be positive")
        self._heartbeat_s = heartbeat_s
        self._cond = threading.Condition()
        self._elements: List = []   # cooperatively pumped elements
        # Dirty-set scheduling: stream notifications mark the element whose
        # readiness changed, so a round touches O(notified) elements, not
        # O(all) — the difference between 8 and 256 streams on one thread.
        self._dirty: set = set()
        self._scan_all = False
        # Elements whose readiness depends on *another* element's progress
        # (downstream high-water, output parked across a splice); rechecked
        # every round.  Scheduler-thread-private, no lock needed.
        self._gated: set = set()
        # Timer wheel for paced sources: a (due, seq, element) min-heap.
        # Entries are popped into the round once due, so N idle paced
        # streams cost one heap entry each, not one readiness check per
        # round.  Scheduler-thread-private.
        self._timers: List = []
        self._timer_seq = 0
        self._wake = False
        self._stopping = False
        self._scheduler: Optional[threading.Thread] = None
        # Socket readiness: created lazily with the first selectable element
        # so purely in-process proxies never pay for a selector or the
        # self-pipe.  All guarded by self._cond.
        self._selector: Optional[selectors.BaseSelector] = None
        self._selectable_fds: Dict = {}           # element -> its wake-up fd
        # Elements whose fd is temporarily off the selector: an element
        # parked for a non-fd reason (boundary hold, backpressure) with a
        # readable socket would otherwise turn every idle select() into a
        # zero-sleep spin.  Scheduler-managed, mutated under self._cond.
        self._suspended: set = set()
        self._wakeup_send: Optional[socket.socket] = None
        self._wakeup_recv: Optional[socket.socket] = None
        self._selecting = False
        # Scheduler metrics: plain ints written only by the scheduler
        # thread (GIL-atomic reads from the scrape-time collector may lag
        # an in-flight round, which dashboards tolerate by design).
        self._metric_rounds = 0
        self._metric_pumps = 0
        self._metric_timer_fires = 0
        self._metric_selector_wakeups = 0
        self._metric_scan_all_rounds = 0
        _obs_register_engine(self)

    # ------------------------------------------------------------- lifecycle

    def start_element(self, element) -> None:
        """Adopt ``element``: pump cooperatively, or thread if it blocks."""
        if getattr(element, "cooperative_capable", True):
            with self._cond:
                # Refuse before binding: a half-bound element could never be
                # started on another engine (bind marks it started).
                if self._stopping:
                    raise EngineError(
                        f"engine {self.name!r} has been shut down")
                element.bind_engine(self)
                self._elements.append(element)
                self._dirty.add(element)
                self._register_selectable(element)
                self._ensure_scheduler()
                self._wake = True
                self._wake_selector()
                self._cond.notify_all()
        else:
            with self._cond:
                if self._stopping:
                    raise EngineError(
                        f"engine {self.name!r} has been shut down")
            # Blocking-I/O elements keep their dedicated thread; subscribe
            # their DIS so a threaded sink draining its buffer re-wakes any
            # upstream cooperative element gated on the high-water mark.
            # A recheck-wake suffices — gated elements are candidates every
            # round — so this stays O(gated), not a full rescan per chunk.
            element.dis.subscribe(self._notify_recheck)
            element.start()

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the scheduler thread and close the selector (idempotent)."""
        with self._cond:
            self._stopping = True
            self._wake = True
            self._wake_selector()
            self._cond.notify_all()
            scheduler = self._scheduler
        if scheduler is not None:
            scheduler.join(timeout=timeout)
        self._close_selector()

    def notify_element(self, element) -> None:
        """Wake the scheduler to re-evaluate one element (thread-safe)."""
        with self._cond:
            self._dirty.add(element)
            self._wake = True
            self._wake_selector()
            self._cond.notify_all()

    def _notify_recheck(self) -> None:
        """Wake the scheduler to recheck its gated set only (thread-safe)."""
        with self._cond:
            self._wake = True
            self._wake_selector()
            self._cond.notify_all()

    # ----------------------------------------------------- socket readiness

    def _register_selectable(self, element) -> bool:
        """Park ``element``'s readable fd on the selector (under the lock).

        Only cooperative elements that expose ``selectable_fileno()`` (UDP
        transport sources) have one; everything else keeps signalling
        readiness through the stream/receiver subscription hooks.
        """
        accessor = getattr(element, "selectable_fileno", None)
        if not callable(accessor):
            return False
        fd = accessor()
        if fd is None:
            return False
        self._ensure_selector()
        try:
            self._selector.register(fd, selectors.EVENT_READ, element)
        except (KeyError, ValueError, OSError):
            return False
        self._selectable_fds[element] = fd
        return True

    def _unregister_selectable(self, element) -> None:
        """Drop a finished element's fd from the selector (under the lock)."""
        fd = self._selectable_fds.pop(element, None)
        was_suspended = element in self._suspended
        self._suspended.discard(element)
        if fd is not None and not was_suspended and self._selector is not None:
            try:
                self._selector.unregister(fd)
            except (KeyError, ValueError, OSError):
                pass

    def _suspend_selectable_fd(self, element) -> None:
        """Take a parked element's fd off the selector (scheduler thread).

        Called when the element cannot be pumped for a reason its socket
        knows nothing about (boundary hold, downstream high-water, parked
        output): a readable-but-unpumpable fd would make every idle
        select() return instantly — a busy spin.  The every-round gated
        recheck (or the hold-release notification) still reaches the
        element; the fd goes back on the selector when it is next pumped.
        """
        with self._cond:
            fd = self._selectable_fds.get(element)
            if fd is None or element in self._suspended:
                return
            if self._selector is not None:
                try:
                    self._selector.unregister(fd)
                except (KeyError, ValueError, OSError):
                    pass
            self._suspended.add(element)

    def _resume_selectable_fd(self, element) -> None:
        """Put a previously suspended element's fd back on the selector."""
        if element not in self._suspended:
            return  # only this (scheduler) thread ever suspends: no lock
        with self._cond:
            self._suspended.discard(element)
            fd = self._selectable_fds.get(element)
            if fd is not None and self._selector is not None:
                try:
                    self._selector.register(fd, selectors.EVENT_READ, element)
                except (KeyError, ValueError, OSError):
                    pass

    def _ensure_selector(self) -> None:
        if self._selector is not None:
            return
        self._selector = selectors.DefaultSelector()
        # Self-pipe: in-process notifications must be able to interrupt a
        # scheduler blocked in select().  data=None marks the wakeup end.
        self._wakeup_send, self._wakeup_recv = socket.socketpair()
        self._wakeup_send.setblocking(False)
        self._wakeup_recv.setblocking(False)
        self._selector.register(self._wakeup_recv, selectors.EVENT_READ, None)

    def _wake_selector(self) -> None:
        """Interrupt a select() in progress (caller holds the lock)."""
        if self._selecting and self._wakeup_send is not None:
            try:
                self._wakeup_send.send(b"\x00")
            except (BlockingIOError, OSError):
                pass  # pipe full means a wakeup is already pending

    def _drain_wakeup(self) -> None:
        if self._wakeup_recv is None:
            return
        while True:
            try:
                if not self._wakeup_recv.recv(4096):
                    return
            except (BlockingIOError, OSError):
                return

    def _prune_dead_fds(self) -> None:
        """Unregister fds whose sockets were closed under us (EBADF guard)."""
        for element, fd in list(self._selectable_fds.items()):
            try:
                os.fstat(fd)
            except OSError:
                self._unregister_selectable(element)
                self._dirty.add(element)  # let its pump observe the EOF

    def _close_selector(self) -> None:
        with self._cond:
            selector, self._selector = self._selector, None
            send, self._wakeup_send = self._wakeup_send, None
            recv, self._wakeup_recv = self._wakeup_recv, None
            self._selectable_fds.clear()
            self._suspended.clear()
        for resource in (selector, send, recv):
            if resource is not None:
                try:
                    resource.close()
                except OSError:  # pragma: no cover - best effort
                    pass

    # ------------------------------------------------------------ inspection

    @property
    def managed_count(self) -> int:
        """Number of elements currently pumped by the scheduler."""
        with self._cond:
            return len(self._elements)

    @property
    def scheduler_alive(self) -> bool:
        """Whether the scheduler thread is currently running."""
        scheduler = self._scheduler
        return scheduler is not None and scheduler.is_alive()

    def metrics_snapshot(self) -> dict:
        """Counters/gauges for the scrape-time engine collector.

        Counter reads are lock-free (scheduler-thread-private plain ints);
        the depth gauges are read under the condition since the dirty set
        and timer heap are mutated by notifiers as well as the scheduler.
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
                "selector_wakeups": self._metric_selector_wakeups,
                "scan_all_rounds": self._metric_scan_all_rounds,
            },
            "gauges": gauges,
        }

    # -------------------------------------------------------------- scheduler

    def _ensure_scheduler(self) -> None:
        if self._scheduler is None or not self._scheduler.is_alive():
            self._scheduler = threading.Thread(
                target=self._loop, name=f"event-engine-{id(self):x}",
                daemon=True)
            self._scheduler.start()

    def _loop(self) -> None:
        while True:
            self._metric_rounds += 1
            with self._cond:
                if self._stopping:
                    return
                if self._scan_all:
                    candidates = list(self._elements)
                    self._scan_all = False
                    self._metric_scan_all_rounds += 1
                else:
                    candidates = list(self._dirty | self._gated)
                self._dirty.clear()
            now = time.monotonic()
            while self._timers and self._timers[0][0] <= now:
                candidates.append(heapq.heappop(self._timers)[2])
                self._metric_timer_fires += 1
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
                        self._resume_selectable_fd(element)
                        self._metric_pumps += 1
                        progress = element.pump() or progress
                        # A pump that consumed input or delivered output
                        # re-marks the affected elements through the stream
                        # listeners, so follow-on work lands back in the
                        # dirty set by itself.
                    else:
                        self._park(element, verdict)
                except Exception:  # noqa: BLE001 - a dying element (teardown
                    pass           # races on its streams) must not kill the
                                   # scheduler; pump reports via element.error
                if element.finished:
                    finished.append(element)
            with self._cond:
                for element in finished:
                    self._gated.discard(element)
                    self._dirty.discard(element)
                    self._unregister_selectable(element)
                    try:
                        self._elements.remove(element)
                    except ValueError:
                        pass
                if self._stopping:
                    return
                sleep_s = 0.0
                if not progress and not self._wake:
                    sleep_s = self._sleep_s()
                if self._selector is None:
                    if sleep_s > 0.0:
                        woken = self._cond.wait(sleep_s)
                        if not woken and sleep_s >= self._heartbeat_s:
                            # A full heartbeat passed with no notification
                            # at all: rescan everything.  This turns any
                            # lost wakeup — a bug, or a listener raced with
                            # teardown — into a bounded hiccup instead of a
                            # stalled stream.  Timer-bounded sleeps
                            # (< heartbeat) wake for their deadline and
                            # skip this.
                            self._scan_all = True
                    self._wake = False
                    continue
                # Selectable sockets registered: the idle wait moves to the
                # selector so a readable socket is itself a wakeup.  The
                # _selecting flag closes the notify race — a notifier that
                # runs before it is set leaves _wake=True (observed above);
                # one that runs after it writes the self-pipe.
                self._selecting = sleep_s > 0.0
                selector = self._selector  # local ref: a shutdown whose
                # join() timed out may null the attribute concurrently
            if not self._selecting:
                with self._cond:
                    self._wake = False
                continue
            try:
                events = selector.select(sleep_s)
            except (OSError, ValueError):
                # EBADF from a socket closed under us, or the selector
                # itself closed by a timed-out shutdown.
                events = []
                with self._cond:
                    self._prune_dead_fds()
            with self._cond:
                self._selecting = False
                woken = bool(self._wake)
                for key, _mask in events:
                    woken = True
                    if key.data is None:
                        self._drain_wakeup()
                    else:
                        self._dirty.add(key.data)
                        self._metric_selector_wakeups += 1
                if not woken and sleep_s >= self._heartbeat_s:
                    self._scan_all = True  # lost-wakeup safety net, as above
                self._wake = False

    def _sleep_s(self) -> float:
        """Idle sleep budget: the heartbeat, cut to the next timer deadline."""
        if not self._timers:
            return self._heartbeat_s
        return min(self._heartbeat_s,
                   max(self._timers[0][0] - time.monotonic(), 0.0))

    def _park(self, element, verdict: str) -> None:
        """File a not-ready element wherever its wake-up will come from.

        Cross-element conditions (downstream high-water, output parked
        across a splice) go to the every-round ``_gated`` set; a paced
        source between items goes on the timer heap; everything else is
        left alone — its own stream, socket, hold or stop notification
        re-marks it.
        """
        if verdict is IDLE:
            # Waiting for input: a socket-backed source must be on the
            # selector for that (it may have been suspended while held).
            self._resume_selectable_fd(element)
            due = element.next_due_s()
            if due is not None:
                self._timer_seq += 1
                heapq.heappush(self._timers, (due, self._timer_seq, element))
            return
        if verdict is GATED:
            self._gated.add(element)
        self._suspend_selectable_fd(element)
