"""The asyncio engine — cooperative execution on an ``asyncio`` event loop.

:class:`AsyncioEngine` is the third execution engine: like
:class:`~repro.runtime.event.EventEngine` it multiplexes every cooperative
chain element onto a single scheduler, but the scheduler is an ``asyncio``
event loop (run on one daemon thread owned by the engine) instead of a
hand-rolled ``selectors`` wait.  The pump step itself is unchanged —
:meth:`repro.core.filter.Filter.pump` is already engine-agnostic — so the
engine is an *event-loop adapter*:

* stream readiness (the ``subscribe()`` callbacks the detachable streams
  and transport receivers already fire) is bridged onto the loop with
  ``call_soon_threadsafe``, marking the element dirty and waking the
  scheduler coroutine's :class:`asyncio.Event`;
* paced non-blocking sources park on native ``loop.call_later`` timers
  instead of a private timer wheel;
* cooperative elements exposing ``selectable_fileno()`` (UDP transport
  sources) are registered with ``loop.add_reader``, so socket readiness is
  a loop callback rather than a ``select`` round of our own.

Because the data plane runs the same pump step under the same readiness
and back-pressure rules, the asyncio engine is byte-identical to the other
two engines (pinned by ``tests/runtime/test_engine_equivalence.py`` and
``tests/transport/test_equivalence.py``).  That includes the zero-copy
batch path: each loop wakeup moves a ``pump_budget`` of bytes-like chunks
by reference through :meth:`Filter.transform_chunks`, so the per-wakeup
costs here amortize exactly as the event engine's do.

What the adapter buys is *composability with asyncio applications*: the
:mod:`repro.ingress` HTTP/WebSocket front door and the awaitable stream
helpers (:mod:`repro.streams.awaitable`) speak asyncio natively, so a
proxy serving real network clients can run its filters on the same
concurrency substrate as its protocol handlers.  Elements that perform
blocking external I/O (``cooperative_capable = False``) still get a
dedicated thread, exactly as under the event engine — an event loop must
never block.
"""

from __future__ import annotations

import asyncio
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

#: Fallback wakeup period for the scheduler coroutine.  Every state change
#: that can make an element ready fires a notification, so this is a
#: lost-wakeup safety net, not a polling interval (same contract as the
#: event engine's heartbeat).
DEFAULT_HEARTBEAT_S = 0.5


class AsyncioEngine(ExecutionEngine):
    """Cooperative scheduler running chain elements on an asyncio loop.

    One engine instance owns one event loop on one daemon thread (started
    lazily with the first cooperative element).  All scheduling state — the
    dirty set, the gated set, timers, fd readers — is confined to the loop
    thread; the thread-safe entry points (:meth:`notify_element`,
    :meth:`shutdown`) marshal onto the loop with
    ``call_soon_threadsafe``.
    """

    name = "asyncio"

    def __init__(self, heartbeat_s: float = DEFAULT_HEARTBEAT_S) -> None:
        if heartbeat_s <= 0:
            raise EngineError("heartbeat_s must be positive")
        self._heartbeat_s = heartbeat_s
        # Guards lazy loop start-up and the stopping flag; never held while
        # waiting on the loop.
        self._lock = threading.Lock()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._wake: Optional[asyncio.Event] = None
        self._stopping = False

        # ---- scheduler state: loop-thread-private ----
        self._elements: List = []       # cooperatively pumped elements
        # Dirty-set scheduling, as in the event engine: notifications mark
        # the element whose readiness changed, so a round touches
        # O(notified) elements.  Written on the loop thread; racily *read*
        # from notifier threads as a de-duplication hint only.
        self._dirty: set = set()
        self._scan_all = False
        # Elements whose readiness depends on another element's progress
        # (downstream high-water, output parked across a splice);
        # rechecked every round.
        self._gated: set = set()
        # Paced sources parked on native loop timers: element -> TimerHandle.
        self._timers: Dict = {}
        # Cooperative elements whose fd is registered with loop.add_reader:
        # element -> fd.  Readable-but-unpumpable fds are moved to
        # _suspended so they cannot spin the loop.
        self._readers: Dict = {}
        self._suspended: set = set()

        # Scheduler metrics: plain ints written only by the loop thread
        # (GIL-atomic reads from the scrape-time collector may lag an
        # in-flight round, which dashboards tolerate by design).
        self._metric_rounds = 0
        self._metric_pumps = 0
        self._metric_timer_fires = 0
        self._metric_reader_wakeups = 0
        self._metric_scan_all_rounds = 0
        _obs_register_engine(self)

    # ------------------------------------------------------------- lifecycle

    def start_element(self, element) -> None:
        """Admit ``element``: pump it cooperatively, or give it a thread.

        Cooperative elements are bound to this engine and handed to the
        loop; blocking-I/O elements (``cooperative_capable = False``) start
        their dedicated worker thread exactly as under the other engines.
        """
        if not getattr(element, "cooperative_capable", True):
            with self._lock:
                if self._stopping:
                    raise EngineError(f"engine {self.name!r} has been shut down")
            # A threaded sink draining its buffer must re-wake cooperative
            # elements gated on the high-water mark: a recheck-wake
            # suffices, since gated elements are candidates every round.
            element.dis.subscribe(self._notify_recheck)
            element.start()
            return
        with self._lock:
            # Refuse before binding: a half-bound element could never be
            # started on another engine (bind marks it started).
            if self._stopping:
                raise EngineError(f"engine {self.name!r} has been shut down")
            self._ensure_loop()
            element.bind_engine(self)
        self._call_soon(self._admit, element)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the scheduler loop and join its thread (idempotent)."""
        with self._lock:
            self._stopping = True
            thread = self._thread
        self._call_soon(self._wake_loop)
        if thread is not None:
            thread.join(timeout=timeout)

    def notify_element(self, element) -> None:
        """Wake the scheduler to re-evaluate one element (thread-safe).

        This is the bridge from the synchronous world onto the loop: the
        detachable streams' ``subscribe()`` callbacks land here (via
        ``Filter._notify_engine``) and are marshalled onto the loop thread
        with ``call_soon_threadsafe``.  A racy membership pre-check keeps
        an already-dirty element from scheduling a redundant callback.

        Notifications fired *on* the loop thread — listeners firing inside
        a pump's own stream reads/writes, which is most of them — mutate
        the dirty set directly instead.  This is not just cheaper: the
        threadsafe path writes the loop's self-pipe, and that syscall
        releases the GIL mid-listener, handing control to e.g. a splicing
        ControlThread in the middle of a pump step.  The direct path keeps
        the pump step GIL-atomic at exactly the points the event engine
        does.
        """
        if self._on_loop_thread():
            self._dirty.add(element)
            self._wake_loop()
            return
        if element in self._dirty:
            return  # already marked; the pending round will pump it
        self._call_soon(self._mark_dirty, element)

    def _notify_recheck(self) -> None:
        """Wake the scheduler to recheck its gated set only (thread-safe)."""
        if self._on_loop_thread():
            self._wake_loop()
            return
        self._call_soon(self._wake_loop)

    # --------------------------------------------------------- loop plumbing

    def _ensure_loop(self) -> None:
        """Start the loop thread if needed (caller holds ``self._lock``)."""
        if self._thread is not None and self._thread.is_alive():
            return
        ready = threading.Event()
        self._thread = threading.Thread(
            target=self._thread_main, args=(ready,),
            name=f"asyncio-engine-{id(self):x}", daemon=True)
        self._thread.start()
        ready.wait()

    def _thread_main(self, ready: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        # Created before the loop runs; asyncio.Event binds to the running
        # loop lazily on first await (Python >= 3.10 semantics).
        self._wake = asyncio.Event()
        ready.set()
        try:
            loop.run_until_complete(self._scheduler())
        finally:
            try:
                loop.close()
            except Exception:  # noqa: BLE001 - best effort during teardown
                pass

    def _on_loop_thread(self) -> bool:
        """True when the caller is running on this engine's loop thread."""
        thread = self._thread
        return thread is not None and threading.get_ident() == thread.ident

    def _call_soon(self, fn, *args) -> None:
        """Schedule ``fn`` on the loop thread; a no-op when no loop exists."""
        loop = self._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(fn, *args)
        except RuntimeError:
            pass  # loop already closed by shutdown

    def _mark_dirty(self, element) -> None:
        self._dirty.add(element)
        self._wake_loop()

    def _wake_loop(self) -> None:
        if self._wake is not None:
            self._wake.set()

    # ------------------------------------------------- loop-thread callbacks

    def _admit(self, element) -> None:
        """Take ownership of a freshly bound element (loop thread)."""
        if element in self._elements:
            return
        self._elements.append(element)
        self._dirty.add(element)
        self._register_reader(element)
        self._wake_loop()

    def _timer_fire(self, element) -> None:
        """A paced source's deadline arrived (loop thread)."""
        self._timers.pop(element, None)
        self._metric_timer_fires += 1
        self._dirty.add(element)
        self._wake_loop()

    def _fd_ready(self, element) -> None:
        """A registered fd became readable (loop thread).

        Readiness is reported once per look: the reader comes off the loop
        here and goes back on when the round visits the element.  Left on,
        the level-triggered reader fires again on every loop iteration
        until the round has drained the socket — including once *after*
        it, from the select that preceded the drain — and that stale mark
        would buy the source a second, empty look (one ``EAGAIN`` receive
        syscall per packet).
        """
        self._metric_reader_wakeups += 1
        self._suspend_reader(element)
        self._dirty.add(element)
        self._wake_loop()

    # ------------------------------------------------------------ fd readers

    def _register_reader(self, element) -> None:
        """Register a cooperative element's readable fd with the loop.

        Only elements exposing ``selectable_fileno()`` (UDP transport
        sources) have one; everything else signals readiness through the
        stream/receiver subscription hooks.
        """
        accessor = getattr(element, "selectable_fileno", None)
        if not callable(accessor):
            return
        try:
            fd = accessor()
        except Exception:  # noqa: BLE001 - a dying element must not kill admit
            return
        if fd is None:
            return
        try:
            self._loop.add_reader(fd, self._fd_ready, element)
        except (OSError, ValueError):
            return
        self._readers[element] = fd

    def _unregister_reader(self, element) -> None:
        """Drop a finished element's fd from the loop (loop thread)."""
        fd = self._readers.pop(element, None)
        was_suspended = element in self._suspended
        self._suspended.discard(element)
        if fd is not None and not was_suspended:
            try:
                self._loop.remove_reader(fd)
            except (OSError, ValueError):
                pass

    def _suspend_reader(self, element) -> None:
        """Take a parked element's fd off the loop (loop thread).

        A readable-but-unpumpable fd (boundary hold, downstream
        high-water, parked output) would otherwise fire its callback on
        every loop iteration — a busy spin.  The every-round gated recheck
        still reaches the element; the fd goes back on the loop when it is
        next pumped.
        """
        fd = self._readers.get(element)
        if fd is None or element in self._suspended:
            return
        try:
            self._loop.remove_reader(fd)
        except (OSError, ValueError):
            pass
        self._suspended.add(element)

    def _resume_reader(self, element) -> None:
        """Put a previously suspended element's fd back on the loop."""
        if element not in self._suspended:
            return
        self._suspended.discard(element)
        fd = self._readers.get(element)
        if fd is not None:
            try:
                self._loop.add_reader(fd, self._fd_ready, element)
            except (OSError, ValueError):
                pass

    # ------------------------------------------------------------ inspection

    @property
    def managed_count(self) -> int:
        """Number of elements currently pumped by the scheduler."""
        return len(self._elements)

    @property
    def scheduler_alive(self) -> bool:
        """True while the engine's loop thread is running."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    @property
    def loop(self) -> Optional[asyncio.AbstractEventLoop]:
        """The engine's event loop (None until the first element starts).

        Exposed so asyncio applications (the ingress layer, tests) can
        schedule their own coroutines next to the pump scheduler.
        """
        return self._loop

    def metrics_snapshot(self) -> dict:
        """Counters/gauges for the scrape-time engine collector.

        All values are loop-thread-private plain ints / container sizes;
        GIL-atomic reads from the scrape thread may lag an in-flight round,
        which dashboards tolerate by design.
        """
        return {
            "counters": {
                "scheduler_rounds": self._metric_rounds,
                "elements_pumped": self._metric_pumps,
                "timer_fires": self._metric_timer_fires,
                "selector_wakeups": self._metric_reader_wakeups,
                "scan_all_rounds": self._metric_scan_all_rounds,
            },
            "gauges": {
                "dirty_depth": len(self._dirty),
                "gated_depth": len(self._gated),
                "managed_elements": len(self._elements),
                "pending_timers": len(self._timers),
            },
        }

    # -------------------------------------------------------------- scheduler

    async def _scheduler(self) -> None:
        """The scheduler coroutine: pump rounds between awaitable waits."""
        while True:
            if self._stopping:
                break
            progress = self._round()
            if self._stopping:
                break
            if progress or self._dirty or self._scan_all:
                # More work is already queued: yield one loop iteration so
                # reader/timer callbacks and other tasks interleave, then
                # run the next round without arming the heartbeat wait.
                if self._wake is not None:
                    self._wake.clear()
                await asyncio.sleep(0)
                continue
            try:
                await asyncio.wait_for(self._wake.wait(), self._heartbeat_s)
            except asyncio.TimeoutError:
                # A full heartbeat passed with no notification at all:
                # rescan everything.  This turns any lost wakeup — a bug,
                # or a listener raced with teardown — into a bounded
                # hiccup instead of a stalled stream.
                self._scan_all = True
            self._wake.clear()
        self._teardown()

    def _round(self) -> bool:
        """One pump round over the dirty and gated sets (loop thread)."""
        self._metric_rounds += 1
        if self._scan_all:
            candidates = list(self._elements)
            self._scan_all = False
            self._metric_scan_all_rounds += 1
        else:
            candidates = list(self._dirty | self._gated)
        self._dirty.clear()
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
                    self._resume_reader(element)
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
        for element in finished:
            self._retire(element)
        return progress

    def _retire(self, element) -> None:
        self._gated.discard(element)
        self._dirty.discard(element)
        timer = self._timers.pop(element, None)
        if timer is not None:
            timer.cancel()
        self._unregister_reader(element)
        try:
            self._elements.remove(element)
        except ValueError:
            pass

    def _teardown(self) -> None:
        """Release loop-held resources before the loop exits."""
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        for element in list(self._readers):
            self._unregister_reader(element)
        self._dirty.clear()
        self._gated.clear()

    def _park(self, element, verdict: str) -> None:
        """File a not-ready element wherever its wake-up will come from.

        Cross-element conditions (downstream high-water, output parked
        across a splice) go to the every-round gated set; a paced source
        between items goes on a native ``loop.call_later`` timer;
        everything else is left alone — its own stream, socket, hold or
        stop notification re-marks it.
        """
        if verdict is IDLE:
            # Waiting for input: a socket-backed source must have its
            # reader registered for that (it may have been suspended while
            # held).
            self._resume_reader(element)
            due = element.next_due_s()
            if due is not None and element not in self._timers:
                delay = max(0.0, due - time.monotonic())
                self._timers[element] = self._loop.call_later(
                    delay, self._timer_fire, element)
            return
        if verdict is GATED:
            self._gated.add(element)
        self._suspend_reader(element)
