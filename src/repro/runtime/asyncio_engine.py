"""The asyncio engine — the cooperative scheduler on an ``asyncio`` loop.

:class:`AsyncioEngine` is the :class:`~repro.runtime.cooperative.
CooperativeEngine` driven by an event loop the engine runs on one daemon
thread (started lazily with the first cooperative element):

* wake-ups from other threads are marshalled onto the loop with
  ``call_soon_threadsafe`` and set the scheduler coroutine's
  :class:`asyncio.Event`;
* paced non-blocking sources park on native ``loop.call_later`` timers;
* watched fds (UDP transport sources) are ``loop.add_reader`` callbacks.

What the driver buys is *composability with asyncio applications*: the
:mod:`repro.ingress` HTTP/WebSocket front door and the awaitable stream
helpers (:mod:`repro.streams.awaitable`) speak asyncio natively, so a proxy
serving real network clients runs its filters on the same loop as its
protocol handlers (:attr:`AsyncioEngine.loop`).
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Dict, Optional

from .cooperative import DEFAULT_HEARTBEAT_S, CooperativeEngine


class AsyncioEngine(CooperativeEngine):
    """Cooperative scheduler running chain elements on an asyncio loop.

    ``loop.add_reader``/``call_later`` are not thread-safe, so admission,
    timers and fd watching all run on the loop thread; the thread-safe
    entry points (:meth:`notify_element`, :meth:`shutdown`) marshal onto
    the loop with ``call_soon_threadsafe``.
    """

    name = "asyncio"

    def __init__(self, heartbeat_s: float = DEFAULT_HEARTBEAT_S) -> None:
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake: Optional[asyncio.Event] = None
        # Paced sources on native loop timers: element -> TimerHandle.
        # Loop-thread-private.
        self._timers: Dict = {}
        super().__init__(heartbeat_s)

    @property
    def loop(self) -> Optional[asyncio.AbstractEventLoop]:
        """The engine's event loop (None until the first element starts).

        Exposed so asyncio applications (the ingress layer, tests) can
        schedule their own coroutines next to the pump scheduler.
        """
        return self._loop

    # -------------------------------------------------------------- wake-ups

    def notify_element(self, element) -> None:
        """Wake the scheduler to re-evaluate one element (thread-safe).

        Notifications fired *on* the loop thread — listeners firing inside
        a pump's own stream reads/writes, which is most of them — mutate
        the dirty set directly, without the lock (only this thread
        collects it).  This is not just cheaper: the threadsafe path writes
        the loop's self-pipe, and that syscall releases the GIL
        mid-listener, handing control to e.g. a splicing ControlThread in
        the middle of a pump step.  The direct path keeps the pump step
        GIL-atomic at exactly the points the event engine does.
        """
        if self._on_loop_thread():
            self._dirty.add(element)
            self._wake_loop()
        else:
            super().notify_element(element)

    def _wake_locked(self) -> None:
        if self._on_loop_thread():
            self._wake_loop()
        else:
            self._on_scheduler(self._wake_loop)

    def _on_loop_thread(self) -> bool:
        thread = self._thread
        return thread is not None and threading.get_ident() == thread.ident

    def _on_scheduler(self, fn, *args) -> None:
        """Schedule ``fn`` on the loop thread; a no-op when no loop exists."""
        loop = self._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(fn, *args)
        except RuntimeError:
            pass  # loop already closed by shutdown

    def _wake_loop(self) -> None:
        if self._wake is not None:
            self._wake.set()

    # ------------------------------------------------------ timers and fds

    def _arm_timer(self, element, due: float) -> None:
        if element not in self._timers:
            self._timers[element] = self._loop.call_later(
                max(0.0, due - time.monotonic()), self._timer_fire, element)

    def _disarm_timer(self, element) -> None:
        timer = self._timers.pop(element, None)
        if timer is not None:
            timer.cancel()

    def _timer_fire(self, element) -> None:
        self._timers.pop(element, None)
        self._metric_timer_fires += 1
        self.notify_element(element)

    def _watch_fd(self, fd: int, element) -> bool:
        try:
            self._loop.add_reader(fd, self._fd_ready, element)
        except (OSError, ValueError):
            return False
        return True

    def _unwatch_fd(self, fd: int) -> None:
        try:
            self._loop.remove_reader(fd)
        except (OSError, ValueError):
            pass

    def _fd_ready(self, element) -> None:
        """A watched fd became readable.

        Readiness is reported once per look: the reader comes off the loop
        here and goes back on when the round visits the element.  Left on,
        the level-triggered reader fires again on every loop iteration
        until the round has drained the socket — including once *after*
        it, from the select that preceded the drain — and that stale mark
        would buy the source a second, empty look (one ``EAGAIN`` receive
        syscall per packet).
        """
        self._metric_fd_wakeups += 1
        self._suspend_fd(element)
        self.notify_element(element)

    # -------------------------------------------------------------- the wait

    def _run(self, started: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        # Created before the loop runs; asyncio.Event binds to the running
        # loop lazily on first await (Python >= 3.10 semantics).
        self._wake = asyncio.Event()
        started.set()
        try:
            loop.run_until_complete(self._scheduler())
        finally:
            try:
                loop.close()
            except Exception:  # noqa: BLE001 - best effort during teardown
                pass

    async def _scheduler(self) -> None:
        """Pump rounds between awaitable waits, then release the loop."""
        while not self._stopping:
            progress = self._round()
            if self._stopping:
                break
            if progress or self._dirty or self._scan_all:
                # More work is already queued: yield one loop iteration so
                # reader/timer callbacks and other tasks interleave, then
                # run the next round without arming the heartbeat wait.
                self._wake.clear()
                await asyncio.sleep(0)
                continue
            try:
                await asyncio.wait_for(self._wake.wait(), self._heartbeat_s)
            except asyncio.TimeoutError:
                # A full heartbeat passed with no notification at all:
                # rescan everything, so a lost wakeup is a bounded hiccup
                # rather than a stalled stream.
                self._scan_all = True
            self._wake.clear()
        self._release()
