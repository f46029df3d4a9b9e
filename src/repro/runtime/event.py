"""The event-driven engine — the cooperative scheduler on its own thread.

:class:`EventEngine` is the :class:`~repro.runtime.cooperative.
CooperativeEngine` driven by a plain thread: the scheduler sleeps on a
condition variable, paced sources sit on a private timer heap, and
notifiers wake it by setting a flag and notifying the condition.

Sockets join the same wait through :mod:`selectors`: once an element with a
``selectable_fileno()`` (the transport layer's UDP sources) is admitted, the
idle wait moves into ``selector.select`` and a readable socket drops its
element straight into the dirty set.  A self-pipe wakes the select when an
in-process notification lands first, so neither signal source can stall the
other.  N UDP streams therefore cost N *file descriptors*, not N reader
threads; purely in-process proxies never create the selector or the pipe.
"""

from __future__ import annotations

import heapq
import os
import selectors
import socket
import threading
import time
from typing import List, Optional

from .cooperative import DEFAULT_HEARTBEAT_S, CooperativeEngine


class EventEngine(CooperativeEngine):
    """Single-threaded cooperative scheduler for high-stream-count proxies."""

    name = "event"

    def __init__(self, heartbeat_s: float = DEFAULT_HEARTBEAT_S) -> None:
        # Timer heap for paced sources: (due, seq, element).  Entries are
        # popped into the round once due, so N idle paced streams cost one
        # heap entry each.  Scheduler-thread-private.
        self._timers: List = []
        self._timer_seq = 0
        self._wake = False
        # Created lazily with the first watched fd; guarded by self._cond.
        self._selector: Optional[selectors.BaseSelector] = None
        self._wakeup_send: Optional[socket.socket] = None
        self._wakeup_recv: Optional[socket.socket] = None
        self._selecting = False
        super().__init__(heartbeat_s)

    # -------------------------------------------------------------- wake-ups

    def _wake_locked(self) -> None:
        self._wake = True
        self._wake_selector()
        self._cond.notify_all()

    def _on_scheduler(self, fn, *args) -> None:
        fn(*args)  # the selector takes registrations from any thread

    def _arm_timer(self, element, due: float) -> None:
        self._timer_seq += 1
        heapq.heappush(self._timers, (due, self._timer_seq, element))

    def _pop_due_timers(self) -> List:
        due = []
        now = time.monotonic()
        while self._timers and self._timers[0][0] <= now:
            due.append(heapq.heappop(self._timers)[2])
        self._metric_timer_fires += len(due)
        return due

    # ------------------------------------------------------------- selector

    def _watch_fd(self, fd: int, element) -> bool:
        if self._selector is None:
            if self._stopping:
                return False
            self._selector = selectors.DefaultSelector()
            # Self-pipe: in-process notifications must be able to interrupt
            # a scheduler blocked in select().  data=None marks its end.
            self._wakeup_send, self._wakeup_recv = socket.socketpair()
            self._wakeup_send.setblocking(False)
            self._wakeup_recv.setblocking(False)
            self._selector.register(self._wakeup_recv, selectors.EVENT_READ)
        try:
            self._selector.register(fd, selectors.EVENT_READ, element)
        except (KeyError, ValueError, OSError):
            return False
        return True

    def _unwatch_fd(self, fd: int) -> None:
        if self._selector is not None:
            try:
                self._selector.unregister(fd)
            except (KeyError, ValueError, OSError):
                pass

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
        """Forget fds whose sockets were closed under us (EBADF guard)."""
        for element, fd in list(self._selectable_fds.items()):
            try:
                os.fstat(fd)
            except OSError:
                self._unregister_fd(element)
                self._dirty.add(element)  # let its pump observe the EOF

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the scheduler thread and close the selector (idempotent)."""
        super().shutdown(timeout)
        self._release()
        with self._cond:
            selector, self._selector = self._selector, None
            send, self._wakeup_send = self._wakeup_send, None
            recv, self._wakeup_recv = self._wakeup_recv, None
        for resource in (selector, send, recv):
            if resource is not None:
                try:
                    resource.close()
                except OSError:  # pragma: no cover - best effort
                    pass

    # -------------------------------------------------------------- the wait

    def _run(self, started: threading.Event) -> None:
        started.set()
        while not self._stopping:
            progress = self._round(self._pop_due_timers())
            with self._cond:
                if self._stopping:
                    return
                sleep_s = 0.0 if progress or self._wake else self._sleep_s()
                # Watched sockets: the idle wait moves to the selector so a
                # readable socket is itself a wakeup.  The _selecting flag
                # closes the notify race — a notifier that runs before it is
                # set leaves _wake=True (observed above); one that runs
                # after it writes the self-pipe.
                selector = self._selector  # local ref: a shutdown whose
                # join() timed out may null the attribute concurrently
                self._selecting = sleep_s > 0.0 and selector is not None
                if not self._selecting:
                    self._end_wait(sleep_s == 0.0 or self._cond.wait(sleep_s),
                                   sleep_s)
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
                        self._metric_fd_wakeups += 1
                self._end_wait(woken, sleep_s)

    def _end_wait(self, woken: bool, slept_s: float) -> None:
        """Close an idle wait (under the lock)."""
        if not woken and slept_s >= self._heartbeat_s:
            # A full heartbeat passed with no notification at all: rescan
            # everything.  This turns any lost wakeup — a bug, or a listener
            # raced with teardown — into a bounded hiccup instead of a
            # stalled stream.  Timer-bounded sleeps (< heartbeat) wake for
            # their deadline and skip this.
            self._scan_all = True
        self._wake = False

    def _sleep_s(self) -> float:
        """Idle sleep budget: the heartbeat, cut to the next timer deadline."""
        if not self._timers:
            return self._heartbeat_s
        return min(self._heartbeat_s,
                   max(self._timers[0][0] - time.monotonic(), 0.0))
