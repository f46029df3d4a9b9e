"""EndPoints bridging asyncio protocol handlers onto proxy streams.

An ingress connection (one HTTP request body, one WebSocket) becomes one
proxy stream: the protocol handler pushes received payloads into an
:class:`IngressSource` at the head of the chain and pops the chain's
output back out of an :class:`IngressSink` at the tail.  Both endpoints
are thread-safe meeting points between two worlds that must never block
each other:

* the *chain side* is pumped by whatever execution engine the proxy runs
  (threaded, event or asyncio — the ingress layer does not care);
* the *network side* is an asyncio coroutine that must never block its
  loop, so it talks to the endpoints through non-blocking calls plus the
  ``subscribe()`` listener hooks (awaited via
  :class:`repro.streams.awaitable.AsyncStreamEvent`).

Back-pressure works in both directions without dedicating a thread:

* inbound, :meth:`IngressSource.push` refuses beyond ``max_pending``
  items and the handler awaits room before reading more from the client
  socket — TCP back-pressure reaches the browser;
* outbound, :meth:`IngressSink.wants_input_pump` returns False while
  more than ``max_buffered`` items wait for a slow client, so the engine
  simply stops pumping the sink, the sink's DIS buffer fills, and the
  engines' high-water gating parks the whole upstream chain.

:class:`IngressStreamBridge` packages the pair with the
``proxy.add_stream`` wiring and the awaitable send/receive used by the
HTTP and WebSocket handlers in :mod:`repro.ingress.server`.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Iterable, Optional

from ..core.endpoints import SinkEndPoint, SourceEndPoint
from ..streams.awaitable import AsyncStreamEvent
from ..streams.detachable import ListenerMixin

__all__ = ["IngressSource", "IngressSink", "IngressStreamBridge"]

#: Default bound on items queued toward the chain (source) and toward the
#: client (sink) before back-pressure engages.
DEFAULT_MAX_ITEMS = 64


class IngressSource(ListenerMixin, SourceEndPoint):
    """Chain source fed by an asyncio protocol handler.

    The handler pushes payloads with :meth:`push` (non-blocking; refused
    beyond ``max_pending``) and signals client end-of-stream with
    :meth:`close_input`.  Cooperative engines pump queued items without a
    thread; under the threaded engine ``produce`` blocks on the internal
    condition exactly like any other blocking source.
    """

    type_name = "ingress-source"

    #: Cooperative: ``produce`` only pops what the handler already pushed.
    cooperative_capable = True

    def __init__(self, name: Optional[str] = None, frame_output: bool = False,
                 max_pending: int = DEFAULT_MAX_ITEMS) -> None:
        if max_pending <= 0:
            raise ValueError("max_pending must be positive")
        super().__init__(name=name, frame_output=frame_output)
        self.max_pending = max_pending
        self._queue: Deque[bytes] = deque()
        self._cond = threading.Condition()
        self._input_closed = False

    # -- the network side (asyncio handler) --------------------------------

    def push(self, data: bytes) -> bool:
        """Queue one payload toward the chain (never blocks).

        Returns False — with nothing queued — when the queue is at
        ``max_pending`` or input was already closed; the caller should
        await a queue listener and retry (TCP back-pressure).
        """
        if data is None:
            raise ValueError("data must be bytes, not None")
        if not data:
            return True
        with self._cond:
            if self._input_closed or len(self._queue) >= self.max_pending:
                return False
            self._queue.append(bytes(data))
            self._cond.notify_all()
        self._notify_engine()
        self._fire_listeners()
        return True

    def close_input(self) -> None:
        """Signal client end-of-stream: the chain finishes after a drain."""
        with self._cond:
            if self._input_closed:
                return
            self._input_closed = True
            self._cond.notify_all()
        self._notify_engine()
        self._fire_listeners()

    def pending_items(self) -> int:
        """Number of pushed payloads not yet consumed by the chain."""
        with self._cond:
            return len(self._queue)

    def has_room(self) -> bool:
        """True when one more :meth:`push` would be accepted."""
        with self._cond:
            return (not self._input_closed
                    and len(self._queue) < self.max_pending)

    @property
    def input_closed(self) -> bool:
        """True once :meth:`close_input` has been called."""
        return self._input_closed

    # -- the chain side (engine) --------------------------------------------

    def wants_input_pump(self) -> bool:
        with self._cond:
            return bool(self._queue) or self._input_closed

    def produce(self) -> Optional[bytes]:
        if self.cooperative:
            # Never block: a queued payload, EOF, or nothing right now.
            popped = None
            with self._cond:
                if self._queue:
                    popped = self._queue.popleft()
                elif self._input_closed:
                    return None
            if popped is None:
                return b""
            self._fire_listeners()  # room freed: wake the handler
            return popped
        while not self._stop_event.is_set():
            with self._cond:
                if self._queue:
                    popped = self._queue.popleft()
                elif self._input_closed:
                    return None
                else:
                    self._cond.wait(0.1)
                    continue
            self._fire_listeners()
            return popped
        return None

    def stop(self, timeout: float = 5.0) -> None:
        # Unblock a threaded worker parked on the condition before joining.
        with self._cond:
            self._cond.notify_all()
        super().stop(timeout=timeout)


class IngressSink(ListenerMixin, SinkEndPoint):
    """Chain sink drained by an asyncio protocol handler.

    The chain's output accumulates in a bounded outbound queue that the
    handler pops with :meth:`pop` (non-blocking) after awaiting a queue
    listener.  While the client is slower than the chain the queue fills
    to ``max_buffered`` and the sink stops asking to be pumped — the
    engines' existing high-water gating then parks the upstream chain, so
    a slow websocket reader costs zero threads and bounded memory.
    """

    type_name = "ingress-sink"

    #: Cooperative: ``consume`` only appends to the outbound queue.
    cooperative_capable = True

    def __init__(self, name: Optional[str] = None, expect_frames: bool = False,
                 max_buffered: int = DEFAULT_MAX_ITEMS) -> None:
        if max_buffered <= 0:
            raise ValueError("max_buffered must be positive")
        super().__init__(name=name, expect_frames=expect_frames)
        self.max_buffered = max_buffered
        self._out: Deque[bytes] = deque()
        self._cond = threading.Condition()

    # -- the chain side (engine) --------------------------------------------

    def wants_input_pump(self) -> bool:
        # Full outbound queue: decline the pump instead of buffering more.
        # pop() re-notifies the engine once the client catches up.
        with self._cond:
            if len(self._out) >= self.max_buffered:
                return False
        return super().wants_input_pump()

    def consume(self, data: bytes) -> None:
        if self.cooperative:
            with self._cond:
                self._out.append(bytes(data))
            self._fire_listeners()
            return
        # Threaded engine: this sink owns a thread, so honest blocking
        # back-pressure is available (stop-aware, like every endpoint).
        while not self._stop_event.is_set():
            with self._cond:
                if len(self._out) < self.max_buffered:
                    self._out.append(bytes(data))
                    break
                self._cond.wait(0.1)
        else:
            return
        self._fire_listeners()

    def finalize(self):
        result = super().finalize()
        self._fire_listeners()  # wake a handler awaiting EOF
        return result

    # -- the network side (asyncio handler) --------------------------------

    def pop(self) -> Optional[bytes]:
        """Take one output payload (never blocks); None when none queued."""
        with self._cond:
            if not self._out:
                return None
            popped = self._out.popleft()
            self._cond.notify_all()
        self._notify_engine()  # room freed: resume the pump
        return popped

    def buffered_items(self) -> int:
        """Number of output payloads awaiting the client."""
        with self._cond:
            return len(self._out)

    def has_output(self) -> bool:
        """True when :meth:`pop` would return a payload."""
        with self._cond:
            return bool(self._out)

    def drained(self) -> bool:
        """True once the stream ended and every payload has been popped."""
        return self.eof_seen.is_set() and not self.has_output()


class IngressStreamBridge:
    """One ingress client wired as one proxy stream, with awaitable I/O.

    Builds the :class:`IngressSource` → filters → :class:`IngressSink`
    chain on ``proxy`` and exposes the coroutine-shaped API the protocol
    handlers use: :meth:`send` (awaits inbound room), :meth:`receive`
    (awaits chain output), :meth:`close_input` and :meth:`abort`.
    """

    def __init__(self, proxy, name: Optional[str] = None,
                 filters: Iterable = (),
                 frame_stream: bool = False,
                 max_pending: int = DEFAULT_MAX_ITEMS,
                 max_buffered: int = DEFAULT_MAX_ITEMS) -> None:
        self.proxy = proxy
        self.name = name or f"ingress-{id(self):x}"
        self.source = IngressSource(name=f"{self.name}-src",
                                    frame_output=frame_stream,
                                    max_pending=max_pending)
        self.sink = IngressSink(name=f"{self.name}-sink",
                                expect_frames=frame_stream,
                                max_buffered=max_buffered)
        self.control = proxy.add_stream(self.source, self.sink,
                                        name=self.name, auto_start=False)
        for filter_obj in filters:
            self.control.add(filter_obj)
        self.control.start()
        self._aborted = False

    # ------------------------------------------------------------- inbound

    async def send(self, data: bytes, timeout: Optional[float] = None) -> bool:
        """Push one payload toward the chain, awaiting queue room.

        Returns False when the queue stayed full for ``timeout`` seconds
        (or input was closed under us); never blocks the event loop.
        """
        if not data:
            return True
        if self.source.push(data):
            return True
        import asyncio

        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        with AsyncStreamEvent(self.source, loop=loop) as event:
            while True:
                if self.source.push(data):
                    return True
                if self.source.input_closed or self.source.finished:
                    return False
                wait_s = 0.5
                if deadline is not None:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        return False
                    wait_s = min(wait_s, remaining)
                await event.wait(wait_s)

    def close_input(self) -> None:
        """Propagate the client's end-of-stream into the chain."""
        self.source.close_input()

    # ------------------------------------------------------------ outbound

    async def receive(self, timeout: Optional[float] = None) -> Optional[bytes]:
        """Await the chain's next output payload; None at end-of-stream.

        Raises :class:`TimeoutError` when nothing arrives in ``timeout``
        seconds (a ``None`` return always means the stream really ended).
        """
        import asyncio

        payload = self.sink.pop()
        if payload is not None:
            return payload
        if self.sink.drained():
            return None
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        with AsyncStreamEvent(self.sink, loop=loop) as event:
            while True:
                payload = self.sink.pop()
                if payload is not None:
                    return payload
                if self.sink.drained():
                    return None
                wait_s = 0.5
                if deadline is not None:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"{self.name}: no output within {timeout}s")
                    wait_s = min(wait_s, remaining)
                await event.wait(wait_s)

    # ----------------------------------------------------------- lifecycle

    @property
    def finished(self) -> bool:
        """True once the whole chain has completed."""
        return self.sink.drained() or self.sink.finished

    def abort(self) -> None:
        """Tear the stream down now (client vanished mid-transfer).

        Idempotent.  Closes the inbound side and stops every chain
        element; whatever was in flight is discarded, exactly as when a
        receiver disappears from a wireless cell.
        """
        if self._aborted:
            return
        self._aborted = True
        self.source.close_input()
        # Break every input stream sink-first before stopping elements:
        # a chain jammed against a full buffer (the client stopped
        # reading, then vanished) has threads blocked mid-write, and
        # waking them now lets stop_element join quickly instead of
        # timing out per element.
        for element in reversed(self.control.elements()):
            try:
                element.dis.close()
            except Exception:  # noqa: BLE001 - best effort teardown
                pass
        self.control.shutdown()

    def wait_for_completion(self, timeout: Optional[float] = None) -> bool:
        """Block (a test helper, not for loops) until the chain finishes."""
        return self.control.wait_for_completion(timeout=timeout)
