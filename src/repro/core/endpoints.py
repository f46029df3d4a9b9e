"""EndPoints — the components that anchor a proxy's filter chain.

"EndPoints are special extensions of Filters that are instantiated by the
ControlThread for providing Input and Output services to the framework."
A :class:`SourceEndPoint` pulls data from outside the chain (a socket, a
generator, a simulated network receiver) and writes it to its DOS; a
:class:`SinkEndPoint` reads from its DIS and pushes data outside the chain.
"Combined with the ControlThread, two EndPoints comprise a 'null' proxy".

Concrete EndPoints are provided for the data sources and sinks used in this
reproduction: Python iterables/callables, in-memory collectors, real TCP
sockets, and the simulated wired/wireless networks.
"""

from __future__ import annotations

import socket
import threading
from functools import partial
from itertools import islice, takewhile
from operator import is_not
from time import monotonic as _monotonic
from typing import Callable, Iterable, Iterator, List, Optional

from ..streams import (
    encode_frame,  # noqa: F401 - unused; proxybench's tracer wraps it here
)
from .filter import Filter

#: A pull-style source callback: returns the next chunk, or None at EOF.
SourceCallable = Callable[[], Optional[bytes]]

#: A push-style sink callback: receives each chunk (or packet).
SinkCallable = Callable[[bytes], None]


class EndPoint(Filter):
    """Common base class for chain endpoints."""

    type_name = "endpoint"


class SourceEndPoint(EndPoint):
    """Reads data from an external producer and writes it into the chain.

    Subclasses implement :meth:`produce`, returning the next chunk of bytes
    or ``None`` at end of input.  The endpoint's DIS is unused.  With
    ``frame_output`` each item is a packet (its DOS says so; see
    :mod:`repro.streams.detachable`, "Packet hops").
    """

    type_name = "source-endpoint"

    #: Most sources block on external input (sockets, queues), so by default
    #: every execution engine gives them a dedicated thread.  Sources whose
    #: ``produce`` is non-blocking (:class:`IterableSource`) opt back in to
    #: cooperative pumping; pacing then becomes a scheduler deadline rather
    #: than a sleeping thread.
    cooperative_capable = False

    #: Whether ``produce`` returns without ever blocking *on the source's
    #: own thread as well*.  Only such sources draw a multi-item batch per
    #: threaded step: a blocking source would stall in ``produce`` while
    #: already-produced items sit undelivered in the batch, so it draws one
    #: item per step.  (This is stricter than ``cooperative_capable`` — a
    #: transport source polls non-blockingly when cooperative but blocks on
    #: its dedicated thread.)
    produce_nonblocking = False

    def __init__(self, name: Optional[str] = None, frame_output: bool = False,
                 pacing_s: float = 0.0, close_on_eof: bool = True) -> None:
        super().__init__(name=name, propagate_eof=close_on_eof)
        if pacing_s < 0:
            raise ValueError("pacing_s must be non-negative")
        self.frame_output = self.dos.packets = frame_output
        self.pacing_s = pacing_s
        self.items_produced = 0
        self._next_due = 0.0
        # Latched the first time produce() returns None, so an exhausted
        # producer is never probed again (produce() need not be repeatable
        # after signalling end of input).
        self._exhausted = False

    def produce(self) -> Optional[bytes]:
        """Return the next chunk/packet, or None when the source is exhausted."""
        raise NotImplementedError

    def produce_many(self, max_items: int) -> Optional[List[bytes]]:
        """Produce up to ``max_items`` items in one call, or None.

        Returning None (the default) makes the step accumulate its batch
        through per-item :meth:`produce` calls.  Sources that can
        draw a whole batch in one go (:class:`IterableSource`, a
        cooperative ``TransportSource``) override this.  A short or empty
        return does *not* signal exhaustion — the next :meth:`produce`
        call decides that.  The returned list is the caller's to extend.
        """
        return None

    @staticmethod
    def _non_empty(items: List[bytes]) -> List[bytes]:
        """A drawn batch less its empty items, as per-item draws skip them.

        Items go downstream by reference, per the buffer's contract (which
        also materialises anything that is not bytes-like).
        """
        return items if all(items) else [item for item in items if len(item)]

    # ------------------------------------------------------------- the step

    def _pump_input(self, progress: bool) -> bool:
        """The source variant of a step: produce items and emit them.

        An unpaced source draws up to a budget of items per step and emits
        them as one batch, so the DOS lock and the downstream wakeup are
        paid once per batch; a paced source moves one item per deadline,
        and a source that may block in ``produce`` on its own thread (see
        ``produce_nonblocking``) one item per step.  Pacing keeps the
        absolute schedule :meth:`next_due_s` reports on every engine: a
        cooperative engine does not pump the source again until the
        deadline (a timer entry instead of a sleeping thread), and the
        threaded step sleeps until it.
        """
        if self.pacing_s:
            wait = self._next_due - _monotonic()
            if wait > 0:
                if self._cooperative:
                    if progress:
                        # The flush above advanced the pacing deadline;
                        # re-mark ourselves so the next round parks us on
                        # the timer.
                        self._notify_engine()
                    return progress
                if self._stop_event.wait(wait):
                    return progress
        budget = (self.pump_budget if not self.pacing_s and (
            self._cooperative or self.produce_nonblocking) else 1)
        starved = False
        items: List[bytes] = []
        try:
            if not self._exhausted:
                drawn = self.produce_many(budget)
                if drawn is None:
                    draws = budget  # no bulk draw: item by item
                else:
                    items = drawn
                    # A short draw decides nothing: one produce() tells
                    # "nothing right now" from end of input.
                    draws = 1 if len(items) < budget else 0
                for _ in range(draws):
                    item = self.produce()
                    if item is None:
                        self._exhausted = True
                        break
                    if not item:
                        starved = True  # nothing available right now (receivers)
                        break
                    items.append(item)
        finally:
            # Parked even when a produce() raised mid-draw: pump()'s error
            # handler delivers the items before it, as per-item emits did.
            if items:
                self._pending = self._non_empty(items)
        queued = bool(items)
        if queued:
            self._flush_pending()
        if self._exhausted and not self._pending:
            # A blocking produce() that stop() ended returns None too, and
            # stopping never closes a stream.
            if self.propagate_eof and not self._stop_event.is_set():
                self._close_output()
            self._complete()
            return True
        if starved and not self._pending and self._starved_wakeup_armed():
            return progress or queued
        self._notify_engine()  # stay scheduled until exhausted
        return True

    def _starved_wakeup_armed(self) -> bool:
        """True when new input re-marks this source with the engine itself.

        A source whose ``produce`` came up empty normally re-notifies the
        engine to be looked at again next round.  One whose arrivals raise
        their own wake-up (a receiver hook, a selector-parked socket)
        returns True here and is left alone until then, instead of costing
        an empty look — for a socket, an ``EAGAIN`` syscall — per round.
        """
        return False

    def _close_output_after_error(self) -> None:
        self._close_output()

    def wants_input_pump(self) -> bool:
        if self.pacing_s:
            return _monotonic() >= self._next_due
        return True

    def next_due_s(self) -> "Optional[float]":
        if self.pacing_s and not self._finished.is_set():
            return self._next_due
        return None

    def _record_emit_batch(self, batch, nbytes: int) -> None:
        self._last_emitted = batch[-1]
        self.items_produced += len(batch)
        self.stats.record_output_batch(
            nbytes, len(batch), packets=len(batch) if self.frame_output else 0)
        if self.pacing_s:
            # Each unit advances the pacing deadline, on an absolute
            # schedule (due += interval), not relative to the emit instant:
            # deadlines don't drift with scheduler latency, and sources
            # started together stay phase-aligned so one timer tick pumps
            # the whole batch.
            base = self._next_due if self._next_due > 0.0 else _monotonic()
            self._next_due = base + self.pacing_s * len(batch)


class IterableSource(SourceEndPoint):
    """A source that drains a Python iterable of byte chunks/packets."""

    type_name = "iterable-source"

    #: Iterating is assumed non-blocking, so the event engine can pump this
    #: source cooperatively — N paced streams need no N sleeping threads —
    #: and its threaded step can draw a batch of items before writing.
    cooperative_capable = True
    produce_nonblocking = True

    def __init__(self, items: Iterable[bytes], name: Optional[str] = None,
                 frame_output: bool = False, pacing_s: float = 0.0) -> None:
        super().__init__(name=name, frame_output=frame_output, pacing_s=pacing_s)
        # Ends — for good — at a None item as at exhaustion: the two mean
        # the same to produce()'s callers.  (A takewhile stays stopped.)
        self._iterator: Iterator[bytes] = takewhile(_is_not_none, items)

    def produce(self) -> Optional[bytes]:
        return next(self._iterator, None)

    def produce_many(self, max_items: int) -> List[bytes]:
        """Draw up to ``max_items`` items at C speed, whatever the iterable.

        The draw ends early at an empty item ("nothing right now"; the
        item is dropped, as per-item draws drop it) and where the stream
        ends, and never pulls an item past the one that ended it.  If the
        iterator raises, the items drawn before it are returned and the
        error surfaces from the next draw instead.
        """
        items: List[bytes] = []
        try:
            items.extend(islice(takewhile(bool, self._iterator), max_items))
        except Exception as exc:  # noqa: BLE001 - re-raised by the next draw
            self._iterator = _raising(exc)
        return items


#: ``item is not None``, called from C by the source's ``takewhile``.
_is_not_none = partial(is_not, None)


def _raising(error: BaseException) -> Iterator[bytes]:
    """An iterator whose first draw raises ``error`` (and then ends)."""
    raise error
    yield  # pragma: no cover - makes this a generator


class CallableSource(SourceEndPoint):
    """A source that repeatedly calls a function until it returns None."""

    type_name = "callable-source"

    def __init__(self, callback: SourceCallable, name: Optional[str] = None,
                 frame_output: bool = False, pacing_s: float = 0.0) -> None:
        super().__init__(name=name, frame_output=frame_output, pacing_s=pacing_s)
        self._callback = callback

    def produce(self) -> Optional[bytes]:
        return self._callback()


class SocketSource(SourceEndPoint):
    """Reads raw bytes from a connected stream (EndPointSocketReader).

    Accepts a connected TCP ``socket.socket`` or any transport-layer
    :class:`~repro.transport.base.StreamConnection` — the endpoint is built
    on the latter; a raw socket is wrapped on the way in.  ``recv_timeout``
    bounds each blocking read (it exists so the worker can observe a stop
    request, not for liveness): peer close is end-of-stream the moment it
    happens, and :meth:`stop` half-closes the reading side so a parked
    ``recv`` returns immediately instead of burning out its poll cycle.
    """

    type_name = "socket-source"

    def __init__(self, sock, name: Optional[str] = None,
                 recv_size: int = 8192,
                 recv_timeout: Optional[float] = 0.5) -> None:
        from ..transport.base import TransportTimeoutError
        from ..transport.udp import TcpStreamConnection

        super().__init__(name=name, frame_output=False)
        if recv_timeout is not None and recv_timeout <= 0:
            raise ValueError("recv_timeout must be positive (or None)")
        self._conn = (TcpStreamConnection(sock)
                      if isinstance(sock, socket.socket) else sock)
        self._timeout_error = TransportTimeoutError
        self.recv_size = recv_size
        self.recv_timeout = recv_timeout

    def produce(self) -> Optional[bytes]:
        while not self._stop_event.is_set():
            try:
                data = self._conn.recv(self.recv_size,
                                       timeout=self.recv_timeout)
            except self._timeout_error:
                continue
            return data if data else None
        return None

    def stop(self, timeout: float = 5.0) -> None:
        # Unblock a worker parked in recv() before joining it, so stopping
        # costs one wakeup rather than a full recv_timeout poll cycle.
        self._stop_event.set()
        unblock = getattr(self._conn, "unblock", None)
        if callable(unblock):
            unblock()
        super().stop(timeout=timeout)

    def on_stop(self) -> None:
        self._conn.close()


class SinkEndPoint(EndPoint):
    """Reads data from the chain and delivers it to an external consumer.

    Subclasses implement :meth:`consume` — or, with a cheaper bulk path,
    :meth:`consume_many` alone.  When ``expect_frames`` is True the sink
    takes packets — its DIS says so, and a byte writer's frames are
    de-framed on the hop — and each item is one packet; otherwise items
    are raw chunks.
    """

    type_name = "sink-endpoint"

    def __init__(self, name: Optional[str] = None, expect_frames: bool = False) -> None:
        super().__init__(name=name, propagate_eof=False)
        self.expect_frames = self.dis.packets = expect_frames
        self.items_consumed = 0
        self.eof_seen = threading.Event()

    def consume(self, data: bytes) -> None:
        """Handle one chunk (or one packet when ``expect_frames`` is True)."""
        raise NotImplementedError

    def consume_many(self, items) -> None:
        """Handle a whole batch of chunks/packets (the batched consume).

        The default delivers the batch one :meth:`consume` call at a time;
        sinks with a genuinely cheaper bulk path — a vectored transport
        send, a pure discard — override this.
        """
        for data in items:
            self.consume(data)
            self.items_consumed += 1

    def transform_chunks(self, chunks, outputs) -> None:
        """Deliver a whole input batch through :meth:`consume_many`, so a
        sink with a bulk consume (the transport sink's vectored send)
        receives the full budget of packets in one call."""
        if self.expect_frames:
            self.stats.record_input_batch(0, len(chunks), packets=len(chunks))
        # A consume failing mid-batch was still *given* every chunk, so the
        # batch is accounted whole either way.
        self.consume_many(chunks)

    def finalize(self):
        self.eof_seen.set()
        return None

    def wait_for_eof(self, timeout: Optional[float] = None) -> bool:
        """Block until the chain's end-of-stream reaches this sink."""
        return self.eof_seen.wait(timeout=timeout)


class CollectorSink(SinkEndPoint):
    """Accumulates everything that reaches the end of the chain.

    With ``expect_frames=True`` the collected items are packets; otherwise
    the raw byte chunks are concatenated by :meth:`data`.
    """

    type_name = "collector-sink"

    def __init__(self, name: Optional[str] = None, expect_frames: bool = False) -> None:
        super().__init__(name=name, expect_frames=expect_frames)
        self._lock = threading.Lock()
        self._items: List[bytes] = []

    def consume(self, data: bytes) -> None:
        if not isinstance(data, bytes):
            data = bytes(data)  # materialise views: collected items outlive
        with self._lock:       # the writer's buffers
            self._items.append(data)

    def items(self) -> List[bytes]:
        """The collected chunks/packets, in arrival order."""
        with self._lock:
            return list(self._items)

    def data(self) -> bytes:
        """All collected bytes concatenated."""
        with self._lock:
            return b"".join(self._items)

    def clear(self) -> None:
        with self._lock:
            self._items.clear()


class CallableSink(SinkEndPoint):
    """Delivers each chunk/packet to a callback (e.g. ``DatagramChannel.send``)."""

    type_name = "callable-sink"

    def __init__(self, callback: SinkCallable, name: Optional[str] = None,
                 expect_frames: bool = False) -> None:
        super().__init__(name=name, expect_frames=expect_frames)
        self._callback = callback

    def consume(self, data: bytes) -> None:
        # External callbacks are written against real ``bytes``.
        self._callback(data if isinstance(data, bytes) else bytes(data))


class SocketSink(SinkEndPoint):
    """Writes raw bytes to a connected stream (EndPointSocketWriter).

    Accepts a connected TCP ``socket.socket`` or any transport-layer
    :class:`~repro.transport.base.StreamConnection`.  End-of-stream
    half-closes the sending side so the peer sees EOF while the connection
    object stays usable for its owner.
    """

    type_name = "socket-sink"

    #: The blocking send can stall on the peer, so never pump this
    #: cooperatively.
    cooperative_capable = False

    def __init__(self, sock, name: Optional[str] = None) -> None:
        from ..transport.udp import TcpStreamConnection

        super().__init__(name=name, expect_frames=False)
        self._conn = (TcpStreamConnection(sock)
                      if isinstance(sock, socket.socket) else sock)

    def consume(self, data: bytes) -> None:
        self._conn.send(data)

    def on_stop(self) -> None:
        self._conn.close_sending()


class NullSink(SinkEndPoint):
    """Discards everything (useful for throughput benchmarks)."""

    type_name = "null-sink"

    def consume_many(self, items) -> None:
        self.items_consumed += len(items)
