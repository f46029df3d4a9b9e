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
from itertools import islice
from time import monotonic as _monotonic
from typing import Callable, Iterable, Iterator, List, Optional

from ..streams import (
    HEADER_SIZE,
    BrokenStreamError,
    FrameDecoder,
    NotConnectedError,
    StreamClosedError,
    encode_frame,
    encode_frame_batch,
)
from .filter import Filter

#: The item types that go on the wire by reference; a drawn batch is
#: screened against them in one C-speed pass (as in the stream buffer).
_BYTES_LIKE_TYPES = frozenset((bytes, bytearray, memoryview))

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
    or ``None`` at end of input.  The endpoint's DIS is unused.
    """

    type_name = "source-endpoint"

    #: Most sources block on external input (sockets, queues), so by default
    #: every execution engine gives them a dedicated thread.  Sources whose
    #: ``produce`` is non-blocking (:class:`IterableSource`) opt back in to
    #: cooperative pumping; pacing then becomes a scheduler deadline rather
    #: than a sleeping thread.
    cooperative_capable = False

    #: Whether ``produce`` returns without ever blocking *in the threaded
    #: run loop as well*.  Only such sources may accumulate a multi-item
    #: batch before writing: a blocking source would stall in ``produce``
    #: while already-produced items sit undelivered in the batch.  (This is
    #: stricter than ``cooperative_capable`` — a transport source polls
    #: non-blockingly when cooperative but blocks in its dedicated thread.)
    produce_nonblocking = False

    def __init__(self, name: Optional[str] = None, frame_output: bool = False,
                 pacing_s: float = 0.0, close_on_eof: bool = True) -> None:
        super().__init__(name=name, propagate_eof=close_on_eof)
        if pacing_s < 0:
            raise ValueError("pacing_s must be non-negative")
        self.frame_output = frame_output
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

        Returning None (the default) makes the run loop accumulate its
        batch through per-item :meth:`produce` calls.  Sources that can
        draw a whole batch in one go (:class:`IterableSource`, a
        cooperative ``TransportSource``) override this.  A short or empty
        return does *not* signal exhaustion — the next :meth:`produce`
        call decides that.  The returned list is the caller's to extend.
        """
        return None

    def _encode(self, item: bytes) -> bytes:
        """The wire form of one produced item (framed or raw bytes)."""
        if self.frame_output:
            return encode_frame(item)
        if isinstance(item, (bytes, bytearray, memoryview)):
            return item  # queued by reference, per the buffer's contract
        return bytes(item)

    def _encode_many(self, items: List[bytes]) -> List[bytes]:
        """The wire forms of a drawn batch, in one pass.

        Empty items are skipped, as per-item draws skip them; the dominant
        all-bytes unframed case passes the items through by reference.
        """
        if not all(items):
            items = [item for item in items if len(item)]
        if self.frame_output:
            return encode_frame_batch(items)
        if _BYTES_LIKE_TYPES.issuperset(map(type, items)):
            return items
        return [item if isinstance(item, (bytes, bytearray, memoryview))
                else bytes(item) for item in items]

    def _deliver_batch(self, batch: List[bytes]) -> None:
        """Write an accumulated batch downstream with per-batch accounting."""
        self._record_emit_batch(batch, self.dos.write_many(batch))
        self._notify_activity()

    def _run(self) -> None:  # replaces the read loop: sources have no input
        try:
            self.on_start()
            # Only a never-blocking, unpaced source may accumulate a batch
            # before writing; this part of the decision is static, so the
            # hold check below is only paid when batching is possible.
            batch_capable = (not self.pacing_s and self.pump_budget > 1
                             and self.produce_nonblocking)
            exhausted = False
            while not self._stop_event.is_set() and not exhausted:
                item = self.produce()
                if item is None:
                    break
                if not item:
                    continue
                if batch_capable:
                    with self._hold_lock:
                        hold_armed = self._boundary_predicate is not None
                else:
                    hold_armed = True  # forces the per-item path below
                if hold_armed:
                    data = self._encode(item)
                    # Hold on the wire unit; _boundary_unit unwraps the
                    # framing so predicates see the produced item, as in
                    # cooperative mode.
                    self._maybe_hold(data)
                    self.dos.write(data)
                    self._last_emitted = data
                    self.items_produced += 1
                    self.stats.record_output(len(data),
                                             packets=1 if self.frame_output else 0)
                    self._notify_activity()
                    if self.pacing_s:
                        self._stop_event.wait(self.pacing_s)
                    continue
                # Unpaced, unheld bulk path: accumulate up to a budget of
                # items and deliver them in one batched write, so the DOS
                # lock and the downstream wakeup are paid once per batch.
                batch = [self._encode(item)]
                try:
                    more = (self.produce_many(self.pump_budget - 1)
                            if self.pump_budget > 1 else None)
                    if more is not None:
                        # Bulk draw: the slice is encoded in one pass.
                        if more:
                            batch.extend(self._encode_many(more))
                    else:
                        while (len(batch) < self.pump_budget
                               and not self._stop_event.is_set()):
                            item = self.produce()
                            if item is None:
                                exhausted = True
                                break
                            if not item:
                                break
                            batch.append(self._encode(item))
                except Exception:
                    # produce() failing mid-batch must not discard the items
                    # before it — the per-item path delivered each of those
                    # before erroring, and so do we.
                    try:
                        self._deliver_batch(batch)
                    except Exception:  # noqa: BLE001 - keep the original error
                        pass
                    raise
                self._deliver_batch(batch)
            if not self._stop_event.is_set() and self.propagate_eof:
                self._close_output()
        except (StreamClosedError, BrokenStreamError, NotConnectedError) as exc:
            self.error = exc
            self.stats.record_error()
        except Exception as exc:  # noqa: BLE001 - surfaced via self.error
            self.error = exc
            self.stats.record_error()
            self._close_output()
        finally:
            try:
                self.on_stop()
            finally:
                self._finished.set()
                self._notify_activity()

    # ------------------------------------------------------ cooperative pump

    def _pump_input(self, progress: bool) -> bool:
        """The source variant of a pump step: produce and emit items.

        Only used when a subclass declares ``cooperative_capable = True``
        (its ``produce`` must never block).  Pacing is honoured through
        :meth:`next_due_s` — the engine simply does not pump the source
        again until the deadline — so a paced source costs a timer entry
        instead of a sleeping thread.

        An unpaced source produces up to a budget of items per step and
        flushes them as one batch, so scheduler round-trips amortize; a
        paced source still moves one item per deadline.
        """
        if self.pacing_s and _monotonic() < self._next_due:
            if progress:
                # The flush above advanced the pacing deadline; re-mark
                # ourselves so the next round parks us on the timer.
                self._notify_engine()
            return progress
        budget = 1 if self.pacing_s else self.pump_budget
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
            # handler flushes the items before it, as per-item emits did.
            if items:
                self._pending.extend(self._encode_many(items))
        queued = bool(items)
        if queued:
            self._flush_pending()
        if self._exhausted and not self._pending:
            if self.propagate_eof:
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

    def _record_emit(self, data: bytes) -> None:
        self._last_emitted = data
        self.items_produced += 1
        self.stats.record_output(len(data),
                                 packets=1 if self.frame_output else 0)
        if self.pacing_s:
            # Absolute schedule (due += interval), not relative to the emit
            # instant: deadlines don't drift with scheduler latency, and
            # sources started together stay phase-aligned so one timer tick
            # pumps the whole batch.
            base = self._next_due if self._next_due > 0.0 else _monotonic()
            self._next_due = base + self.pacing_s

    def _record_emit_batch(self, batch, nbytes: int) -> None:
        if self.pacing_s:
            # Per unit: each emit advances the pacing deadline.
            for data in batch:
                self._record_emit(data)
            return
        self._last_emitted = batch[-1]
        self.items_produced += len(batch)
        self.stats.record_output_batch(
            nbytes, len(batch), packets=len(batch) if self.frame_output else 0)

    def _boundary_unit(self, unit: bytes) -> bytes:
        """Boundary predicates see the produced item, not its framing."""
        if self.frame_output and len(unit) >= HEADER_SIZE:
            return unit[HEADER_SIZE:]
        return unit


class IterableSource(SourceEndPoint):
    """A source that drains a Python iterable of byte chunks/packets."""

    type_name = "iterable-source"

    #: Iterating is assumed non-blocking, so the event engine can pump this
    #: source cooperatively — N paced streams need no N sleeping threads —
    #: and the threaded run loop can batch items before writing.
    cooperative_capable = True
    produce_nonblocking = True

    def __init__(self, items: Iterable[bytes], name: Optional[str] = None,
                 frame_output: bool = False, pacing_s: float = 0.0) -> None:
        super().__init__(name=name, frame_output=frame_output, pacing_s=pacing_s)
        # Ends — for good — at a None item as at exhaustion: the two mean
        # the same to produce()'s callers.
        self._iterator: Iterator[bytes] = iter(iter(items).__next__, None)

    def produce(self) -> Optional[bytes]:
        return next(self._iterator, None)

    def produce_many(self, max_items: int) -> List[bytes]:
        """Draw up to ``max_items`` items at C speed, whatever the iterable.

        The draw ends early at an empty item ("nothing right now"; the
        item is dropped, as per-item draws drop it) and where the stream
        ends.  If the iterator raises, the items drawn before it are
        returned and the error surfaces from the next draw instead.
        """
        items: List[bytes] = []
        try:
            items.extend(islice(iter(self._iterator.__next__, b""), max_items))
        except Exception as exc:  # noqa: BLE001 - re-raised by the next draw
            self._iterator = _raising(exc)
        return items


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

    Subclasses implement :meth:`consume`.  When ``expect_frames`` is True the
    sink deframes the byte stream and calls :meth:`consume` once per packet;
    otherwise it is called with raw chunks.
    """

    type_name = "sink-endpoint"

    def __init__(self, name: Optional[str] = None, expect_frames: bool = False) -> None:
        super().__init__(name=name, propagate_eof=False)
        self.expect_frames = expect_frames
        self._sink_decoder = FrameDecoder()
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

    def transform(self, chunk: bytes):
        if self.expect_frames:
            for packet in self._sink_decoder.feed(chunk):
                self.stats.record_input(0, packets=1)
                self.consume(packet)
                self.items_consumed += 1
        else:
            self.consume(chunk)
            self.items_consumed += 1
        return None

    def transform_chunks(self, chunks, outputs) -> None:
        """Deliver a whole input batch through :meth:`consume_many`.

        Deframing happens across the batch first, so a sink with a bulk
        consume (the transport sink's vectored send) receives the full
        budget of packets in one call.  Stats match the per-chunk path.
        """
        if self.expect_frames:
            packets = self._deframe_batch(self._sink_decoder, chunks)
            if packets:
                self.stats.record_input_batch(0, len(packets),
                                              packets=len(packets))
                self.consume_many(packets)
        else:
            try:
                self.consume_many(chunks)
            except Exception:
                # The whole batch was handed to consume_many at once, so
                # it is accounted at once (a consume failing mid-batch was
                # still *given* every chunk).
                self._batch_in_bytes += sum(map(len, chunks))
                self._batch_in_chunks += len(chunks)
                raise

    def finalize(self):
        self.eof_seen.set()
        return None

    def wait_for_eof(self, timeout: Optional[float] = None) -> bool:
        """Block until the chain's end-of-stream reaches this sink."""
        return self.eof_seen.wait(timeout=timeout)

    def is_idle(self) -> bool:
        if self.expect_frames and self._sink_decoder.has_partial_frame():
            return False
        return super().is_idle()


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
    """Delivers each chunk/packet to a callback (e.g. ``WirelessLAN.send``)."""

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

    def consume(self, data: bytes) -> None:  # noqa: D401 - intentionally empty
        pass

    def consume_many(self, items) -> None:
        self.items_consumed += len(items)
