"""Detachable streams — the paper's core mechanism.

``DetachableOutputStream`` (DOS) and ``DetachableInputStream`` (DIS) are the
Python counterparts of the paper's extensions of ``java.io.PipedOutputStream``
and ``java.io.PipedInputStream``.  A DOS/DIS pair behaves like an ordinary
pipe — data written to the DOS is buffered at the DIS and retrieved with
``read()`` — but, unlike an ordinary pipe, a connection can be

* **paused**: new writes block, in-flight data is drained from the DIS
  buffer, and both halves are marked disconnected ("switching" in the
  paper's terminology), then
* **reconnected**: either half can be attached to a *different* partner and
  the flow of data resumes.

This is the "glue" that lets a ControlThread splice a new filter into a
running data stream without disturbing the stream's endpoints: the paper's
``add()`` does ``Left.DOS.pause(); Left.DOS.reconnect(F.DIS);
Right.DIS.reconnect(F.DOS)``, and this module supports exactly that call
sequence (see :mod:`repro.core.control_thread`).

State model
-----------

Each half is in one of three externally visible states:

``connected``    a live partner exists; reads and writes flow.
``detached``     no partner (freshly constructed, or paused/disconnected);
                 writes block until a reconnect (or raise after a timeout),
                 reads block until data arrives via a new partner.
``closed``       the stream is finished for good; writes raise, reads drain
                 the residual buffer and then return ``b""``.

The paper exposes the transient pause state through a ``swflag`` ("switch
flag"); here it is the :attr:`switching` property.
"""

from __future__ import annotations

import threading
from time import monotonic as _monotonic
from typing import Callable, Iterable, List, Optional

from .buffer import DEFAULT_CAPACITY, StreamBuffer
from .exceptions import (
    AlreadyConnectedError,
    NotConnectedError,
    StreamClosedError,
    StreamTimeoutError,
)

#: Default time (seconds) a write will wait for a paused stream to be
#: reconnected before raising ``NotConnectedError``.  ``None`` would wait
#: forever; a finite default keeps runaway tests from hanging.
DEFAULT_RECONNECT_WAIT = 30.0

#: Default time the pause protocol waits for the DIS buffer to drain.
DEFAULT_DRAIN_TIMEOUT = 30.0

#: A stream-event subscriber: a zero-argument callable invoked after the
#: stream's externally observable state changed (data arrived, the source
#: closed, the half was reattached or closed).  Used by event-driven
#: execution engines (:mod:`repro.runtime.event`) as a readiness signal.
StreamListener = Callable[[], None]

_counter_lock = threading.Lock()
_counter = 0


def _any_payload(batch) -> bool:
    """True when any item in ``batch`` carries bytes (C-speed scan)."""
    try:
        return any(map(len, batch))
    except TypeError:
        # Unsized items get materialised by the buffer; treat as payload.
        return True


class _ListenerMixin:
    """Shared subscribe/unsubscribe plumbing for both stream halves."""

    _listeners: List[StreamListener]

    def subscribe(self, listener: StreamListener) -> None:
        """Register ``listener`` to be called on stream events.

        Listeners must be fast and must not call back into the stream; they
        are fired outside the stream's internal lock, so a listener observes
        the post-event state but may race with further events.  Registering
        the same listener twice is a no-op.
        """
        if listener is None:
            raise ValueError("listener must be callable, not None")
        # Equality, not identity: each `obj.method` access creates a fresh
        # bound-method object, and bound methods compare equal by (func,
        # self) — the semantics re-subscription and unsubscribe need.
        if listener not in self._listeners:
            self._listeners.append(listener)

    def unsubscribe(self, listener: StreamListener) -> None:
        """Remove a previously registered listener (missing is a no-op)."""
        self._listeners = [cb for cb in self._listeners if cb != listener]

    def _fire_listeners(self) -> None:
        if not self._listeners:
            return  # keep the unsubscribed (threaded-engine) path free
        for listener in list(self._listeners):
            try:
                listener()
            except Exception:  # noqa: BLE001 - listeners must not break the pipe
                pass


def _next_id() -> int:
    global _counter
    with _counter_lock:
        _counter += 1
        return _counter


class DetachableOutputStream(_ListenerMixin):
    """The writing half of a detachable stream connection.

    Data written here is delivered to the connected
    :class:`DetachableInputStream`'s buffer via its ``receive`` method, just
    as ``PipedOutputStream.write`` calls ``PipedInputStream.receive`` in the
    JDK.

    Subscribers registered with :meth:`subscribe` are notified when the DOS
    is (re)attached to a sink and when it is closed — the signals an
    event-driven pump needs to retry output that was parked across a splice.
    """

    def __init__(self, name: Optional[str] = None,
                 reconnect_wait: Optional[float] = DEFAULT_RECONNECT_WAIT) -> None:
        self.name = name or f"DOS-{_next_id()}"
        self._lock = threading.RLock()
        self._state_changed = threading.Condition(self._lock)
        self._sink: Optional[DetachableInputStream] = None
        self._connected = False
        self._switching = False
        self._closed = False
        self._reconnect_wait = reconnect_wait
        self._bytes_written = 0
        self._listeners: List[StreamListener] = []

    # ------------------------------------------------------------ properties

    @property
    def sink(self) -> Optional["DetachableInputStream"]:
        """The DIS this DOS currently feeds, or ``None`` when detached."""
        return self._sink

    @property
    def connected(self) -> bool:
        return self._connected

    @property
    def switching(self) -> bool:
        """True while the stream is paused awaiting a reconnect (``swflag``)."""
        return self._switching

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def bytes_written(self) -> int:
        """Total bytes ever written through this DOS (across reconnects)."""
        return self._bytes_written

    # --------------------------------------------------------------- connect

    def connect(self, dis: "DetachableInputStream") -> None:
        """Associate this output stream with ``dis``.

        Both halves must be unconnected.  This mirrors the paper's
        ``connect()``: it sets ``DOS.sink`` and ``DIS.source`` and flips the
        connected flags on both sides.
        """
        if dis is None:
            raise ValueError("cannot connect to None")
        with self._lock:
            if self._closed:
                raise StreamClosedError(f"{self.name}: closed")
            if self._connected or dis.connected:
                raise AlreadyConnectedError(
                    f"{self.name}: already connected (DOS connected={self._connected}, "
                    f"DIS connected={dis.connected})"
                )
            self._attach(dis)
        self._fire_listeners()

    def reconnect(self, dis: "DetachableInputStream") -> None:
        """Attach this (paused or fresh) DOS to a new DIS.

        Follows the paper's ``reconnect()``: it is an error if either half is
        still in the connected state — ``pause()`` must have completed first.
        On success both switch flags are cleared and any threads blocked on
        either half are woken.
        """
        if dis is None:
            raise ValueError("cannot reconnect to None")
        with self._lock:
            if self._closed:
                raise StreamClosedError(f"{self.name}: closed")
            if self._connected or dis.connected:
                raise AlreadyConnectedError(
                    f"{self.name}: reconnect while still connected "
                    f"(DOS connected={self._connected}, DIS connected={dis.connected})"
                )
            self._attach(dis)
        self._fire_listeners()

    def _attach(self, dis: "DetachableInputStream") -> None:
        self._sink = dis
        self._connected = True
        self._switching = False
        dis._on_attached(self)
        self._state_changed.notify_all()

    def detach(self) -> Optional["DetachableInputStream"]:
        """Drop the current partner without pausing or draining.

        Intended for teardown paths and tests; the composition protocol uses
        :meth:`pause` + :meth:`reconnect` instead.  Returns the former sink.
        """
        with self._lock:
            sink = self._sink
            if sink is not None:
                sink._on_detached()
            self._sink = None
            self._connected = False
            self._switching = False
            self._state_changed.notify_all()
            return sink

    # ----------------------------------------------------------------- write

    def write(self, data: bytes, timeout: Optional[float] = None) -> int:
        """Write ``data`` to the connected DIS, blocking through pauses.

        If the stream is currently paused (switching) or momentarily
        detached, the call blocks until a reconnect occurs, for at most
        ``timeout`` seconds (default: the stream's ``reconnect_wait``).
        Raises :class:`StreamClosedError` if the stream has been closed and
        :class:`NotConnectedError` if no partner appears in time.
        """
        if data is None:
            raise ValueError("data must be bytes, not None")
        if not data:
            return 0
        wait = self._reconnect_wait if timeout is None else timeout
        # The delivery into the sink's buffer happens while holding this
        # DOS's lock so that a concurrent pause() (which also takes the lock)
        # cannot observe an empty buffer *between* our connectivity check and
        # our receive() call — pause() therefore always drains every byte of
        # an in-flight write before declaring the pipe quiescent.
        with self._lock:
            sink = self._wait_for_sink(wait)
            written = sink.receive(data)
            self._bytes_written += written
        return written

    def write_many(self, chunks: Iterable[bytes], timeout: Optional[float] = None) -> int:
        """Write a batch of chunks under one lock/connectivity round-trip.

        Each chunk is delivered to the sink exactly as a :meth:`write` of
        it would be (blocking through pauses and buffer back-pressure, with
        the same error semantics), but connectivity is checked and the DOS
        and buffer locks are taken once per *batch* rather than once per
        chunk — the hot-path saving that makes multi-chunk filter pumps
        cheap.  The list stays the caller's (the sink's buffer queues its
        own copy of it).  Returns the total number of bytes written, as
        counted by the sink — callers account from it rather than
        measuring the batch again.
        """
        if chunks is None:
            raise ValueError("chunks must be an iterable of bytes, not None")
        if not isinstance(chunks, (list, tuple)):
            chunks = list(chunks)
        # Empties are skipped by the buffer itself; only an effectively
        # empty batch short-circuits here (before any reconnect wait).
        batch = chunks
        if not batch or not _any_payload(batch):
            return 0
        wait = self._reconnect_wait if timeout is None else timeout
        # Delivery happens under this DOS's lock for the same reason as in
        # write(): a concurrent pause() must drain every byte of an
        # in-flight batch before declaring the pipe quiescent.
        with self._lock:
            sink = self._wait_for_sink(wait)
            # Account by the sink's own counter delta so chunks delivered
            # before a mid-batch failure (reader torn down) are still
            # counted, as they would be by per-chunk write() calls.
            before = sink.bytes_received
            try:
                written = sink.receive_many(batch)
            finally:
                self._bytes_written += sink.bytes_received - before
        return written

    def try_write(self, data: bytes) -> bool:
        """Deliver ``data`` to the sink without ever blocking.

        Returns ``False`` when the stream is momentarily detached (paused
        for a splice, or not yet connected) — the caller should retain the
        data and retry after a reattach notification (see :meth:`subscribe`).
        On success the bytes are force-delivered into the sink's buffer,
        overshooting its capacity if necessary, so a single-threaded
        cooperative pump can never deadlock against its own downstream;
        memory is bounded by the scheduler's high-water-mark gating rather
        than by blocking.  Raises :class:`StreamClosedError` once closed.
        """
        if data is None:
            raise ValueError("data must be bytes, not None")
        if not data:
            return True
        with self._lock:
            if self._closed:
                raise StreamClosedError(f"{self.name}: write on closed stream")
            sink = self._sink
            if not self._connected or sink is None:
                return False
            written = sink.receive(data, force=True)
            self._bytes_written += written
        return True

    def try_write_many(self, chunks: Iterable[bytes]) -> bool:
        """Deliver a batch of chunks without ever blocking (all-or-nothing).

        The batch counterpart of :meth:`try_write`: returns ``False`` —
        with *no* chunk delivered — when the stream is momentarily
        detached, so the caller can retain the whole batch and retry after
        a reattach notification.  On success every chunk is force-delivered
        into the sink's buffer under a single lock round-trip.  Raises
        :class:`StreamClosedError` once closed.
        """
        if chunks is None:
            raise ValueError("chunks must be an iterable of bytes, not None")
        if not isinstance(chunks, (list, tuple)):
            chunks = list(chunks)
        batch = chunks
        if not batch or not _any_payload(batch):
            return True
        with self._lock:
            if self._closed:
                raise StreamClosedError(f"{self.name}: write on closed stream")
            sink = self._sink
            if not self._connected or sink is None:
                return False
            written = sink.receive_many(batch, force=True)
            self._bytes_written += written
        return True

    def _wait_for_sink(self, timeout: Optional[float]) -> "DetachableInputStream":
        """Wait (under the lock) until the DOS has a live sink."""
        deadline = None if timeout is None else _monotonic() + timeout
        while True:
            if self._closed:
                raise StreamClosedError(f"{self.name}: write on closed stream")
            if self._connected and self._sink is not None:
                return self._sink
            remaining = None
            if deadline is not None:
                remaining = deadline - _monotonic()
                if remaining <= 0:
                    raise NotConnectedError(
                        f"{self.name}: not connected (timed out waiting for reconnect)"
                    )
            if not self._state_changed.wait(remaining):
                raise NotConnectedError(
                    f"{self.name}: not connected (timed out waiting for reconnect)"
                )

    def flush(self) -> None:
        """Force buffered bytes to the reader and notify waiting readers.

        The DIS buffers everything immediately, so flush only needs to nudge
        readers — mirroring the notification performed by the paper's
        ``flush()``.
        """
        with self._lock:
            sink = self._sink
        if sink is not None:
            sink._notify_readers()

    # ----------------------------------------------------------------- pause

    def pause(self, drain_timeout: Optional[float] = DEFAULT_DRAIN_TIMEOUT) -> None:
        """Pause the connection in preparation for a reconnect.

        Reproduces the paper's ``DOS.pause()``:

        1. set the switch flag and clear ``connected`` on the DOS side, so no
           new data enters the pipe;
        2. wait until the DIS buffer has been drained by its reader;
        3. set the switch flag and clear ``connected`` on the DIS side.

        After ``pause()`` returns, both halves are safe to ``reconnect()`` to
        new partners and no byte has been lost or left in flight.
        Pausing an already-paused or never-connected stream is a no-op.
        """
        with self._lock:
            sink = self._sink
            if self._closed:
                raise StreamClosedError(f"{self.name}: pause on closed stream")
            if not self._switching:
                self._switching = True
                self._connected = False
                self._state_changed.notify_all()
        if sink is None:
            return
        if not sink.wait_until_drained(drain_timeout):
            # Restore the connection so the caller can retry or tear down.
            with self._lock:
                self._switching = False
                self._connected = True
                self._state_changed.notify_all()
            raise StreamTimeoutError(
                f"{self.name}: DIS buffer failed to drain within {drain_timeout}s"
            )
        sink._on_paused()
        with self._lock:
            # The pair is now fully detached from each other.
            self._sink = None
            self._state_changed.notify_all()

    # ----------------------------------------------------------------- close

    def close(self) -> None:
        """Close the stream permanently, propagating end-of-stream.

        The connected DIS (if any) will return its residual buffered data and
        then ``b""`` from ``read()``.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sink = self._sink
            self._sink = None
            self._connected = False
            self._switching = False
            self._state_changed.notify_all()
        if sink is not None:
            sink._on_source_closed()
        self._fire_listeners()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else (
            "connected" if self._connected else ("switching" if self._switching else "detached"))
        return f"<DetachableOutputStream {self.name} {state}>"


class DetachableInputStream(_ListenerMixin):
    """The reading half of a detachable stream connection.

    All data is buffered here (on the DIS side, as in the paper and in the
    JDK piped streams).  ``read()`` blocks while the connection is merely
    paused, and returns ``b""`` only once the writing side has been *closed*
    and the buffer drained.

    Subscribers registered with :meth:`subscribe` are notified when bytes
    arrive, when the source closes (end of stream), and when the DIS itself
    is closed — the readiness signals an event-driven pump needs instead of
    polling ``read()`` with a timeout.
    """

    def __init__(self, name: Optional[str] = None,
                 capacity: Optional[int] = DEFAULT_CAPACITY) -> None:
        self.name = name or f"DIS-{_next_id()}"
        self._buffer = StreamBuffer(capacity=capacity, name=f"{self.name}.buffer")
        self._lock = threading.RLock()
        self._state_changed = threading.Condition(self._lock)
        self._source: Optional[DetachableOutputStream] = None
        self._connected = False
        self._switching = False
        self._closed = False
        self._source_closed = False
        self._listeners: List[StreamListener] = []

    # ------------------------------------------------------------ properties

    @property
    def source(self) -> Optional[DetachableOutputStream]:
        """The DOS currently feeding this DIS, or ``None`` when detached."""
        return self._source

    @property
    def connected(self) -> bool:
        return self._connected

    @property
    def switching(self) -> bool:
        return self._switching

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def buffer(self) -> StreamBuffer:
        """The underlying byte buffer (exposed for statistics and tests)."""
        return self._buffer

    @property
    def bytes_received(self) -> int:
        return self._buffer.bytes_written

    @property
    def bytes_delivered(self) -> int:
        return self._buffer.bytes_read

    # --------------------------------------------------------------- connect

    def connect(self, dos: DetachableOutputStream) -> None:
        """Connect to ``dos``; delegates to ``DOS.connect`` as in the paper."""
        dos.connect(self)

    def reconnect(self, dos: DetachableOutputStream) -> None:
        """Reconnect to ``dos``; delegates to ``DOS.reconnect`` as in the paper."""
        dos.reconnect(self)

    def pause(self, drain_timeout: Optional[float] = DEFAULT_DRAIN_TIMEOUT) -> None:
        """Pause the connection; delegates to ``DOS.pause`` as in the paper."""
        with self._lock:
            source = self._source
        if source is None:
            # Nothing attached on the writing side: just mark ourselves paused.
            with self._lock:
                self._switching = True
                self._connected = False
                self._state_changed.notify_all()
            return
        source.pause(drain_timeout)

    # ------------------------------------------- callbacks from the DOS side

    def _on_attached(self, dos: DetachableOutputStream) -> None:
        with self._lock:
            if self._closed:
                raise StreamClosedError(f"{self.name}: closed")
            self._source = dos
            self._connected = True
            self._switching = False
            self._source_closed = False
            self._state_changed.notify_all()

    def _on_paused(self) -> None:
        with self._lock:
            self._switching = True
            self._connected = False
            self._source = None
            self._state_changed.notify_all()

    def _on_detached(self) -> None:
        with self._lock:
            self._connected = False
            self._source = None
            self._state_changed.notify_all()

    def _on_source_closed(self) -> None:
        with self._lock:
            self._source_closed = True
            self._connected = False
            self._source = None
            self._state_changed.notify_all()
        self._buffer.close_for_writing()
        self._fire_listeners()

    def _notify_readers(self) -> None:
        with self._lock:
            self._state_changed.notify_all()
        self._fire_listeners()

    # --------------------------------------------------------------- receive

    def receive(self, data: bytes, timeout: Optional[float] = None,
                force: bool = False) -> int:
        """Accept ``data`` from the writing side into the buffer.

        Called by :meth:`DetachableOutputStream.write`; exposed publicly so
        EndPoints and tests can inject data directly, exactly as the paper's
        ``DIS.receive()`` is callable from the DOS.  ``force=True`` bypasses
        the capacity bound (see :meth:`StreamBuffer.write`).
        """
        if self._closed:
            raise StreamClosedError(f"{self.name}: receive on closed stream")
        written = self._buffer.write(data, timeout=timeout, force=force)
        if written:
            self._fire_listeners()
        return written

    def receive_many(self, chunks: Iterable[bytes], timeout: Optional[float] = None,
                     force: bool = False) -> int:
        """Accept a batch of chunks from the writing side into the buffer.

        The batch counterpart of :meth:`receive`: one buffer lock
        acquisition queues every chunk, and subscribers are notified once
        per batch rather than once per chunk.
        """
        if self._closed:
            raise StreamClosedError(f"{self.name}: receive on closed stream")
        before = self._buffer.bytes_written
        try:
            written = self._buffer.write_chunks(chunks, timeout=timeout,
                                                force=force)
        except BaseException:
            # Chunks queued before a mid-batch failure are readable, so
            # subscribers must still hear about them.
            if self._buffer.bytes_written != before:
                self._fire_listeners()
            raise
        if written:
            self._fire_listeners()
        return written

    # ------------------------------------------------------------------ read

    def available(self) -> int:
        """Number of bytes that can be read without blocking."""
        return self._buffer.available()

    def read(self, max_bytes: int = 65536, timeout: Optional[float] = None) -> bytes:
        """Read up to ``max_bytes`` from the buffer.

        Blocks while the buffer is empty — including across a pause and
        reconnect — and returns ``b""`` only at true end-of-stream (the
        writer called ``close()`` and the buffer has drained, or this DIS was
        itself closed).  Raises :class:`StreamTimeoutError` when ``timeout``
        elapses first.
        """
        if self._closed and self._buffer.is_empty():
            return b""
        try:
            chunk = self._buffer.read(max_bytes, timeout=timeout)
        except StreamTimeoutError:
            if self._closed:
                return b""
            raise
        if chunk:
            # Buffer level dropped: wake subscribers (an event engine gates
            # upstream elements on this buffer's high-water mark).
            self._fire_listeners()
        return chunk

    def read_chunks(self, max_bytes: int = 65536, timeout: Optional[float] = None,
                    max_chunk: Optional[int] = None) -> "List[bytes]":
        """Read a batch of whole buffered chunks (see
        :meth:`StreamBuffer.read_chunks`).

        Blocks while the buffer is empty, exactly like :meth:`read`, and
        returns ``[]`` only at true end-of-stream.  ``max_chunk`` caps the
        size of each returned piece so transform units stay bounded.  The
        returned list is the caller's to keep or extend.
        """
        if self._closed and self._buffer.is_empty():
            return []
        try:
            chunks = self._buffer.read_chunks(max_bytes, timeout=timeout,
                                              max_chunk=max_chunk)
        except StreamTimeoutError:
            if self._closed:
                return []
            raise
        if chunks:
            # Buffer level dropped: wake subscribers (an event engine gates
            # upstream elements on this buffer's high-water mark).
            self._fire_listeners()
        return chunks

    def interrupt_read(self) -> None:
        """End a *blocked* :meth:`read` / :meth:`read_chunks` as if its
        timeout had just elapsed (see :meth:`StreamBuffer.interrupt_read`);
        a reader that is not blocked is unaffected."""
        self._buffer.interrupt_read()

    def read_exactly(self, nbytes: int, timeout: Optional[float] = None) -> bytes:
        """Read exactly ``nbytes`` (short only at end-of-stream)."""
        return self._buffer.read_exactly(nbytes, timeout=timeout)

    def peek(self, max_bytes: int = 65536) -> bytes:
        """Inspect buffered bytes without consuming them."""
        return self._buffer.peek(max_bytes)

    def wait_until_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until the reader has consumed everything in the buffer."""
        return self._buffer.wait_until_empty(timeout)

    # ----------------------------------------------------------------- close

    def close(self) -> None:
        """Close the reading side permanently.

        Any residual buffered data is discarded and a connected writer is
        detached (its next write raises ``NotConnectedError`` after its
        reconnect wait, or it can be closed by its owner).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            source = self._source
            self._source = None
            self._connected = False
            self._switching = False
            self._state_changed.notify_all()
        self._buffer.mark_broken()
        self._buffer.clear()
        if source is not None:
            source.detach()
        self._fire_listeners()

    def at_eof(self) -> bool:
        """True when no byte will ever be readable again."""
        if self._closed:
            return self._buffer.is_empty()
        return self._source_closed and self._buffer.is_empty()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else (
            "connected" if self._connected else ("switching" if self._switching else "detached"))
        return f"<DetachableInputStream {self.name} {state} buffered={self.available()}>"


def connect(dos: DetachableOutputStream, dis: DetachableInputStream) -> None:
    """Convenience function: connect a DOS to a DIS."""
    dos.connect(dis)


def make_pipe(name: str = "pipe", capacity: Optional[int] = DEFAULT_CAPACITY
              ) -> "tuple[DetachableOutputStream, DetachableInputStream]":
    """Create a connected (DOS, DIS) pair — the detachable analogue of
    ``os.pipe()``."""
    dos = DetachableOutputStream(name=f"{name}.out")
    dis = DetachableInputStream(name=f"{name}.in", capacity=capacity)
    dos.connect(dis)
    return dos, dis
