"""Bounded, condition-signalled byte buffer.

The paper buffers data "at the DIS side", exactly as Java's
``PipedInputStream`` does.  ``StreamBuffer`` factors that buffer out so it
can be tested in isolation and reused by the network simulation.  It is a
thread-safe bounded byte FIFO with:

* blocking ``write`` (back-pressure when the buffer is full),
* blocking ``read`` (waits for data, or for end-of-stream),
* an end-of-stream marker (``close_for_writing``) so readers can
  distinguish "no data yet" from "no data ever again",
* ``wait_until_empty`` used by the pause protocol to drain in-flight data
  before a stream is disconnected.

Data-path design (the hot path of every chain hop):

* **Chunk deque, not a coalescing bytearray.**  ``write`` appends the
  caller's bytes-like object (``bytes``, ``bytearray`` or ``memoryview``)
  to a deque without copying it; a read whose ``max_bytes`` covers the
  head chunk pops the same object back out — the aligned fast path moves
  a chunk through the buffer with *zero* byte copies.
* **A written chunk is never split.**  One that does not fit waits until
  it does, or until the buffer is empty, and lands whole (capacity is
  overshot by at most one chunk) — so a chunk can carry a packet.
* **Buffer-protocol splits.**  A read smaller than the head chunk no
  longer slices ``bytes``: the head is wrapped in a ``memoryview`` once
  and both the returned piece and the queued remainder are O(1) views
  over the writer's original object.  Repeatedly carving a large chunk
  into ``max_chunk``-sized pieces therefore costs zero byte copies
  (previously each split re-copied the shrinking tail — quadratic in the
  chunk size).  Coalescing happens only when a caller demands a single
  contiguous result from several queued chunks (``read`` straddling
  chunk boundaries), never on the batch path.
* **Ownership contract.**  Writers hand over ownership: once a chunk is
  written it must not be mutated (a ``bytearray`` or writable view is
  queued by reference, and downstream readers may alias it).  Readers
  receive either the writer's object or a read-only view of it and must
  treat it as immutable; see ``docs/ARCHITECTURE.md``.
* **Batch APIs.**  :meth:`write_chunks` queues the batch it was given *as
  a batch* — the buffer's own copy of the list, measured once — and
  :meth:`read_chunks` hands whole batches back as lists while they fit the
  byte budget, so a hop costs per hand-over, not per chunk.  A batch is
  opened chunk by chunk only for what is left of a budget, for ``read``,
  ``max_chunk`` and ``peek``.
* **Waiter-gated notifies.**  Every condition keeps a count of actual
  waiters and signals with ``notify()`` only when that count is non-zero,
  so the uncontended fast path never touches a waiter queue — the same
  idiom as ``ControlThread.wait_idle``.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections import deque
from itertools import chain
from time import monotonic as _monotonic
from typing import Deque, Iterable, List, Optional

from .exceptions import BrokenStreamError, StreamClosedError, StreamTimeoutError

DEFAULT_CAPACITY = 64 * 1024

#: The types queued by reference (anything else is materialised once on
#: entry).  Kept as a tuple so the hot-path isinstance check is one call,
#: and as a set so a whole batch is screened by one C-speed pass.
_BYTES_LIKE = (bytes, bytearray, memoryview)
_BYTES_LIKE_TYPES = frozenset(_BYTES_LIKE)


def _as_view(chunk) -> memoryview:
    """A memoryview over ``chunk``, reused as-is when it already is one."""
    return chunk if type(chunk) is memoryview else memoryview(chunk)


class StreamBuffer:
    """A bounded byte FIFO shared by one writer side and one reader side.

    Parameters
    ----------
    capacity:
        Maximum number of bytes buffered before writers block.  ``None``
        means unbounded (useful for tests and for the network simulator).
    name:
        Optional label used in error messages.
    """

    #: Set when the reader takes packets: :meth:`read_chunks` then returns
    #: a head chunk larger than the byte budget whole instead of splitting it.
    whole_chunks = False

    def __init__(self, capacity: Optional[int] = DEFAULT_CAPACITY, name: str = "") -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        self._capacity = capacity
        self._name = name or "StreamBuffer"
        # The queue, front to back: the open head (single chunks), then
        # whole written batches, each the buffer's own list.  A batch's
        # bytes are not stored: ``_marks`` holds ``_bytes_in`` as it stood
        # when each batch was queued, so the running counters every write
        # and read already keep give every size — including that of the
        # last batch, onto which single chunks written behind it are
        # appended (``_tail``) at the cost of a plain append.
        self._chunks: Deque[bytes] = deque()
        self._batches: Deque[List[bytes]] = deque()
        self._marks: Deque[int] = deque()
        self._tail = self._chunks
        self._size = 0
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._empty = threading.Condition(self._lock)
        # Waiter counts gate every notify: with no waiter registered the
        # fast path skips the condition entirely.
        self._readers_waiting = 0
        self._writers_waiting = 0
        self._drain_waiting = 0
        self._read_interrupts = 0
        self._eof = False
        self._broken = False
        self._bytes_in = 0
        self._bytes_out = 0

    # ------------------------------------------------------------------ info

    @property
    def name(self) -> str:
        return self._name

    @property
    def capacity(self) -> Optional[int]:
        return self._capacity

    @property
    def bytes_written(self) -> int:
        """Total number of bytes ever written into the buffer."""
        return self._bytes_in

    @property
    def bytes_read(self) -> int:
        """Total number of bytes ever read out of the buffer."""
        return self._bytes_out

    def available(self) -> int:
        """Number of bytes currently buffered (the paper's ``available()``)."""
        with self._lock:
            return self._size

    def is_empty(self) -> bool:
        with self._lock:
            return self._size == 0

    def at_eof(self) -> bool:
        """True when the writer closed the buffer and all data was consumed."""
        with self._lock:
            return self._eof and self._size == 0

    @property
    def closed_for_writing(self) -> bool:
        with self._lock:
            return self._eof

    # ----------------------------------------------------------------- write

    def write(self, data: bytes, timeout: Optional[float] = None,
              force: bool = False) -> int:
        """Append ``data``, blocking while the buffer is full.

        Returns the number of bytes written (always ``len(data)`` unless the
        data is empty).  Raises :class:`StreamClosedError` if the buffer was
        closed for writing, :class:`BrokenStreamError` if the reader side
        was torn down, and :class:`StreamTimeoutError` on timeout.

        A bytes-like payload (``bytes``, ``bytearray``, ``memoryview``)
        is queued by reference — no copy is made; it becomes the unit an
        aligned read pops back out, and the writer must not mutate it
        afterwards.  It is never split: on a bounded buffer it waits until
        it fits or the buffer is empty, then lands whole.

        With ``force=True`` the capacity bound is ignored and the call never
        blocks: the bytes are appended even if the buffer overshoots its
        capacity.  Cooperative schedulers use this so a pump step can never
        deadlock on a full pipe; they bound memory with high-water-mark
        scheduling instead of blocking (see :mod:`repro.runtime.event`).
        """
        if not data:
            return 0
        if not isinstance(data, _BYTES_LIKE):
            data = bytes(data)
        with self._lock:
            return self._write_locked(data, timeout, force)

    def write_chunks(self, chunks: Iterable[bytes], timeout: Optional[float] = None,
                     force: bool = False) -> int:
        """Append many chunks under a single lock acquisition.

        The batch is queued *as a batch*: the buffer keeps its own copy of
        the list (the writer may reuse or mutate its list afterwards; the
        chunks themselves are handed over by reference, as with
        :meth:`write`), and :meth:`read_chunks` hands it back whole.  On a
        bounded buffer a batch that does not fit yet waits for room and
        lands whole; one larger than the whole buffer goes in chunk by
        chunk, each as :meth:`write` queues it.  Timeout,
        closed and broken semantics are those of :meth:`write`.  Returns
        the total bytes written.
        """
        if not isinstance(chunks, (list, tuple)):
            chunks = list(chunks)
        with self._lock:
            # One type pass and one length pass serve the byte total, the
            # capacity test and the accounting.  A batch that doesn't fit
            # yet *waits for room and retries whole* rather than dribbling
            # in chunk by chunk: the downstream reader drains
            # in batches, so room arrives in batch-sized steps too.
            if chunks and _BYTES_LIKE_TYPES.issuperset(map(type, chunks)):
                batch_bytes = sum(map(len, chunks))
            else:
                batch_bytes = 0  # mixed batch: per-chunk slow path below
            while batch_bytes:
                if self._broken:
                    raise BrokenStreamError(f"{self._name}: reader side is gone")
                if self._eof:
                    raise StreamClosedError(
                        f"{self._name}: buffer closed for writing")
                if (self._capacity is None or force
                        or self._size + batch_bytes <= self._capacity):
                    # Empty chunks must never be queued (an empty head
                    # reads back as a spurious EOF).
                    batch = (list(chunks) if all(chunks)
                             else [data for data in chunks if data])
                    self._marks.append(self._bytes_in)
                    self._batches.append(batch)
                    self._tail = batch
                    self._size += batch_bytes
                    self._bytes_in += batch_bytes
                    if self._readers_waiting:
                        self._not_empty.notify()
                    if self._writers_waiting and (
                            self._capacity is None
                            or self._size < self._capacity):
                        self._not_full.notify()
                    return batch_bytes
                if batch_bytes > self._capacity:
                    break  # can never fit whole; chunk by chunk below
                self._writers_waiting += 1
                try:
                    woken = self._not_full.wait(timeout)
                finally:
                    self._writers_waiting -= 1
                if not woken:
                    raise StreamTimeoutError(
                        f"{self._name}: timed out waiting for buffer space")
            total = 0
            for data in chunks:
                if not data:
                    continue
                if not isinstance(data, _BYTES_LIKE):
                    data = bytes(data)
                total += self._write_locked(data, timeout, force)
            return total

    def _write_locked(self, data: bytes, timeout: Optional[float],
                      force: bool) -> int:
        """Queue one bytes-like payload whole, once it fits or the buffer
        is empty; caller holds the lock."""
        size = len(data)
        while True:
            if self._broken:
                raise BrokenStreamError(f"{self._name}: reader side is gone")
            if self._eof:
                raise StreamClosedError(f"{self._name}: buffer closed for writing")
            if (force or self._capacity is None or not self._size
                    or self._size + size <= self._capacity):
                break
            self._writers_waiting += 1
            try:
                woken = self._not_full.wait(timeout)
            finally:
                self._writers_waiting -= 1
            if not woken:
                raise StreamTimeoutError(
                    f"{self._name}: timed out waiting for buffer space"
                )
        self._tail.append(data)  # the caller's object, no copy
        self._size += size
        self._bytes_in += size
        if self._readers_waiting:
            self._not_empty.notify()
        if self._writers_waiting and (
                self._capacity is None or self._size < self._capacity):
            # Chained wake: room remains and another writer is parked (the
            # read-side notify wakes only one writer at a time).
            self._not_full.notify()
        return size

    def close_for_writing(self) -> None:
        """Mark end-of-stream.  Readers drain remaining data, then see EOF."""
        with self._lock:
            self._eof = True
            if self._readers_waiting:
                self._not_empty.notify_all()
            if self._drain_waiting:
                self._empty.notify_all()

    def mark_broken(self) -> None:
        """Mark the buffer as broken: blocked writers and readers are woken
        and raise :class:`BrokenStreamError` / see EOF respectively."""
        with self._lock:
            self._broken = True
            self._eof = True
            if self._readers_waiting:
                self._not_empty.notify_all()
            if self._writers_waiting:
                self._not_full.notify_all()
            if self._drain_waiting:
                self._empty.notify_all()

    # ------------------------------------------------------------------ read

    def read(self, max_bytes: int = 65536, timeout: Optional[float] = None) -> bytes:
        """Read up to ``max_bytes``, blocking until data is available.

        Returns ``min(max_bytes, available)`` bytes, exactly as the old
        coalescing buffer did.  When a single queued chunk satisfies the
        read it is popped and returned *as the very object the writer
        queued* — the zero-copy aligned path; only a read that straddles
        chunk boundaries (or splits a chunk) coalesces, lazily, at read
        time.  Callers moving bulk data use :meth:`read_chunks`, which
        never coalesces.

        Returns ``b""`` once the buffer is closed for writing and fully
        drained (end of stream).  Raises :class:`StreamTimeoutError` when no
        data arrives within ``timeout`` seconds.
        """
        if max_bytes <= 0:
            return b""
        with self._lock:
            while not self._chunks:
                if self._batches:
                    self._chunks.extend(self._pop_batch_locked())
                elif self._eof:
                    return b""
                else:
                    self._wait_for_data_locked(timeout)
            head = self._chunks[0]
            hlen = len(head)
            if hlen == max_bytes or (hlen < max_bytes and hlen == self._size):
                self._chunks.popleft()
                chunk = head  # aligned fast path: no copy, no slice
            elif hlen > max_bytes:
                view = _as_view(head)
                chunk = view[:max_bytes]
                self._chunks[0] = view[max_bytes:]
            else:
                parts: List[bytes] = []
                taken = 0
                while taken < max_bytes and taken < self._size:
                    if not self._chunks:
                        self._chunks.extend(self._pop_batch_locked())
                    head = self._chunks[0]
                    room = max_bytes - taken
                    if len(head) <= room:
                        self._chunks.popleft()
                        parts.append(head)
                        taken += len(head)
                    else:
                        view = _as_view(head)
                        parts.append(view[:room])
                        self._chunks[0] = view[room:]
                        taken += room
                chunk = b"".join(parts)
            self._size -= len(chunk)
            self._bytes_out += len(chunk)
            self._after_read_locked()
            return chunk

    def read_chunks(self, max_bytes: int = 65536, timeout: Optional[float] = None,
                    max_chunk: Optional[int] = None) -> List[bytes]:
        """Pop whole queued chunks totalling at most ``max_bytes``.

        The batch counterpart of :meth:`read`: one lock acquisition moves
        as many whole chunks as fit the byte budget (always at least one
        piece once data is available, splitting the head chunk if it alone
        exceeds the budget).  What was queued as a batch crosses as a
        batch: the open head and each written batch behind it are handed
        over as lists while they fit, and only what is left of the budget
        opens the next batch chunk by chunk.  The returned list is the
        caller's.  ``max_chunk`` additionally caps the size of
        each returned piece, for callers that need bounded units (framing
        probes, tests); the filter pump does *not* use it — whole queued
        chunks are the transform units, so nothing is re-fragmented.

        Returns ``[]`` only at end of stream.  Raises
        :class:`StreamTimeoutError` when no data arrives in time.
        """
        if max_bytes <= 0:
            return []
        with self._lock:
            while not self._size:
                if self._eof:
                    return []
                self._wait_for_data_locked(timeout)
            # What was queued whole crosses whole while it fits the budget:
            # the open head, then batch after batch, each as a list.
            if max_chunk is None and self._size <= max_bytes:
                # The budget covers everything queued.
                chunks = list(self._chunks)
                self._chunks.clear()
                while self._batches:
                    chunks += self._pop_batch_locked()
                self._bytes_out += self._size
                self._size = 0
                self._after_read_locked()
                return chunks
            chunks: List[bytes] = []
            taken = 0
            if max_chunk is None:
                # It covers less.  The head ends where the first batch
                # starts and a batch where the next one does, so the marks
                # within the budget count what fits: the head and all but
                # the last of that many batches.
                origin = self._bytes_in - self._size
                whole = bisect_right(self._marks, origin + max_bytes)
                if whole:
                    taken = self._marks[whole - 1] - origin
                    chunks = list(self._chunks)
                    self._chunks.clear()
                    for _ in range(whole - 1):
                        chunks += self._pop_batch_locked()
            # What is left of the budget opens the next batch piecewise.
            while taken < max_bytes and taken < self._size:
                if not self._chunks:
                    self._chunks.extend(self._pop_batch_locked())
                head = self._chunks[0]
                allowance = max_bytes - taken
                if max_chunk is not None and max_chunk < allowance:
                    allowance = max_chunk
                if len(head) <= allowance or (not chunks
                                              and self.whole_chunks):
                    self._chunks.popleft()
                    piece = head
                elif not chunks or (max_chunk is not None
                                    and len(head) > max_chunk
                                    and allowance == max_chunk):
                    # Split when the caller would otherwise get nothing, or
                    # when the per-piece cap (not the byte budget) is what
                    # the head exceeds — a filter batching a large upstream
                    # chunk keeps slicing full-size pieces off it rather
                    # than degrading to one piece per call.
                    view = _as_view(head)
                    piece = view[:allowance]
                    self._chunks[0] = view[allowance:]
                else:
                    break  # next whole chunk doesn't fit; leave it queued
                chunks.append(piece)
                taken += len(piece)
            self._size -= taken
            self._bytes_out += taken
            self._after_read_locked()
            return chunks

    def _pop_batch_locked(self) -> List[bytes]:
        """Unqueue the first whole batch; caller holds the lock."""
        self._marks.popleft()
        batch = self._batches.popleft()
        if not self._batches:
            self._tail = self._chunks
        return batch

    def _wait_for_data_locked(self, timeout: Optional[float]) -> None:
        """Park a reader of an empty buffer until it is worth another look.

        Raises :class:`StreamTimeoutError` when ``timeout`` elapses first —
        or :meth:`interrupt_read` says to behave as if it had.
        """
        interrupts = self._read_interrupts
        self._readers_waiting += 1
        try:
            woken = self._not_empty.wait(timeout)
        finally:
            self._readers_waiting -= 1
        if not woken or interrupts != self._read_interrupts:
            raise StreamTimeoutError(f"{self._name}: read timed out")

    def interrupt_read(self) -> None:
        """End a *blocked* read as if its timeout had just elapsed.

        The reader raises :class:`StreamTimeoutError` and gets to look at
        whatever made its owner call this (a stop request) instead of
        sleeping out its poll interval.  A reader that is not blocked is
        unaffected, now and on its next call; no data is lost either way.
        """
        with self._lock:
            if self._readers_waiting:
                self._read_interrupts += 1
                self._not_empty.notify_all()

    def _after_read_locked(self) -> None:
        """Post-consumption signalling; caller holds the lock."""
        if self._writers_waiting:
            self._not_full.notify()
        if not self._size:
            if self._drain_waiting:
                self._empty.notify_all()
        elif self._readers_waiting:
            # Chained wake: data remains and another reader is parked.
            self._not_empty.notify()

    def read_exactly(self, nbytes: int, timeout: Optional[float] = None) -> bytes:
        """Read exactly ``nbytes``; returns a short result only at EOF."""
        parts = []
        remaining = nbytes
        while remaining > 0:
            chunk = self.read(remaining, timeout=timeout)
            if not chunk:
                break
            parts.append(chunk)
            remaining -= len(chunk)
        if len(parts) == 1:
            return parts[0]
        return b"".join(parts)

    def peek(self, max_bytes: int = 65536) -> bytes:
        """Return buffered data without consuming it (never blocks)."""
        with self._lock:
            parts: List[bytes] = []
            remaining = max_bytes
            for chunk in chain(self._chunks, *self._batches):
                if remaining <= 0:
                    break
                parts.append(_as_view(chunk)[:remaining])
                remaining -= len(chunk)
            return b"".join(parts)

    def clear(self) -> int:
        """Discard all buffered data, returning the number of bytes dropped."""
        with self._lock:
            dropped = self._size
            self._chunks.clear()
            self._batches.clear()
            self._marks.clear()
            self._tail = self._chunks
            self._size = 0
            if self._writers_waiting:
                self._not_full.notify_all()
            if self._drain_waiting:
                self._empty.notify_all()
            return dropped

    # ----------------------------------------------------------------- drain

    def wait_until_empty(self, timeout: Optional[float] = None) -> bool:
        """Block until the buffer is empty (the pause protocol's drain step).

        Returns ``True`` if the buffer drained, ``False`` on timeout.
        """
        deadline = None if timeout is None else _monotonic() + timeout
        with self._lock:
            while self._size:
                if self._eof and self._broken:
                    return False
                remaining = None
                if deadline is not None:
                    remaining = deadline - _monotonic()
                    if remaining <= 0:
                        return False
                self._drain_waiting += 1
                try:
                    woken = self._empty.wait(remaining)
                finally:
                    self._drain_waiting -= 1
                if not woken:
                    return False
            return True

    def __len__(self) -> int:  # pragma: no cover - convenience
        return self.available()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<StreamBuffer {self._name!r} size={self.available()} "
            f"capacity={self._capacity} eof={self._eof}>"
        )
