"""A stateful model check of the stream buffer and of a detachable pipe.

Hypothesis drives one :class:`StreamBuffer` (bounded, so the blocking rules
are in play) and one ``make_pipe()`` pair through arbitrary interleavings of
single writes, batch writes, forced writes, reads, batch reads, peeks,
clears and the close — and after every step compares them with a model:
the bytes queued, the counters, and the chunk boundaries the *per-chunk*
algorithm would have left (the reference the batch hand-over must be
indistinguishable from).

What that pins: bytes come out as the model's prefix, in order; ``read``
returns ``min(max_bytes, available)``; a chunk read whole is the writer's
own object and a split is a view over it; a list handed to the reader is
never the writer's list, and mutating the writer's list afterwards changes
nothing; a chunk or a batch that does not fit waits whole (here: times out
with nothing written) — a chunk lands anyway on an empty buffer, and one
batch larger than the buffer goes in chunk by chunk; a forced one
overshoots; closed and empty-open reads and writes raise what
they always raised.  Every call uses ``timeout=0``: a call that would
block says so at once, and the model says whether it should have.
"""

import math

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.streams import (StreamBuffer, StreamClosedError,
                           StreamTimeoutError, make_pipe)

BYTES_LIKE = (bytes, bytearray, memoryview)

payloads = st.builds(
    lambda data, kind: {"bytes": bytes, "bytearray": bytearray,
                        "memoryview": memoryview, "ints": list}[kind](data),
    st.binary(max_size=40),
    st.sampled_from(["bytes", "bytes", "bytearray", "memoryview", "ints"]))
budgets = st.sampled_from([1, 2, 3, 7, 16, 40, 64, 100, 65536])
caps = st.sampled_from([None, None, 1, 4, 16])


def _base(obj):
    """The object a view over ``obj`` reports as its ``.obj``."""
    return obj.obj if isinstance(obj, memoryview) else obj


class _Piece:
    """One queued chunk as the per-chunk algorithm tracks it."""

    def __init__(self, obj, raw, lo, hi):
        self.obj, self.raw, self.lo, self.hi = obj, raw, lo, hi

    def __len__(self):
        return self.hi - self.lo

    def data(self):
        return self.raw[self.lo:self.hi]

    def take(self, n):
        """Split off the first ``n`` bytes (the rest stays queued)."""
        front = _Piece(self.obj, self.raw, self.lo, self.lo + n)
        self.lo += n
        return front

    def check(self, got):
        """``got`` is this piece: the writer's object, or a view over it."""
        assert bytes(got) == self.data()
        if self.obj is None:
            return  # materialised on entry: no identity to keep
        if (self.lo, self.hi) == (0, len(self.raw)):
            assert got is self.obj
        else:
            assert isinstance(got, memoryview) and got.obj is _base(self.obj)


class _Model:
    """What a per-chunk buffer of ``capacity`` holds after the same calls."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.pieces = []
        self.written = self.read = 0
        self.closed = False

    @property
    def size(self):
        return sum(map(len, self.pieces))

    def bytes(self):
        return b"".join(piece.data() for piece in self.pieces)

    # -- writes: returns the exception class the real call must raise ------

    def _queue_one(self, data, force):
        """``_write_locked``: whole once it fits or the buffer is empty,
        else block (never split)."""
        if self.closed:
            return StreamClosedError
        obj = data if isinstance(data, BYTES_LIKE) else None
        raw = bytes(data)
        if (force or self.capacity is None or not self.pieces
                or self.size + len(raw) <= self.capacity):
            self.pieces.append(_Piece(obj, raw, 0, len(raw)))
            self.written += len(raw)
            return None
        return StreamTimeoutError

    def write(self, data, force):
        return self._queue_one(data, force) if data else None

    def write_chunks(self, chunks, force):
        total = sum(len(data) for data in chunks)
        if (chunks and all(type(data) in BYTES_LIKE for data in chunks)
                and total and not self.closed):
            fits = (force or self.capacity is None
                    or self.size + total <= self.capacity)
            if not fits and total <= self.capacity:
                return StreamTimeoutError  # waits for room, whole
        for data in chunks:
            if data:
                error = self._queue_one(data, force)
                if error is not None:
                    return error
        return None

    # -- reads: the per-chunk reference ------------------------------------

    def read_one(self, max_bytes):
        """``("piece", piece)`` or ``("joined", bytes)`` for ``read``."""
        head = self.pieces[0]
        if len(head) == max_bytes or (len(head) < max_bytes
                                      and len(self.pieces) == 1):
            result = ("piece", self.pieces.pop(0))
        elif len(head) > max_bytes:
            result = ("piece", head.take(max_bytes))
        else:
            parts = []
            taken = 0
            while self.pieces and taken < max_bytes:
                head = self.pieces[0]
                room = max_bytes - taken
                if len(head) <= room:
                    parts.append(self.pieces.pop(0).data())
                else:
                    parts.append(head.take(room).data())
                taken += len(parts[-1])
            result = ("joined", b"".join(parts))
        self.read += len(result[1])
        return result

    def read_chunks(self, max_bytes, max_chunk):
        out = []
        taken = 0
        while self.pieces and taken < max_bytes:
            head = self.pieces[0]
            allowance = max_bytes - taken
            if max_chunk is not None and max_chunk < allowance:
                allowance = max_chunk
            if len(head) <= allowance:
                piece = self.pieces.pop(0)
            elif not out or (max_chunk is not None and len(head) > max_chunk
                             and allowance == max_chunk):
                piece = head.take(allowance)
            else:
                break
            out.append(piece)
            taken += len(piece)
        self.read += taken
        return out


class _BufferPort:
    """The calls under test, on a bare bounded :class:`StreamBuffer`."""

    capacity = 64

    def __init__(self):
        self.buffer = StreamBuffer(capacity=self.capacity)

    def write(self, data, force):
        return self.buffer.write(data, timeout=0, force=force)

    def write_chunks(self, chunks, force):
        return self.buffer.write_chunks(chunks, timeout=0, force=force)

    def read(self, max_bytes):
        return self.buffer.read(max_bytes, timeout=0)

    def read_chunks(self, max_bytes, max_chunk):
        return self.buffer.read_chunks(max_bytes, timeout=0,
                                       max_chunk=max_chunk)

    def close(self):
        self.buffer.close_for_writing()

    def counters(self):
        return (self.buffer.available(), self.buffer.bytes_written,
                self.buffer.bytes_read)


class _PipePort(_BufferPort):
    """The same calls through a DOS/DIS pair (unbounded: a DOS write has no
    timeout to give the buffer, so nothing here may block)."""

    capacity = None

    def __init__(self):
        self.dos, self.dis = make_pipe(capacity=None)
        self.buffer = self.dis.buffer

    def write(self, data, force):
        if force:
            before = self.dos.bytes_written
            assert self.dos.try_write(data) is True
            return self.dos.bytes_written - before
        return self.dos.write(data)

    def write_chunks(self, chunks, force):
        if force:
            before = self.dos.bytes_written
            assert self.dos.try_write_many(chunks) is True
            return self.dos.bytes_written - before
        return self.dos.write_many(chunks)

    def read(self, max_bytes):
        return self.dis.read(max_bytes, timeout=0)

    def read_chunks(self, max_bytes, max_chunk):
        return self.dis.read_chunks(max_bytes, timeout=0, max_chunk=max_chunk)

    def close(self):
        self.dos.close()

    def counters(self):
        assert self.dos.bytes_written == self.dis.bytes_received
        return (self.dis.available(), self.dis.bytes_received,
                self.dis.bytes_delivered)


class BufferMachine(RuleBasedStateMachine):
    port_class = _BufferPort

    @initialize()
    def build(self):
        self.port = self.port_class()
        self.model = _Model(self.port.capacity)
        self.writer_lists = []

    def _written(self, call, expected_error, before):
        """Run a write; it must raise exactly what the model says."""
        if expected_error is None:
            assert call() == self.model.written - before
        else:
            with pytest.raises(expected_error):
                call()

    @rule(data=payloads, force=st.booleans())
    def write(self, data, force):
        before = self.model.written
        error = self.model.write(data, force)
        self._written(lambda: self.port.write(data, force), error, before)

    @rule(chunks=st.lists(payloads, max_size=6), force=st.booleans(),
          as_tuple=st.booleans())
    def write_chunks(self, chunks, force, as_tuple):
        before = self.model.written
        error = self.model.write_chunks(chunks, force)
        given = tuple(chunks) if as_tuple else chunks
        self._written(lambda: self.port.write_chunks(given, force), error,
                      before)
        # The list stays the writer's: reusing it must change nothing.
        self.writer_lists.append(chunks)
        chunks.append(b"written-after-the-hand-over")
        chunks[0] = b"overwritten-after-the-hand-over"

    @rule(max_bytes=budgets)
    def read(self, max_bytes):
        if not self.model.pieces:
            if self.model.closed:
                assert self.port.read(max_bytes) == b""
            else:
                with pytest.raises(StreamTimeoutError):
                    self.port.read(max_bytes)
            return
        available = self.model.size
        kind, expected = self.model.read_one(max_bytes)
        got = self.port.read(max_bytes)
        assert len(got) == min(max_bytes, available)
        if kind == "piece":
            expected.check(got)
        else:
            assert type(got) is bytes and got == expected

    @rule(max_bytes=budgets, max_chunk=caps)
    def read_chunks(self, max_bytes, max_chunk):
        if not self.model.pieces:
            if self.model.closed:
                assert self.port.read_chunks(max_bytes, max_chunk) == []
            else:
                with pytest.raises(StreamTimeoutError):
                    self.port.read_chunks(max_bytes, max_chunk)
            return
        expected = self.model.read_chunks(max_bytes, max_chunk)
        got = self.port.read_chunks(max_bytes, max_chunk)
        assert type(got) is list and len(got) == len(expected)
        assert not any(got is given for given in self.writer_lists)
        for piece, chunk in zip(expected, got):
            piece.check(chunk)
        if max_chunk is not None:
            assert all(len(chunk) <= max_chunk for chunk in got)

    @rule(max_bytes=st.sampled_from([0, 1, 5, 64, 65536]))
    def peek(self, max_bytes):
        assert self.port.buffer.peek(max_bytes) == \
            self.model.bytes()[:max_bytes]

    @rule()
    def clear(self):
        assert self.port.buffer.clear() == self.model.size
        self.model.pieces.clear()

    @precondition(lambda self: not self.model.closed)
    @rule()
    def close_for_writing(self):
        self.port.close()
        self.model.closed = True

    @invariant()
    def counters_match(self):
        assert self.port.counters() == (
            self.model.size, self.model.written, self.model.read)
        assert self.port.buffer.at_eof() == (
            self.model.closed and not self.model.pieces)


class PipeMachine(BufferMachine):
    port_class = _PipePort


_SETTINGS = settings(max_examples=150, stateful_step_count=40, deadline=None)
TestBufferMachine = BufferMachine.TestCase
TestBufferMachine.settings = _SETTINGS
TestPipeMachine = PipeMachine.TestCase
TestPipeMachine.settings = _SETTINGS


@pytest.mark.parametrize("count,size,budget", [(64, 8, 256), (64, 8, 512),
                                               (30, 7, 100), (5, 40, 1000)])
def test_a_batch_deposited_whole_is_not_refragmented(count, size, budget):
    """Read back in budget-sized reads, a batch comes back as the writer's
    own chunks, as many per read as fit — never one chunk per read."""
    buffer = StreamBuffer(capacity=None)
    batch = [bytes([index]) * size for index in range(count)]
    buffer.write_chunks(batch)
    per_read = max(1, budget // size)
    reads = []
    while buffer.available():
        reads.append(buffer.read_chunks(budget, timeout=0))
    assert len(reads) == math.ceil(count / per_read)
    assert all(len(chunks) == per_read for chunks in reads[:-1])
    flat = [chunk for chunks in reads for chunk in chunks]
    assert len(flat) == count
    assert all(got is given for got, given in zip(flat, batch))
