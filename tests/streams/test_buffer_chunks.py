"""Pins for the chunk-deque StreamBuffer data path.

The buffer was rewritten from a coalescing ``bytearray`` FIFO to a deque of
the writers' own ``bytes`` objects (zero-copy on the aligned path, batch
APIs, waiter-gated notifies).  These tests pin the new mechanics — chunk
identity, batch semantics, budget/splitting rules — *and* stress the old
contracts (interleaved writer/reader threads, ``force=True`` overshoot,
capacity backpressure, EOF/broken transitions, ``wait_until_empty``) so the
redesign cannot drift from the semantics the composition protocol needs.
"""

import random
import threading
import time

import pytest

from repro.streams import StreamBuffer, StreamClosedError, StreamTimeoutError
from repro.streams.exceptions import BrokenStreamError


class TestZeroCopyAlignment:
    def test_aligned_read_returns_the_written_object(self):
        buf = StreamBuffer()
        payload = b"x" * 4096
        buf.write(payload)
        assert buf.read(65536) is payload  # no copy, no slice

    def test_read_chunks_returns_the_written_objects(self):
        buf = StreamBuffer()
        chunks = [bytes([i]) * 100 for i in range(5)]
        for chunk in chunks:
            buf.write(chunk)
        popped = buf.read_chunks(max_bytes=65536)
        assert all(a is b for a, b in zip(popped, chunks))

    def test_misaligned_read_slices_and_keeps_remainder(self):
        buf = StreamBuffer()
        buf.write(b"abcdefgh")
        assert buf.read(3) == b"abc"
        assert buf.available() == 5
        assert buf.read(100) == b"defgh"

    def test_read_coalesces_across_chunks_like_the_old_buffer(self):
        buf = StreamBuffer()
        buf.write(b"ab")
        buf.write(b"cd")
        buf.write(b"ef")
        assert buf.read(5) == b"abcde"
        assert buf.read(5) == b"f"

    def test_peek_spans_chunks_without_consuming(self):
        buf = StreamBuffer()
        buf.write(b"abc")
        buf.write(b"def")
        assert buf.peek(5) == b"abcde"
        assert buf.available() == 6


class TestReadChunks:
    def test_respects_byte_budget_on_whole_chunks(self):
        buf = StreamBuffer()
        for _ in range(4):
            buf.write(b"x" * 100)
        batch = buf.read_chunks(max_bytes=250)
        assert [len(c) for c in batch] == [100, 100]
        assert buf.available() == 200

    def test_splits_only_the_head_chunk_to_make_progress(self):
        buf = StreamBuffer()
        buf.write(b"y" * 1000)
        batch = buf.read_chunks(max_bytes=300)
        assert [len(c) for c in batch] == [300]
        assert buf.available() == 700

    def test_max_chunk_caps_each_piece(self):
        buf = StreamBuffer()
        buf.write(b"z" * 1000)
        pieces = []
        while buf.available():
            pieces.extend(buf.read_chunks(max_bytes=65536, max_chunk=256))
        assert all(len(p) <= 256 for p in pieces)
        assert b"".join(pieces) == b"z" * 1000

    def test_oversized_head_yields_a_full_batch_not_one_piece(self):
        """A head chunk larger than max_chunk is sliced into as many
        full-size pieces as the byte budget allows in ONE call — a filter
        batching a large upstream chunk must not degrade to one piece per
        lock round-trip."""
        buf = StreamBuffer()
        buf.write(b"w" * 1000)
        batch = buf.read_chunks(max_bytes=65536, max_chunk=256)
        assert [len(p) for p in batch] == [256, 256, 256, 232]
        assert buf.available() == 0

    def test_returns_empty_list_only_at_eof(self):
        buf = StreamBuffer()
        buf.write(b"tail")
        buf.close_for_writing()
        assert buf.read_chunks(max_bytes=100) == [b"tail"]
        assert buf.read_chunks(max_bytes=100) == []
        assert buf.at_eof()

    def test_times_out_while_open_and_empty(self):
        buf = StreamBuffer()
        with pytest.raises(StreamTimeoutError):
            buf.read_chunks(max_bytes=100, timeout=0.05)

    def test_blocked_batch_reader_wakes_on_write(self):
        buf = StreamBuffer()
        result = []

        def reader():
            result.append(buf.read_chunks(max_bytes=100, timeout=2.0))

        thread = threading.Thread(target=reader)
        thread.start()
        buf.write(b"ping")
        thread.join(timeout=2.0)
        assert result == [[b"ping"]]


class TestWriteChunks:
    def test_batch_write_preserves_order_and_totals(self):
        buf = StreamBuffer()
        written = buf.write_chunks([b"ab", b"", b"cd", b"ef"])
        assert written == 6
        assert buf.bytes_written == 6
        assert buf.read_chunks(max_bytes=100) == [b"ab", b"cd", b"ef"]

    def test_batch_write_blocks_per_chunk_on_capacity(self):
        buf = StreamBuffer(capacity=8)
        collected = []

        def reader():
            while True:
                chunk = buf.read(4, timeout=2.0)
                if not chunk:
                    return
                collected.append(chunk)

        thread = threading.Thread(target=reader)
        thread.start()
        buf.write_chunks([b"x" * 10 for _ in range(5)], timeout=2.0)
        buf.close_for_writing()
        thread.join(timeout=2.0)
        assert b"".join(collected) == b"x" * 50

    def test_batch_write_after_close_raises(self):
        buf = StreamBuffer()
        buf.close_for_writing()
        with pytest.raises(StreamClosedError):
            buf.write_chunks([b"nope"])

    def test_batch_write_on_broken_buffer_raises(self):
        buf = StreamBuffer()
        buf.mark_broken()
        with pytest.raises(BrokenStreamError):
            buf.write_chunks([b"data"])

    def test_force_batch_overshoots_capacity_without_blocking(self):
        buf = StreamBuffer(capacity=16)
        written = buf.write_chunks([b"a" * 100, b"b" * 100], force=True)
        assert written == 200
        assert buf.available() == 200  # bound ignored, nothing blocked

    def test_force_single_write_overshoots_capacity(self):
        buf = StreamBuffer(capacity=4)
        buf.write(b"abcd")
        buf.write(b"efgh", force=True)
        assert buf.available() == 8
        assert buf.read_exactly(8) == b"abcdefgh"


class TestTransitionsUnderBatching:
    def test_mark_broken_wakes_blocked_batch_writer(self):
        buf = StreamBuffer(capacity=4)
        buf.write(b"full")
        errors = []

        def writer():
            try:
                buf.write_chunks([b"more"], timeout=5.0)
            except BrokenStreamError as exc:
                errors.append(exc)

        thread = threading.Thread(target=writer)
        thread.start()
        buf.mark_broken()
        thread.join(timeout=2.0)
        assert len(errors) == 1

    def test_two_blocked_writers_both_complete_after_one_drain(self):
        """A single drain that frees room for several parked writers must
        reach all of them (chained wake), not just the first."""
        buf = StreamBuffer(capacity=8)
        buf.write(b"x" * 8)
        done = []

        def writer(tag):
            buf.write(tag * 4, timeout=5.0)
            done.append(tag)

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in (b"a", b"b")]
        for t in threads:
            t.start()
        while len(buf._writers) < 2:  # both writers parked on the full buffer
            time.sleep(0.001)
        assert buf.read(8) == b"x" * 8  # one drain frees room for both
        for t in threads:
            t.join(timeout=5.0)
        assert sorted(done) == [b"a", b"b"]

    def test_close_wakes_blocked_batch_reader_with_eof(self):
        buf = StreamBuffer()
        result = []

        def reader():
            result.append(buf.read_chunks(max_bytes=100, timeout=5.0))

        thread = threading.Thread(target=reader)
        thread.start()
        buf.close_for_writing()
        thread.join(timeout=2.0)
        assert result == [[]]

    def test_wait_until_empty_drains_through_chunked_reads(self):
        buf = StreamBuffer()
        buf.write_chunks([b"abc", b"def", b"ghi"])

        def reader():
            while buf.read_chunks(max_bytes=4, timeout=2.0):
                pass

        thread = threading.Thread(target=reader)
        thread.start()
        assert buf.wait_until_empty(timeout=2.0)
        buf.close_for_writing()
        thread.join(timeout=2.0)

    def test_clear_discards_queued_chunks(self):
        buf = StreamBuffer()
        buf.write_chunks([b"abc", b"def"])
        assert buf.clear() == 6
        assert buf.available() == 0
        assert buf.bytes_written == 6


class TestInterleavedStress:
    """Writer and reader threads race over a bounded buffer; every byte must
    arrive, in order, whatever mix of single/batch calls each side uses."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_threaded_round_trip_is_order_and_content_exact(self, seed):
        rng = random.Random(seed)
        payloads = [bytes([rng.randrange(256)]) * rng.randint(1, 700)
                    for _ in range(400)]
        expected = b"".join(payloads)
        buf = StreamBuffer(capacity=1024)
        received = []

        def writer():
            wrng = random.Random(seed + 1000)
            queue = list(payloads)
            while queue:
                if wrng.random() < 0.5:
                    count = wrng.randint(1, 8)
                    batch, queue = queue[:count], queue[count:]
                    buf.write_chunks(batch, timeout=10.0)
                else:
                    buf.write(queue.pop(0), timeout=10.0)
            buf.close_for_writing()

        def reader():
            rrng = random.Random(seed + 2000)
            while True:
                if rrng.random() < 0.5:
                    chunks = buf.read_chunks(max_bytes=rrng.randint(1, 2048),
                                             timeout=10.0)
                    if not chunks:
                        return
                    received.extend(chunks)
                else:
                    chunk = buf.read(rrng.randint(1, 2048), timeout=10.0)
                    if not chunk:
                        return
                    received.append(chunk)

        threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert b"".join(received) == expected
        assert buf.bytes_read == len(expected)
