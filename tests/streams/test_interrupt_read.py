"""``interrupt_read``: a blocked read ends now, an unblocked one never notices.

``Filter.stop()`` uses it so a worker parked in its polling read looks at
the stop flag at once; the splice that used to wait out the poll interval
(``ControlThread.remove`` on the threaded engine: one ``read_timeout``,
50 ms) is timed here too.  Nothing sleeps and hopes: a reader is known to
be parked from the buffer's own waiter queue, and a timing is the best (for
the splice: the median) of a few rounds, so one host stall cannot fail
what is a claim about mechanism.
"""

import threading
import time

import pytest

from repro.core import ControlThread, IterableSource, SinkEndPoint
from repro.filters import PassthroughFilter
from repro.streams import StreamBuffer, StreamTimeoutError, make_pipe

ROUNDS = 3


def _parked_reader(read, buffer, waiters=1):
    """Start ``read`` on a thread; return once it is blocked in the buffer
    (as the ``waiters``-th reader there)."""
    outcome = {}

    def reader():
        try:
            outcome["result"] = read()
        except StreamTimeoutError:
            outcome["timed_out_at"] = time.perf_counter()

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    deadline = time.monotonic() + 5.0
    while len(buffer._readers) < waiters:
        assert time.monotonic() < deadline, "the reader never parked"
        thread.join(0.001)
    return thread, outcome


def _interrupt_latency(interrupt, read, buffer):
    thread, outcome = _parked_reader(read, buffer)
    called_at = time.perf_counter()
    interrupt()
    thread.join(5.0)
    assert not thread.is_alive()
    assert "result" not in outcome, "an interrupted read must not return"
    return outcome["timed_out_at"] - called_at


@pytest.mark.parametrize("call", ["read", "read_chunks"])
def test_a_blocked_buffer_read_times_out_at_once(call):
    buffer = StreamBuffer()
    read = lambda: getattr(buffer, call)(100, timeout=30.0)  # noqa: E731
    latencies = [_interrupt_latency(buffer.interrupt_read, read, buffer)
                 for _ in range(ROUNDS)]
    assert min(latencies) < 0.010, latencies
    # Nothing was lost or latched: what is written afterwards is read.
    buffer.write_chunks([b"after", b"wards"])
    assert buffer.read_chunks(100, timeout=0) == [b"after", b"wards"]


@pytest.mark.parametrize("call", ["read", "read_chunks"])
def test_a_blocked_pipe_read_times_out_at_once(call):
    dos, dis = make_pipe()
    read = lambda: getattr(dis, call)(100, timeout=30.0)  # noqa: E731
    latencies = [_interrupt_latency(dis.interrupt_read, read, dis.buffer)
                 for _ in range(ROUNDS)]
    assert min(latencies) < 0.010, latencies
    dos.write(b"afterwards")
    assert dis.read(100, timeout=0) == b"afterwards"


def test_an_unblocked_reader_is_unaffected():
    buffer = StreamBuffer()
    buffer.interrupt_read()  # nobody is parked: nothing to latch
    buffer.write(b"data")
    buffer.interrupt_read()
    assert buffer.read(100, timeout=0) == b"data"
    # The interrupts above are not owed to the next reader that parks:
    # it waits out its own (short) timeout, and data still wakes it.
    started = time.perf_counter()
    with pytest.raises(StreamTimeoutError):
        buffer.read(100, timeout=0.05)
    assert time.perf_counter() - started >= 0.045
    thread, outcome = _parked_reader(
        lambda: buffer.read_chunks(100, timeout=30.0), buffer)
    buffer.write(b"wakes")
    thread.join(5.0)
    assert outcome == {"result": [b"wakes"]}


def test_every_parked_reader_is_interrupted_and_no_later_one():
    buffer = StreamBuffer()
    first, first_outcome = _parked_reader(
        lambda: buffer.read(10, timeout=30.0), buffer)
    second, second_outcome = _parked_reader(
        lambda: buffer.read_chunks(10, timeout=30.0), buffer, waiters=2)
    buffer.interrupt_read()
    first.join(5.0)
    second.join(5.0)
    assert "timed_out_at" in first_outcome and "timed_out_at" in second_outcome
    third, third_outcome = _parked_reader(
        lambda: buffer.read(10, timeout=30.0), buffer)
    buffer.write(b"x")
    third.join(5.0)
    assert third_outcome == {"result": b"x"}


class _SequenceSink(SinkEndPoint):
    """Checks the numbered chunks as they arrive; keeps none of them."""

    def __init__(self):
        super().__init__()
        self.expected = self.out_of_place = 0

    def consume_many(self, items):
        for item in items:
            self.out_of_place += int(item[:8]) != self.expected
            self.expected += 1
        self.items_consumed += len(items)


def test_threaded_remove_returns_when_its_work_is_done():
    """``remove`` = pause, quiesce, flush, reconnect, stop.  On a flowing
    stream the stop used to join a worker that had just parked in its 50 ms
    polling read; interrupted, the whole splice is well under a
    millisecond of work — and the stream loses nothing by it."""
    stop = threading.Event()
    padding = bytes(1016)  # 1 KiB chunks: a full buffer is ~1000 of them
    generated = [0]

    def items():
        while not stop.is_set():
            generated[0] += 1
            yield b"%08d" % (generated[0] - 1) + padding

    sink = _SequenceSink()
    control = ControlThread(IterableSource(items()), sink, engine="threaded",
                            auto_start=False)
    control.add(PassthroughFilter(name="stays"))
    control.start()
    try:
        timings = []
        for cycle in range(ROUNDS):
            spliced = PassthroughFilter(name=f"spliced-{cycle}")
            carried = threading.Event()
            spliced.add_activity_listener(carried.set)
            control.add(spliced, position=1)
            assert carried.wait(5.0), "no data reached the spliced filter"
            started = time.perf_counter()
            control.remove(spliced)
            timings.append(time.perf_counter() - started)
            assert spliced.finished and spliced.stats.chunks_in > 0
        # The median: one round may lose the race the interrupt documents
        # (stop lands between the worker's flag check and its parking).
        assert sorted(timings)[ROUNDS // 2] < 0.020, timings
        stop.set()
        assert control.wait_for_completion(timeout=10.0)
        assert sink.expected == generated[0] and sink.out_of_place == 0
    finally:
        stop.set()
        control.shutdown()
