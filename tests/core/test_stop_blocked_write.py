"""``Filter.stop()`` ends a worker blocked writing into a full downstream.

A threaded worker whose downstream is full parks in its write.  Stopping
it used to wait for that write for the whole stop timeout and leave the
thread behind — and a chain backed up behind a stalled sink paid one full
timeout per element at shutdown.  The stop now interrupts the write (the
twin of ``interrupt_read``): the worker leaves at once, records no error,
leaves its streams open, and what it delivered before stays counted.

A source blocked in ``produce()`` on its own thread is ended by the stop
too, and the ``None`` its ``produce()`` then returns is not end of input:
its stream stays open.
"""

import socket
import threading
import time

import pytest

from repro.core import ControlThread, IterableSource, SinkEndPoint, SocketSource
from repro.filters import PassthroughFilter
from repro.streams import DetachableInputStream, DetachableOutputStream
from repro.transport import LoopbackTransport, TransportSource
from repro.transport.udp import TcpStreamConnection

CHUNK = bytes(8192)


def _wait_for(predicate, what, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, what
        time.sleep(0.001)


def test_a_lone_filter_blocked_on_a_full_downstream_stops_at_once():
    filter_obj = PassthroughFilter(name="lone")
    upstream = DetachableOutputStream(name="up")
    upstream.connect(filter_obj.dis)
    downstream = DetachableInputStream(name="down", capacity=64 * 1024)
    filter_obj.dos.connect(downstream)
    filter_obj.start()
    # 128 KiB into a 64 KiB downstream: the first half lands, then the
    # worker parks waiting for room nobody will make.
    upstream.write_many([CHUNK] * 16)
    _wait_for(lambda: downstream.buffer._writers, "the worker never blocked")

    started = time.perf_counter()
    filter_obj.stop(timeout=3.0)
    took = time.perf_counter() - started

    assert took < 0.5, took
    assert not filter_obj.running and filter_obj.finished
    assert filter_obj.error is None and filter_obj.stats.errors == 0
    assert not filter_obj.dos.closed and not downstream.closed
    assert filter_obj.dos.bytes_written == downstream.bytes_received == 65536
    assert downstream.read_chunks(1 << 20, timeout=0) == [CHUNK] * 8


class _StuckSink(SinkEndPoint):
    """Takes one batch, then blocks in user code until released."""

    def __init__(self):
        super().__init__(name="stuck")
        self.entered = threading.Event()
        self.release = threading.Event()

    def consume(self, data):
        self.entered.set()
        self.release.wait(30.0)

    def consume_many(self, items):
        self.consume(items[0])


def _endless():
    while True:
        yield CHUNK


def test_a_chain_behind_a_stuck_sink_shuts_down_in_one_timeout():
    sink = _StuckSink()
    control = ControlThread(IterableSource(_endless(), name="src"), sink,
                            engine="threaded", auto_start=False)
    filters = [PassthroughFilter(name=f"pt-{index}") for index in range(3)]
    for filter_obj in filters:
        control.add(filter_obj)
    control.start()
    try:
        assert sink.entered.wait(5.0)
        # Backed up end to end: every element upstream of the sink is
        # parked writing into its full neighbour.
        for element in [control.source, *filters]:
            _wait_for(lambda: element.dos.sink.buffer._writers,
                      f"{element.name} never blocked")

        started = time.perf_counter()
        control.shutdown(timeout=2.0)
        took = time.perf_counter() - started

        # One timeout, spent on the sink stuck in consume(); none on the
        # elements that were only waiting for room.
        assert 1.9 < took < 3.0, took
        for element in [control.source, *filters]:
            assert not element.running, element.name
            assert element.error is None, (element.name, element.error)
        assert sink.running
    finally:
        sink.release.set()
        control.shutdown()


def _socket_source():
    """A SocketSource whose blocking receive outlasts the test."""
    writer, reader = socket.socketpair()
    connection = TcpStreamConnection(reader)
    return (SocketSource(connection, recv_timeout=30.0), connection,
            writer.close)


def _transport_source():
    """A TransportSource on its own thread, polling an idle receiver."""
    transport = LoopbackTransport()
    receiver = transport.open_channel("in").join("proxy")
    return TransportSource(receiver), receiver, transport.close


@pytest.mark.parametrize("make_source", [_socket_source, _transport_source],
                         ids=["socket", "transport"])
def test_stopping_a_source_blocked_in_produce_leaves_its_stream_open(
        make_source):
    source, blocking, cleanup = make_source()
    receiving = threading.Event()
    recv = blocking.recv

    def watched_recv(*args, **kwargs):
        receiving.set()
        return recv(*args, **kwargs)

    blocking.recv = watched_recv
    downstream = DetachableInputStream(name="down")
    source.dos.connect(downstream)
    source.start()
    try:
        assert receiving.wait(5.0), "the source never blocked in produce()"
        source.stop(timeout=5.0)
        assert source.finished and not source.running
        assert source.error is None and source.stats.errors == 0
        assert not source.dos.closed and not downstream.closed
        assert not downstream.at_eof()
    finally:
        source.stop(timeout=5.0)
        cleanup()
