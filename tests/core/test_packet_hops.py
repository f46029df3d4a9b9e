"""A packet stays a packet between packet elements.

The kind of a hop follows from its two ends: packet -> packet hands the
packets over by reference, packet -> byte frames on delivery, byte -> packet
de-frames on delivery, and a splice decides again.  What that must keep:

(a) byte filters inserted and removed between two packet filters on a
    flowing stream deliver exactly the input packets;
(b) on every hop the writer's ``bytes_out`` is the reader's ``bytes_in`` —
    payload bytes into a packet reader, frame bytes into a byte reader —
    with chunk and packet counts as they always were;
(c) a bad frame a byte element writes into a packet reader delivers the
    packets before it and fails the *reader* (its ``error`` and a
    ``stream-error`` event), also for a partial frame left behind when the
    writer changes or the stream ends;
(d) empty packets are dropped on every hop;
(e) a threaded blocking write of a chunk bigger than the free room lands
    whole;
(f) a crashing byte filter between two packet filters, restarted or
    bypassed, costs a contiguous run of packets and nothing else.

Chains are composed before they start; a splice waits on conditions and
boundary holds, never on a sleep.
"""

import sys
import threading

import pytest

from repro.core import (
    CollectorSink,
    ControlThread,
    ErrorPolicy,
    Filter,
    IterableSource,
    PacketFilter,
)
from repro.fec import FecPacket
from repro.filters import (
    ByteCounterFilter,
    FaultInjectionFilter,
    FecDecoderFilter,
    FecEncoderFilter,
    PacketPassthroughFilter,
    PassthroughFilter,
)
from repro.obs.events import (
    EVENT_FILTER_BYPASS,
    EVENT_FILTER_RESTART,
    EVENT_STREAM_ERROR,
    get_event_log,
)
from repro.streams import (
    HEADER_SIZE,
    DetachableInputStream,
    DetachableOutputStream,
    FramingError,
    encode_frame,
    encode_frames,
    make_pipe,
)

ENGINES = ["threaded", "event", "asyncio"]

PACKETS = [b"packet-%03d;" % i + bytes([i % 251]) * (i % 40) for i in range(240)]


@pytest.fixture(autouse=True)
def _clean_slate():
    FaultInjectionFilter.reset_crash_counts()
    get_event_log().clear()
    yield
    FaultInjectionFilter.reset_crash_counts()


class WatchedSink(CollectorSink):
    """A packet collector the test can wait on, item count by item count."""

    def __init__(self, **kwargs):
        super().__init__(expect_frames=True, **kwargs)
        self._arrived = threading.Condition()

    def consume(self, data):
        super().consume(data)
        with self._arrived:
            self._arrived.notify_all()

    def wait_for(self, count, timeout=15.0):
        with self._arrived:
            return self._arrived.wait_for(
                lambda: len(self.items()) >= count, timeout)


def _compose(engine, source, sink, filters, **kwargs):
    control = ControlThread(source, sink, engine=engine, auto_start=False,
                            **kwargs)
    for filter_obj in filters:
        control.add(filter_obj)
    control.start()
    return control


def _group_start(unit):
    """Boundary predicate on the FEC encoder's output: a group's first
    packet.  It sees the bare packet — a packet hop carries no header."""
    return FecPacket.unpack(unit).index == 0


# ------------------------------------------------------------------ (a)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("make_byte_filter", [
    PassthroughFilter, ByteCounterFilter, FaultInjectionFilter])
def test_byte_filters_spliced_between_fec_filters_deliver_the_input(
        engine, make_byte_filter):
    sink = WatchedSink(name="sink")
    source = IterableSource(PACKETS, name="src", frame_output=True,
                            pacing_s=0.002)
    encoder = FecEncoderFilter(name="enc", start_group_id=0)
    decoder = FecDecoderFilter(name="dec")
    control = _compose(engine, source, sink, [encoder, decoder])
    try:
        middle = make_byte_filter(name="middle")
        assert sink.wait_for(20)
        control.add(middle, position=1, boundary=_group_start)
        assert sink.wait_for(len(sink.items()) + 20)
        control.remove(middle)
        assert control.wait_for_completion(timeout=20.0)
        assert sink.items() == PACKETS
        # The byte filter saw frames (a header each) while it was in.
        assert middle.stats.chunks_in > 0
        assert middle.stats.bytes_in > middle.stats.chunks_in * HEADER_SIZE
        assert encoder.error is None and decoder.error is None
    finally:
        control.shutdown()


def test_splices_under_thread_switch_pressure_lose_nothing():
    """Threads handing a hop's decoder and kind back and forth — writers,
    readers and the splicing control thread — switched every few
    microseconds: the packets still arrive exactly once, in order."""
    packets = [b"p-%04d;" % i + bytes(i % 50) for i in range(600)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    sink = WatchedSink(name="sink")
    control = _compose(
        "threaded", IterableSource(packets, name="src", frame_output=True,
                                   pacing_s=0.001), sink,
        [FecEncoderFilter(name="enc", start_group_id=0),
         FecDecoderFilter(name="dec")])
    try:
        for cycle in range(4):
            assert sink.wait_for(len(sink.items()) + 8)
            middle = PassthroughFilter(name=f"middle-{cycle}")
            control.add(middle, position=1, boundary=_group_start)
            assert sink.wait_for(len(sink.items()) + 8)
            control.remove(middle)
        assert control.wait_for_completion(timeout=30.0)
        assert sink.items() == packets
    finally:
        sys.setswitchinterval(previous)
        control.shutdown()


# ------------------------------------------------------------------ (b)


def _hop_pairs(control):
    elements = control.elements()
    return [(left.name, left.stats, right.name, right.stats)
            for left, right in zip(elements, elements[1:])]


@pytest.mark.parametrize("engine", ENGINES)
def test_each_hop_counts_the_same_bytes_at_both_ends(engine):
    packets = PACKETS[:100]
    sink = CollectorSink(name="sink", expect_frames=True)
    encoder = FecEncoderFilter(name="enc", start_group_id=0)
    control = _compose(
        engine, IterableSource(packets, name="src", frame_output=True), sink,
        [encoder, PassthroughFilter(name="bytes"),
         FecDecoderFilter(name="dec")])
    try:
        assert control.wait_for_completion(timeout=15.0)
        assert sink.items() == packets
        for writer, out, reader, into in _hop_pairs(control):
            assert out.bytes_out == into.bytes_in, (writer, reader)
        source, enc, middle, dec = (element.stats
                                    for element in control.elements()[:4])
        wire = encoder.encoder_stats.packets_out
        payload = sum(map(len, packets))
        # Packet hops carry payload bytes; the packet -> byte hop frames.
        assert source.bytes_out == enc.bytes_in == payload
        assert middle.bytes_in == enc.bytes_out
        assert middle.chunks_in == wire
        assert enc.bytes_out == dec.bytes_in + wire * HEADER_SIZE
        assert dec.bytes_out == payload
        # Chunk and packet counts read as they always did (a packet
        # filter counts each packet as a chunk and as a packet).
        assert (source.chunks_out, source.packets_out) == (100, 100)
        assert (enc.chunks_in, enc.packets_in) == (200, 100)
        assert (enc.chunks_out, enc.packets_out) == (2 * wire, wire)
        assert (dec.chunks_in, dec.packets_in) == (2 * wire, wire)
        assert (dec.chunks_out, dec.packets_out) == (200, 100)
    finally:
        control.shutdown()


@pytest.mark.parametrize("engine", ENGINES)
def test_a_byte_writer_into_a_packet_reader_counts_payload_bytes(engine):
    """Frames cut at arbitrary points by a byte source: the reader gets the
    packets, and both ends count what landed — the payload."""
    packets = PACKETS[:60]
    stream = encode_frames(packets)
    cuts = list(range(0, len(stream), 37)) + [len(stream)]
    chunks = [stream[a:b] for a, b in zip(cuts, cuts[1:])]
    sink = CollectorSink(name="sink", expect_frames=True)
    control = _compose(engine, IterableSource(chunks, name="src"), sink, [])
    try:
        assert control.wait_for_completion(timeout=15.0)
        assert sink.items() == packets
        snapshot = control.snapshot()
        assert snapshot.source_stats["bytes_out"] == sum(map(len, packets))
        assert snapshot.sink_stats["bytes_in"] == sum(map(len, packets))
        assert snapshot.source_stats["chunks_out"] == len(chunks)
        assert snapshot.sink_stats["packets_in"] == len(packets)
    finally:
        control.shutdown()


# ------------------------------------------------------------------ (c)


class TruncateAt(Filter):
    """A byte filter that drops the last two bytes of its ``index``-th chunk
    — leaving a frame that can never complete."""

    def __init__(self, index, **kwargs):
        super().__init__(**kwargs)
        self.index = index
        self.seen = 0

    def transform(self, chunk):
        self.seen += 1
        return chunk[:-2] if self.seen - 1 == self.index else chunk


def _stream_errors():
    return get_event_log().records(event=EVENT_STREAM_ERROR)


@pytest.mark.parametrize("engine", ENGINES)
def test_a_bad_frame_fails_the_reader_after_the_packets_before_it(engine):
    good = PACKETS[:5]
    chunks = [encode_frame(p) for p in good[:3]]
    chunks.append(b"\x00\x00\x00\x00\x01x")  # bad magic
    chunks += [encode_frame(p) for p in good[3:]]
    source = IterableSource(chunks, name="src")  # a byte writer
    reader = PacketPassthroughFilter(name="reader")
    sink = CollectorSink(name="sink", expect_frames=True)
    control = _compose(engine, source, sink, [reader], error_policy="fail")
    try:
        assert control.wait_for_completion(timeout=15.0)
        assert sink.items() == good[:3]
        assert isinstance(reader.error, FramingError)
        assert source.error is None
    finally:
        control.shutdown()
    errors = _stream_errors()
    assert [(e["filter"], e["policy"]) for e in errors] == [("reader", "fail")]
    assert "magic" in errors[0]["error"]


@pytest.mark.parametrize("engine", ENGINES)
def test_a_frame_cut_short_by_the_end_of_the_stream_fails_the_reader(engine):
    packets = PACKETS[:6]
    source = IterableSource(packets, name="src", frame_output=True)
    reader = PacketPassthroughFilter(name="reader")
    sink = CollectorSink(name="sink", expect_frames=True)
    control = _compose(engine, source, sink,
                       [TruncateAt(5, name="cut"), reader],
                       error_policy="fail")
    try:
        assert control.wait_for_completion(timeout=15.0)
        assert sink.items() == packets[:5]
        assert isinstance(reader.error, FramingError)
        assert control.filters[0].error is None
    finally:
        control.shutdown()
    assert [e["filter"] for e in _stream_errors()] == ["reader"]
    assert "end of stream inside a frame" in _stream_errors()[0]["error"]


@pytest.mark.parametrize("engine", ENGINES)
def test_a_partial_frame_left_when_a_packet_writer_takes_over_fails_the_reader(
        engine):
    packets = PACKETS[:6]
    source = IterableSource(packets, name="src", frame_output=True)
    source.propagate_eof = False  # keep the stream open for the splice
    cut = TruncateAt(5, name="cut")
    reader = PacketPassthroughFilter(name="reader")
    sink = WatchedSink(name="sink")
    control = _compose(engine, source, sink, [cut, reader],
                       error_policy="fail")
    try:
        assert sink.wait_for(5)
        assert control.wait_idle(timeout=10.0)
        assert reader.error is None
        # The byte filter leaves; the packet source now feeds the reader,
        # whose DIS still holds the cut frame's first bytes.
        control.remove(cut)
        assert reader.wait_finished(timeout=10.0)
        assert isinstance(reader.error, FramingError)
        assert "took over inside a frame" in str(reader.error)
        assert sink.items() == packets[:5]
        assert source.error is None and cut.error is None
    finally:
        control.shutdown()
    assert [e["filter"] for e in _stream_errors()] == ["reader"]


# ------------------------------------------------------------------ (d)


class EmptyFirst(PacketFilter):
    """Emits an empty packet before every packet it is given."""

    def transform_packet(self, packet):
        return [b"", packet]


@pytest.mark.parametrize("engine", ENGINES)
def test_empty_packets_are_dropped_on_every_hop(engine):
    packets = PACKETS[:30]
    items = [b""] + [p for packet in packets for p in (packet, b"")]
    chunks = [encode_frame(b"")] + [encode_frame(p) for p in packets]
    for source, filters in [
            # packet source -> packet filter -> byte filter -> packet filter
            (IterableSource(items, name="src", frame_output=True),
             [EmptyFirst(name="empties"), ByteCounterFilter(name="bytes"),
              PacketPassthroughFilter(name="after")]),
            # byte source writing empty frames -> packet reader
            (IterableSource(chunks, name="src"),
             [PacketPassthroughFilter(name="after")])]:
        sink = CollectorSink(name="sink", expect_frames=True)
        control = _compose(engine, source, sink, filters)
        try:
            assert control.wait_for_completion(timeout=15.0)
            assert sink.items() == packets
            after = control.filters[-1]
            assert after.stats.packets_in == len(packets)
            if len(filters) == 3:
                # No 5-byte empty frame ever reached the byte filter.
                assert filters[1].total_chunks == len(packets)
        finally:
            control.shutdown()


# ------------------------------------------------------------------ (e)


def _wait_parked(buffer, thread):
    """Until ``thread`` is parked on ``buffer`` waiting for room."""
    for _ in range(10_000):
        if buffer._writers_waiting:
            return
        thread.join(0.001)
    raise AssertionError("the writer never blocked")


@pytest.mark.parametrize("size", [12, 40])  # bigger than the room / buffer
def test_a_blocking_write_bigger_than_the_free_room_lands_whole(size):
    dos, dis = make_pipe(capacity=16)
    first = b"a" * 10
    big = bytes(range(size))
    dos.write(first)
    writer = threading.Thread(target=dos.write, args=(big,), daemon=True)
    writer.start()
    _wait_parked(dis.buffer, writer)
    assert dis.available() == 10  # nothing of it squeezed in
    assert dis.read_chunks(16, timeout=1.0) == [first]
    writer.join(5.0)
    assert not writer.is_alive()
    got = dis.read_chunks(1 << 16, timeout=1.0)
    assert len(got) == 1 and got[0] is big
    assert dis.bytes_received == 10 + size


def test_a_packet_reader_takes_a_packet_larger_than_its_budget_whole():
    dos, dis = DetachableOutputStream(), DetachableInputStream()
    dos.packets = dis.packets = True
    dos.connect(dis)
    packet = bytes(1000)
    dos.write(packet)
    assert dis.read_chunks(300, timeout=1.0)[0] is packet


# ------------------------------------------------------------------ (f)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("mode,event", [("restart-filter", EVENT_FILTER_RESTART),
                                        ("bypass", EVENT_FILTER_BYPASS)])
def test_a_crashing_byte_filter_between_packet_filters_loses_one_run(
        engine, mode, event):
    packets = PACKETS[:120]
    crash_at = 10
    source = IterableSource(packets, name="src", frame_output=True,
                            pacing_s=0.002)
    sink = CollectorSink(name="sink", expect_frames=True)
    before = PacketPassthroughFilter(name="before")
    after = PacketPassthroughFilter(name="after")
    crasher = FaultInjectionFilter(name=f"crash-{engine}-{mode}",
                                   crash_at_chunk=crash_at)
    control = _compose(engine, source, sink, [before, crasher, after],
                       error_policy=ErrorPolicy(mode=mode, backoff_s=0.01))
    try:
        assert control.wait_for_completion(timeout=20.0)
        got = sink.items()
        # Everything before the crash, then one contiguous run lost with
        # the dead filter, then everything to the end — whole packets only.
        assert got[:crash_at] == packets[:crash_at]
        resumed = packets.index(got[crash_at])
        assert resumed > crash_at
        assert got[crash_at:] == packets[resumed:]
        assert before.error is None and after.error is None
    finally:
        control.shutdown()
    assert len(get_event_log().records(event=event)) == 1
    assert _stream_errors() == []
