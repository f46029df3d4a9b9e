"""The cooperative source pump draws, accounts and wakes per batch.

A :class:`TransportSource` on a cooperative engine takes a pump budget of
queued datagrams in one look.  What must not change: every datagram reaches
the sink in order, the counters read as a per-unit pump left them, and the
end of the stream is never missed — the engines here run with a heartbeat
far longer than the test's patience, so a lost wake-up is a failure, not a
half-second hiccup.
"""

import pytest

from repro.core import CollectorSink, IterableSource, Proxy
from repro.core.filter import DEFAULT_PUMP_BUDGET
from repro.runtime import AsyncioEngine, EventEngine
from repro.transport import LoopbackTransport, TransportSource

ENGINES = {"event": EventEngine, "asyncio": AsyncioEngine}


@pytest.fixture(params=sorted(ENGINES))
def engine(request):
    """A cooperative engine whose lost-wake-up safety net is out of reach."""
    instance = ENGINES[request.param](heartbeat_s=600.0)
    yield instance
    instance.shutdown()


def _relay(engine, sends):
    """Run ``sends`` (a callable given the channel) into a collecting chain."""
    transport = LoopbackTransport()
    channel = transport.open_channel("in")
    receiver = channel.join("proxy")
    source = TransportSource(receiver)
    sink = CollectorSink(expect_frames=True)
    with Proxy("p", engine=engine) as proxy:
        control = proxy.add_stream(source, sink, name="s")
        sends(channel)
        completed = control.wait_for_completion(timeout=10.0)
        stats = control.snapshot().source_stats
    transport.close()
    return completed, source, sink, stats


@pytest.mark.parametrize("batches", [1, 3])
def test_eof_right_after_a_full_budget_batch_is_seen(engine, batches):
    payloads = [b"pkt-%04d" % i for i in range(batches * DEFAULT_PUMP_BUDGET)]

    def sends(channel):
        # Exactly full budgets, then the close with nothing behind it: the
        # pump that takes the last batch sees no short draw to tell it so.
        channel.send_many(payloads)
        channel.close()

    completed, source, sink, stats = _relay(engine, sends)
    assert completed, "the source never saw end-of-stream (lost wake-up)"
    assert sink.items() == payloads
    assert source.items_produced == len(payloads)
    assert stats["chunks_out"] == stats["packets_out"] == len(payloads)
    # A packet -> packet hop: payload bytes, no frame headers.
    assert stats["bytes_out"] == sum(map(len, payloads))


def test_a_short_batch_then_silence_then_more(engine):
    first = [b"a-%d" % i for i in range(5)]
    second = [b"b-%d" % i for i in range(DEFAULT_PUMP_BUDGET + 7)]

    def sends(channel):
        channel.send_many(first)
        # The source is parked on its receiver hook by now or soon will be;
        # either way the next delivery must reach it.
        for payload in second:
            channel.send(payload)
        channel.close()

    completed, source, sink, _stats = _relay(engine, sends)
    assert completed
    assert sink.items() == first + second
    assert source.items_produced == len(first) + len(second)


def test_eof_with_nothing_sent(engine):
    completed, source, sink, stats = _relay(
        engine, lambda channel: channel.close())
    assert completed
    assert sink.items() == [] and source.items_produced == 0
    assert stats["chunks_out"] == 0


@pytest.mark.parametrize("frame_output", [False, True])
def test_a_list_backlog_is_drawn_by_slices_and_accounted_once(engine,
                                                               frame_output):
    items = [bytes([i % 251]) * (1 + i % 9) for i in range(300)] + [b""]
    source = IterableSource(items, frame_output=frame_output)
    sink = CollectorSink(expect_frames=frame_output)
    with Proxy("p", engine=engine) as proxy:
        control = proxy.add_stream(source, sink, name="s")
        assert control.wait_for_completion(timeout=10.0)
        stats = control.snapshot().source_stats
    sent = [item for item in items if item]  # empty items are skipped
    assert (sink.items() if frame_output else [sink.data()]) \
        == (sent if frame_output else [b"".join(sent)])
    assert source.items_produced == stats["chunks_out"] == len(sent)
    assert stats["packets_out"] == (len(sent) if frame_output else 0)
    # Payload bytes either way: a packet -> packet hop carries no headers.
    assert stats["bytes_out"] == sum(map(len, sent))
    assert stats["bytes_out"] == control.snapshot().sink_stats["bytes_in"]
    # Kept by reference to the last item, not a copy of each payload.
    assert source._last_emitted is sent[-1]


def test_a_produce_error_mid_draw_keeps_the_items_before_it(engine):
    def items():
        for i in range(10):
            yield b"item-%d;" % i
        raise RuntimeError("iterator exploded")

    source = IterableSource(items())
    sink = CollectorSink()
    with Proxy("p", engine=engine) as proxy:
        control = proxy.add_stream(source, sink, name="s")
        assert control.wait_for_completion(timeout=10.0)
    assert isinstance(source.error, RuntimeError)
    assert source.items_produced == 10
    assert sink.data() == b"".join(b"item-%d;" % i for i in range(10))
