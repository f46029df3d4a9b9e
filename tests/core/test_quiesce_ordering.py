"""The splice invariant's ordering rule: in flight before out of the DIS.

``ControlThread.remove`` pauses the upstream DOS and then waits for
``Filter.is_idle()``.  A batch the filter has read but not yet transformed is
in neither its DIS nor its pending output, so unless the filter already
counts as busy at that instant the splice goes ahead, the batch parks on a
detached DOS, and ``stop`` discards it — 64 chunks lost from a live stream.
"""

import queue
import time

import pytest

from repro.core import (
    CallableSource,
    CollectorSink,
    Filter,
    IterableSource,
    Proxy,
)
from repro.core.filter import PacketFilter
from repro.streams import encode_frame

ENGINES = ["threaded", "event", "asyncio"]


def _sample_idleness_after_each_read(filter_obj):
    """Sample ``is_idle()`` as ``dis.read_chunks`` returns a batch.

    That is the instant a ControlThread on another thread could look: the
    batch has left the DIS and the transform has not started.
    """
    samples = []
    read_chunks = filter_obj.dis.read_chunks

    def sampling_read(*args, **kwargs):
        chunks = read_chunks(*args, **kwargs)
        if chunks:
            samples.append((filter_obj.dis.available(), filter_obj.is_idle()))
        return chunks

    filter_obj.dis.read_chunks = sampling_read
    return samples


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("make_filter, items", [
    (Filter, [b"only-chunk"]),
    (PacketFilter, [encode_frame(b"only-packet")]),
])
def test_a_batch_just_read_already_counts_as_in_flight(engine, make_filter,
                                                       items):
    filter_obj = make_filter()
    samples = _sample_idleness_after_each_read(filter_obj)
    with Proxy("quiesce", engine=engine) as proxy:
        sink = CollectorSink()
        control = proxy.add_stream(IterableSource(items), sink,
                                   name="s", auto_start=False)
        control.add(filter_obj)
        control.start()
        assert control.wait_for_completion(timeout=10.0)
    assert sink.data() == b"".join(items)
    # The read emptied the DIS, so busy-ness alone had to say "not idle".
    assert samples and all(queued == 0 for queued, _idle in samples)
    assert not any(idle for _queued, idle in samples)
    assert filter_obj.is_idle()  # and it is idle again once emitted


@pytest.mark.parametrize("engine", ENGINES)
def test_a_reader_waiting_for_input_does_not_look_busy(engine):
    """Waiting is idle: quiesce, wait_idle and the stall watchdog all read
    ``is_idle()`` while a threaded reader sits in its blocking read, which
    must not count as work in flight."""
    feed = queue.Queue()
    filter_obj = Filter(read_timeout=0.01)
    with Proxy("quiesce", engine=engine) as proxy:
        sink = CollectorSink()
        control = proxy.add_stream(CallableSource(feed.get), sink, name="s",
                                   auto_start=False)
        control.add(filter_obj)
        control.start()
        feed.put(b"x")
        deadline = time.monotonic() + 10.0
        while sink.data() != b"x" and time.monotonic() < deadline:
            time.sleep(0.001)
        # Several read_timeout periods of a live, starved filter.
        for _ in range(10):
            assert filter_obj.is_idle()
            time.sleep(0.005)
        assert filter_obj.quiesce(timeout=1.0)
        feed.put(None)
        assert control.wait_for_completion(timeout=10.0)
