"""Unit tests for the ControlThread: dynamic composition on a live stream."""

import time

import pytest

from repro.core import (
    CollectorSink,
    CompositionError,
    ControlThread,
    Filter,
    IterableSource,
    null_proxy,
)
from repro.filters import (
    PacketPassthroughFilter,
    PassthroughFilter,
    UppercaseFilter,
    XorCipherFilter,
)


def make_chunks(count, prefix="chunk"):
    return [f"{prefix}-{i:04d};".encode() for i in range(count)]


def build_stream(chunks, pacing_s=0.0, frame_output=False, expect_frames=False):
    source = IterableSource(list(chunks), pacing_s=pacing_s,
                            frame_output=frame_output)
    sink = CollectorSink(expect_frames=expect_frames)
    control = null_proxy(source, sink, name="test-stream")
    return control, sink


class TestNullProxy:
    def test_forwards_everything_unmodified(self):
        chunks = make_chunks(50)
        control, sink = build_stream(chunks)
        assert control.wait_for_completion(timeout=5.0)
        assert sink.data() == b"".join(chunks)
        control.shutdown()

    def test_snapshot_of_empty_chain(self):
        control, sink = build_stream(make_chunks(5))
        control.wait_for_completion(timeout=5.0)
        snap = control.snapshot()
        assert snap.filter_names == []
        assert snap.stream_name == "test-stream"
        control.shutdown()

    def test_describe_lists_source_and_sink(self):
        control, _sink = build_stream(make_chunks(3))
        control.wait_for_completion(timeout=5.0)
        descriptions = control.describe()
        assert descriptions[0]["type"] == "iterable-source"
        assert descriptions[-1]["type"] == "collector-sink"
        control.shutdown()


class TestInsertion:
    def test_insert_on_running_stream_preserves_all_data(self):
        chunks = make_chunks(300)
        control, sink = build_stream(chunks, pacing_s=0.001)
        time.sleep(0.05)
        control.add(PassthroughFilter(name="pt"))
        assert control.wait_for_completion(timeout=20.0)
        assert sink.data() == b"".join(chunks)
        assert control.filter_names() == ["pt"]
        control.shutdown()

    def test_insert_transform_applies_only_after_insertion(self):
        chunks = make_chunks(300)
        control, sink = build_stream(chunks, pacing_s=0.001)
        time.sleep(0.05)
        control.add(UppercaseFilter(name="up"))
        assert control.wait_for_completion(timeout=20.0)
        data = sink.data()
        assert len(data) == len(b"".join(chunks))
        assert b"chunk" in data   # early data passed through before insertion
        assert b"CHUNK" in data   # later data transformed
        control.shutdown()

    def test_insert_multiple_filters_in_order(self):
        chunks = make_chunks(200)
        control, sink = build_stream(chunks, pacing_s=0.001)
        control.add(PassthroughFilter(name="a"))
        control.add(PassthroughFilter(name="b"))
        control.add(PassthroughFilter(name="c"), position=1)
        assert control.filter_names() == ["a", "c", "b"]
        assert control.wait_for_completion(timeout=20.0)
        assert sink.data() == b"".join(chunks)
        control.shutdown()

    def test_insert_position_out_of_range_rejected(self):
        control, _sink = build_stream(make_chunks(10), pacing_s=0.01)
        with pytest.raises(CompositionError):
            control.add(PassthroughFilter(), position=5)
        control.shutdown()

    def test_insert_already_started_filter_rejected(self):
        control, _sink = build_stream(make_chunks(10), pacing_s=0.01)
        rogue = PassthroughFilter()
        rogue.start()
        with pytest.raises(CompositionError):
            control.add(rogue)
        rogue.stop()
        control.shutdown()

    def test_insert_connected_filter_rejected(self):
        control, _sink = build_stream(make_chunks(10), pacing_s=0.01)
        from repro.streams import DetachableInputStream
        rogue = PassthroughFilter()
        rogue.dos.connect(DetachableInputStream())
        with pytest.raises(CompositionError):
            control.add(rogue)
        control.shutdown()

    def test_insert_packet_filters_on_framed_stream(self):
        packets = [f"packet-{i}".encode() for i in range(100)]
        source = IterableSource(packets, frame_output=True, pacing_s=0.001)
        sink = CollectorSink(expect_frames=True)
        control = null_proxy(source, sink)
        control.add(PacketPassthroughFilter(name="pp"))
        assert control.wait_for_completion(timeout=20.0)
        assert sink.items() == packets
        control.shutdown()

    def test_symmetric_filters_cancel_out(self):
        packets = [f"secret-{i}".encode() for i in range(50)]
        source = IterableSource(packets, frame_output=True, pacing_s=0.002)
        sink = CollectorSink(expect_frames=True)
        # Composed before start: added one after the other to a flowing
        # stream, any packet emitted between the two calls would reach the
        # sink XORed once.
        control = ControlThread(source, sink, auto_start=False)
        control.add(XorCipherFilter(key=b"k", name="enc"))
        control.add(XorCipherFilter(key=b"k", name="dec"))
        control.start()
        assert control.wait_for_completion(timeout=20.0)
        assert sink.items() == packets
        control.shutdown()


class TestRemoval:
    def test_remove_by_name_and_index(self):
        chunks = make_chunks(400)
        control, sink = build_stream(chunks, pacing_s=0.001)
        control.add(PassthroughFilter(name="a"))
        control.add(PassthroughFilter(name="b"))
        time.sleep(0.05)
        removed = control.remove("a")
        assert removed.name == "a"
        assert control.filter_names() == ["b"]
        removed2 = control.remove(0)
        assert removed2.name == "b"
        assert control.filter_names() == []
        assert control.wait_for_completion(timeout=20.0)
        assert sink.data() == b"".join(chunks)
        control.shutdown()

    def test_removed_filter_is_stopped(self):
        control, _sink = build_stream(make_chunks(200), pacing_s=0.002)
        f = PassthroughFilter(name="gone")
        control.add(f)
        time.sleep(0.05)
        control.remove("gone")
        assert not f.running
        control.shutdown()

    def test_remove_unknown_filter_raises(self):
        control, _sink = build_stream(make_chunks(10), pacing_s=0.01)
        with pytest.raises(CompositionError):
            control.remove("ghost")
        with pytest.raises(CompositionError):
            control.remove(3)
        control.shutdown()

    def test_insert_then_remove_mid_stream_loses_nothing(self):
        chunks = make_chunks(500)
        control, sink = build_stream(chunks, pacing_s=0.0005)
        for _ in range(3):
            time.sleep(0.02)
            control.add(UppercaseFilter(name="tmp"))
            time.sleep(0.02)
            control.remove("tmp")
        assert control.wait_for_completion(timeout=30.0)
        data = sink.data()
        assert len(data) == len(b"".join(chunks))
        # Same content modulo case.
        assert data.lower() == b"".join(chunks).lower()
        control.shutdown()


class TestMoveReorderReplace:
    def _tagger(self, tag):
        class Tagger(Filter):
            type_name = f"tagger-{tag}"

            def transform(self, chunk, _tag=tag):
                return chunk + _tag.encode()

        return Tagger(name=tag)

    def test_replace_swaps_filter(self):
        chunks = make_chunks(300)
        control, sink = build_stream(chunks, pacing_s=0.001)
        control.add(PassthroughFilter(name="old"))
        time.sleep(0.05)
        old = control.replace("old", UppercaseFilter(name="new"))
        assert old.name == "old"
        assert control.filter_names() == ["new"]
        assert control.wait_for_completion(timeout=20.0)
        assert len(sink.data()) == len(b"".join(chunks))
        control.shutdown()

    def test_move_changes_order(self):
        control, _sink = build_stream(make_chunks(400), pacing_s=0.001)
        control.add(PassthroughFilter(name="a"))
        control.add(PassthroughFilter(name="b"))
        control.add(PassthroughFilter(name="c"))
        control.move("c", 0)
        assert control.filter_names() == ["c", "a", "b"]
        control.shutdown()

    def test_move_to_invalid_position_rejected(self):
        control, _sink = build_stream(make_chunks(50), pacing_s=0.01)
        control.add(PassthroughFilter(name="a"))
        with pytest.raises(CompositionError):
            control.move("a", 5)
        control.shutdown()

    def test_reorder_full_chain(self):
        control, sink = build_stream(make_chunks(400), pacing_s=0.001)
        control.add(PassthroughFilter(name="a"))
        control.add(PassthroughFilter(name="b"))
        control.add(PassthroughFilter(name="c"))
        control.reorder(["b", "c", "a"])
        assert control.filter_names() == ["b", "c", "a"]
        assert control.wait_for_completion(timeout=20.0)
        control.shutdown()

    def test_reorder_must_cover_every_filter(self):
        control, _sink = build_stream(make_chunks(50), pacing_s=0.01)
        control.add(PassthroughFilter(name="a"))
        control.add(PassthroughFilter(name="b"))
        with pytest.raises(CompositionError):
            control.reorder(["a"])
        with pytest.raises(CompositionError):
            control.reorder(["a", "a"])
        control.shutdown()

    def test_data_order_preserved_across_reorder(self):
        chunks = make_chunks(500)
        control, sink = build_stream(chunks, pacing_s=0.0005)
        control.add(PassthroughFilter(name="a"))
        control.add(PassthroughFilter(name="b"))
        time.sleep(0.05)
        control.reorder(["b", "a"])
        assert control.wait_for_completion(timeout=30.0)
        assert sink.data() == b"".join(chunks)
        control.shutdown()


class TestPositionOf:
    def test_position_by_object(self):
        control, _sink = build_stream(make_chunks(50), pacing_s=0.01)
        f = PassthroughFilter(name="obj")
        control.add(f)
        assert control.position_of(f) == 0
        assert control.position_of("obj") == 0
        assert control.position_of(0) == 0
        control.shutdown()

    def test_position_of_foreign_filter_raises(self):
        control, _sink = build_stream(make_chunks(50), pacing_s=0.01)
        with pytest.raises(CompositionError):
            control.position_of(PassthroughFilter())
        control.shutdown()


class TestWaitIdle:
    def test_wait_idle_returns_once_chain_drains(self):
        chunks = make_chunks(100)
        control, sink = build_stream(chunks)
        assert control.wait_for_completion(timeout=5.0)
        assert control.wait_idle(timeout=5.0)
        assert control.wait_idle(timeout=5.0, extra=lambda: True)
        control.shutdown()

    def test_wait_idle_times_out_on_false_extra(self):
        control, _sink = build_stream(make_chunks(10))
        control.wait_for_completion(timeout=5.0)
        assert control.wait_idle(timeout=0.2, extra=lambda: False) is False
        control.shutdown()

    def test_concurrent_wait_idle_does_not_stall_composition(self):
        """Regression: a wait_idle waiter must never make data-path threads
        queue behind the composition lock (lock-order inversion) — splices
        performed while a waiter spins must complete at normal speed."""
        import threading

        chunks = make_chunks(3000)
        control, sink = build_stream(chunks, pacing_s=0.0005)
        stop = threading.Event()

        def waiter():
            while not stop.is_set():
                control.wait_idle(timeout=0.2, extra=lambda: False)

        thread = threading.Thread(target=waiter)
        thread.start()
        try:
            start = time.monotonic()
            for i in range(5):
                control.add(PassthroughFilter(name=f"f{i}"))
                control.remove(f"f{i}")
            elapsed = time.monotonic() - start
            # Far below the 10 s drain timeout a stalled splice would take.
            assert elapsed < 5.0
        finally:
            stop.set()
            thread.join(timeout=5.0)
        assert control.wait_for_completion(timeout=30.0)
        assert sink.data() == b"".join(chunks)
        control.shutdown()


class TestShutdown:
    def test_shutdown_is_idempotent(self):
        control, _sink = build_stream(make_chunks(20))
        control.wait_for_completion(timeout=5.0)
        control.shutdown()
        control.shutdown()
        assert not control.running

    def test_operations_after_shutdown_rejected(self):
        control, _sink = build_stream(make_chunks(20))
        control.wait_for_completion(timeout=5.0)
        control.shutdown()
        with pytest.raises(CompositionError):
            control.add(PassthroughFilter())

    def test_shutdown_stops_inserted_filters(self):
        control, _sink = build_stream(make_chunks(200), pacing_s=0.002)
        f = PassthroughFilter(name="x")
        control.add(f)
        control.shutdown()
        assert not f.running
