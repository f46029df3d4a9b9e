"""Unit tests for the asyncio engine's cooperative execution.

The cross-engine byte-equivalence checks live in
``test_engine_equivalence.py``; these tests cover what is specific to
the asyncio adapter — the lazily started loop thread, timer pacing,
metrics, loop exposure, and shutdown semantics.
"""

import threading
import time

import pytest

from repro.core import (
    CollectorSink,
    ControlThread,
    Filter,
    IterableSource,
    NullSink,
    Proxy,
)
from repro.filters import PassthroughFilter, UppercaseFilter
from repro.runtime import AsyncioEngine, EngineError, get_engine, resolve_engine


@pytest.fixture
def engine():
    eng = AsyncioEngine()
    yield eng
    eng.shutdown()


def make_chunks(count, prefix="chunk"):
    return [f"{prefix}-{i:04d};".encode() for i in range(count)]


class TestRegistry:
    def test_registered_under_asyncio_name(self):
        engine = get_engine("asyncio")
        try:
            assert isinstance(engine, AsyncioEngine)
            assert engine.name == "asyncio"
        finally:
            engine.shutdown()

    def test_env_var_selects_asyncio(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "asyncio")
        engine = resolve_engine(None)
        try:
            assert isinstance(engine, AsyncioEngine)
        finally:
            engine.shutdown()


class TestCooperativeExecution:
    def test_null_proxy_round_trip(self, engine):
        chunks = make_chunks(100)
        source = IterableSource(list(chunks))
        sink = CollectorSink()
        control = ControlThread(source, sink, engine=engine)
        assert control.wait_for_completion(timeout=10.0)
        assert sink.data() == b"".join(chunks)
        control.shutdown()

    def test_loop_thread_is_lazy(self):
        engine = AsyncioEngine()
        try:
            assert not engine.scheduler_alive
            assert engine.loop is None
            source = IterableSource(make_chunks(10))
            sink = CollectorSink()
            # Starting the endpoints is what must spin the loop up: no
            # mid-stream insert here, the stream may already be done by then.
            control = ControlThread(source, sink, engine=engine)
            assert engine.scheduler_alive
            assert engine.loop is not None
            assert control.wait_for_completion(timeout=10.0)
            control.shutdown()
        finally:
            engine.shutdown()

    def test_filters_share_one_loop_thread(self, engine):
        chunks = make_chunks(50)
        before = threading.active_count()
        source = IterableSource(list(chunks), pacing_s=0.001)
        sink = CollectorSink()
        control = ControlThread(source, sink, engine=engine)
        for i in range(4):
            control.add(PassthroughFilter(name=f"f{i}"))
        # One source thread + one loop thread, however many filters.
        assert threading.active_count() - before <= 3
        assert control.wait_for_completion(timeout=20.0)
        assert sink.data() == b"".join(chunks)
        control.shutdown()

    def test_transform_error_is_recorded_and_eof_propagates(self, engine):
        class Exploding(Filter):
            type_name = "exploding"

            def transform(self, chunk):
                raise RuntimeError("boom")

        source = IterableSource(make_chunks(5))
        sink = CollectorSink()
        control = ControlThread(source, sink, auto_start=False, engine=engine)
        bad = Exploding(name="bad")
        control.add(bad)
        control.start()
        assert bad.wait_finished(timeout=5.0)
        assert isinstance(bad.error, RuntimeError)
        assert control.wait_for_completion(timeout=5.0)
        control.shutdown()

    def test_stop_element_mid_stream(self, engine):
        source = IterableSource(make_chunks(5000), pacing_s=0.001)
        sink = NullSink()
        control = ControlThread(source, sink, engine=engine)
        f = PassthroughFilter(name="stoppee")
        control.add(f)
        time.sleep(0.05)
        f.stop(timeout=5.0)
        assert f.finished
        assert not f.running
        control.shutdown()

    def test_dynamic_insert_and_remove_loses_nothing(self, engine):
        chunks = make_chunks(400)
        source = IterableSource(list(chunks), pacing_s=0.0005)
        sink = CollectorSink()
        control = ControlThread(source, sink, engine=engine)
        for _ in range(3):
            time.sleep(0.02)
            control.add(UppercaseFilter(name="tmp"))
            time.sleep(0.02)
            control.remove("tmp")
        assert control.wait_for_completion(timeout=30.0)
        data = sink.data()
        assert len(data) == len(b"".join(chunks))
        assert data.lower() == b"".join(chunks).lower()
        control.shutdown()

    def test_paced_source_uses_timers_not_spinning(self, engine):
        # A paced cooperative source reports next_due_s; the engine must
        # park it on a loop timer instead of spinning the scheduler.
        chunks = make_chunks(20)
        source = IterableSource(list(chunks), pacing_s=0.01)
        sink = CollectorSink()
        control = ControlThread(source, sink, engine=engine)
        control.add(PassthroughFilter(name="f"))
        assert control.wait_for_completion(timeout=20.0)
        assert sink.data() == b"".join(chunks)
        snap = engine.metrics_snapshot()
        assert snap["counters"]["timer_fires"] > 0
        # Rounds should be modest: not thousands of spin iterations.
        assert snap["counters"]["scheduler_rounds"] < 2000
        control.shutdown()

    def test_backpressure_gates_pumping_but_stream_completes(self):
        from repro.streams import DetachableInputStream

        engine = AsyncioEngine(heartbeat_s=0.05)
        payload = [bytes([i % 256]) * 4096 for i in range(64)]
        source = IterableSource(list(payload))
        sink = CollectorSink()
        sink.set_dis(DetachableInputStream(name="tiny", capacity=1024))
        control = ControlThread(source, sink, auto_start=False, engine=engine)
        control.add(PassthroughFilter(name="narrow"))
        control.start()
        assert control.wait_for_completion(timeout=20.0)
        assert sink.data() == b"".join(payload)
        control.shutdown()
        engine.shutdown()

    def test_two_streams_share_one_loop(self, engine):
        sinks = []
        controls = []
        for i in range(2):
            source = IterableSource(make_chunks(100, f"s{i}"), pacing_s=0.0005)
            sink = CollectorSink()
            control = ControlThread(source, sink, name=f"s{i}", engine=engine)
            control.add(PassthroughFilter(name=f"p{i}"))
            sinks.append(sink)
            controls.append(control)
        for i, control in enumerate(controls):
            assert control.wait_for_completion(timeout=20.0)
            assert sinks[i].data() == b"".join(make_chunks(100, f"s{i}"))
            control.shutdown()


class TestEngineLifecycle:
    def test_shutdown_stops_loop(self):
        engine = AsyncioEngine()
        source = IterableSource(make_chunks(10))
        sink = CollectorSink()
        control = ControlThread(source, sink, engine=engine)
        control.add(PassthroughFilter(name="f"))
        control.wait_for_completion(timeout=5.0)
        control.shutdown()
        engine.shutdown()
        assert not engine.scheduler_alive

    def test_shutdown_is_idempotent(self):
        engine = AsyncioEngine()
        engine.shutdown()
        engine.shutdown()
        assert not engine.scheduler_alive

    def test_start_after_shutdown_raises(self):
        engine = AsyncioEngine()
        engine.shutdown()
        with pytest.raises(EngineError):
            engine.start_element(PassthroughFilter())

    def test_finished_elements_are_deregistered(self, engine):
        source = IterableSource(make_chunks(10))
        sink = CollectorSink()
        # Composed before the start; see test_metrics_snapshot_shape.
        control = ControlThread(source, sink, engine=engine,
                                auto_start=False)
        f = PassthroughFilter(name="f")
        control.add(f)
        control.start()
        assert control.wait_for_completion(timeout=5.0)
        deadline = time.monotonic() + 5.0
        while engine.managed_count and time.monotonic() < deadline:
            time.sleep(0.01)
        assert engine.managed_count == 0
        control.shutdown()

    def test_proxy_owns_engine_resolved_from_name(self):
        proxy = Proxy("owner", engine="asyncio")
        source = IterableSource(make_chunks(10))
        sink = CollectorSink()
        control = proxy.add_stream(source, sink, name="s")
        control.add(PassthroughFilter(name="f"))
        assert control.wait_for_completion(timeout=5.0)
        proxy.shutdown()
        assert not proxy.engine.scheduler_alive

    def test_metrics_snapshot_shape(self, engine):
        source = IterableSource(make_chunks(50))
        sink = CollectorSink()
        # Composed before the start: 50 chunks are one pump step, and an
        # insertion racing it finds the stream already ended now and then.
        control = ControlThread(source, sink, engine=engine,
                                auto_start=False)
        control.add(PassthroughFilter(name="f"))
        control.start()
        assert control.wait_for_completion(timeout=10.0)
        snap = engine.metrics_snapshot()
        for counter in ("scheduler_rounds", "elements_pumped", "timer_fires",
                        "selector_wakeups", "scan_all_rounds"):
            assert counter in snap["counters"]
        for gauge in ("dirty_depth", "gated_depth", "managed_elements",
                      "pending_timers"):
            assert gauge in snap["gauges"]
        assert snap["counters"]["elements_pumped"] > 0
        control.shutdown()
