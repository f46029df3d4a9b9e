"""Behaviour both cooperative engines share, run on each of them.

``EventEngine`` and ``AsyncioEngine`` are one scheduler
(:mod:`repro.runtime.cooperative`) with two wake-up drivers, so every test
here is parametrized over both.  Driver-specific checks live in
``test_event_selector.py`` (selector, self-pipe, fd suspension) and
``test_asyncio_engine.py`` (the loop thread and its exposure).  The
cross-engine byte-equivalence checks live in
``test_engine_equivalence.py``.
"""

import sys
import threading

import pytest

from repro.core import (
    CallableSource,
    CollectorSink,
    ControlThread,
    Filter,
    IterableSource,
    NullSink,
    Proxy,
)
from repro.filters import PassthroughFilter, UppercaseFilter
from repro.runtime import AsyncioEngine, EngineError, EventEngine
from repro.streams import DetachableInputStream

ENGINES = [EventEngine, AsyncioEngine]


@pytest.fixture(params=ENGINES, ids=lambda cls: cls.name)
def engine_cls(request):
    return request.param


@pytest.fixture
def engine(engine_cls):
    eng = engine_cls()
    yield eng
    eng.shutdown()


def make_chunks(count, prefix="chunk"):
    return [f"{prefix}-{i:04d};".encode() for i in range(count)]


class TestCooperativeExecution:
    def test_null_proxy_round_trip(self, engine):
        chunks = make_chunks(100)
        source = IterableSource(list(chunks))
        sink = CollectorSink()
        control = ControlThread(source, sink, engine=engine)
        assert control.wait_for_completion(timeout=10.0)
        assert sink.data() == b"".join(chunks)
        control.shutdown()

    def test_filters_share_one_scheduler_thread(self, engine):
        chunks = make_chunks(50)
        before = threading.active_count()
        source = IterableSource(list(chunks), pacing_s=0.001)
        sink = CollectorSink()
        control = ControlThread(source, sink, engine=engine)
        for i in range(4):
            control.add(PassthroughFilter(name=f"f{i}"))
        # One source thread + one scheduler, however many filters: strictly
        # fewer threads than thread-per-filter's 4 filters + 2 endpoints.
        assert threading.active_count() - before <= 3
        assert control.wait_for_completion(timeout=20.0)
        assert sink.data() == b"".join(chunks)
        control.shutdown()

    def test_filter_is_running_and_finishes(self, engine):
        source = IterableSource(make_chunks(20), pacing_s=0.002)
        sink = CollectorSink()
        control = ControlThread(source, sink, engine=engine)
        f = PassthroughFilter(name="coop")
        control.add(f)  # into the running, paced stream
        assert f.running
        assert f.cooperative
        assert control.wait_for_completion(timeout=10.0)
        assert f.wait_finished(timeout=5.0)
        assert not f.running
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
        # Downstream saw EOF rather than hanging.
        assert control.wait_for_completion(timeout=5.0)
        control.shutdown()

    def test_stop_element_mid_stream(self, engine):
        source = IterableSource(make_chunks(5000), pacing_s=0.001)
        control = ControlThread(source, NullSink(), auto_start=False,
                                engine=engine)
        f = PassthroughFilter(name="stoppee")
        control.add(f)
        control.start()
        # Parked at its next unit: the stream is flowing through it.
        assert f.hold_at_boundary(timeout=5.0)
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
            tmp = UppercaseFilter(name="tmp")
            control.add(tmp)
            # Data crosses the inserted filter before it is taken out.
            assert tmp.hold_at_boundary(timeout=5.0)
            tmp.release_hold()
            control.remove("tmp")
        assert control.wait_for_completion(timeout=30.0)
        data = sink.data()
        assert len(data) == len(b"".join(chunks))
        assert data.lower() == b"".join(chunks).lower()
        control.shutdown()

    def test_boundary_hold_parks_without_blocking_scheduler(self, engine):
        # Two independent streams on one engine: while stream A is held at a
        # boundary, stream B must keep flowing (the scheduler is not blocked).
        src_a = IterableSource(make_chunks(2000, "a"), pacing_s=0.0005)
        sink_a = CollectorSink()
        control_a = ControlThread(src_a, sink_a, name="a", auto_start=False,
                                  engine=engine)
        held = PassthroughFilter(name="holdme")
        control_a.add(held)
        control_a.start()
        assert held.hold_at_boundary(timeout=5.0)

        src_b = IterableSource(make_chunks(200, "b"), pacing_s=0.0005)
        sink_b = CollectorSink()
        control_b = ControlThread(src_b, sink_b, name="b", engine=engine)
        assert control_b.wait_for_completion(timeout=20.0)  # B ran to the end
        assert held.held  # ... all while A stayed parked
        assert sink_b.data() == b"".join(make_chunks(200, "b"))
        held.release_hold()
        assert control_a.wait_for_completion(timeout=20.0)
        assert sink_a.data() == b"".join(make_chunks(2000, "a"))
        control_a.shutdown()
        control_b.shutdown()

    def test_backpressure_gates_pumping_but_stream_completes(self, engine_cls):
        engine = engine_cls(heartbeat_s=0.05)
        # A tiny downstream buffer forces the high-water gate to engage.
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

    def test_paced_source_uses_timers_not_spinning(self, engine):
        # A paced cooperative source reports next_due_s; the engine must
        # park it on a timer instead of spinning the scheduler.
        chunks = make_chunks(20)
        source = IterableSource(list(chunks), pacing_s=0.01)
        sink = CollectorSink()
        control = ControlThread(source, sink, auto_start=False, engine=engine)
        control.add(PassthroughFilter(name="f"))
        control.start()
        assert control.wait_for_completion(timeout=20.0)
        assert sink.data() == b"".join(chunks)
        snap = engine.metrics_snapshot()
        assert snap["counters"]["timer_fires"] > 0
        # Rounds should be modest: not thousands of spin iterations.
        assert snap["counters"]["scheduler_rounds"] < 2000
        control.shutdown()

    def test_two_streams_share_one_scheduler(self, engine):
        sinks = []
        controls = []
        for i in range(2):
            source = IterableSource(make_chunks(100, f"s{i}"), pacing_s=0.0005)
            sink = CollectorSink()
            control = ControlThread(source, sink, name=f"s{i}",
                                    auto_start=False, engine=engine)
            control.add(PassthroughFilter(name=f"p{i}"))
            control.start()
            sinks.append(sink)
            controls.append(control)
        for i, control in enumerate(controls):
            assert control.wait_for_completion(timeout=20.0)
            assert sinks[i].data() == b"".join(make_chunks(100, f"s{i}"))
            control.shutdown()


    def test_threaded_writers_racing_the_scheduler_lose_nothing(self,
                                                                 engine_cls):
        # Six threaded sources (more writers than cores) notify the engine
        # from their own threads while the scheduler drains them; a short
        # switch interval makes every dirty-set hand-off race.  The
        # heartbeat is longer than the test may take, so a lost wake-up
        # stalls a stream instead of being rescued by the rescan.
        engine = engine_cls(heartbeat_s=60.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            controls, sinks, expected = [], [], []
            for i in range(6):
                chunks = iter(make_chunks(200, f"w{i}"))
                expected.append(b"".join(make_chunks(200, f"w{i}")))
                # Paced, so the scheduler idles between items and each one
                # needs its wake-up.
                source = CallableSource(lambda it=chunks: next(it, None),
                                        pacing_s=0.0005)
                sink = CollectorSink()
                control = ControlThread(source, sink, name=f"w{i}",
                                        auto_start=False, engine=engine)
                control.add(PassthroughFilter(name=f"p{i}"))
                control.add(UppercaseFilter(name=f"u{i}"))
                controls.append(control)
                sinks.append(sink)
            for control in controls:
                control.start()
            for control, sink, data in zip(controls, sinks, expected):
                assert control.wait_for_completion(timeout=30.0)
                assert sink.data() == data.upper()
                control.shutdown()
        finally:
            sys.setswitchinterval(interval)
            engine.shutdown()


class TestEngineLifecycle:
    def test_shutdown_stops_scheduler(self, engine_cls):
        engine = engine_cls()
        source = IterableSource(make_chunks(10))
        sink = CollectorSink()
        control = ControlThread(source, sink, auto_start=False, engine=engine)
        control.add(PassthroughFilter(name="f"))
        control.start()
        assert control.wait_for_completion(timeout=5.0)
        control.shutdown()
        engine.shutdown()
        assert not engine.scheduler_alive

    def test_shutdown_is_idempotent(self, engine_cls):
        engine = engine_cls()
        engine.shutdown()
        engine.shutdown()
        assert not engine.scheduler_alive

    def test_start_after_shutdown_raises(self, engine_cls):
        engine = engine_cls()
        engine.shutdown()
        with pytest.raises(EngineError):
            engine.start_element(PassthroughFilter())

    def test_finished_elements_are_deregistered(self, engine):
        source = IterableSource(make_chunks(10))
        sink = CollectorSink()
        control = ControlThread(source, sink, auto_start=False, engine=engine)
        control.add(PassthroughFilter(name="f"))
        control.start()
        assert control.wait_for_completion(timeout=5.0)
        control.shutdown()
        # An element is retired in the round it finishes in; joining the
        # scheduler waits that round out.
        engine.shutdown()
        assert engine.managed_count == 0

    def test_proxy_owns_engine_resolved_from_name(self, engine_cls):
        proxy = Proxy("owner", engine=engine_cls.name)
        source = IterableSource(make_chunks(10))
        sink = CollectorSink()
        control = proxy.add_stream(source, sink, name="s", auto_start=False)
        control.add(PassthroughFilter(name="f"))
        control.start()
        assert control.wait_for_completion(timeout=5.0)
        proxy.shutdown()
        assert isinstance(proxy.engine, engine_cls)
        assert not proxy.engine.scheduler_alive

    def test_shared_engine_survives_proxy_shutdown(self, engine):
        proxy = Proxy("borrower", engine=engine)
        source = IterableSource(make_chunks(10))
        sink = CollectorSink()
        proxy.add_stream(source, sink, name="s").wait_for_completion(timeout=5.0)
        proxy.shutdown()
        # The engine was passed in as an instance, so the proxy must not
        # have shut it down: it can still run new elements.
        source2 = IterableSource(make_chunks(10))
        sink2 = CollectorSink()
        control2 = ControlThread(source2, sink2, engine=engine)
        assert control2.wait_for_completion(timeout=5.0)
        assert sink2.data() == b"".join(make_chunks(10))
        control2.shutdown()

    def test_metrics_snapshot_shape(self, engine):
        source = IterableSource(make_chunks(50))
        sink = CollectorSink()
        # Composed before the start: 50 chunks are one pump step, and an
        # insertion racing it finds the stream already ended now and then.
        control = ControlThread(source, sink, auto_start=False, engine=engine)
        control.add(PassthroughFilter(name="f"))
        control.start()
        assert control.wait_for_completion(timeout=10.0)
        snap = engine.metrics_snapshot()
        assert set(snap) == {"counters", "gauges"}
        assert set(snap["counters"]) == {
            "scheduler_rounds", "elements_pumped", "timer_fires",
            "selector_wakeups", "scan_all_rounds"}
        assert set(snap["gauges"]) == {
            "dirty_depth", "gated_depth", "managed_elements",
            "pending_timers"}
        assert snap["counters"]["elements_pumped"] > 0
        control.shutdown()
