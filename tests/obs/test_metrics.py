"""Unit tests for the metrics registry (counters, gauges, histograms)."""

import threading

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsError,
    MetricsRegistry,
    collect_channels,
    collect_engines,
    collect_proxies,
    default_registry,
    live_engines,
    live_proxies,
    register_engine,
)


class TestCounter:
    def test_increments_monotonically(self):
        counter = Counter("test_counter_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative_increment(self):
        counter = Counter("test_counter_total")
        with pytest.raises(MetricsError):
            counter.inc(-1)

    def test_rejects_invalid_name(self):
        with pytest.raises(MetricsError):
            Counter("9starts_with_digit")
        with pytest.raises(MetricsError):
            Counter("has spaces")
        with pytest.raises(MetricsError):
            Counter("")

    def test_labelled_counter_requires_labels_call(self):
        counter = Counter("test_labelled_total", label_names=("stream",))
        with pytest.raises(MetricsError):
            counter.inc()
        counter.labels(stream="a").inc(3)
        counter.labels(stream="b").inc(1)
        family = counter.collect()
        values = {pairs: value for pairs, value in family.samples}
        assert values[(("stream", "a"),)] == 3
        assert values[(("stream", "b"),)] == 1

    def test_labels_rejects_wrong_label_set(self):
        counter = Counter("test_labelled_total", label_names=("stream",))
        with pytest.raises(MetricsError):
            counter.labels(other="x")

    def test_rejects_invalid_label_names(self):
        with pytest.raises(MetricsError):
            Counter("test_total", label_names=("9bad",))
        with pytest.raises(MetricsError):
            Counter("test_total", label_names=("__reserved",))
        with pytest.raises(MetricsError):
            Counter("test_total", label_names=("a", "a"))

    def test_labels_returns_same_child(self):
        counter = Counter("test_total", label_names=("k",))
        assert counter.labels(k="x") is counter.labels(k="x")

    def test_concurrent_label_children(self):
        counter = Counter("test_total", label_names=("k",))
        children = []

        def worker():
            for i in range(50):
                child = counter.labels(k=str(i % 5))
                child.inc()
                children.append(child)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        family = counter.collect()
        assert sum(value for _, value in family.samples) == 8 * 50
        assert len(family.samples) == 5


class TestGauge:
    def test_set_and_dec(self):
        gauge = Gauge("test_gauge")
        gauge.set(10)
        gauge.dec(3)
        gauge.inc(1)
        assert gauge.value == 8

    def test_scrape_time_function(self):
        gauge = Gauge("test_gauge")
        state = {"v": 7}
        gauge.set_function(lambda: state["v"])
        assert gauge.collect().samples == [((), 7.0)]
        state["v"] = 9
        assert gauge.collect().samples == [((), 9.0)]

    def test_broken_function_falls_back(self):
        gauge = Gauge("test_gauge")
        gauge.set(3)

        def boom():
            raise RuntimeError("dead callback")

        gauge.set_function(boom)
        assert gauge.collect().samples == [((), 3.0)]


class TestHistogram:
    def test_cumulative_buckets(self):
        histogram = Histogram("test_hist", buckets=(10, 100))
        for value in (1, 5, 50, 500):
            histogram.observe(value)
        family = histogram.collect()
        rows = {pairs: value for pairs, value in family.samples}
        assert rows[(("__suffix__", "_bucket"), ("le", "10"))] == 2
        assert rows[(("__suffix__", "_bucket"), ("le", "100"))] == 3
        assert rows[(("__suffix__", "_bucket"), ("le", "+Inf"))] == 4
        assert rows[(("__suffix__", "_sum"),)] == 556
        assert rows[(("__suffix__", "_count"),)] == 4

    def test_rejects_bad_buckets(self):
        with pytest.raises(MetricsError):
            Histogram("test_hist", buckets=())
        with pytest.raises(MetricsError):
            Histogram("test_hist", buckets=(1, 1))


class TestRegistry:
    def test_get_or_create_is_first_wins(self):
        registry = MetricsRegistry()
        a = registry.counter("reg_total")
        b = registry.counter("reg_total")
        assert a is b

    def test_conflicting_type_raises(self):
        registry = MetricsRegistry()
        registry.counter("reg_total")
        with pytest.raises(MetricsError):
            registry.gauge("reg_total")

    def test_conflicting_labels_raise(self):
        registry = MetricsRegistry()
        registry.counter("reg_total", label_names=("a",))
        with pytest.raises(MetricsError):
            registry.counter("reg_total", label_names=("b",))

    def test_concurrent_registration_single_instrument(self):
        registry = MetricsRegistry()
        seen = []

        def worker():
            for _ in range(20):
                seen.append(registry.counter("concurrent_total"))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(instrument) for instrument in seen}) == 1

    def test_collect_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("z_total")
        registry.counter("a_total")
        names = [family.name for family in registry.collect()]
        assert names == sorted(names)

    def test_collector_merges_into_instrument_family(self):
        registry = MetricsRegistry()
        counter = registry.counter("merge_total")
        counter.inc(2)

        def collector():
            family = MetricFamily("merge_total", "counter")
            family.add(5, {"source": "fleet"})
            return [family]

        registry.register_collector(collector)
        families = {f.name: f for f in registry.collect()}
        assert len(families["merge_total"].samples) == 2

    def test_broken_collector_skipped(self):
        registry = MetricsRegistry()
        registry.counter("ok_total").inc()

        def broken():
            raise RuntimeError("scrape-time failure")

        registry.register_collector(broken)
        names = [family.name for family in registry.collect()]
        assert names == ["ok_total"]

    def test_unregister_collector(self):
        registry = MetricsRegistry()

        def collector():
            return [MetricFamily("extra_total", "counter")]

        registry.register_collector(collector)
        registry.unregister_collector(collector)
        assert registry.collect() == []


class TestFleetCollectors:
    def test_proxy_registration_is_weak(self):
        from repro.core import Proxy

        proxy = Proxy("metrics-weak-proxy")
        assert any(p is proxy for p in live_proxies())
        proxy.shutdown()
        del proxy
        import gc

        gc.collect()
        assert not any(
            getattr(p, "name", "") == "metrics-weak-proxy" for p in live_proxies()
        )

    def test_engine_collector_reads_snapshot(self):
        class FakeEngine:
            name = "fake"

            def metrics_snapshot(self):
                return {"counters": {"rounds": 3}, "gauges": {"depth": 2}}

        engine = FakeEngine()
        register_engine(engine)
        families = {f.name: f for f in collect_engines()}
        rounds = families["repro_engine_rounds_total"]
        depth = families["repro_engine_depth"]
        assert any(value == 3 for _, value in rounds.samples)
        assert rounds.kind == "counter"
        assert any(value == 2 for _, value in depth.samples)
        assert depth.kind == "gauge"

    def test_engine_without_snapshot_is_skipped(self):
        class Bare:
            name = "bare"

        register_engine(Bare())
        collect_engines()  # must not raise

    def test_stream_collector_exports_directional_totals(self):
        from repro.core import CollectorSink, IterableSource, Proxy

        proxy = Proxy("metrics-collector-proxy")
        try:
            control = proxy.add_stream(
                IterableSource([b"ab", b"cdef"], name="src"),
                CollectorSink(name="sink"),
                name="s",
            )
            control.wait_for_completion(timeout=10.0)
            families = {f.name: f for f in collect_proxies()}
            rows = {
                pairs: value
                for pairs, value in families["repro_stream_bytes_total"].samples
            }
            key = (
                ("direction", "out"),
                ("element", "source"),
                ("proxy", "metrics-collector-proxy"),
                ("stream", "s"),
            )
            assert rows[key] == 6
        finally:
            proxy.shutdown()

    def test_channel_collector_reports_members(self):
        from repro.transport.loopback import LoopbackTransport

        transport = LoopbackTransport()
        channel = transport.open_channel("metrics-chan")
        receiver = channel.join("m1")
        channel.send(b"x" * 10)
        families = {f.name: f for f in collect_channels()}
        sent = {
            dict(pairs).get("channel"): value
            for pairs, value in families[
                "repro_transport_datagrams_sent_total"
            ].samples
        }
        assert sent.get("metrics-chan") == 1
        received = {
            dict(pairs).get("member"): value
            for pairs, value in families[
                "repro_transport_datagrams_received_total"
            ].samples
            if dict(pairs).get("channel") == "metrics-chan"
        }
        assert received.get("m1") == 1
        assert receiver.packets_received == 1
        transport.close()

    def test_channel_collector_reports_receive_syscalls_per_member(self):
        """Syscalls per datagram is a /metrics ratio: both counters are
        exported under the same channel/member labels."""
        import time

        from repro.transport import UdpTransport

        transport = UdpTransport()
        try:
            channel = transport.open_channel("metrics-udp-chan")
            receiver = channel.join("m1")
            channel.send_many([b"a", b"b", b"c"])
            deadline = time.monotonic() + 5.0
            while receiver.pending() < 3 and time.monotonic() < deadline:
                time.sleep(0.005)
            families = {f.name: f for f in collect_channels()}

            def for_member(name):
                return {
                    dict(pairs).get("member"): value
                    for pairs, value in families[name].samples
                    if dict(pairs).get("channel") == "metrics-udp-chan"
                }

            assert for_member(
                "repro_transport_datagrams_received_total") == {"m1": 3}
            syscalls = for_member("repro_transport_receive_syscalls_total")
            assert syscalls == {"m1": receiver.receive_syscalls}
            assert syscalls["m1"] >= 1
        finally:
            transport.close()

    def test_default_registry_is_singleton_with_collectors(self):
        registry = default_registry()
        assert registry is default_registry()
        from repro.core import Proxy

        proxy = Proxy("metrics-default-proxy")
        try:
            names = [family.name for family in registry.collect()]
            assert "repro_proxy_streams" in names
        finally:
            proxy.shutdown()

    def test_engines_register_on_construction(self):
        from repro.runtime import EventEngine, ThreadedEngine

        threaded = ThreadedEngine()
        event = EventEngine()
        try:
            live = live_engines()
            assert any(e is threaded for e in live)
            assert any(e is event for e in live)
            snapshot = event.metrics_snapshot()
            assert set(snapshot) == {"counters", "gauges"}
            assert "scheduler_rounds" in snapshot["counters"]
            assert "dirty_depth" in snapshot["gauges"]
        finally:
            event.shutdown()
