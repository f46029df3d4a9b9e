"""Event-log tests: the JSONL ring, env selection, and control-plane events."""

import json

import pytest

from repro.obs import events
from repro.obs.events import (
    EVENT_SPLICE_INSERT,
    EVENT_SPLICE_REMOVE,
    EVENT_STREAM_START,
    EVENT_STREAM_STOP,
    EventLog,
    configure_event_log,
    get_event_log,
    new_correlation_id,
)


def _record_renders(monkeypatch):
    """The events rendered to JSON by the log from now on, as a live list."""
    rendered = []
    real = json.dumps
    monkeypatch.setattr(events.json, "dumps", lambda *a, **kw: (
        rendered.append(a[0]["event"]), real(*a, **kw))[1])
    return rendered


class TestEventLog:
    def test_emit_builds_schema(self):
        log = EventLog()
        record = log.emit("demo", stream="s1", cid="c-1", detail=42)
        assert record["event"] == "demo"
        assert record["stream"] == "s1"
        assert record["cid"] == "c-1"
        assert record["detail"] == 42
        assert isinstance(record["ts"], float)

    def test_ring_is_bounded(self):
        log = EventLog(capacity=3)
        for i in range(10):
            log.emit("e", index=i)
        assert len(log) == 3
        assert [r["index"] for r in log.records()] == [7, 8, 9]

    def test_records_filters(self):
        log = EventLog()
        log.emit("a", cid="c-1")
        log.emit("b", cid="c-2")
        log.emit("a", cid="c-2")
        assert len(log.records(event="a")) == 2
        assert len(log.records(cid="c-2")) == 2
        assert len(log.records(event="a", cid="c-2")) == 1

    def test_file_tee_is_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path=str(path))
        log.emit("one", stream="s", value=1)
        log.emit("two", stream="s", value=2)
        log.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert [p["event"] for p in parsed] == ["one", "two"]
        for record in parsed:
            assert set(record) >= {"ts", "event", "stream", "cid"}

    def test_rejects_stream_and_path_together(self, tmp_path):
        import io

        with pytest.raises(ValueError):
            EventLog(stream=io.StringIO(), path=str(tmp_path / "x"))

    def test_dead_sink_silences_tee_not_ring(self):
        import io

        sink = io.StringIO()
        log = EventLog(stream=sink)
        log.emit("before")
        sink.close()
        log.emit("after")  # must not raise
        assert [r["event"] for r in log.records()] == ["before", "after"]

    def test_the_tee_line_is_the_sorted_json_of_the_record(self):
        import io

        class Odd:
            def __str__(self):
                return "odd-object"

        sink = io.StringIO()
        log = EventLog(stream=sink)
        records = [log.emit("demo", stream="s", cid="c-1", zeta=1, alpha=[1, 2],
                            odd=Odd(), text="caf\u00e9"),
                   log.emit("bare")]
        # Byte for byte what emit() has always written: sorted keys, and
        # str() for what JSON cannot carry.
        assert sink.getvalue() == "".join(
            json.dumps(record, sort_keys=True, default=str) + "\n"
            for record in records)
        first = sink.getvalue().splitlines()[0]
        assert first.index('"alpha"') < first.index('"cid"') \
            < first.index('"zeta"') and '"odd": "odd-object"' in first

    def test_nothing_is_rendered_without_a_tee(self, monkeypatch):
        import io

        rendered = _record_renders(monkeypatch)
        quiet = EventLog(capacity=2)
        for index in range(5):
            quiet.emit("quiet", index=index)
        assert rendered == []
        assert [r["index"] for r in quiet.records()] == [3, 4]
        assert quiet.dropped_total == 3

        sink = io.StringIO()
        teed = EventLog(capacity=2, stream=sink)
        for index in range(5):
            teed.emit("teed", index=index)
        assert rendered == ["teed"] * 5
        # The tee saw every record, also those the ring has dropped since.
        assert [json.loads(line)["index"]
                for line in sink.getvalue().splitlines()] == [0, 1, 2, 3, 4]
        assert teed.dropped_total == 3 and len(teed) == 2

    def test_a_sink_dying_mid_run_stops_the_rendering_too(self, monkeypatch):
        import io

        rendered = _record_renders(monkeypatch)
        sink = io.StringIO()
        log = EventLog(stream=sink)
        log.emit("one")
        written = sink.getvalue()
        sink.close()
        assert log.emit("two")["event"] == "two"  # found dead: silenced
        log.emit("three")
        assert rendered == ["one", "two"]
        assert json.loads(written)["event"] == "one"
        assert [r["event"] for r in log.records()] == ["one", "two", "three"]
        assert log.dropped_total == 0

    def test_correlation_ids_are_unique(self):
        ids = {new_correlation_id() for _ in range(100)}
        assert len(ids) == 100


class TestProcessLog:
    def test_env_selects_file(self, tmp_path, monkeypatch):
        path = tmp_path / "proc.jsonl"
        monkeypatch.setenv(events.EVENT_LOG_ENV_VAR, str(path))
        log = configure_event_log(None)  # rebuild from env
        try:
            log.emit("env-event")
            assert json.loads(path.read_text().splitlines()[-1])["event"] == (
                "env-event"
            )
        finally:
            monkeypatch.delenv(events.EVENT_LOG_ENV_VAR)
            configure_event_log(None)

    def test_get_event_log_is_process_wide(self):
        assert get_event_log() is get_event_log()


class TestControlPlaneEvents:
    def test_stream_lifecycle_and_splice_events(self):
        import queue

        from repro.core import CallableSource, CollectorSink, Proxy
        from repro.filters import PassthroughFilter

        log = get_event_log()
        log.clear()
        feed: "queue.Queue" = queue.Queue()
        for _ in range(5):
            feed.put(b"x" * 64)
        proxy = Proxy("event-log-proxy")
        try:
            control = proxy.add_stream(
                CallableSource(feed.get, name="src"),
                CollectorSink(name="sink"),
                name="evstream",
            )
            cid = control.correlation_id
            inserted = PassthroughFilter(name="tap")
            control.add(inserted)
            control.remove(inserted)
            feed.put(None)  # end of stream
            control.wait_for_completion(timeout=10.0)
        finally:
            proxy.shutdown()

        timeline = log.records(cid=cid)
        kinds = [record["event"] for record in timeline]
        assert kinds[0] == EVENT_STREAM_START
        assert EVENT_SPLICE_INSERT in kinds
        assert EVENT_SPLICE_REMOVE in kinds
        assert kinds[-1] == EVENT_STREAM_STOP
        for record in timeline:
            assert record["stream"] == "evstream"
        insert = next(r for r in timeline if r["event"] == EVENT_SPLICE_INSERT)
        assert insert["filter"] == "tap"

    def test_fec_policy_change_events(self):
        from repro.core import CollectorSink, IterableSource, Proxy
        from repro.rapidware import (
            EVENT_LOSS_RATE,
            AdaptationLimits,
            Event,
            EventBus,
            FecResponder,
        )

        log = get_event_log()
        log.clear()
        proxy = Proxy("event-log-fec-proxy")
        try:
            control = proxy.add_stream(
                IterableSource([b"x" * 64] * 5, name="src"),
                CollectorSink(name="sink"),
                name="fecstream",
                auto_start=False,
            )
            bus = EventBus()
            responder = FecResponder(
                control, bus, limits=AdaptationLimits(min_interval_s=0.0)
            )
            bus.publish(
                Event(
                    event_type=EVENT_LOSS_RATE,
                    source="test",
                    time_s=1.0,
                    data={"loss_rate": 0.2, "receiver": "r"},
                )
            )
            assert responder.fec_active
            bus.publish(
                Event(
                    event_type=EVENT_LOSS_RATE,
                    source="test",
                    time_s=2.0,
                    data={"loss_rate": 0.0, "receiver": "r"},
                )
            )
            assert not responder.fec_active
        finally:
            proxy.shutdown()

        changes = log.records(event="fec-policy-change")
        actions = [record["action"] for record in changes]
        assert "insert" in actions
        assert "remove" in actions
        insert = next(r for r in changes if r["action"] == "insert")
        assert insert["stream"] == "fecstream"
        assert insert["k"] > 0 and insert["n"] > insert["k"]
