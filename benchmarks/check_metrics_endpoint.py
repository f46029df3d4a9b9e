#!/usr/bin/env python
"""CI gate for the observability plane.

Boots a proxy in-process with ``REPRO_METRICS_ADDR`` set (ephemeral port),
runs an FEC-audio chain to quiescence under the engine named by
``REPRO_ENGINE`` (default: every engine in sequence), then asserts:

1. ``/healthz`` answers ``{"status": "ok"}``;
2. ``/metrics`` parses under a promtool-style line grammar (every HELP /
   TYPE / sample line matches exposition format 0.0.4);
3. the scrape's per-element byte, chunk and packet totals equal the
   quiesced chain's own ``ChainSnapshot`` counters, exactly;
4. a framed FEC stream relayed over ``chaos:loopback`` reads the same —
   ``repro_stream_*`` per element and ``repro_transport_*`` per channel —
   whether a pump step moves a budget of packets or one: accounting per
   batch must not drift from accounting per unit;
5. an unframed chain of four passthrough filters fed by a *generator*
   reads the same at both budgets too, and every element's byte totals
   equal the bytes generated: a batch's bytes are counted by the streams
   it crosses, not summed by the filters, and must not drift either.

Fails (exit 1) on any violation.  Run as:
``PYTHONPATH=src python benchmarks/check_metrics_endpoint.py``
"""

from __future__ import annotations

import json
import os
import re
import sys
import urllib.request

os.environ.setdefault("REPRO_METRICS_ADDR", "127.0.0.1:0")

import repro.core.filter as filter_module  # noqa: E402
from repro.chaos import ChaosTransport, FaultPlan  # noqa: E402
from repro.core import CollectorSink, IterableSource, Proxy  # noqa: E402
from repro.filters import (  # noqa: E402
    FecDecoderFilter,
    FecEncoderFilter,
    PassthroughFilter,
)
from repro.media import AudioPacketizer, ToneSource  # noqa: E402
from repro.obs.exporter import default_server  # noqa: E402
from repro.transport import (  # noqa: E402
    LoopbackTransport,
    TransportSink,
    TransportSource,
)

_HELP_RE = re.compile(r"^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$")
_TYPE_RE = re.compile(
    r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* "
    r"(counter|gauge|histogram|summary|untyped)$"
)
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? (?P<value>[+-]?Inf|NaN|[+-]?[0-9.eE+-]+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

_STAT_METRICS = (
    ("repro_stream_chunks_total", "chunks_in", "chunks_out"),
    ("repro_stream_bytes_total", "bytes_in", "bytes_out"),
    ("repro_stream_packets_total", "packets_in", "packets_out"),
)

_TRANSPORT_METRICS = (
    "repro_transport_datagrams_sent_total",
    "repro_transport_bytes_sent_total",
    "repro_transport_datagrams_received_total",
)

#: Faults by offset, so both relays see the same ones whatever their
#: channel is called (a seeded draw is keyed by the channel name).
_RELAY_PLAN = FaultPlan(
    seed=1,
    drop_offsets=(3, 17, 40),
    duplicate_offsets=(5, 41),
    reorder_offsets=(9, 64),
)


def fetch(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=10) as response:
        if response.status != 200:
            raise AssertionError(f"{url}: HTTP {response.status}")
        return response.read()


def validate_format(text: str) -> int:
    """Validate every line against the exposition grammar; returns samples."""
    samples = 0
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP"):
            assert _HELP_RE.match(line), f"bad HELP line: {line!r}"
        elif line.startswith("# TYPE"):
            assert _TYPE_RE.match(line), f"bad TYPE line: {line!r}"
        elif line.startswith("#"):
            raise AssertionError(f"unknown comment line: {line!r}")
        else:
            assert _SAMPLE_RE.match(line), f"bad sample line: {line!r}"
            samples += 1
    assert samples > 0, "scrape contained no samples"
    return samples


def parse_samples(text: str) -> dict:
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        labels = dict(_LABEL_RE.findall(match.group("labels") or ""))
        samples[(match.group("name"), frozenset(labels.items()))] = float(
            match.group("value")
        )
    return samples


def run_stream(engine_name: str, proxy_name: str):
    """One FEC-audio chain run to quiescence; returns (proxy, control)."""
    packets = AudioPacketizer(
        ToneSource(duration=0.4), packet_duration_ms=20
    ).packet_list()
    proxy = Proxy(proxy_name, engine=engine_name)
    control = proxy.add_stream(
        IterableSource(
            [p.pack() for p in packets], name="src", frame_output=True
        ),
        CollectorSink(name="sink"),
        name="audio",
        auto_start=False,
    )
    control.add(FecEncoderFilter(k=4, n=6, name="fec-enc"))
    control.add(FecDecoderFilter(name="fec-dec"), position=1)
    control.start()
    assert control.wait_for_completion(timeout=30.0), "stream did not quiesce"
    return proxy, control


def check_snapshot(samples: dict, proxy_name: str, stream: str, snap) -> dict:
    """Scraped per-element totals equal the snapshot's; returns them."""
    elements = [("source", snap.source_stats)]
    elements += list(zip(snap.filter_names, snap.filter_stats))
    elements.append(("sink", snap.sink_stats))
    totals = {}
    for element_name, stats in elements:
        for metric, in_key, out_key in _STAT_METRICS:
            for direction, key in (("in", in_key), ("out", out_key)):
                labels = frozenset(
                    {
                        "proxy": proxy_name,
                        "stream": stream,
                        "element": element_name,
                        "direction": direction,
                    }.items()
                )
                scraped = samples.get((metric, labels))
                expected = stats[key]
                assert scraped == expected, (
                    f"{proxy_name}: {metric} {stream}/{element_name}/{direction} "
                    f"scraped {scraped} != snapshot {expected}"
                )
                totals[(metric, stream, element_name, direction)] = scraped
    return totals


def check_engine(engine_name: str, base_url: str) -> int:
    proxy_name = f"obs-check-{engine_name}"
    proxy, control = run_stream(engine_name, proxy_name)
    try:
        text = fetch(f"{base_url}/metrics").decode("utf-8")
        sample_count = validate_format(text)
        checked = len(
            check_snapshot(
                parse_samples(text), proxy_name, "audio", control.snapshot()
            )
        )
        print(
            f"{engine_name:>8}: {sample_count} samples valid, "
            f"{checked} totals match the chain snapshot"
        )
        return checked
    finally:
        proxy.shutdown()


def run_relay(engine_name: str, base_url: str, pump_budget: int) -> dict:
    """FEC(6,4) over ``chaos:loopback`` at one pump budget; scraped totals.

    The elements are built while ``DEFAULT_PUMP_BUDGET`` reads
    ``pump_budget`` (it is resolved at construction), so a budget of one is
    the per-unit relay and the default is the batched one.
    """
    packets = AudioPacketizer(
        ToneSource(duration=0.8), packet_duration_ms=20
    ).packet_list()
    proxy_name = f"obs-relay-{engine_name}-{pump_budget}"
    channel_name = f"relay-{engine_name}-{pump_budget}"
    transport = ChaosTransport(LoopbackTransport(), _RELAY_PLAN)
    default_budget = filter_module.DEFAULT_PUMP_BUDGET
    filter_module.DEFAULT_PUMP_BUDGET = pump_budget
    try:
        proxy = Proxy(proxy_name, engine=engine_name, transport=transport)
        channel = proxy.open_channel(channel_name)
        receiver = channel.join("decoder-side")
        rx = proxy.add_stream(
            TransportSource(receiver, name="src"),
            CollectorSink(name="sink", expect_frames=True),
            name="rx",
            auto_start=False,
        )
        rx.add(FecDecoderFilter(name="fec-dec"))
        tx = proxy.add_stream(
            IterableSource(
                [p.pack() for p in packets], name="src", frame_output=True
            ),
            TransportSink(channel, name="sink"),
            name="tx",
            auto_start=False,
        )
        tx.add(FecEncoderFilter(k=4, n=6, name="fec-enc", start_group_id=0))
    finally:
        filter_module.DEFAULT_PUMP_BUDGET = default_budget
    try:
        rx.start()
        tx.start()
        assert tx.wait_for_completion(timeout=30.0), "tx did not quiesce"
        assert rx.wait_for_completion(timeout=30.0), "rx did not quiesce"
        samples = parse_samples(fetch(f"{base_url}/metrics").decode("utf-8"))
        totals = {}
        for stream, control in (("tx", tx), ("rx", rx)):
            totals.update(
                check_snapshot(samples, proxy_name, stream, control.snapshot())
            )
        for (metric, labels), value in samples.items():
            if metric in _TRANSPORT_METRICS:
                labels = dict(labels)
                if labels.get("channel") == channel_name:
                    key = (metric, labels["transport"], labels.get("member"))
                    totals[key] = value
        delivered = rx.sink.items()
        assert len(delivered) == len(packets), "FEC did not absorb the plan"
        return totals
    finally:
        proxy.shutdown()
        transport.close()


def check_relay(engine_name: str, base_url: str) -> int:
    batched = run_relay(engine_name, base_url, filter_module.DEFAULT_PUMP_BUDGET)
    per_unit = run_relay(engine_name, base_url, 1)
    assert sorted(map(str, batched)) == sorted(map(str, per_unit))
    # The chaos wrapper and the loopback channel under it each report
    # datagrams and bytes sent and what their one member received.
    transport_totals = [key for key in batched if key[0] in _TRANSPORT_METRICS]
    assert len(transport_totals) == 6, transport_totals
    assert all(batched[key] > 0 for key in transport_totals), batched
    for key, value in batched.items():
        assert value == per_unit[key], (
            f"{engine_name}: {key} reads {value} after the batched relay, "
            f"{per_unit[key]} after the per-unit one"
        )
    print(
        f"{engine_name:>8}: {len(batched)} relay totals match the chain "
        f"snapshots and read the same per batch as per unit"
    )
    return len(batched)


def run_passthrough(engine_name: str, base_url: str, pump_budget: int) -> dict:
    """Generator -> 4 x PassthroughFilter -> sink, unframed; scraped totals."""
    # Under 64 KiB in all, so no hop's buffer ever fills: a blocking write
    # squeezed through a full buffer splits its chunk, and chunk counts
    # would then depend on thread timing rather than on the budget.
    sizes = [1 + (index * 37) % 400 for index in range(250)]
    proxy_name = f"obs-bulk-{engine_name}-{pump_budget}"
    default_budget = filter_module.DEFAULT_PUMP_BUDGET
    filter_module.DEFAULT_PUMP_BUDGET = pump_budget
    try:
        proxy = Proxy(proxy_name, engine=engine_name)
        control = proxy.add_stream(
            # A generator, not a list: drawn a budget at a time all the same.
            IterableSource(
                (bytes([size % 251]) * size for size in sizes), name="src"
            ),
            CollectorSink(name="sink"),
            name="bulk",
            auto_start=False,
        )
        for index in range(4):
            control.add(PassthroughFilter(name=f"pt-{index}"))
    finally:
        filter_module.DEFAULT_PUMP_BUDGET = default_budget
    try:
        control.start()
        assert control.wait_for_completion(timeout=30.0), "bulk did not quiesce"
        samples = parse_samples(fetch(f"{base_url}/metrics").decode("utf-8"))
        totals = check_snapshot(samples, proxy_name, "bulk", control.snapshot())
        for (metric, _stream, element, direction), value in totals.items():
            if metric != "repro_stream_bytes_total":
                continue
            if (element, direction) in (("source", "in"), ("sink", "out")):
                continue
            assert value == sum(sizes), (
                f"{proxy_name}: {element}/{direction} counted {value} bytes "
                f"of the {sum(sizes)} generated"
            )
        return totals
    finally:
        proxy.shutdown()


def check_passthrough(engine_name: str, base_url: str) -> int:
    batched = run_passthrough(
        engine_name, base_url, filter_module.DEFAULT_PUMP_BUDGET
    )
    per_unit = run_passthrough(engine_name, base_url, 1)
    assert batched == per_unit, (
        f"{engine_name}: unframed chain totals differ between budgets: "
        f"{sorted(set(batched.items()) ^ set(per_unit.items()))}"
    )
    print(
        f"{engine_name:>8}: {len(batched)} unframed-chain totals match the "
        f"snapshots, the bytes generated, and each other at budget 64 and 1"
    )
    return len(batched)


def main() -> int:
    engines = [os.environ["REPRO_ENGINE"]] if os.environ.get(
        "REPRO_ENGINE"
    ) else ["threaded", "event", "asyncio"]

    # Booting the first proxy starts the env-selected default server.
    bootstrap = Proxy("obs-check-bootstrap")
    server = default_server()
    assert server is not None, "REPRO_METRICS_ADDR did not start a server"
    base_url = server.url
    bootstrap.shutdown()

    health = json.loads(fetch(f"{base_url}/healthz"))
    assert health == {"status": "ok"}, f"unexpected /healthz body: {health}"
    print(f"/healthz ok at {base_url}")

    for engine_name in engines:
        check_engine(engine_name, base_url)
        check_relay(engine_name, base_url)
        check_passthrough(engine_name, base_url)
    print("OK: /metrics format valid and consistent with chain snapshots")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as failure:
        print(f"FAIL: {failure}")
        sys.exit(1)
