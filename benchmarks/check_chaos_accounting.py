#!/usr/bin/env python
"""CI gate: every injected fault is counted once and logged once.

Runs an FEC(6,4) relay over ``chaos:loopback`` under a seeded plan that
uses every datagram fault kind (drop, duplicate, reorder, corrupt, stall),
with ``REPRO_EVENT_LOG`` pointing at a JSONL file, then fails (exit 1)
unless three independent readings of the faults agree per action:

1. ``repro_chaos_faults_total{action}`` scraped from ``/metrics``;
2. the ``chaos-fault`` lines of the JSONL file;
3. a fresh :class:`~repro.chaos.DatagramFaultInjector` replaying the plan
   over the same number of datagrams (the reference count);

and unless the decoded stream is exactly what
``proxybench.oracle.expected_fec_delivery`` says this seed delivers.  A
counter child cached per action, or an event rendered only when there is a
sink to write it to, that drifts from the faults really injected fails
here — in a blocking job, not in a benchmark.

Corruption is aimed (by offset) at the magic byte of packets whose group
loses nothing else, with ``passthrough_unknown`` off: the decoder discards
them as not-FEC, the group still decodes, and delivery stays the oracle's.

Run as: ``PYTHONPATH=src python benchmarks/check_chaos_accounting.py``
"""

from __future__ import annotations

import json
import os
import struct
import sys
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
os.environ.setdefault("REPRO_METRICS_ADDR", "127.0.0.1:0")

#: Must be set before any repro import builds the process event log.
EVENTS_PATH = os.environ.get("REPRO_CHAOS_ACCOUNTING_EVENTS",
                             "BENCH_chaos_accounting_events.jsonl")
os.environ["REPRO_EVENT_LOG"] = EVENTS_PATH

SEED = 24
DROP_P = 0.10
K, N = 4, 6
PACKETS = 1200
PAYLOAD = struct.Struct(">I28x")  # a sequence number, padded to 32 bytes
CHANNEL = "accounting"
TRACKED_GROUPS = 1024
ACTIONS = ("drop", "duplicate", "reorder", "corrupt", "stall")
DATAGRAMS = PACKETS // K * N
DATAGRAM_BYTES = 10 + 2 + PAYLOAD.size  # FEC header, length prefix, payload


def build_plan():
    """Seeded drop/duplicate/reorder, one stall, and aimed corruption."""
    from repro.chaos import DatagramFaultInjector, FaultPlan

    base = dict(seed=SEED, drop_p=DROP_P, duplicate_p=0.05, reorder_p=0.05,
                stall_offset=100, stall_s=0.01)
    # Offsets take no draw, so adding them changes no other decision: find
    # the groups the base plan leaves whole, and in each corrupt the one
    # packet (if any) whose offset lands the flip on its magic byte.
    injector = DatagramFaultInjector(FaultPlan(**base), CHANNEL)
    dropped = {offset for offset in range(DATAGRAMS)
               if ("drop", offset) in injector.process(b"\x00")[1]}
    corrupt = [offset for offset in range(0, DATAGRAMS, DATAGRAM_BYTES)
               if not dropped.intersection(
                   range(offset - offset % N, offset - offset % N + N))]
    return FaultPlan(corrupt_offsets=corrupt[:10], **base)


def reference_faults(plan) -> Counter:
    from repro.chaos import DatagramFaultInjector

    injector = DatagramFaultInjector(plan, CHANNEL)
    counts: Counter = Counter()
    for _ in range(DATAGRAMS):
        counts.update(action for action, _offset
                      in injector.process(bytes(DATAGRAM_BYTES))[1])
    return counts


def run_relay(plan):
    """Run the relay to completion.

    Returns the delivered sequence numbers, the decoder filter's count of
    unknown packets and its error (None when it finished cleanly)."""
    from repro.chaos import ChaosTransport
    from repro.core import CollectorSink, IterableSource, Proxy
    from repro.filters import FecDecoderFilter, FecEncoderFilter
    from repro.transport import (LoopbackTransport, TransportSink,
                                 TransportSource)

    transport = ChaosTransport(LoopbackTransport(), plan)
    proxy = Proxy("chaos-accounting", engine="asyncio", transport=transport)
    try:
        channel = proxy.open_channel(CHANNEL)
        receiver = channel.join("decoder-side")
        decoder = FecDecoderFilter(max_tracked_groups=TRACKED_GROUPS,
                                   passthrough_unknown=False)
        rx = proxy.add_stream(TransportSource(receiver),
                              CollectorSink(expect_frames=True), name="rx",
                              auto_start=False)
        rx.add(decoder)
        tx = proxy.add_stream(
            IterableSource([PAYLOAD.pack(seq) for seq in range(PACKETS)],
                           frame_output=True),
            TransportSink(channel), name="tx", auto_start=False)
        tx.add(FecEncoderFilter(k=K, n=N, start_group_id=0))
        rx.start()
        tx.start()
        if not (tx.wait_for_completion(timeout=60.0)
                and rx.wait_for_completion(timeout=60.0)):
            raise AssertionError("the relay did not run to completion")
        return ([PAYLOAD.unpack(item)[0] for item in rx.sink.items()],
                decoder.unknown_packets, decoder.error)
    finally:
        proxy.shutdown()
        transport.close()


def scraped_faults() -> Counter:
    from check_metrics_endpoint import fetch, parse_samples
    from repro.obs.exporter import default_server

    server = default_server()
    if server is None:
        raise AssertionError("no /metrics server came up")
    samples = parse_samples(fetch(f"{server.url}/metrics").decode("utf-8"))
    return Counter({dict(labels)["action"]: int(value)
                    for (name, labels), value in samples.items()
                    if name == "repro_chaos_faults_total"})


def logged_faults() -> Counter:
    counts: Counter = Counter()
    with open(EVENTS_PATH, "r", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["event"] == "chaos-fault":
                if record["channel"] != CHANNEL:
                    raise AssertionError(f"stray fault event: {record}")
                counts[record["action"]] += 1
    return counts


def main() -> int:
    from proxybench.oracle import expected_fec_delivery

    with open(EVENTS_PATH, "w", encoding="utf-8"):
        pass  # start from an empty log; EventLog appends
    plan = build_plan()
    delivered, unknown, error = run_relay(plan)
    reference = reference_faults(plan)
    readings = {"/metrics": scraped_faults(), "event log": logged_faults(),
                "reference": reference}

    failures = []
    for action in ACTIONS:
        counts = {name: reading[action] for name, reading in readings.items()}
        print(f"{action:>10}: " + "  ".join(
            f"{name} {count}" for name, count in counts.items()))
        if len(set(counts.values())) != 1:
            failures.append(f"{action}: the readings disagree: {counts}")
        elif not reference[action]:
            failures.append(f"{action}: the plan injected none")
    for name, reading in readings.items():
        if set(reading) - set(ACTIONS):
            failures.append(f"{name}: unknown actions {sorted(reading)}")

    missing, late = expected_fec_delivery(SEED, DROP_P, CHANNEL, PACKETS,
                                          K, N, TRACKED_GROUPS)
    expected = [seq for seq in range(PACKETS)
                if seq not in missing and seq not in late] + sorted(late)
    if error is not None:
        failures.append(f"the decoder filter failed: {error!r}")
    if delivered != expected:
        failures.append(
            f"decoded stream differs from the oracle: {len(delivered)} "
            f"delivered, {len(expected)} expected")
    if not unknown >= reference["corrupt"] > 0:
        failures.append(f"{unknown} unknown packets at the decoder for "
                        f"{reference['corrupt']} corrupted datagrams")
    print(f" delivered: {len(delivered)} of {PACKETS} "
          f"({len(missing)} unrecoverable, {len(late)} late)")
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("OK: counter, event log and reference agree on every fault, and "
          "the decoded stream is the oracle's")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
