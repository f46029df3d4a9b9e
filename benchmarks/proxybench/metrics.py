"""The benchmark's catalogue: workloads, metrics, bounds and predictions.

``BENCHMARK.json`` at the repository root is generated from this module
(``run.py --write-manifest``) and the smoke test fails when the two drift.
The manifest's schema has no room for *why* a layer metric exists, so the
prediction — which end-to-end metric it should move, on which workload —
lives here, next to the name.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

ENGINES = ("threaded", "event", "asyncio")
LAYERS = ("streams", "core", "runtime", "fec", "filters", "transport", "chaos")

#: Seconds one driver invocation measures (``run_seconds`` in the manifest).
RUN_SECONDS = 20

#: The calibration kernel's reading (ns per iteration) in the undisturbed
#: state of the box the benchmark was defined on.  Every timing is reported
#: as it would read at this speed (see README, "Noise normalisation").
CALIBRATION_REFERENCE_NS = 1250.0

#: How strongly a loop's timings follow the calibration kernel when the
#: host slows down: fitted at the seed from windows measured in both
#: machine states (slow/fast ratio of the metric = kernel's ratio ** s).
SENSITIVITY = {"closed": 0.85, "open": 0.55}

COMMAND = ["python3", "benchmarks/proxybench/run.py"]
PATHS = ["benchmarks/proxybench"]


class Workload(NamedTuple):
    name: str
    loop: str       # "closed" or "open"
    engine: str
    why: str


WORKLOADS: Tuple[Workload, ...] = (
    Workload("bulk_chain", "closed", "threaded",
             "8 KiB chunks through 4 passthrough filters, threaded engine: "
             "stream hops, Filter.pump and thread hand-off do all the work "
             "(the paper's E6); no fec, no transport."),
    Workload("fec_lossy_relay", "closed", "asyncio",
             "320 B packets, FEC(6,4) encode, 10% seeded loss on loopback, "
             "decode, asyncio engine: fec, filters and framing dominate and "
             "batches stay fused; delivery is exact per seed."),
    Workload("live_udp_fanin", "open", "event",
             "8 UDP streams x 50 pkt/s through FEC encode on the event "
             "engine, one packet per wakeup: per-packet dispatch and the UDP "
             "path dominate; a batch gain that costs single packets shows."),
    Workload("splice_live", "closed", "threaded",
             "1 KiB chunks through 2 filters while a third is inserted and "
             "removed every ~50 ms: the control path (pause, drain, "
             "reconnect) of the layers bulk_chain measures on the data path."),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


#: Bounds are at least three times the spread (interquartile distance over
#: median of ten runs, each with another seed) seen on the 2-vCPU shared
#: box the benchmark was defined on, and never above 0.25.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "child process start -> import repro -> chain built -> "
             "start() returned"),
    EndToEnd("throughput_mib_s", "MiB/s", "higher", 0.20,
             "payload bytes delivered to the sink per second"),
    EndToEnd("packets_per_s", "1/s", "higher", 0.20,
             "source units (chunks or packets) accepted per second"),
    EndToEnd("cpu_us_per_unit", "us", "lower", 0.25,
             "proxy-process CPU time per source unit"),
    EndToEnd("latency_ms_p50", "ms", "lower", 0.25,
             "unit creation (closed loop) or due-send time (open loop) to "
             "arrival at the sink, median; under FEC over the packets that "
             "complete a group"),
    EndToEnd("latency_ms_p90", "ms", "lower", 0.25,
             "the same, 90th percentile (p95 sits on a cliff here: 0.5-5 % "
             "of live packets, run to run, are caught in host stalls)"),
    EndToEnd("peak_rss_mib", "MiB", "lower", 0.15,
             "ru_maxrss of the proxy process after a fixed number of units"),
)


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: (end-to-end metric, workload) this layer metric should move; None
    #: for harness health and for layers without an end-to-end workload.
    target: Optional[Tuple[str, str]]


def _per_layer() -> List[PerLayer]:
    bulk = ("throughput_mib_s", "bulk_chain")
    relay = ("packets_per_s", "fec_lossy_relay")
    live_cpu = ("cpu_us_per_unit", "live_udp_fanin")
    live_latency = ("latency_ms_p50", "live_udp_fanin")
    splice = ("throughput_mib_s", "splice_live")
    rows = [
        PerLayer("streams.buffer_ns_per_chunk", "ns", "lower", bulk),
        PerLayer("streams.buffer_misaligned_ns_per_chunk", "ns", "lower",
                 bulk),
        PerLayer("streams.pipe_hop_ns_per_chunk", "ns", "lower", bulk),
        PerLayer("streams.pipe_hop_xthread_ns_per_chunk", "ns", "lower",
                 bulk),
        PerLayer("streams.chunks_per_read_batch", "count", "higher", bulk),
        PerLayer("streams.frame_encode_ns_per_packet", "ns", "lower", relay),
        PerLayer("streams.frame_decode_ns_per_packet", "ns", "lower", relay),
        PerLayer("streams.pause_resume_us", "us", "lower", splice),
        PerLayer("core.pump_ns_per_chunk", "ns", "lower", bulk),
        PerLayer("core.packet_pump_ns_per_packet", "ns", "lower", relay),
        PerLayer("core.chain_build_ms", "ms", "lower",
                 ("setup_s", "bulk_chain")),
    ]
    for engine in ENGINES:
        prefix = f"core.splice.{engine}"
        rows += [
            PerLayer(f"{prefix}.add_ms_p50", "ms", "lower", splice),
            PerLayer(f"{prefix}.add_ms_p95", "ms", "lower", splice),
            PerLayer(f"{prefix}.remove_ms_p50", "ms", "lower", splice),
            PerLayer(f"{prefix}.remove_ms_p95", "ms", "lower", splice),
            PerLayer(f"{prefix}.lost_chunks", "count", "lower", None),
        ]
    for engine in ENGINES:
        prefix = f"runtime.{engine}"
        rows += [
            PerLayer(f"{prefix}.bulk_ns_per_chunk_hop", "ns", "lower", bulk),
            PerLayer(f"{prefix}.live_us_per_packet", "us", "lower", live_cpu),
            PerLayer(f"{prefix}.wakeups_per_packet", "count", "lower",
                     live_cpu),
            PerLayer(f"{prefix}.threads", "count", "lower", None),
        ]
    rows += [
        PerLayer("fec.apply_matrix_mb_s_b320", "MB/s", "higher", relay),
        PerLayer("fec.apply_matrix_mb_s_b1024", "MB/s", "higher", relay),
        PerLayer("fec.encode_batch_us_per_packet", "us", "lower", relay),
        PerLayer("fec.encode_single_us_per_packet", "us", "lower", live_cpu),
        PerLayer("fec.decode_clean_us_per_packet", "us", "lower", relay),
        PerLayer("fec.decode_erasure_us_per_packet", "us", "lower", relay),
        PerLayer("fec.packet_pack_ns", "ns", "lower", relay),
        PerLayer("fec.packet_unpack_ns", "ns", "lower", relay),
        PerLayer("fec.recovered_fraction", "ratio", "higher", relay),
        PerLayer("filters.fec_encoder_us_per_packet", "us", "lower", relay),
        PerLayer("filters.fec_decoder_us_per_packet", "us", "lower", relay),
        PerLayer("filters.passthrough_ns_per_chunk", "ns", "lower", bulk),
        PerLayer("transport.udp_send_us_per_datagram", "us", "lower",
                 live_cpu),
        PerLayer("transport.udp_send_many_us_per_datagram", "us", "lower",
                 live_cpu),
        PerLayer("transport.udp_recv_us_per_datagram", "us", "lower",
                 live_cpu),
        PerLayer("transport.udp_kernel_drops", "count", "lower", None),
        PerLayer("transport.source_produce_us_per_datagram", "us", "lower",
                 live_cpu),
        PerLayer("transport.sink_consume_us_per_datagram", "us", "lower",
                 live_cpu),
        PerLayer("transport.loopback_us_per_datagram", "us", "lower", relay),
        PerLayer("chaos.overhead_us_per_datagram", "us", "lower", relay),
        PerLayer("obs.scrape_ms", "ms", "lower", live_cpu),
        PerLayer("obs.counter_inc_ns", "ns", "lower", live_cpu),
        PerLayer("cluster.spawn_s_per_worker", "s", "lower", None),
        PerLayer("cluster.rpc_roundtrip_ms_p50", "ms", "lower", None),
        PerLayer("cluster.open_stream_ms", "ms", "lower", None),
        PerLayer("calib.spin_ns_per_iter", "ns", "lower", None),
        PerLayer("harness.disturbed_reps", "count", "lower", None),
        PerLayer("harness.undisturbed_windows", "count", "higher", None),
        PerLayer("harness.generator_lag_ms_p95", "ms", "lower", None),
        PerLayer("harness.trace_overhead_ratio", "ratio", "lower", None),
        PerLayer("live.latency_ms_p99", "ms", "lower", live_latency),
        PerLayer("live.held_latency_ms_p95", "ms", "lower", live_latency),
        PerLayer("live.held_latency_ms_p99", "ms", "lower", live_latency),
    ]
    rows += [PerLayer(f"trace.{layer}_share", "ratio", "lower", None)
             for layer in LAYERS]
    return rows


PER_LAYER: Tuple[PerLayer, ...] = tuple(_per_layer())


def manifest() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
