"""Per-layer probes: each layer's unit costs, timed from outside ``src/``.

Every probe calls public functions of one layer in a tight loop over a
fixed amount of seeded work and reports the median of a few repeats.  The
numbers have no regression bound; they exist so that an end-to-end change
can be traced to the layer that caused it (``metrics.PER_LAYER`` records
which end-to-end metric each should move).

The engine rows reuse the workloads themselves at short length — the same
chain on each engine — so "engine X costs Y per hop" is measured on the
configuration the end-to-end number comes from.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, Tuple, Union

from repro.chaos import ChaosChannel, FaultPlan
from repro.cluster import ProxyCluster, StreamSpec
from repro.core import ControlThread, IterableSource, NullSink
from repro.fec import (FecGroupDecoder, FecGroupEncoder, FecPacket,
                       get_backend, parity_rows)
from repro.filters import (FecDecoderFilter, FecEncoderFilter,
                           PacketPassthroughFilter, PassthroughFilter)
from repro.obs import default_registry
from repro.obs.exporter import render
from repro.streams import (DetachableInputStream, DetachableOutputStream,
                           FrameDecoder, StreamBuffer, encode_frame,
                           make_pipe)
from repro.transport import (LoopbackChannel, TransportSink, TransportSource,
                             UdpChannel)

from . import metrics, stats
from .workloads import (BLOCK, FEC_K, FEC_N, LIVE_PACKET_BYTES,
                        start_bulk_chain, start_splice_live)

REPEATS = 3
CHUNK = 8192


def per_unit(work: Callable[[], Union[int, Tuple[int, int]]],
             scale: float = 1.0) -> float:
    """Median over ``REPEATS`` of ``work()``'s duration per unit it reports.

    ``work`` returns how many units it processed — or ``(units, ns)`` when
    only part of what it does is the thing measured and it timed that part
    itself.  The result is in ns per unit, divided by ``scale`` (1e3 for
    microseconds).
    """
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        outcome = work()
        elapsed = time.perf_counter_ns() - start
        units, spent = (outcome if isinstance(outcome, tuple)
                        else (outcome, elapsed))
        samples.append(spent / max(1, units) / scale)
    return statistics.median(samples)


class _NoEngine:
    """Stands in for an engine so ``Filter.pump`` can be called directly."""

    def notify_element(self, element) -> None:
        pass


def _packets(rng: random.Random, count: int) -> List[bytes]:
    return [rng.randbytes(LIVE_PACKET_BYTES) for _ in range(count)]


# ---------------------------------------------------------------- streams


def probe_streams(rng: random.Random, n: int) -> Dict[str, float]:
    chunk = rng.randbytes(CHUNK)
    out: Dict[str, float] = {}

    def buffer_aligned() -> int:
        buffer = StreamBuffer(capacity=None)
        for _ in range(n):
            buffer.write(chunk)
            buffer.read(CHUNK)
        return n

    def buffer_misaligned() -> int:
        buffer = StreamBuffer(capacity=None)
        for _ in range(n):
            buffer.write(chunk)
            buffer.read(CHUNK // 2 + 1)
            buffer.read(CHUNK)
        return n

    batch = [chunk] * BLOCK

    def pipe_same_thread() -> int:
        dos, dis = make_pipe(capacity=4 * BLOCK * CHUNK)
        for _ in range(n // BLOCK):
            dos.write_many(batch)
            dis.read_chunks(BLOCK * CHUNK, timeout=1.0)
        return n // BLOCK * BLOCK

    reads = []

    def pipe_cross_thread() -> int:
        dos, dis = make_pipe(capacity=2 * BLOCK * CHUNK)
        count = [0, 0]

        def reader() -> None:
            while True:
                chunks = dis.read_chunks(BLOCK * CHUNK, timeout=5.0)
                if not chunks:
                    return
                count[0] += len(chunks)
                count[1] += 1

        thread = threading.Thread(target=reader)
        thread.start()
        for _ in range(n // BLOCK):
            dos.write_many(batch)
        dos.close()
        thread.join(timeout=30.0)
        reads.append(count[0] / max(1, count[1]))
        return max(1, count[0])

    out["streams.buffer_ns_per_chunk"] = per_unit(buffer_aligned)
    out["streams.buffer_misaligned_ns_per_chunk"] = per_unit(buffer_misaligned)
    out["streams.pipe_hop_ns_per_chunk"] = per_unit(pipe_same_thread)
    out["streams.pipe_hop_xthread_ns_per_chunk"] = per_unit(pipe_cross_thread)
    out["streams.chunks_per_read_batch"] = statistics.median(reads)

    packets = _packets(rng, BLOCK)
    framed = b"".join(map(encode_frame, packets))

    def frame_encode() -> int:
        for _ in range(n // BLOCK):
            for packet in packets:
                encode_frame(packet)
        return n // BLOCK * BLOCK

    def frame_decode() -> int:
        decoder = FrameDecoder()
        for _ in range(n // BLOCK):
            decoder.feed(framed)
            decoder.packets()
        return n // BLOCK * BLOCK

    out["streams.frame_encode_ns_per_packet"] = per_unit(frame_encode)
    out["streams.frame_decode_ns_per_packet"] = per_unit(frame_decode)

    def pause_resume() -> int:
        dos, dis = make_pipe()
        cycles = max(10, n // 100)
        for _ in range(cycles):
            dos.pause(drain_timeout=1.0)
            dos.reconnect(dis)
        return cycles

    out["streams.pause_resume_us"] = per_unit(pause_resume, 1e3)
    return out


# ------------------------------------------------------------------- core


def _pump_cost(make_filter, batch: List[bytes], rounds: int) -> float:
    """ns of ``Filter.pump`` per input unit, with input and output in place."""
    budget = 4 * sum(map(len, batch)) + 65536

    def work() -> Tuple[int, int]:
        filter_obj = make_filter()
        upstream = DetachableOutputStream(name="probe.upstream")
        downstream = DetachableInputStream(name="probe.downstream",
                                           capacity=budget)
        filter_obj.bind_engine(_NoEngine())
        upstream.connect(filter_obj.dis)
        filter_obj.dos.connect(downstream)
        spent = 0
        for _ in range(rounds):
            upstream.write_many(batch)
            start = time.perf_counter_ns()
            filter_obj.pump()
            spent += time.perf_counter_ns() - start
            downstream.read_chunks(budget, timeout=1.0)
        return rounds * len(batch), spent

    return per_unit(work)


def probe_core(rng: random.Random, n: int) -> Dict[str, float]:
    chunk = rng.randbytes(CHUNK)
    framed = [encode_frame(p) for p in _packets(rng, BLOCK)]
    rounds = max(4, n // BLOCK)
    out = {
        "core.pump_ns_per_chunk": _pump_cost(
            PassthroughFilter, [chunk] * BLOCK, rounds),
        "core.packet_pump_ns_per_packet": _pump_cost(
            PacketPassthroughFilter, framed, rounds // 4 + 1),
    }

    def build() -> int:
        control = ControlThread(IterableSource([]), NullSink(),
                                auto_start=False, engine="threaded")
        for _ in range(4):
            control.add(PassthroughFilter())
        control.start()
        built.append(control)
        return 1

    built: List[ControlThread] = []
    out["core.chain_build_ms"] = per_unit(build, 1e6)
    for control in built:
        control.wait_for_completion(5.0)
        control.shutdown()
    return out


def probe_engines(seed: int, seconds: float) -> Dict[str, float]:
    """Each engine under the bulk chain and under a live splice."""
    out: Dict[str, float] = {}
    for engine in metrics.ENGINES:
        gate = threading.Event()
        run = start_bulk_chain(seed, gate, engine)
        gate.set()
        time.sleep(0.1)
        before = run.snapshot()
        time.sleep(seconds / 3)
        after = run.snapshot()
        run.finish(10.0)
        hops = 5  # source -> 4 filters -> sink
        out[f"runtime.{engine}.bulk_ns_per_chunk_hop"] = (
            (after[0] - before[0]) / max(1, after[2] - before[2]) / hops)

        gate = threading.Event()
        run = start_splice_live(seed, gate, engine)
        run.sink.recording = True
        gate.set()
        time.sleep(seconds)
        splices = run.window_extras()
        failures = run.finish(10.0)["failures"]
        prefix = f"core.splice.{engine}"
        for kind in ("add", "remove"):
            samples = splices[f"splice_{kind}_ns"] or [0]
            out[f"{prefix}.{kind}_ms_p50"] = stats.percentile(
                samples, 0.50) / 1e6
            out[f"{prefix}.{kind}_ms_p95"] = stats.percentile(
                samples, 0.95) / 1e6
        out[f"{prefix}.lost_chunks"] = failures["lost"]
    return out


# -------------------------------------------------------------------- fec


def probe_fec(rng: random.Random, n: int) -> Dict[str, float]:
    import numpy as np

    out: Dict[str, float] = {}
    backend = get_backend()
    rows = parity_rows(FEC_K, FEC_N)
    for width in (320, 1024):
        data = np.frombuffer(rng.randbytes(FEC_K * width * 16),
                             dtype=np.uint8).reshape(FEC_K, width * 16)
        rounds = max(4, n // 64)

        def apply() -> int:
            for _ in range(rounds):
                backend.apply_matrix(rows, data)
            return rounds * data.size

        # ns per byte -> bytes per microsecond = MB/s
        out[f"fec.apply_matrix_mb_s_b{width}"] = 1e3 / per_unit(apply)

    packets = _packets(rng, BLOCK)
    rounds = max(2, n // (8 * BLOCK))

    def encode_batch() -> int:
        encoder = FecGroupEncoder(FEC_K, FEC_N)
        for _ in range(rounds):
            encoder.add_batch(packets)
        return rounds * BLOCK

    def encode_single() -> int:
        encoder = FecGroupEncoder(FEC_K, FEC_N)
        for _ in range(rounds):
            for packet in packets:
                encoder.add(packet)
        return rounds * BLOCK

    out["fec.encode_batch_us_per_packet"] = per_unit(encode_batch, 1e3)
    out["fec.encode_single_us_per_packet"] = per_unit(encode_single, 1e3)

    def encoded(first_group: int) -> List[FecPacket]:
        return FecGroupEncoder(FEC_K, FEC_N,
                               start_group_id=first_group).add_batch(packets)

    def decode(drop_index) -> Callable[[], Tuple[int, int]]:
        def work() -> Tuple[int, int]:
            decoder = FecGroupDecoder()
            spent = 0
            for round_index in range(rounds):
                received = [p for p in encoded(round_index * BLOCK)
                            if p.index != drop_index]
                start = time.perf_counter_ns()
                decoder.add_batch(received)
                spent += time.perf_counter_ns() - start
            return rounds * BLOCK, spent
        return work

    out["fec.decode_clean_us_per_packet"] = per_unit(decode(None), 1e3)
    out["fec.decode_erasure_us_per_packet"] = per_unit(decode(1), 1e3)

    fec_packets = encoded(0)
    wire = [p.pack() for p in fec_packets]

    def pack() -> int:
        for _ in range(rounds):
            for packet in fec_packets:
                packet.pack()
        return rounds * len(fec_packets)

    def unpack() -> int:
        for _ in range(rounds):
            for data in wire:
                FecPacket.unpack(data)
        return rounds * len(wire)

    out["fec.packet_pack_ns"] = per_unit(pack)
    out["fec.packet_unpack_ns"] = per_unit(unpack)

    # Share of packets lost on a 10% link that FEC(6,4) gives back.
    decoder = FecGroupDecoder()
    delivered = lost = 0
    for round_index in range(max(8, rounds)):
        for packet in encoded(round_index * BLOCK):
            if rng.random() < 0.10:
                lost += packet.is_data
            else:
                delivered += len(decoder.add(packet))
    delivered += len(decoder.flush())
    sent = max(8, rounds) * BLOCK
    arrived_unaided = sent - lost
    out["fec.recovered_fraction"] = ((delivered - arrived_unaided) / lost
                                     if lost else 1.0)
    return out


# ---------------------------------------------------------------- filters


def probe_filters(rng: random.Random, n: int) -> Dict[str, float]:
    out: Dict[str, float] = {}
    framed = [encode_frame(p) for p in _packets(rng, BLOCK)]
    rounds = max(2, n // (8 * BLOCK))

    def encoder() -> int:
        filter_obj = FecEncoderFilter(k=FEC_K, n=FEC_N)
        for _ in range(rounds):
            filter_obj.transform_chunks(framed, [])
        return rounds * BLOCK

    encoded: List[bytes] = []
    FecEncoderFilter(k=FEC_K, n=FEC_N, start_group_id=0).transform_chunks(
        framed, encoded)

    def decoder() -> int:
        for _ in range(rounds):
            FecDecoderFilter().transform_chunks(encoded, [])
        return rounds * BLOCK

    chunks = [rng.randbytes(CHUNK)] * BLOCK

    def passthrough() -> int:
        filter_obj = PassthroughFilter()
        for _ in range(n // BLOCK):
            filter_obj.transform_chunks(chunks, [])
        return n // BLOCK * BLOCK

    out["filters.fec_encoder_us_per_packet"] = per_unit(encoder, 1e3)
    out["filters.fec_decoder_us_per_packet"] = per_unit(decoder, 1e3)
    out["filters.passthrough_ns_per_chunk"] = per_unit(passthrough)
    return out


# -------------------------------------------------------------- transport


def probe_transport(rng: random.Random, n: int) -> Dict[str, float]:
    out: Dict[str, float] = {}
    payloads = _packets(rng, BLOCK)
    rounds = max(2, n // (8 * BLOCK))

    channel = UdpChannel("probe-udp")
    receiver = channel.join("probe", recv_buffer_bytes=4 << 20)
    sent = received = recv_ns = 0
    try:
        def drain() -> int:
            """Take what arrived; returns the ns the receive side cost."""
            nonlocal sent, received, recv_ns
            sent += BLOCK
            start = time.perf_counter_ns()
            received += len(receiver.take())
            spent = time.perf_counter_ns() - start
            recv_ns += spent
            return spent

        def sending(send_block: Callable[[], None]):
            # The receive cost is timed separately and left out of the sends.
            def work() -> Tuple[int, int]:
                start = time.perf_counter_ns()
                draining = 0
                for _ in range(rounds):
                    send_block()
                    draining += drain()
                return (rounds * BLOCK,
                        time.perf_counter_ns() - start - draining)
            return work

        def send_each() -> None:
            for payload in payloads:
                channel.send(payload)

        out["transport.udp_send_us_per_datagram"] = per_unit(
            sending(send_each), 1e3)
        out["transport.udp_send_many_us_per_datagram"] = per_unit(
            sending(lambda: channel.send_many(payloads)), 1e3)
        out["transport.udp_recv_us_per_datagram"] = (
            recv_ns / max(1, received) / 1e3)
        time.sleep(0.05)
        received += len(receiver.take())
        out["transport.udp_kernel_drops"] = sent - received

        source = TransportSource(receiver)
        source.bind_engine(_NoEngine())

        def produce() -> Tuple[int, int]:
            produced = spent = 0
            for _ in range(rounds):
                channel.send_many(payloads)
                time.sleep(0.001)
                start = time.perf_counter_ns()
                while source.produce():
                    produced += 1
                spent += time.perf_counter_ns() - start
            return produced, spent

        out["transport.source_produce_us_per_datagram"] = per_unit(produce,
                                                                   1e3)

        sink = TransportSink(channel, close_channel_on_eof=False)

        def consume() -> int:
            for _ in range(rounds):
                sink.consume_many(payloads)
                receiver.take()
            return rounds * BLOCK

        out["transport.sink_consume_us_per_datagram"] = per_unit(consume, 1e3)
    finally:
        channel.close()
        receiver.close()

    def loopback_cost(make_channel) -> float:
        def work() -> int:
            channel = make_channel()
            member = channel.join("probe")
            for _ in range(rounds):
                channel.send_many(payloads)
                member.take()
            return rounds * BLOCK
        return per_unit(work, 1e3)

    plain = loopback_cost(lambda: LoopbackChannel("probe-loop"))
    faulty = loopback_cost(lambda: ChaosChannel(
        LoopbackChannel("probe-loop"), FaultPlan(seed=1, drop_p=0.10)))
    out["transport.loopback_us_per_datagram"] = plain
    out["chaos.overhead_us_per_datagram"] = faulty - plain
    return out


# ------------------------------------------------------------ obs, cluster


def probe_obs(n: int) -> Dict[str, float]:
    counter = default_registry().counter("proxybench_probe_total",
                                         "proxybench probe counter")

    def inc() -> int:
        for _ in range(n):
            counter.inc()
        return n

    def scrape() -> int:
        for _ in range(5):
            render()
        return 5

    out = {"obs.counter_inc_ns": per_unit(inc),
           "obs.scrape_ms": per_unit(scrape, 1e6)}
    default_registry().unregister("proxybench_probe_total")
    return out


def probe_cluster(seed: int) -> Dict[str, float]:
    start = time.perf_counter()
    cluster = ProxyCluster(workers=1, engine="threaded", heartbeat_s=0).start()
    try:
        spawn_s = time.perf_counter() - start
        worker = cluster.worker(0)
        pings = []
        for _ in range(30):
            begin = time.perf_counter_ns()
            worker.request("ping")
            pings.append((time.perf_counter_ns() - begin) / 1e6)
        begin = time.perf_counter_ns()
        cluster.open_stream(StreamSpec.from_pattern(
            "probe", seed, 16, LIVE_PACKET_BYTES))
        open_ms = (time.perf_counter_ns() - begin) / 1e6
        cluster.wait_stream("probe", timeout=10.0)
    finally:
        cluster.shutdown(timeout=5.0)
    return {"cluster.spawn_s_per_worker": spawn_s,
            "cluster.rpc_roundtrip_ms_p50": statistics.median(pings),
            "cluster.open_stream_ms": open_ms}


def run_all(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Every in-process probe; returns ``{"metrics": {name: value}}``."""
    rng = random.Random(spec["seed"])
    quick = spec.get("quick", False)
    n = 2_000 if quick else 20_000
    values: Dict[str, float] = {}
    values.update(probe_streams(rng, n))
    values.update(probe_core(rng, n))
    values.update(probe_engines(spec["seed"], 0.6 if quick else 1.5))
    values.update(probe_fec(rng, n))
    values.update(probe_filters(rng, n))
    values.update(probe_transport(rng, n))
    values.update(probe_obs(n))
    values.update(probe_cluster(spec["seed"]))
    return {"metrics": values}
