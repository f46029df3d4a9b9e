"""The four workloads, as they run inside the pinned child process.

Everything here is driven through ``repro``'s public classes; the only
benchmark-owned code on the data path is the :class:`StampedFeed` that
generates the input and the :class:`StampSink` that checks the output, and
both are kept to a small, fixed cost per unit (see README, "What the
harness itself costs").

A closed-loop workload is measured in short *windows*.  Between windows
the feed's gate is closed, the chain falls idle, and the main thread runs
the calibration kernel; a window counts only if the two readings that
bracket it agree (see :mod:`proxybench.stats`).
"""

from __future__ import annotations

import itertools
import random
import resource
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional

from repro.chaos import ChaosTransport, FaultPlan
from repro.core import ControlThread, IterableSource, Proxy, SinkEndPoint
from repro.filters import (FecDecoderFilter, FecEncoderFilter,
                           PassthroughFilter)
from repro.transport import (LoopbackTransport, TransportSink,
                             TransportSource, UdpTransport)

from .oracle import STAMP, SequenceChecker, expected_fec_delivery

#: Units per generated block — one pump budget, so a block is one batch.
BLOCK = 64

#: Latency samples kept per window (uniform stride over the window).
SAMPLES_PER_WINDOW = 512

FEC_K, FEC_N = 4, 6
FEC_DROP_P = 0.10
FEC_TRACKED_GROUPS = 1024
FEC_CHANNEL = "relay"
#: Source packets the closed loop keeps in flight (8 pump budgets).
FEC_WINDOW = 8 * BLOCK

LIVE_STREAMS = 8
LIVE_PACKET_BYTES = 320
LIVE_INTERVAL_S = 0.020


class StampedFeed:
    """A seeded, endless iterable of stamped units, gated and stoppable.

    With ``stamp_every == 1`` every unit carries its own ``(seq, t_ns)``
    stamp; otherwise only the first unit of each block does, its ``seq``
    being the unit's position in the stream, and the rest come from a small
    seeded pool — so an 8 KiB chunk costs the feed one list slot, not one
    allocation.  ``in_flight_limit`` with ``delivered`` makes the loop
    closed across a hop that has no back-pressure of its own.
    """

    def __init__(self, seed: int, unit_bytes: int, stamp_every: int,
                 gate: threading.Event, in_flight_limit: int = 0,
                 delivered: Optional[Callable[[], int]] = None) -> None:
        rng = random.Random(seed)
        body = unit_bytes - STAMP.size
        self._tails = [rng.randbytes(body) for _ in range(8)]
        self._fillers = [STAMP.pack(0, 0) + tail for tail in self._tails]
        self.stamp_every = stamp_every
        self._gate = gate
        self._limit = in_flight_limit
        self._delivered = delivered
        self._stopped = False
        #: Units generated so far.
        self.emitted = 0
        self.unit_bytes = unit_bytes

    def stop(self) -> None:
        """End the stream at the next block boundary."""
        self._stopped = True

    def __iter__(self):
        return itertools.chain.from_iterable(iter(self._block, None))

    def _block(self) -> Optional[List[bytes]]:
        if not self._gate.is_set():
            self._gate.wait()
        if self._stopped:
            return None
        base = self.emitted
        if self._limit and base - self._delivered() > self._limit:
            return [b""]  # "nothing right now": the source polls again
        now = time.perf_counter_ns()
        tails = self._tails
        pack = STAMP.pack
        if self.stamp_every == 1:
            block = [pack(seq, now) + tails[seq & 7]
                     for seq in range(base, base + BLOCK)]
        else:
            fillers = self._fillers
            block = [fillers[i & 7] for i in range(BLOCK)]
            block[0] = pack(base, now) + tails[0]
        self.emitted = base + BLOCK
        return block


class StampSink(SinkEndPoint):
    """Checks every stamp it can see; records latency while recording.

    ``stamp_every`` mirrors the feed.  ``latency_every`` thins the latency
    samples of a fully stamped stream.  With ``completes_every = k`` only
    the k-th unit of each group is timed: under (n, k) FEC that packet
    completes its group and waits for nothing but the proxy, so its latency
    excludes the time earlier packets spend held for the group to fill.

    ``rss_after_units`` takes the memory reading at a fixed amount of work
    instead of at exit, so it does not depend on how fast the run went.
    """

    type_name = "proxybench-sink"

    def __init__(self, stamp_every: int, latency_every: int = 1,
                 completes_every: int = 1, expect_frames: bool = False,
                 rss_after_units: int = 0) -> None:
        super().__init__(expect_frames=expect_frames)
        self._stamp_every = stamp_every
        self._latency_every = latency_every
        self._completes_every = completes_every
        self._rss_after_units = rss_after_units
        self.checker = SequenceChecker()
        self.units = 0
        self.bytes = 0
        self.recording = False
        self.latency_ns = array("q")
        self.rss_mib = 0.0

    def consume(self, data) -> None:
        self._check((data,))

    def consume_many(self, items) -> None:
        self._check(items)
        self.items_consumed += len(items)

    def highest_seen(self) -> int:
        """One past the highest sequence number delivered so far."""
        return self.checker.next_expected

    def _check(self, items) -> None:
        now = time.perf_counter_ns()
        self.bytes += sum(map(len, items))
        unpack = STAMP.unpack_from
        checker = self.checker
        every = self._stamp_every
        if every == 1:
            expected = checker.next_expected
            in_order = 0
            for item in items:
                seq = unpack(item)[0]
                if seq == expected:
                    expected += 1
                    in_order += 1
                else:
                    checker.next_expected = expected
                    checker.observe(seq)
                    expected = checker.next_expected
            checker.next_expected = expected
            checker.delivered += in_order
            sampled = items[::self._latency_every] if self.recording else ()
        else:
            sampled = items[-self.units % every::every]
            for item in sampled:
                checker.observe(unpack(item)[0] // every)
            if not self.recording:
                sampled = ()
        completes = self._completes_every
        for item in sampled:
            seq, stamped = unpack(item)
            if seq % completes == completes - 1:
                self.latency_ns.append(now - stamped)
        self.units += len(items)
        if not self.rss_mib and self.units >= self._rss_after_units > 0:
            self.rss_mib = peak_rss_mib()

    def take_samples(self) -> List[int]:
        """Return and clear the window's latency samples (thinned)."""
        samples = self.latency_ns
        self.latency_ns = array("q")
        return list(samples[::max(1, len(samples) // SAMPLES_PER_WINDOW)])


def peak_rss_mib() -> float:
    """This process's ``ru_maxrss`` in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ClosedLoopRun:
    """One started closed-loop workload: how to pause, sample and finish it."""

    def __init__(self, feed: StampedFeed, sink, gate: threading.Event,
                 wait_complete: Callable[[float], bool],
                 shutdown: Callable[[], None],
                 quiesce: Callable[[], None]) -> None:
        self.feed = feed
        self.sink = sink
        self.gate = gate
        self.wait_complete = wait_complete
        self.shutdown = shutdown
        self.quiesce = quiesce
        #: Extra per-window samples (splice timings), name -> list.
        self.window_extras: Callable[[], Dict[str, List[int]]] = dict
        #: Failure counts beyond the sequence check (name -> count).
        self.extra_failures: Callable[[], Dict[str, int]] = dict
        self.expected: Callable[[int], tuple] = lambda emitted: ((), ())

    def snapshot(self) -> tuple:
        return (time.perf_counter_ns(), time.process_time_ns(),
                self.sink.units, self.sink.bytes, self.feed.emitted)

    def finish(self, timeout: float = 30.0) -> Dict[str, object]:
        """End the stream, wait for it to drain, and check what arrived.

        Returns ``{"attempted": units the reference expects, "failures":
        {kind: count}}``.
        """
        self.feed.stop()
        self.gate.set()
        completed = self.wait_complete(timeout)
        emitted = self.feed.emitted
        missing, late = self.expected(emitted)
        stamp_every = self.feed.stamp_every
        verdict = self.sink.checker.verdict(emitted // stamp_every,
                                            missing, late)
        failures = {key: value for key, value in verdict.items()
                    if key not in ("failed", "expected_units")}
        failures.update(self.extra_failures())
        expected_units = emitted - len(missing)
        if stamp_every > 1:
            # Sparse stamps prove position; the unit count proves the rest.
            failures["miscounted"] = abs(expected_units - self.sink.units)
        if not completed:
            failures["timed_out"] = 1
        self.shutdown()
        return {"attempted": expected_units, "failures": failures}


# ---------------------------------------------------------------- bulk_chain


def start_bulk_chain(seed: int, gate: threading.Event,
                     engine: str = "threaded") -> ClosedLoopRun:
    """8 KiB chunks -> IterableSource -> 4 x PassthroughFilter -> sink."""
    feed = StampedFeed(seed, 8192, BLOCK, gate)
    sink = StampSink(stamp_every=BLOCK, rss_after_units=500_000)
    control = ControlThread(IterableSource(feed), sink, name="bulk_chain",
                            auto_start=False, engine=engine)
    for index in range(4):
        control.add(PassthroughFilter(name=f"pt-{index}"))
    control.start()
    return ClosedLoopRun(
        feed, sink, gate, control.wait_for_completion, control.shutdown,
        quiesce=lambda: control.wait_idle(timeout=2.0))


# --------------------------------------------------------------- splice_live


def start_splice_live(seed: int, gate: threading.Event,
                      engine: str = "threaded") -> ClosedLoopRun:
    """1 KiB stamped chunks through 2 filters while a third comes and goes."""
    feed = StampedFeed(seed, 1024, 1, gate)
    sink = StampSink(stamp_every=1, latency_every=16,
                     rss_after_units=400_000)
    control = ControlThread(IterableSource(feed), sink, name="splice_live",
                            auto_start=False, engine=engine)
    control.add(PassthroughFilter(name="pt-a"))
    control.add(PassthroughFilter(name="pt-b"))
    control.start()

    rng = random.Random(seed ^ 0x5B11CE)
    stop = threading.Event()
    parked = threading.Event()
    add_ns: List[int] = []
    remove_ns: List[int] = []
    errors: List[str] = []

    def dwell() -> None:
        stop.wait(rng.uniform(0.020, 0.030))

    def controller() -> None:
        cycle = 0
        while not stop.is_set():
            if not gate.is_set():
                parked.set()
                gate.wait()
                parked.clear()
                continue
            dwell()
            spliced = PassthroughFilter(name=f"spliced-{cycle}")
            cycle += 1
            try:
                started = time.perf_counter_ns()
                control.add(spliced, position=1)
                added = time.perf_counter_ns()
                dwell()
                removing = time.perf_counter_ns()
                control.remove(spliced)
                removed = time.perf_counter_ns()
            except Exception as exc:  # noqa: BLE001 - reported as a failure
                if not stop.is_set():
                    errors.append(repr(exc))
                return
            if sink.recording:
                add_ns.append(added - started)
                remove_ns.append(removed - removing)
        parked.set()

    thread = threading.Thread(target=controller, name="splice-controller",
                              daemon=True)
    thread.start()

    def quiesce() -> None:
        parked.wait(timeout=5.0)
        control.wait_idle(timeout=2.0)

    def wait_complete(timeout: float) -> bool:
        stop.set()
        thread.join(timeout=timeout)
        return control.wait_for_completion(timeout)

    def window_extras() -> Dict[str, List[int]]:
        out = {"splice_add_ns": list(add_ns),
               "splice_remove_ns": list(remove_ns)}
        add_ns.clear()
        remove_ns.clear()
        return out

    run = ClosedLoopRun(feed, sink, gate, wait_complete, control.shutdown,
                        quiesce)
    run.window_extras = window_extras
    run.extra_failures = lambda: {"splice_errors": len(errors)}
    return run


# ----------------------------------------------------------- fec_lossy_relay


def start_fec_lossy_relay(seed: int, gate: threading.Event) -> ClosedLoopRun:
    """320 B packets -> FEC(6,4) -> lossy loopback -> FEC decode -> sink."""
    sink = StampSink(stamp_every=1, completes_every=FEC_K,
                     expect_frames=True, rss_after_units=20_000)
    feed = StampedFeed(seed, LIVE_PACKET_BYTES, 1, gate,
                       in_flight_limit=FEC_WINDOW,
                       delivered=sink.highest_seen)
    transport = ChaosTransport(LoopbackTransport(),
                               FaultPlan(seed=seed, drop_p=FEC_DROP_P))
    proxy = Proxy("fec_lossy_relay", engine="asyncio", transport=transport)
    channel = proxy.open_channel(FEC_CHANNEL)
    receiver = channel.join("decoder-side")
    rx = proxy.add_stream(TransportSource(receiver), sink, name="rx",
                          auto_start=False)
    rx.add(FecDecoderFilter(max_tracked_groups=FEC_TRACKED_GROUPS))
    tx = proxy.add_stream(IterableSource(feed, frame_output=True),
                          TransportSink(channel), name="tx", auto_start=False)
    tx.add(FecEncoderFilter(k=FEC_K, n=FEC_N, start_group_id=0))
    rx.start()
    tx.start()

    run = ClosedLoopRun(feed, sink, gate, rx.wait_for_completion,
                        proxy.shutdown,
                        # The gate blocks the one scheduler thread in place,
                        # so "idle" is immediate; give the GIL a beat.
                        quiesce=lambda: time.sleep(0.002))
    run.expected = lambda emitted: expected_fec_delivery(
        seed, FEC_DROP_P, FEC_CHANNEL, emitted, FEC_K, FEC_N,
        FEC_TRACKED_GROUPS)
    return run


CLOSED_LOOP = {
    "bulk_chain": start_bulk_chain,
    "splice_live": start_splice_live,
    "fec_lossy_relay": start_fec_lossy_relay,
}


# ------------------------------------------------------------ live_udp_fanin


class LiveProxy:
    """The proxy side of ``live_udp_fanin``: 8 UDP streams, event engine.

    Each stream is ``TransportSource(udp) -> FecEncoderFilter(6,4) ->
    TransportSink(udp)``.  The harness process owns the generator and the
    receiver; this side only binds the ingest sockets and points each
    egress channel at the harness's receive address.
    """

    def __init__(self, egress_addresses, engine: str = "event") -> None:
        self.transport = UdpTransport()
        self.proxy = Proxy("live_udp_fanin", engine=engine,
                           transport=self.transport)
        self.ingest_addresses = []
        self.controls = []
        for index, address in enumerate(egress_addresses):
            ingest = self.transport.open_channel(f"ingest-{index}")
            receiver = ingest.join("proxy", recv_buffer_bytes=1 << 20)
            egress = self.transport.open_channel(f"egress-{index}")
            egress.add_member("harness", tuple(address))
            control = self.proxy.add_stream(
                TransportSource(receiver), TransportSink(egress),
                name=f"live-{index}", auto_start=False)
            control.add(FecEncoderFilter(k=FEC_K, n=FEC_N,
                                         start_group_id=index << 20))
            control.start()
            self.ingest_addresses.append(list(receiver.address))
            self.controls.append(control)

    def engine_counters(self) -> Dict[str, int]:
        snapshot = getattr(self.proxy.engine, "metrics_snapshot", None)
        return dict(snapshot()["counters"]) if snapshot else {}

    def wait_complete(self, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        return all(control.wait_for_completion(
            max(0.0, deadline - time.monotonic()))
            for control in self.controls)

    def shutdown(self) -> None:
        self.proxy.shutdown()
        self.transport.close()
