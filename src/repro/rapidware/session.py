"""The adaptive session: observers + responders driving a live proxy.

This module wires the pieces of the paper's Section 3 scenario together:

    "Suppose that this proxy receives a live video [audio] stream on a
    socket, transcodes the stream ... and forwards the resulting data to one
    or more wireless handheld computers.  Now let us assume that the user
    wants to maintain the connection as she moves from her office (near the
    access point) to a conference room down the hall. ... When losses rise
    above a given level, the RAPIDware system should insert an FEC filter
    into the video stream.  However, the insertion should not disturb the
    connection to the source of the stream."

:class:`AdaptiveAudioSession` hosts a live audio stream through a RAPIDware
proxy onto the simulated wireless LAN, with a loss-rate observer and an FEC
responder attached; :func:`run_adaptive_walk_experiment` drives the walk and
records, per time step, the observed loss, whether FEC was active, and the
raw/recovered delivery — the data behind experiment E2.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import List, Optional

from ..core import CallableSource, ControlThread, Proxy
from ..media import AudioPacketizer, MediaPacket, ToneSource
from ..net import DeliveryReport, LinearWalk
from ..proxies.fec_audio_proxy import WirelessAudioReceiver
from ..transport import InprocChannel, TransportSink
from .events import EventBus
from .observers import LossRateObserver, MigrationObserver
from .policy import AdaptationLimits, FecPolicy
from .responders import FecResponder


class AdaptiveAudioSession:
    """A live audio stream through a proxy whose FEC adapts to link quality."""

    def __init__(self, receiver_name: str = "mobile-host",
                 initial_distance_m: float = 5.0,
                 policy: Optional[FecPolicy] = None,
                 limits: Optional[AdaptationLimits] = None,
                 observer_min_sample: int = 10,
                 seed: int = 7,
                 engine=None,
                 transport=None) -> None:
        # The wireless segment is a transport channel; the simulated WLAN is
        # the default (and the only transport whose receivers carry the loss
        # models and distances the adaptation plane observes — under any
        # other transport :meth:`observe` and :meth:`move_receiver` are
        # no-ops and the stream is simply carried unprotected-but-lossless).
        # The transport selection (argument / REPRO_TRANSPORT / default)
        # decides the channel, as for Proxy; only inproc uses the seed.
        self.proxy = Proxy("adaptive-audio-proxy", engine=engine,
                           transport=transport)
        self.channel = self.proxy.open_channel("adaptive-audio", seed=seed)
        self._simulated = isinstance(self.channel, InprocChannel)
        #: The mobile host's receiving end: the capture path on every
        #: transport (collect_received), and under inproc also the loss
        #: statistics and position the oracle observers read.
        self.receiver = self.channel.join(receiver_name,
                                          distance_m=initial_distance_m,
                                          seed=seed)
        self.audio_receiver = WirelessAudioReceiver(receiver_name)

        # The proxied stream: a queue-fed source (the "socket" from the wired
        # side) and a wireless-multicast sink.  A ``None`` on the queue is
        # the end-of-stream sentinel, so the source blocks on the queue
        # instead of polling it.
        self._queue: "queue.Queue[Optional[bytes]]" = queue.Queue()
        self._source_done = threading.Event()
        self._enqueued_packets = 0
        self._source = CallableSource(self._pull, name="wired-receiver",
                                      frame_output=True)
        self._sink = TransportSink(self.channel, name="wireless-sender",
                                   expect_frames=True)
        self.control: ControlThread = self.proxy.add_stream(
            self._source, self._sink, name="audio", auto_start=True)

        # The adaptive plane.
        self.bus = EventBus()
        self.loss_observer = LossRateObserver(
            self.receiver, self.bus,
            degraded_threshold=(policy or FecPolicy()).insert_threshold,
            min_sample_packets=observer_min_sample)
        self.migration_observer = MigrationObserver(self.receiver, self.bus)
        self.fec_responder = FecResponder(
            self.control, self.bus, policy=policy,
            limits=limits or AdaptationLimits(min_interval_s=1.0))

        # The measured-loss plane: real transports (udp, loopback) have no
        # loss oracle, so a LossEstimator on the channel receiver's delivery
        # hook measures loss from FEC group gaps and media sequence gaps,
        # and a MeasuredLossObserver publishes the same EVENT_LOSS_RATE the
        # simulated observer does — the FecResponder drives off either.
        self.loss_estimator = None
        self.measured_observer = None
        if not self._simulated:
            # Imported lazily: repro.obs.loss imports this package.
            from ..obs.loss import LossEstimator, MeasuredLossObserver

            self.loss_estimator = LossEstimator()
            self.loss_estimator.attach(self.receiver)
            self.measured_observer = MeasuredLossObserver(
                self.loss_estimator, self.bus, receiver_name=receiver_name,
                degraded_threshold=(policy or FecPolicy()).insert_threshold,
                min_sample_packets=observer_min_sample)

        self._highest_enqueued_sequence = -1

    # -- stream feeding ----------------------------------------------------------

    def _pull(self) -> Optional[bytes]:
        item = self._queue.get()
        return None if item is None else item

    def enqueue_packets(self, packets: List[MediaPacket]) -> None:
        """Feed a batch of audio packets into the proxied stream."""
        for packet in packets:
            self._queue.put(packet.pack())
            self._enqueued_packets += 1
            if packet.sequence > self._highest_enqueued_sequence:
                self._highest_enqueued_sequence = packet.sequence

    def end_of_stream(self) -> None:
        """Signal that no more packets will be fed."""
        self._source_done.set()
        self._queue.put(None)  # wake the source's blocking queue wait

    def wait_quiescent(self, timeout: float = 10.0) -> bool:
        """Wait until everything already enqueued has left the proxy.

        Quiescence means: the feed queue is empty, every enqueued packet has
        entered the chain, and every chain element is idle (no buffered
        input, nothing mid-transform).  FEC groups that are still filling
        count as quiescent — they hold data by design.  The wait is
        condition-driven (each element signals after every unit of work).
        """
        return self.control.wait_idle(
            timeout=timeout,
            extra=lambda: (self._queue.empty()
                           and self._source.items_produced
                           >= self._enqueued_packets))

    # -- adaptation ---------------------------------------------------------------

    def observe(self, now_s: float) -> None:
        """Run every observer once (responders react synchronously).

        Under the simulated transport the oracle observers run (the inproc
        receiver carries exact loss statistics and distance); under real
        transports the measured-loss observer runs instead, driven by the
        :class:`~repro.obs.loss.LossEstimator` on the receive path.
        """
        if self._simulated:
            self.migration_observer.observe(now_s)
            self.loss_observer.observe(now_s)
        elif self.measured_observer is not None:
            self.measured_observer.observe(now_s)

    def move_receiver(self, distance_m: float) -> None:
        """Move the simulated receiver (a no-op on other transports)."""
        if not self._simulated:
            return
        self.receiver.move_to(distance_m)

    @property
    def fec_active(self) -> bool:
        return self.fec_responder.fec_active

    # -- results -------------------------------------------------------------------

    def collect_received(self) -> None:
        """Feed everything captured by the wireless receiver to the decoder."""
        self.audio_receiver.process(self.receiver.take())

    def finish(self, timeout: float = 30.0) -> None:
        """End the stream, drain the chain, and flush FEC state."""
        self.end_of_stream()
        self.control.wait_for_completion(timeout=timeout)
        self.collect_received()
        self.audio_receiver.finish()

    def delivery_report(self) -> DeliveryReport:
        total = self._highest_enqueued_sequence + 1
        return self.audio_receiver.delivery_report(total)

    def shutdown(self) -> None:
        self._source_done.set()
        self._queue.put(None)  # unblock the source's queue wait
        self.proxy.shutdown()


@dataclass
class WalkStepRecord:
    """What happened during one step of the adaptive-walk experiment."""

    time_s: float
    distance_m: float
    observed_loss_rate: float
    fec_active: bool
    fec_code: Optional["tuple[int, int]"]
    first_sequence: int
    last_sequence: int


@dataclass
class AdaptiveWalkResult:
    """The full record of one adaptive-walk run (experiment E2)."""

    steps: List[WalkStepRecord] = field(default_factory=list)
    report: Optional[DeliveryReport] = None
    insertions: int = 0
    removals: int = 0
    upgrades: int = 0
    adaptation_times_s: List[float] = field(default_factory=list)

    def fec_activation_time(self) -> Optional[float]:
        """The simulated time at which FEC was first switched on."""
        for step in self.steps:
            if step.fec_active:
                return step.time_s
        return None

    def received_percent_in(self, first_sequence: int, last_sequence: int) -> float:
        assert self.report is not None
        span = range(first_sequence, last_sequence + 1)
        count = len(list(span))
        if count == 0:
            return 100.0
        got = sum(1 for s in span if s in self.report.reconstructed)
        return 100.0 * got / count


def run_adaptive_walk_experiment(
        walk: Optional[LinearWalk] = None,
        adaptive: bool = True,
        policy: Optional[FecPolicy] = None,
        step_s: float = 0.4,
        packet_duration_ms: int = 20,
        audio_seed: int = 11,
        wlan_seed: int = 13,
        quiesce_timeout_s: float = 30.0) -> AdaptiveWalkResult:
    """Run the Section 3 walk scenario and record the adaptation behaviour.

    The user walks from ``walk.start_distance_m`` to ``walk.end_distance_m``
    over ``walk.duration_s`` seconds of audio.  When ``adaptive`` is False
    the FEC responder is disabled, giving the unprotected baseline.
    """
    walk = walk or LinearWalk(start_distance_m=5.0, end_distance_m=40.0,
                              duration_s=20.0)
    session = AdaptiveAudioSession(
        transport="inproc",
        initial_distance_m=walk.start_distance_m,
        policy=policy, seed=wlan_seed)
    if not adaptive:
        session.fec_responder.disable()

    source = ToneSource(duration=walk.duration_s)
    packets = AudioPacketizer(source,
                              packet_duration_ms=packet_duration_ms).packet_list()
    packets_per_step = max(1, int(round(step_s * 1000.0 / packet_duration_ms)))

    result = AdaptiveWalkResult()
    try:
        cursor = 0
        now_s = 0.0
        while cursor < len(packets):
            batch = packets[cursor:cursor + packets_per_step]
            cursor += len(batch)
            session.move_receiver(walk.distance_at(now_s))
            session.enqueue_packets(batch)
            if not session.wait_quiescent(timeout=quiesce_timeout_s):
                raise RuntimeError("the adaptive session failed to quiesce")
            session.collect_received()
            session.observe(now_s)
            result.steps.append(WalkStepRecord(
                time_s=now_s,
                distance_m=walk.distance_at(now_s),
                observed_loss_rate=session.loss_observer.last_loss_rate,
                fec_active=session.fec_active,
                fec_code=session.fec_responder.current_code,
                first_sequence=batch[0].sequence,
                last_sequence=batch[-1].sequence))
            now_s += step_s
        session.finish(timeout=quiesce_timeout_s)
        result.report = session.delivery_report()
        result.insertions = session.fec_responder.insertions
        result.removals = session.fec_responder.removals
        result.upgrades = session.fec_responder.upgrades
        result.adaptation_times_s = [
            event.time_s for event in session.bus.events_of_type("filter-inserted")]
    finally:
        session.shutdown()
    return result
