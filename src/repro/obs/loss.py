"""Measured loss from real receive paths, feeding the adaptive FEC policy.

The inproc simulation knows exactly which packets it dropped, so its
:class:`~repro.rapidware.observers.LossRateObserver` reads loss straight
off the simulated receiver.  Real transports (``udp``) have no such oracle:
loss must be *measured* from what arrives.  Two signals are available on
the receive path, and :class:`LossEstimator` uses both:

* **FEC group gaps** — every FEC-coded packet names its group and its
  index within the group's ``n`` packets, so a sealed group with fewer
  than ``n`` distinct indices received is direct evidence of loss (this is
  the paper's own feedback signal: the decoder knows how many packets each
  group was missing);
* **media sequence gaps** — before FEC is inserted the stream is plain
  sequenced media packets, so holes in the sequence window measure loss
  during exactly the phase where the insert decision must be made.

:class:`MeasuredLossObserver` wraps the estimator in the standard
:class:`~repro.rapidware.raplets.ObserverRaplet` protocol, publishing the
same ``EVENT_LOSS_RATE`` events the simulated observer does — the existing
:class:`~repro.rapidware.responders.FecResponder` drives off them
unchanged, which is the point: only the *measurement* is new, the policy
is the one the simulation validated.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..fec.packets import FecPacket, FecPacketError
from ..media import MediaPacket
from ..media.packetizer import MediaPacketError
from ..rapidware.events import Event, EventBus
from ..rapidware.observers import LossEventPolicy


class LossEstimator:
    """Estimate packet loss from the payloads that arrive at a receiver.

    Feed every delivered payload to :meth:`observe` (or :meth:`attach` the
    estimator to a transport receiver's ``on_receive`` hook).  The
    estimator classifies each payload the same way the audio receiver
    does — FEC header first, media header otherwise — and maintains:

    * a table of **open FEC groups** (group id -> indices seen, ``n``).  A
      group *seals* once a group ``seal_margin`` ids newer appears (the
      stream has clearly moved on); sealed groups enter a sliding window
      of the ``window_groups`` most recent, and FEC loss is
      ``1 - received / expected`` over that window.
    * a sliding window of the last ``window_sequences`` **media sequence
      numbers**; sequence loss is the fraction of the covered sequence
      span that never arrived.

    :meth:`loss_rate` prefers the FEC signal when any group has sealed
    (it measures the full coded stream, parity included) and falls back
    to the sequence signal otherwise.

    The estimator runs on the *measuring host's* receive path — the
    subscriber side of the channel, not the proxy's pump — so the small
    lock below is off the proxy data path and the E6 floor by
    construction.
    """

    def __init__(
        self,
        window_groups: int = 32,
        seal_margin: int = 2,
        window_sequences: int = 128,
    ) -> None:
        if window_groups < 1 or window_sequences < 2 or seal_margin < 1:
            raise ValueError("estimator windows must be positive")
        self.window_groups = window_groups
        self.seal_margin = seal_margin
        self.window_sequences = window_sequences
        self._lock = threading.Lock()
        self._open_groups: "OrderedDict[int, Tuple[int, Set[int]]]" = OrderedDict()
        self._sealed: Deque[Tuple[int, int]] = deque(maxlen=window_groups)
        self._sequences: Deque[int] = deque(maxlen=window_sequences)
        self._sequence_set: Set[int] = set()
        self.packets_observed = 0
        self.fec_packets = 0
        self.media_packets = 0
        self.unparsed_packets = 0
        self.groups_sealed = 0

    # -- ingest ----------------------------------------------------------------

    def observe(self, payload: bytes) -> None:
        """Classify and account one delivered payload."""
        with self._lock:
            self.packets_observed += 1
            try:
                packet = FecPacket.unpack(payload)
            except FecPacketError:
                packet = None
            if packet is not None and not packet.is_uncoded:
                self.fec_packets += 1
                self._observe_group(packet)
                return
            media_payload = packet.payload if packet is not None else payload
            try:
                media = MediaPacket.unpack(media_payload)
            except MediaPacketError:
                self.unparsed_packets += 1
                return
            self.media_packets += 1
            self._observe_sequence(media.sequence)

    def attach(self, receiver) -> None:
        """Chain :meth:`observe` onto a receiver's ``on_receive`` hook."""
        previous = receiver.on_receive

        def _chained(payload: bytes) -> None:
            self.observe(payload)
            if previous is not None:
                previous(payload)

        receiver.on_receive = _chained

    def _observe_group(self, packet: FecPacket) -> None:
        entry = self._open_groups.get(packet.group_id)
        if entry is None:
            self._open_groups[packet.group_id] = (packet.n, {packet.index})
        else:
            entry[1].add(packet.index)
        newest = max(self._open_groups)
        stale = [gid for gid in self._open_groups if gid + self.seal_margin <= newest]
        for gid in sorted(stale):
            n, indices = self._open_groups.pop(gid)
            self._sealed.append((len(indices), n))
            self.groups_sealed += 1

    def _observe_sequence(self, sequence: int) -> None:
        if sequence in self._sequence_set:
            return
        if len(self._sequences) == self._sequences.maxlen:
            self._sequence_set.discard(self._sequences[0])
        self._sequences.append(sequence)
        self._sequence_set.add(sequence)

    # -- estimates -------------------------------------------------------------

    def fec_loss_rate(self) -> Optional[float]:
        """Loss over the sealed-group window, or None before any group seals."""
        with self._lock:
            if not self._sealed:
                return None
            received = sum(got for got, _ in self._sealed)
            expected = sum(n for _, n in self._sealed)
        if expected <= 0:
            return None
        return max(0.0, 1.0 - received / expected)

    def sequence_loss_rate(self) -> Optional[float]:
        """Loss over the media-sequence window, or None below two packets."""
        with self._lock:
            if len(self._sequences) < 2:
                return None
            span = max(self._sequences) - min(self._sequences) + 1
            received = len(self._sequence_set)
        if span <= 0:
            return None
        return max(0.0, 1.0 - received / span)

    def loss_rate(self) -> float:
        """The best available estimate (FEC-based preferred), default 0."""
        fec = self.fec_loss_rate()
        if fec is not None:
            return fec
        sequence = self.sequence_loss_rate()
        return sequence if sequence is not None else 0.0

    def snapshot(self) -> Dict[str, float]:
        """Counters and current estimates, for dashboards and tests."""
        with self._lock:
            counters = {
                "packets_observed": self.packets_observed,
                "fec_packets": self.fec_packets,
                "media_packets": self.media_packets,
                "unparsed_packets": self.unparsed_packets,
                "groups_sealed": self.groups_sealed,
            }
        counters["fec_loss_rate"] = self.fec_loss_rate() or 0.0
        counters["sequence_loss_rate"] = self.sequence_loss_rate() or 0.0
        counters["loss_rate"] = self.loss_rate()
        return counters


class MeasuredLossObserver(LossEventPolicy):
    """Publish measured loss as standard ``EVENT_LOSS_RATE`` events.

    The policy and event payload are those of
    :class:`~repro.rapidware.observers.LossRateObserver` (both are a
    :class:`~repro.rapidware.observers.LossEventPolicy`), so the existing
    :class:`~repro.rapidware.responders.FecResponder` consumes measured
    loss without modification.  Events carry ``measured: True`` so logs
    can distinguish the two planes.
    """

    def __init__(
        self,
        estimator: LossEstimator,
        bus: EventBus,
        receiver_name: str = "",
        degraded_threshold: float = 0.01,
        critical_threshold: float = 0.10,
        min_sample_packets: int = 20,
        smoothing: float = 0.5,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(
            name or f"measured-loss-observer:{receiver_name}",
            bus,
            degraded_threshold,
            critical_threshold,
            min_sample_packets,
            smoothing,
        )
        self.estimator = estimator
        self.receiver_name = receiver_name
        self._last_observed = 0

    def measure(self, now_s: float) -> List[Event]:
        observed = self.estimator.packets_observed
        delta = observed - self._last_observed
        if delta < self.min_sample_packets:
            return []
        self._last_observed = observed
        return self._loss_event(
            now_s, self.receiver_name, self.estimator.loss_rate(), delta, measured=True
        )
