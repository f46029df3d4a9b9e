"""Simulated wireless LAN — the paper's 2 Mbps WaveLAN segment.

The testbed of Figure 3 multicasts a proxy's output over a wireless LAN to
one or more mobile receivers; each receiver experiences its *own* packet
losses (which is why a single parity packet can repair different losses at
different receivers).  This module models that segment:

* an :class:`AccessPoint` with a configurable raw bandwidth (default the
  paper's 2 Mbps) and per-packet transmission overhead,
* any number of :class:`WirelessReceiver` objects, each with an independent,
  seeded loss model (distance-based by default),
* simulated transmission time accounting so benchmarks can report channel
  utilisation and per-packet latency without real clocks.

The simulation is synchronous and deterministic: ``multicast()`` returns the
per-receiver delivery outcome immediately and all randomness comes from the
seeded loss models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .channel import DistanceLoss, LossModel, NoLoss
from .stats import ReceiverStats

#: Raw bandwidth of the paper's WaveLAN network.
WAVELAN_BANDWIDTH_BPS = 2_000_000

#: Fixed per-packet channel time (preamble, MAC framing, inter-frame gaps),
#: a rough 802.11/WaveLAN figure used only for utilisation accounting.
PER_PACKET_OVERHEAD_S = 0.0006


class WirelessReceiver:
    """A mobile host listening on the wireless LAN.

    Packets delivered to the receiver are handed to ``on_receive`` when one
    is set, and appended to the inbox otherwise — a consumer fed by the
    callback keeps no second copy here; packets lost by the channel are
    counted but never seen, exactly like a UDP socket on a lossy link.
    """

    def __init__(self, name: str, loss_model: LossModel,
                 on_receive: Optional[Callable[[bytes], None]] = None) -> None:
        self.name = name
        self.loss_model = loss_model
        self.on_receive = on_receive
        self.inbox: List[bytes] = []
        self.stats = ReceiverStats(name=name)
        self.loss_trace: List[bool] = []

    # -- channel-facing API ---------------------------------------------------

    def offer(self, data: bytes) -> bool:
        """Called by the access point for every transmitted packet.

        Applies the receiver's loss model and returns True when the packet
        was delivered: to ``on_receive`` if set, else to the inbox.
        """
        lost = self.loss_model.packet_lost()
        self.loss_trace.append(lost)
        if lost:
            self.stats.record_loss()
            return False
        self.stats.record_delivery(len(data))
        if self.on_receive is None:
            self.inbox.append(data)
        else:
            self.on_receive(data)
        return True

    # -- host-facing API ------------------------------------------------------

    def take(self) -> List[bytes]:
        """Drain and return everything delivered since the last call."""
        packets, self.inbox = self.inbox, []
        return packets

    def pending(self) -> int:
        """Number of delivered-but-unread packets."""
        return len(self.inbox)

    @property
    def distance_m(self) -> Optional[float]:
        """Receiver distance, when the loss model is distance-based."""
        if isinstance(self.loss_model, DistanceLoss):
            return self.loss_model.distance_m
        return None

    def move_to(self, distance_m: float) -> None:
        """Move the receiver (only meaningful for distance-based loss)."""
        if not isinstance(self.loss_model, DistanceLoss):
            raise TypeError(
                f"receiver {self.name!r} does not use a distance-based loss model")
        self.loss_model.set_distance(distance_m)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WirelessReceiver {self.name} received={self.stats.packets_received}>"


@dataclass
class TransmissionRecord:
    """Book-keeping for one multicast transmission."""

    size_bytes: int
    airtime_s: float
    delivered_to: List[str]
    lost_by: List[str]


class AccessPoint:
    """The wireless LAN segment: one sender (the proxy) to many receivers."""

    def __init__(self, bandwidth_bps: float = WAVELAN_BANDWIDTH_BPS,
                 per_packet_overhead_s: float = PER_PACKET_OVERHEAD_S,
                 default_seed: int = 0) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth_bps = bandwidth_bps
        self.per_packet_overhead_s = per_packet_overhead_s
        self._default_seed = default_seed
        self._receivers: Dict[str, WirelessReceiver] = {}
        self.packets_sent = 0
        self.bytes_sent = 0
        self.busy_time_s = 0.0
        self.history: List[TransmissionRecord] = []

    # -- topology -------------------------------------------------------------

    def add_receiver(self, name: str, distance_m: Optional[float] = None,
                     loss_model: Optional[LossModel] = None,
                     on_receive: Optional[Callable[[bytes], None]] = None,
                     seed: Optional[int] = None) -> WirelessReceiver:
        """Register a receiver, either by distance or with an explicit model.

        Each receiver gets its own independently seeded loss model so losses
        at different receivers are uncorrelated (the property the paper's
        multicast-FEC argument relies on).
        """
        if name in self._receivers:
            raise ValueError(f"receiver {name!r} already exists")
        if loss_model is None:
            if distance_m is None:
                loss_model = NoLoss()
            else:
                receiver_seed = seed if seed is not None else (
                    self._default_seed * 7919 + len(self._receivers) + 1)
                loss_model = DistanceLoss(distance_m, seed=receiver_seed)
        receiver = WirelessReceiver(name, loss_model, on_receive=on_receive)
        self._receivers[name] = receiver
        return receiver

    def remove_receiver(self, name: str) -> None:
        self._receivers.pop(name, None)

    def receiver(self, name: str) -> WirelessReceiver:
        return self._receivers[name]

    @property
    def receivers(self) -> List[WirelessReceiver]:
        return list(self._receivers.values())

    # -- transmission ---------------------------------------------------------

    def airtime_for(self, nbytes: int) -> float:
        """Channel time consumed by a packet of ``nbytes``."""
        return nbytes * 8.0 / self.bandwidth_bps + self.per_packet_overhead_s

    def multicast(self, data: bytes) -> TransmissionRecord:
        """Transmit one packet to every receiver (independent loss per receiver)."""
        airtime = self.airtime_for(len(data))
        delivered: List[str] = []
        lost: List[str] = []
        for receiver in self._receivers.values():
            if receiver.offer(data):
                delivered.append(receiver.name)
            else:
                lost.append(receiver.name)
        record = TransmissionRecord(size_bytes=len(data), airtime_s=airtime,
                                    delivered_to=delivered, lost_by=lost)
        self.packets_sent += 1
        self.bytes_sent += len(data)
        self.busy_time_s += airtime
        self.history.append(record)
        return record

    def multicast_many(self, packets: List[bytes]) -> List[TransmissionRecord]:
        """Transmit a batch of packets in order."""
        return [self.multicast(packet) for packet in packets]

    def unicast(self, name: str, data: bytes) -> bool:
        """Transmit one packet to a single named receiver."""
        receiver = self._receivers[name]
        airtime = self.airtime_for(len(data))
        self.packets_sent += 1
        self.bytes_sent += len(data)
        self.busy_time_s += airtime
        delivered = receiver.offer(data)
        self.history.append(TransmissionRecord(
            size_bytes=len(data), airtime_s=airtime,
            delivered_to=[name] if delivered else [],
            lost_by=[] if delivered else [name]))
        return delivered

    def utilisation(self, elapsed_s: float) -> float:
        """Fraction of ``elapsed_s`` the channel spent transmitting."""
        if elapsed_s <= 0:
            return 0.0
        return min(1.0, self.busy_time_s / elapsed_s)


class WirelessLAN:
    """Convenience wrapper bundling an access point with a send callable.

    Proxies and EndPoints only need ``send(bytes)``; tests and benchmarks
    additionally reach into :attr:`access_point` to add receivers and read
    statistics.
    """

    def __init__(self, bandwidth_bps: float = WAVELAN_BANDWIDTH_BPS,
                 seed: int = 0) -> None:
        self.access_point = AccessPoint(bandwidth_bps=bandwidth_bps,
                                        default_seed=seed)

    def add_receiver(self, name: str, distance_m: Optional[float] = None,
                     loss_model: Optional[LossModel] = None,
                     on_receive: Optional[Callable[[bytes], None]] = None,
                     seed: Optional[int] = None) -> WirelessReceiver:
        return self.access_point.add_receiver(name, distance_m=distance_m,
                                              loss_model=loss_model,
                                              on_receive=on_receive, seed=seed)

    def send(self, data: bytes) -> None:
        """Multicast ``data`` on the wireless segment (EndPoint sink API)."""
        self.access_point.multicast(data)

    @property
    def receivers(self) -> List[WirelessReceiver]:
        return self.access_point.receivers


@dataclass(frozen=True)
class LinearWalk:
    """A straight-line mobility trace: distance grows linearly with time.

    Models the paper's Section 3 scenario — "the user ... moves from her
    office (near the access point) to a conference room down the hall".
    """

    start_distance_m: float = 5.0
    end_distance_m: float = 40.0
    duration_s: float = 60.0

    def distance_at(self, t: float) -> float:
        """Distance from the access point at time ``t`` seconds."""
        if self.duration_s <= 0:
            return self.end_distance_m
        if t <= 0:
            return self.start_distance_m
        if t >= self.duration_s:
            return self.end_distance_m
        fraction = t / self.duration_s
        return (self.start_distance_m
                + fraction * (self.end_distance_m - self.start_distance_m))

    def positions(self, step_s: float) -> List["tuple[float, float]"]:
        """(time, distance) samples every ``step_s`` seconds."""
        if step_s <= 0:
            raise ValueError("step_s must be positive")
        samples = []
        t = 0.0
        while t <= self.duration_s + 1e-9:
            samples.append((round(t, 9), self.distance_at(t)))
            t += step_s
        return samples
