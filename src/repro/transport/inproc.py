"""The inproc transport — the paper's simulated WaveLAN segment.

A datagram channel *is* the access point of the testbed: one sender (the
proxy), many members, each with an independently *seeded* loss model, so
losses at different members are uncorrelated — the property the paper's
multicast-FEC argument relies on.  The channel accounts WaveLAN airtime
(raw bandwidth plus a fixed per-packet overhead) for utilisation reports,
and each member keeps its delivery statistics and, with a distance-based
loss model, its distance from the access point.  Everything is
deterministic: a fixed construction sequence replays the same losses.

The stream service is the reliable in-memory pipe shared with the loopback
transport (the wired LAN of the testbed is lossless; a simulated lossy byte
stream would belong to a loss-model-aware connection, which datagrams cover
already).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from ..net.channel import (
    PER_PACKET_OVERHEAD_S,
    WAVELAN_BANDWIDTH_BPS,
    DistanceLoss,
    LossModel,
    NoLoss,
)
from ..net.stats import ReceiverStats
from .base import DatagramChannel, DatagramReceiver, Transport, TransportError
from .loopback import MemoryStreamServiceMixin


class InprocReceiver(DatagramReceiver):
    """A mobile host on the simulated wireless LAN.

    Every packet the channel transmits is offered to the member's own loss
    model; ``stats`` counts what was addressed to it, delivered and lost.
    Lost packets are counted but never seen, exactly like a UDP socket on a
    lossy link.
    """

    def __init__(self, name: str, loss_model: LossModel, on_receive=None,
                 queue_payloads: bool = True) -> None:
        super().__init__(name, on_receive=on_receive,
                         queue_payloads=queue_payloads)
        self.loss_model = loss_model
        self.stats = ReceiverStats(name=name)

    @property
    def distance_m(self) -> Optional[float]:
        """Distance from the access point, for a distance-based loss model."""
        if isinstance(self.loss_model, DistanceLoss):
            return self.loss_model.distance_m
        return None

    def move_to(self, distance_m: float) -> None:
        """Move the member (distance-based loss models only)."""
        if not isinstance(self.loss_model, DistanceLoss):
            raise TypeError(
                f"receiver {self.name!r} does not use a distance-based loss model")
        self.loss_model.set_distance(distance_m)


class InprocChannel(DatagramChannel):
    """The simulated wireless LAN: an access point and its members.

    ``join`` takes the simulation's member options: a ``loss_model``, or a
    ``distance_m`` (with an optional ``seed``) for the calibrated
    distance-based loss; with neither the member experiences no loss.  A
    member joined by distance without a seed draws from
    ``seed * 7919 + members + 1``, so each is seeded apart from the others.
    """

    def __init__(self, name: str = "wlan", seed: int = 0,
                 bandwidth_bps: float = WAVELAN_BANDWIDTH_BPS) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        super().__init__(name)
        self.bandwidth_bps = bandwidth_bps
        self.per_packet_overhead_s = PER_PACKET_OVERHEAD_S
        #: Channel time spent transmitting, in seconds.
        self.busy_time_s = 0.0
        self._seed = seed
        self._lock = threading.Lock()
        self._receivers: Dict[str, InprocReceiver] = {}

    def join(self, member: str, distance_m: Optional[float] = None,
             loss_model: Optional[LossModel] = None,
             seed: Optional[int] = None, on_receive=None,
             queue_payloads: bool = True, **_options) -> InprocReceiver:
        """Add a member with its own loss model (see the class docstring)."""
        with self._lock:
            if member in self._receivers:
                raise TransportError(
                    f"channel {self.name!r}: member {member!r} already joined")
            if loss_model is None:
                if distance_m is None:
                    loss_model = NoLoss()
                else:
                    if seed is None:
                        seed = self._seed * 7919 + len(self._receivers) + 1
                    loss_model = DistanceLoss(distance_m, seed=seed)
            receiver = InprocReceiver(member, loss_model,
                                      on_receive=on_receive,
                                      queue_payloads=queue_payloads)
            self._receivers[member] = receiver
            if self._closed:
                receiver._mark_eof()
            return receiver

    def leave(self, member: str) -> None:
        """Remove a member (missing is a no-op); it observes EOF."""
        with self._lock:
            receiver = self._receivers.pop(member, None)
        if receiver is not None:
            receiver._mark_eof()

    def members(self) -> List[str]:
        """Names of the current members."""
        with self._lock:
            return sorted(self._receivers)

    def receiver(self, member: str) -> InprocReceiver:
        """Look up a member's receiving end (KeyError when absent)."""
        with self._lock:
            return self._receivers[member]

    def local_receivers(self) -> List[InprocReceiver]:
        """Receivers this process hosts (all of them, for inproc)."""
        with self._lock:
            return list(self._receivers.values())

    # -- airtime ---------------------------------------------------------------

    def airtime_for(self, nbytes: int) -> float:
        """Channel time consumed by a packet of ``nbytes``."""
        return nbytes * 8.0 / self.bandwidth_bps + self.per_packet_overhead_s

    def utilisation(self, elapsed_s: float) -> float:
        """Fraction of ``elapsed_s`` the channel spent transmitting."""
        if elapsed_s <= 0:
            return 0.0
        return min(1.0, self.busy_time_s / elapsed_s)

    # -- transmission ----------------------------------------------------------

    def _transmit(self, batch: List[bytes], member: Optional[str] = None) -> int:
        """Put ``batch`` on the air to every member, or to ``member``.

        Returns the members reached.  Losses are drawn packet by packet
        and, within a packet, member by member in join order; each member
        then receives what it did not lose in one delivery.  A multicast
        is accounted even with no member to reach; a unicast only when its
        member exists.
        """
        with self._lock:
            if self._closed:
                raise TransportError(f"channel {self.name!r}: send after close")
            if member is None:
                receivers = list(self._receivers.values())
            else:
                receiver = self._receivers.get(member)
                if receiver is None:
                    return 0
                receivers = [receiver]
        delivered: List[List[bytes]] = [[] for _ in receivers]
        for payload in batch:
            nbytes = len(payload)
            self._account(nbytes)
            self.busy_time_s += self.airtime_for(nbytes)
            for receiver, arrived in zip(receivers, delivered):
                if receiver.loss_model.packet_lost():
                    receiver.stats.record_loss()
                else:
                    receiver.stats.record_delivery(nbytes)
                    arrived.append(payload)
        for receiver, arrived in zip(receivers, delivered):
            if arrived:
                receiver._deliver_many(arrived)
        return len(receivers)

    def send(self, data: bytes) -> int:
        """Multicast one datagram; returns members targeted."""
        return self._transmit([bytes(data)])

    def send_many(self, payloads) -> int:
        """Multicast a batch; returns payloads sent to >= 1 member."""
        batch = list(map(bytes, payloads))
        if not batch:
            return 0
        return len(batch) if self._transmit(batch) else 0

    def send_to(self, member: str, data: bytes) -> bool:
        """Unicast one datagram; True when the member exists."""
        return bool(self._transmit([bytes(data)], member))

    def close(self) -> None:
        """End the stream: every member observes EOF after draining."""
        with self._lock:
            if self._closed:
                return
            super().close()
            receivers = list(self._receivers.values())
        for receiver in receivers:
            receiver._mark_eof()


class InprocTransport(MemoryStreamServiceMixin, Transport):
    """The simulated testbed as a transport (deterministic, single-process).

    Each named channel is its own wireless LAN, seeded from the transport
    seed and the channel's creation order unless :meth:`open_channel` is
    given a seed, so a fixed construction sequence replays byte-identically.
    """

    name = "inproc"

    def __init__(self, seed: int = 0) -> None:
        MemoryStreamServiceMixin.__init__(self)
        self._seed = seed
        self._channels: Dict[str, InprocChannel] = {}
        self._channel_lock = threading.Lock()

    def open_channel(self, name: str = "default", seed: Optional[int] = None,
                     **_options) -> InprocChannel:
        """Create (or look up) a channel with stable per-channel seeding."""
        with self._channel_lock:
            channel = self._channels.get(name)
            if channel is None:
                if seed is None:
                    # Stable per-channel seeds: the same construction order
                    # replays the same losses (7919 is the channel's own
                    # member-seed-spreading prime).
                    seed = self._seed * 7919 + len(self._channels)
                channel = InprocChannel(name, seed=seed)
                self._channels[name] = channel
            return channel

    def close(self) -> None:
        """Close every channel and listener (idempotent)."""
        with self._channel_lock:
            channels = list(self._channels.values())
            self._channels.clear()
        for channel in channels:
            channel.close()
        self._close_listeners()
