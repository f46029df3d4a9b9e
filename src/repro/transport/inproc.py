"""The inproc transport — the paper's simulated testbed behind the ABC.

The datagram service wraps :mod:`repro.net.wlan`: a channel is an
:class:`~repro.net.wlan.AccessPoint` (one sender, many receivers, each with
an independently *seeded* loss model), so everything the simulation already
provides — distance-based loss calibration, WaveLAN airtime accounting,
per-receiver statistics, deterministic replays — is available through the
same :class:`~repro.transport.base.DatagramChannel` interface the real UDP
transport implements.  Determinism is preserved: a channel's receivers draw
their losses from seeds derived exactly as ``AccessPoint.add_receiver``
always has.

The stream service is the reliable in-memory pipe shared with the loopback
transport (the wired LAN of the testbed is lossless; a simulated lossy byte
stream would belong to a loss-model-aware connection, which datagrams cover
already).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from ..net.channel import LossModel
from ..net.wlan import WAVELAN_BANDWIDTH_BPS, AccessPoint, WirelessLAN
from .base import DatagramChannel, DatagramReceiver, Transport, TransportError
from .loopback import MemoryStreamServiceMixin


class InprocReceiver(DatagramReceiver):
    """Adapter: a channel receiver fed by a simulated wireless receiver.

    The wrapped :class:`~repro.net.wlan.WirelessReceiver` keeps applying its
    own loss model and statistics; every packet it *delivers* lands in this
    receiver's queue (the wireless receiver's own inbox also fills — drain
    whichever side of the API you consume).
    """

    def __init__(self, name: str, wireless, on_receive=None,
                 queue_payloads: bool = True) -> None:
        super().__init__(name, on_receive=on_receive,
                         queue_payloads=queue_payloads)
        #: The underlying simulated receiver (loss model, stats, move_to).
        self.wireless = wireless

    @property
    def stats(self):
        """The simulated receiver's delivery/loss statistics."""
        return self.wireless.stats

    def move_to(self, distance_m: float) -> None:
        """Move the simulated receiver (distance-based loss models only)."""
        self.wireless.move_to(distance_m)


class InprocChannel(DatagramChannel):
    """A datagram channel backed by the simulated wireless LAN.

    ``join`` accepts the simulation's receiver options (``distance_m``,
    ``loss_model``, ``seed``); with none given the member experiences no
    loss, exactly like ``AccessPoint.add_receiver``.  The channel can wrap
    an existing :class:`~repro.net.wlan.WirelessLAN` (so code that already
    holds one — the FEC audio proxy, the sessions — keeps its handle on the
    access point), or build its own from a seed.
    """

    def __init__(self, name: str = "wlan",
                 wlan: Optional[WirelessLAN] = None,
                 seed: int = 0,
                 bandwidth_bps: float = WAVELAN_BANDWIDTH_BPS) -> None:
        super().__init__(name)
        self.wlan = wlan or WirelessLAN(bandwidth_bps=bandwidth_bps, seed=seed)
        self._lock = threading.Lock()
        self._receivers: Dict[str, InprocReceiver] = {}

    @property
    def access_point(self) -> AccessPoint:
        """The simulated LAN's access point (sender side)."""
        return self.wlan.access_point

    def join(self, member: str, distance_m: Optional[float] = None,
             loss_model: Optional[LossModel] = None,
             seed: Optional[int] = None, on_receive=None,
             queue_payloads: bool = True, **_options) -> InprocReceiver:
        """Add a member with the simulation's receiver options."""
        with self._lock:
            if member in self._receivers:
                raise TransportError(
                    f"channel {self.name!r}: member {member!r} already joined")
            receiver = InprocReceiver(member, wireless=None,
                                      on_receive=on_receive,
                                      queue_payloads=queue_payloads)
            wireless = self.wlan.add_receiver(
                member, distance_m=distance_m, loss_model=loss_model,
                seed=seed,
                on_receive=lambda payload: receiver._deliver_many((payload,)))
            receiver.wireless = wireless
            self._receivers[member] = receiver
            if self._closed:
                receiver._mark_eof()
            return receiver

    def leave(self, member: str) -> None:
        """Remove a member from channel and simulation (missing is a no-op)."""
        with self._lock:
            receiver = self._receivers.pop(member, None)
        self.access_point.remove_receiver(member)
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

    def send(self, data: bytes) -> int:
        """Multicast through the simulated LAN; returns members targeted."""
        if self._closed:
            raise TransportError(f"channel {self.name!r}: send after close")
        record = self.access_point.multicast(bytes(data))
        self._account(len(data))
        return len(record.delivered_to) + len(record.lost_by)

    def send_to(self, member: str, data: bytes) -> bool:
        """Unicast through the simulated LAN; True when the member exists."""
        if self._closed:
            raise TransportError(f"channel {self.name!r}: send after close")
        try:
            self.access_point.unicast(member, bytes(data))
        except KeyError:
            return False
        self._account(len(data))
        return True

    def close(self) -> None:
        """End the stream: every member observes EOF after draining."""
        with self._lock:
            if self._closed:
                return
            super().close()
            receivers = list(self._receivers.values())
        for receiver in receivers:
            receiver._mark_eof()


def open_wireless_channel(proxy, name: str,
                          wlan: Optional[WirelessLAN] = None,
                          seed: int = 0):
    """Resolve a session's wireless segment against a proxy's transport.

    The selection rule shared by the session layers (pavilion, rapidware):
    an explicit ``wlan`` always wins; otherwise an inproc transport gets a
    fresh simulated LAN with the session's historical seeding; any other
    transport provides the channel itself.  Returns ``(channel, wlan_or_None,
    simulated)`` — ``simulated`` tells the caller whether the loss-model /
    distance machinery is available.
    """
    if wlan is not None or isinstance(proxy.transport, InprocTransport):
        wlan = wlan or WirelessLAN(seed=seed)
        return InprocChannel(name, wlan=wlan), wlan, True
    channel = proxy.open_channel(name)
    return channel, getattr(channel, "wlan", None), False


class InprocTransport(MemoryStreamServiceMixin, Transport):
    """The simulated testbed as a transport (deterministic, single-process).

    Each named channel gets its own wireless LAN with a seed derived from
    the transport seed and the channel's creation order, so a fixed
    construction sequence replays byte-identically.  Passing ``wlan=`` to
    the constructor (or to :meth:`open_channel`) binds a channel to an
    existing simulated LAN instead.
    """

    name = "inproc"

    def __init__(self, seed: int = 0,
                 wlan: Optional[WirelessLAN] = None) -> None:
        MemoryStreamServiceMixin.__init__(self)
        self._seed = seed
        self._wlan = wlan
        self._channels: Dict[str, InprocChannel] = {}
        self._channel_lock = threading.Lock()

    def open_channel(self, name: str = "default",
                     wlan: Optional[WirelessLAN] = None,
                     seed: Optional[int] = None,
                     **_options) -> InprocChannel:
        """Create (or look up) a channel with stable per-channel seeding."""
        with self._channel_lock:
            channel = self._channels.get(name)
            if channel is None:
                if seed is None:
                    # Stable per-channel seeds: the same construction order
                    # replays the same losses (7919 is the AccessPoint's own
                    # seed-spreading prime).
                    seed = self._seed * 7919 + len(self._channels)
                channel = InprocChannel(name, wlan=wlan or self._wlan,
                                        seed=seed)
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
