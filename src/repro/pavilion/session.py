"""Collaborative browsing sessions (Pavilion's default mode).

This module assembles the pieces of Figure 1: a leadership protocol for
floor control, per-participant browser interfaces, a resource store standing
in for the web, a multicast protocol for wired participants, and — for
wireless participants — a RAPIDware proxy whose filter chain adapts the
content to the wireless segment (compression by default, and anything else
an administrator inserts through the ControlThread while the session runs).
"""

from __future__ import annotations

import queue
import threading
import zlib
from dataclasses import dataclass
from time import monotonic as _monotonic
from time import sleep as _sleep
from typing import Dict, List, Optional

from ..core import CallableSource, ControlThread, Proxy
from ..filters import ZlibCompressFilter
from ..net import MulticastGroup
from ..proxies.transcoding_proxy import DeviceDescriptor
from ..transport import InprocChannel, TransportSink
from .browser import BrowserInterface, BrowseMessage, MESSAGE_CONTENT
from .leadership import LeadershipProtocol
from .resources import Resource, ResourceStore


class SessionError(RuntimeError):
    """Raised for invalid session operations (unknown member, not leader...)."""


@dataclass
class Participant:
    """One session member and its delivery path."""

    name: str
    device: DeviceDescriptor
    browser: BrowserInterface
    wireless: bool = False
    distance_m: Optional[float] = None
    bytes_over_air: int = 0


class CollaborativeSession:
    """A Pavilion-style collaborative browsing session.

    Wired participants receive content over the reliable multicast group;
    wireless participants receive it through the session's wireless proxy
    (a live RAPIDware filter chain) and the wireless *transport channel* —
    the simulated WLAN by default, or any registered transport via
    ``transport=`` (``"loopback"``, ``"udp"``; note that only the inproc
    channel applies per-receiver loss models and distances).  The session
    leader is the only member allowed to drive browsing; leadership moves
    via the floor-control protocol.
    """

    def __init__(self, store: Optional[ResourceStore] = None,
                 compress_wireless: bool = True,
                 seed: int = 3,
                 engine=None,
                 transport=None) -> None:
        from .resources import build_demo_site

        self.store = store or build_demo_site(seed=seed)
        self.leadership = LeadershipProtocol()
        self.multicast = MulticastGroup("pavilion-content")
        self._participants: Dict[str, Participant] = {}
        self.compress_wireless = compress_wireless

        # The leader-side wireless proxy: everything bound for wireless
        # participants flows through this live filter chain.  A ``None`` on
        # the queue is the end-of-stream sentinel, so the source blocks on
        # the queue instead of polling it.
        self._queue: "queue.Queue[Optional[bytes]]" = queue.Queue()
        self._source_done = threading.Event()
        self._wireless_enqueued = 0
        self.proxy = Proxy("pavilion-wireless-proxy", engine=engine,
                           transport=transport)
        # The transport selection (argument / REPRO_TRANSPORT / default)
        # decides the channel, as for Proxy; only inproc uses the seed.
        self.channel = self.proxy.open_channel("pavilion-wireless", seed=seed)
        self._simulated = isinstance(self.channel, InprocChannel)
        self._wireless_receivers: Dict[str, object] = {}
        self._source = CallableSource(self._pull, name="content-in",
                                      frame_output=True)
        self._sink = TransportSink(self.channel, name="wireless-out",
                                   expect_frames=True)
        self.control: ControlThread = self.proxy.add_stream(
            self._source, self._sink, name="content", auto_start=False)
        if compress_wireless:
            self.control.add(ZlibCompressFilter(name="wireless-zlib"))
        self.control.start()

        self.pages_browsed = 0
        self.wired_bytes_delivered = 0

    # -- plumbing --------------------------------------------------------------------

    def _pull(self) -> Optional[bytes]:
        item = self._queue.get()
        return None if item is None else item

    def _wireless_deliver(self, participant_name: str, data: bytes) -> None:
        """Mobile-host middleware: undo wireless-segment encoding, hand to browser."""
        participant = self._participants[participant_name]
        participant.bytes_over_air += len(data)
        if self.compress_wireless:
            try:
                data = zlib.decompress(data)
            except zlib.error:
                participant.browser.protocol_errors += 1
                return
        participant.browser.receive(data)

    # -- membership --------------------------------------------------------------------

    def join(self, name: str, device: Optional[DeviceDescriptor] = None,
             wireless: bool = False, distance_m: float = 10.0,
             now_s: float = 0.0) -> Participant:
        """Add a participant; the first to join becomes the session leader."""
        if name in self._participants:
            raise SessionError(f"participant {name!r} already joined")
        device = device or (DeviceDescriptor.laptop() if wireless
                            else DeviceDescriptor.workstation())
        participant = Participant(name=name, device=device,
                                  browser=BrowserInterface(name),
                                  wireless=wireless,
                                  distance_m=distance_m if wireless else None)
        self._participants[name] = participant
        self.leadership.join(name, now_s=now_s)
        if wireless:
            # queue_payloads=False: delivery is purely via the callback, so
            # the receiver must not accumulate a second copy of every page
            # for the session's lifetime.
            self._wireless_receivers[name] = self.channel.join(
                name, distance_m=distance_m, queue_payloads=False,
                on_receive=lambda data, _n=name: self._wireless_deliver(_n, data))
        else:
            self.multicast.subscribe(name, participant.browser.receive)
        return participant

    def leave(self, name: str, now_s: float = 0.0) -> Optional[str]:
        """Remove a participant; returns the new leader if leadership moved."""
        if name not in self._participants:
            raise SessionError(f"participant {name!r} is not in the session")
        participant = self._participants.pop(name)
        if participant.wireless:
            self._wireless_receivers.pop(name, None)
            self.channel.leave(name)
        else:
            self.multicast.unsubscribe(name)
        return self.leadership.leave(name, now_s=now_s)

    def participants(self) -> List[str]:
        return sorted(self._participants)

    def participant(self, name: str) -> Participant:
        if name not in self._participants:
            raise SessionError(f"participant {name!r} is not in the session")
        return self._participants[name]

    @property
    def leader(self) -> Optional[str]:
        return self.leadership.leader

    def request_floor(self, name: str, now_s: float = 0.0) -> bool:
        """A member asks to lead; returns True if granted immediately."""
        return self.leadership.request(name, now_s=now_s)

    def grant_floor(self, member: Optional[str] = None, now_s: float = 0.0) -> str:
        """The current leader grants the floor (to ``member`` or queue head)."""
        if self.leader is None:
            raise SessionError("the session has no leader")
        return self.leadership.grant(self.leader, member, now_s=now_s)

    # -- browsing ----------------------------------------------------------------------

    def browse(self, member: str, url: str,
               wait_timeout_s: float = 10.0) -> Resource:
        """The leader loads ``url``: fetch it and deliver it to every member.

        Raises :class:`SessionError` if ``member`` does not hold the floor.
        Returns the fetched resource.
        """
        if member not in self._participants:
            raise SessionError(f"participant {member!r} is not in the session")
        if not self.leadership.is_leader(member):
            raise SessionError(
                f"{member!r} is not the leader (the leader is {self.leader!r})")
        leader = self._participants[member]
        resource = self.store.fetch(url)

        announcement = leader.browser.announce_url(url)
        content = leader.browser.content_message(url, resource.content_type,
                                                 resource.body)
        for message in (announcement, content):
            self._deliver(message, exclude=member)
        self.pages_browsed += 1
        self.wait_for_wireless_delivery(timeout=wait_timeout_s)
        return resource

    def _deliver(self, message: BrowseMessage, exclude: str) -> None:
        packed = message.pack()
        # Wired participants: reliable multicast.
        self.multicast.send(packed, exclude=exclude)
        if message.message_type == MESSAGE_CONTENT:
            self.wired_bytes_delivered += len(packed)
        # Wireless participants: through the proxy chain and the WLAN.
        if any(p.wireless for p in self._participants.values()):
            self._wireless_enqueued += 1
            self._queue.put(packed)

    def wait_for_wireless_delivery(self, timeout: float = 10.0) -> bool:
        """Wait until the wireless proxy chain has drained *and* delivered.

        The chain wait is condition-driven (every element signals after
        each unit of work).  Push transports (inproc, loopback) deliver to
        the participants' callbacks during ``send``; pull transports (udp)
        are drained here — ``pending()`` ingests whatever the kernel has
        buffered, firing the callbacks — until the per-receiver delivery
        counters go quiet.
        """
        deadline = _monotonic() + timeout
        drained = self.control.wait_idle(
            timeout=timeout,
            extra=lambda: (self._queue.empty()
                           and self._source.items_produced
                           >= self._wireless_enqueued))
        if not drained:
            return False
        receivers = list(self._wireless_receivers.values())
        if receivers and not self._simulated:
            # Pull transports only (push transports delivered during send):
            # the sink's send returns while a datagram can still be in
            # flight, so require the counters stable across a settle pause,
            # and never outlive the caller's deadline.  A deadline exit is
            # a failure, same as the wait_idle path.
            last_total = -1
            stable = 0
            while True:
                for receiver in receivers:
                    receiver.pending()  # ingest + fire on_receive callbacks
                total = sum(r.packets_received for r in receivers)
                if total == last_total:
                    stable += 1
                    if stable >= 2:
                        break
                else:
                    stable = 0
                    last_total = total
                if _monotonic() >= deadline:
                    return False
                _sleep(0.005)
        return True

    # -- reporting ----------------------------------------------------------------------

    def delivery_summary(self) -> Dict[str, Dict[str, int]]:
        """Per-participant delivery summary (pages, bytes, errors)."""
        summary = {}
        for name, participant in self._participants.items():
            entry = participant.browser.summary()
            entry["over_air_bytes"] = participant.bytes_over_air
            summary[name] = entry
        return summary

    def wireless_compression_ratio(self) -> float:
        """Bytes sent on the wireless channel relative to the content bytes."""
        original = self.wired_bytes_delivered
        if original == 0:
            return 1.0
        over_air = self.channel.bytes_sent
        return over_air / original if original else 1.0

    def shutdown(self) -> None:
        """End the session and stop the wireless proxy."""
        self._source_done.set()
        self._queue.put(None)  # unblock the source's queue wait
        self.proxy.shutdown()
