"""Observer raplets: loss rate, channel utilisation, mobility, membership.

Each observer watches one aspect of the running system (a wireless
receiver's delivery statistics, the wireless channel's airtime, a mobile
user's position, the set of session participants) and publishes events
when the observed quantity changes in a way a responder might care about.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..net import ReceiverStats
from ..transport.inproc import InprocChannel, InprocReceiver
from .events import (
    EVENT_BANDWIDTH,
    EVENT_DEVICE_JOINED,
    EVENT_DEVICE_LEFT,
    EVENT_HANDOFF,
    EVENT_LOSS_RATE,
    SEVERITY_CRITICAL,
    SEVERITY_DEGRADED,
    SEVERITY_INFO,
    Event,
    EventBus,
)
from .raplets import ObserverRaplet


class LossEventPolicy(ObserverRaplet):
    """The loss-event policy shared by every loss observer.

    A subclass measures the loss over its own window of packets; this
    smooths the window's loss exponentially and grades the estimate on the
    degraded / critical ladder into one ``EVENT_LOSS_RATE`` event, so the
    simulated and the measured planes drive the responders alike.
    """

    def __init__(self, name: str, bus: EventBus,
                 degraded_threshold: float = 0.01,
                 critical_threshold: float = 0.10,
                 min_sample_packets: int = 20,
                 smoothing: float = 0.5) -> None:
        super().__init__(name, bus)
        if not 0.0 <= degraded_threshold <= critical_threshold <= 1.0:
            raise ValueError("thresholds must satisfy 0 <= degraded <= critical <= 1")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        self.degraded_threshold = degraded_threshold
        self.critical_threshold = critical_threshold
        self.min_sample_packets = min_sample_packets
        self.smoothing = smoothing
        self.last_loss_rate = 0.0
        self.raw_loss_rate = 0.0

    def _loss_event(self, now_s: float, receiver: str, window_loss: float,
                    window_packets: int, **extra) -> List[Event]:
        """Smooth and grade one window's loss into its event."""
        self.raw_loss_rate = window_loss
        # Exponentially smoothed estimate: reacts quickly to bursts of loss
        # (a fresh loss raises the estimate immediately) but decays gradually
        # so short clean windows do not bounce FEC off again.
        loss_rate = (self.smoothing * window_loss
                     + (1.0 - self.smoothing) * self.last_loss_rate)
        self.last_loss_rate = loss_rate

        if loss_rate >= self.critical_threshold:
            severity = SEVERITY_CRITICAL
        elif loss_rate >= self.degraded_threshold:
            severity = SEVERITY_DEGRADED
        else:
            severity = SEVERITY_INFO
        return [Event(event_type=EVENT_LOSS_RATE, source=self.name,
                      severity=severity, time_s=now_s,
                      data={"receiver": receiver,
                            "loss_rate": loss_rate,
                            "window_packets": window_packets, **extra})]


class LossRateObserver(LossEventPolicy):
    """Watches a wireless receiver's delivery statistics.

    The loss rate is computed over the packets delivered since the previous
    observation (a sliding "recent window" rather than a lifetime average),
    because the adaptation decision must track *current* link quality — the
    user may have walked away from the access point minutes after a long
    clean period.
    """

    def __init__(self, receiver: InprocReceiver, bus: EventBus,
                 degraded_threshold: float = 0.01,
                 critical_threshold: float = 0.10,
                 min_sample_packets: int = 20,
                 smoothing: float = 0.5,
                 name: Optional[str] = None) -> None:
        super().__init__(name or f"loss-observer:{receiver.name}", bus,
                         degraded_threshold, critical_threshold,
                         min_sample_packets, smoothing)
        self.receiver = receiver
        self._last_sent = 0
        self._last_received = 0

    def measure(self, now_s: float) -> List[Event]:
        stats: ReceiverStats = self.receiver.stats
        sent = stats.packets_sent_to
        received = stats.packets_received
        delta_sent = sent - self._last_sent
        delta_received = received - self._last_received
        if delta_sent < self.min_sample_packets:
            return []
        self._last_sent = sent
        self._last_received = received
        window_loss = 1.0 - (delta_received / delta_sent) if delta_sent else 0.0
        return self._loss_event(now_s, self.receiver.name, window_loss,
                                delta_sent)


class BandwidthObserver(ObserverRaplet):
    """Watches the wireless channel's airtime and reports utilisation."""

    def __init__(self, channel: InprocChannel, bus: EventBus,
                 degraded_utilisation: float = 0.7,
                 critical_utilisation: float = 0.9,
                 name: str = "bandwidth-observer") -> None:
        super().__init__(name, bus)
        self.channel = channel
        self.degraded_utilisation = degraded_utilisation
        self.critical_utilisation = critical_utilisation
        self._last_busy_s = 0.0
        self._last_time_s: Optional[float] = None

    def measure(self, now_s: float) -> List[Event]:
        if self._last_time_s is None:
            self._last_time_s = now_s
            self._last_busy_s = self.channel.busy_time_s
            return []
        elapsed = now_s - self._last_time_s
        if elapsed <= 0:
            return []
        busy = self.channel.busy_time_s - self._last_busy_s
        self._last_time_s = now_s
        self._last_busy_s = self.channel.busy_time_s
        utilisation = min(1.0, busy / elapsed)
        if utilisation >= self.critical_utilisation:
            severity = SEVERITY_CRITICAL
        elif utilisation >= self.degraded_utilisation:
            severity = SEVERITY_DEGRADED
        else:
            severity = SEVERITY_INFO
        return [Event(event_type=EVENT_BANDWIDTH, source=self.name,
                      severity=severity, time_s=now_s,
                      data={"utilisation": utilisation,
                            "busy_seconds": busy, "elapsed_seconds": elapsed})]


class MigrationObserver(ObserverRaplet):
    """Watches a mobile user's distance from the access point.

    Publishes a handoff event whenever the receiver crosses a distance
    boundary (e.g. walks from the office into the conference room down the
    hall — the paper's motivating scenario).
    """

    def __init__(self, receiver: InprocReceiver, bus: EventBus,
                 boundary_distances_m: "tuple[float, ...]" = (15.0, 30.0),
                 name: Optional[str] = None) -> None:
        super().__init__(name or f"migration-observer:{receiver.name}", bus)
        self.receiver = receiver
        self.boundaries = tuple(sorted(boundary_distances_m))
        self._last_zone: Optional[int] = None

    def _zone_of(self, distance_m: float) -> int:
        zone = 0
        for boundary in self.boundaries:
            if distance_m >= boundary:
                zone += 1
        return zone

    def measure(self, now_s: float) -> List[Event]:
        distance = self.receiver.distance_m
        if distance is None:
            return []
        zone = self._zone_of(distance)
        if self._last_zone is None:
            self._last_zone = zone
            return []
        if zone == self._last_zone:
            return []
        previous, self._last_zone = self._last_zone, zone
        severity = SEVERITY_DEGRADED if zone > previous else SEVERITY_INFO
        return [Event(event_type=EVENT_HANDOFF, source=self.name,
                      severity=severity, time_s=now_s,
                      data={"receiver": self.receiver.name,
                            "distance_m": distance,
                            "zone": zone, "previous_zone": previous})]


class MembershipObserver(ObserverRaplet):
    """Watches the set of devices participating in a session.

    Publishes device-joined / device-left events carrying the device
    descriptor, so a responder can compose the right transcoders for the
    weakest participant.
    """

    def __init__(self, bus: EventBus, name: str = "membership-observer",
                 describe_device: Optional[Callable[[str], Dict]] = None) -> None:
        super().__init__(name, bus)
        self._members: Dict[str, Dict] = {}
        self._describe_device = describe_device or (lambda _name: {})
        self._pending: List[Event] = []

    def join(self, device_name: str, descriptor: Optional[Dict] = None,
             now_s: float = 0.0) -> None:
        """Record a device joining the session."""
        descriptor = descriptor if descriptor is not None else self._describe_device(device_name)
        self._members[device_name] = descriptor
        self._pending.append(Event(event_type=EVENT_DEVICE_JOINED, source=self.name,
                                   time_s=now_s,
                                   data={"device": device_name,
                                         "descriptor": descriptor,
                                         "member_count": len(self._members)}))

    def leave(self, device_name: str, now_s: float = 0.0) -> None:
        """Record a device leaving the session."""
        descriptor = self._members.pop(device_name, {})
        self._pending.append(Event(event_type=EVENT_DEVICE_LEFT, source=self.name,
                                   time_s=now_s,
                                   data={"device": device_name,
                                         "descriptor": descriptor,
                                         "member_count": len(self._members)}))

    def members(self) -> List[str]:
        return sorted(self._members)

    def measure(self, now_s: float) -> List[Event]:
        events, self._pending = self._pending, []
        return events
