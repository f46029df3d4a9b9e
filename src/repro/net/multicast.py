"""Generic publish/subscribe multicast groups.

Pavilion distributes URL requests and page contents to all session members
over "a multicast protocol"; the RAPIDware event bus and the collaborative
examples need the same primitive.  :class:`MulticastGroup` is a small,
synchronous, in-process pub/sub channel with per-subscriber delivery
counters; it intentionally has no loss model (lossy delivery belongs to
the inproc transport's simulated WLAN).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

Subscriber = Callable[[Any], None]


@dataclass
class SubscriberRecord:
    """Book-keeping for one group member."""

    name: str
    callback: Subscriber
    messages_delivered: int = 0
    delivery_errors: int = 0


class MulticastGroup:
    """A named, in-process multicast channel.

    Messages are delivered synchronously to every subscriber except the
    optional ``exclude`` member (senders normally exclude themselves).
    Subscriber exceptions are caught and counted so one faulty member cannot
    break delivery to the others — the same isolation a real multicast
    transport provides.
    """

    def __init__(self, name: str = "group") -> None:
        self.name = name
        self._subscribers: Dict[str, SubscriberRecord] = {}
        self.messages_sent = 0

    def subscribe(self, name: str, callback: Subscriber) -> None:
        """Add a member; replaces any existing member with the same name."""
        self._subscribers[name] = SubscriberRecord(name=name, callback=callback)

    def unsubscribe(self, name: str) -> None:
        self._subscribers.pop(name, None)

    @property
    def members(self) -> List[str]:
        return sorted(self._subscribers)

    def member_count(self) -> int:
        return len(self._subscribers)

    def send(self, message: Any, exclude: Optional[str] = None) -> int:
        """Deliver ``message`` to every member except ``exclude``.

        Returns the number of successful deliveries.
        """
        self.messages_sent += 1
        delivered = 0
        for record in list(self._subscribers.values()):
            if record.name == exclude:
                continue
            try:
                record.callback(message)
            except Exception:  # noqa: BLE001 - member faults must not spread
                record.delivery_errors += 1
                continue
            record.messages_delivered += 1
            delivered += 1
        return delivered

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-member delivery counters."""
        return {name: {"delivered": record.messages_delivered,
                       "errors": record.delivery_errors}
                for name, record in self._subscribers.items()}
