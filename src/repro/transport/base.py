"""The transport interface and registry.

A :class:`Transport` owns *where* a proxy's packets and byte streams travel
— it decouples the endpoint layer (:mod:`repro.core.endpoints`,
:mod:`repro.transport.endpoints`) from the network substrate, exactly as
:mod:`repro.runtime` decouples chain execution from the concurrency model
and :mod:`repro.fec.backend` decouples the erasure code from its field
algebra.  Three transports ship with the repo:

* :class:`~repro.transport.inproc.InprocTransport` — the paper's simulated
  testbed (:mod:`repro.net`): seeded per-receiver loss models, WaveLAN
  airtime accounting, deterministic and single-process;
* :class:`~repro.transport.udp.UdpTransport` — real UDP sockets (unicast
  fan-out or IP multicast) with length-prefixed packet framing, so a proxy
  and its receivers can run as separate OS processes;
* :class:`~repro.transport.loopback.LoopbackTransport` — zero-config
  in-memory queue pairs for tests.

Every transport offers two services:

* a **datagram service** (:meth:`Transport.open_channel`): a named
  many-to-many channel with ``send`` (multicast to every member) and
  ``send_to`` (unicast), members joining with :meth:`DatagramChannel.join`;
* a **stream service** (:meth:`Transport.listen` /
  :meth:`Transport.connect`): reliable, ordered byte pipes (TCP for the UDP
  transport, in-memory pipes otherwise) behind
  :class:`StreamConnection`/:class:`StreamListener`.

Transports are held in a process-wide registry of factories.  Selection, in
priority order:

1. an explicit ``transport=`` argument (name or instance) on ``Proxy`` /
   ``ControlThread`` / the composed proxies and sessions,
2. the ``REPRO_TRANSPORT`` environment variable,
3. the registry default (inproc).
"""

from __future__ import annotations

import os
import threading
from abc import ABC, abstractmethod
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple, Union

from ..obs.metrics import register_channel as _obs_register_channel
from ..registry import Registry
from ..streams.detachable import ListenerMixin

#: Environment variable consulted by :func:`get_transport` when no explicit
#: transport is requested.
TRANSPORT_ENV_VAR = "REPRO_TRANSPORT"


class TransportError(RuntimeError):
    """Raised for unknown transport names or invalid transport operations."""


class TransportTimeoutError(TransportError):
    """Raised when a blocking transport operation exceeds its timeout."""


#: Zero-argument readiness listener (the same contract as
#: :meth:`repro.streams.detachable.DetachableInputStream.subscribe`): fired
#: after a receiver's externally observable state changed — a datagram
#: arrived or end-of-stream was reached.  Event-driven engines use it as a
#: wake-up signal instead of polling.
ReceiverListener = Callable[[], None]

#: Optional per-datagram delivery callback (payload bytes), called for each
#: payload a receiver is handed.
DeliveryCallback = Callable[[bytes], None]


class DatagramReceiver(ListenerMixin, ABC):
    """One member's receiving end of a datagram channel.

    The host-facing API drains with ``take``/``pending`` and adds the
    blocking/non-blocking reads and the readiness hooks the endpoint layer
    needs: :meth:`poll` never blocks, :meth:`recv` blocks with a timeout,
    :meth:`subscribe` registers a readiness listener, and
    :meth:`selectable_fileno` exposes a selectable file descriptor when the
    transport has one (UDP), so an event engine can multiplex many
    receivers on one scheduler thread.
    """

    def __init__(self, name: str,
                 on_receive: Optional[DeliveryCallback] = None,
                 queue_payloads: bool = True) -> None:
        self.name = name
        self.on_receive = on_receive
        #: When False, delivered payloads are handed to ``on_receive`` (and
        #: counted) but never queued — the mode for pure-callback consumers
        #: (the session layers), whose receivers would otherwise accumulate
        #: every payload for the lifetime of the session.
        self.queue_payloads = queue_payloads
        self.packets_received = 0
        self.bytes_received = 0
        self._queue: Deque[bytes] = deque()
        self._cond = threading.Condition()
        self._eof = False
        self._closed = False

    # -- delivery (transport-facing) ------------------------------------------

    def _deliver_many(self, payloads, notify: bool = True) -> None:
        """Queue a batch of arrived payloads, in order; fire the hooks once.

        One condition acquire, one queue extend and one listener fire for
        the batch; ``on_receive`` is still called per payload.  A single
        arrival is a batch of one.  ``notify=False`` skips the listeners:
        for receivers whose payloads only ever "arrive" inside the
        consumer's own drain (UDP), where the hook would tell the consumer
        what it is in the middle of finding out — and cost it another look.
        """
        with self._cond:
            if self._closed:
                return
            if self.queue_payloads:
                self._queue.extend(payloads)
            self.packets_received += len(payloads)
            self.bytes_received += sum(map(len, payloads))
            self._cond.notify_all()
        on_receive = self.on_receive
        if on_receive is not None:
            for payload in payloads:
                try:
                    on_receive(payload)
                except Exception:  # noqa: BLE001 - receiver faults must not spread
                    pass
        if notify:
            self._fire_listeners()

    def _mark_eof(self) -> None:
        """Record that no further datagram will ever arrive (idempotent)."""
        with self._cond:
            if self._eof:
                return
            self._eof = True
            self._cond.notify_all()
        self._fire_listeners()

    # -- host-facing API -------------------------------------------------------

    def poll(self) -> Optional[bytes]:
        """Return the next payload without blocking, or None if none queued."""
        with self._cond:
            return self._queue.popleft() if self._queue else None

    def poll_many(self, max_items: int) -> List[bytes]:
        """Surrender up to ``max_items`` queued payloads, in order.

        Never blocks and takes the lock once; what does not fit stays
        queued for the next call.
        """
        with self._cond:
            queue = self._queue
            if len(queue) <= max_items:
                items = list(queue)
                queue.clear()
                return items
            popleft = queue.popleft
            return [popleft() for _ in range(max_items)]

    def recv(self, timeout: Optional[float] = None) -> Optional[bytes]:
        """Return the next payload, blocking up to ``timeout`` seconds.

        Returns ``None`` at end-of-stream (the sender closed the channel, or
        this receiver was closed); raises :class:`TransportTimeoutError` when
        the timeout elapses first.
        """
        deadline = None if timeout is None else _monotonic() + timeout
        with self._cond:
            while True:
                if self._queue:
                    return self._queue.popleft()
                if self._eof or self._closed:
                    return None
                remaining = None
                if deadline is not None:
                    remaining = deadline - _monotonic()
                    if remaining <= 0:
                        raise TransportTimeoutError(
                            f"receiver {self.name!r}: recv timed out")
                if not self._cond.wait(remaining):
                    raise TransportTimeoutError(
                        f"receiver {self.name!r}: recv timed out")

    def take(self) -> List[bytes]:
        """Drain and return everything delivered since the last read."""
        with self._cond:
            items = list(self._queue)
            self._queue.clear()
            return items

    def pending(self) -> int:
        """Number of delivered-but-unread payloads."""
        with self._cond:
            return len(self._queue)

    def at_eof(self) -> bool:
        """True when no payload will ever be readable again."""
        with self._cond:
            return (self._eof or self._closed) and not self._queue

    def readable(self) -> bool:
        """True when :meth:`poll` would yield a payload or end-of-stream.

        The one question a cooperative consumer asks per scheduler look —
        ``pending() > 0 or at_eof()`` in a single step, which socket-backed
        receivers answer with at most one drain.
        """
        with self._cond:
            return bool(self._queue) or self._eof or self._closed

    def selectable_fileno(self) -> Optional[int]:
        """A selectable file descriptor signalling readiness, if any.

        Queue-backed receivers return ``None`` (their readiness signal is
        :meth:`subscribe`); socket-backed receivers return the socket fd so
        an event engine can park them on its selector.
        """
        return None

    def close(self) -> None:
        """Stop receiving; queued payloads are discarded."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._queue.clear()
            self._cond.notify_all()
        self._fire_listeners()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._closed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} {self.name} "
                f"received={self.packets_received} eof={self.at_eof()}>")


class DatagramChannel(ABC):
    """A named many-to-many datagram domain (one multicast group).

    ``send`` multicasts to every member, ``send_to`` unicasts to one;
    :meth:`join` registers a member and returns its
    :class:`DatagramReceiver`.  :meth:`close` ends the stream: every member
    observes end-of-stream after draining what was already delivered.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.packets_sent = 0
        self.bytes_sent = 0
        #: Datagrams a best-effort transport dropped at send time (socket
        #: errors on UDP); queue-backed transports never increment it.
        self.send_errors = 0
        self._closed = False
        # Fleet observability: scrape-time collectors walk live channels
        # through a WeakSet, so registration costs nothing after __init__.
        _obs_register_channel(self)

    @abstractmethod
    def join(self, member: str, **options) -> DatagramReceiver:
        """Add a member and return its receiving end.

        Transport-specific options (``distance_m``/``loss_model``/``seed``
        for inproc, ``address`` for UDP) are keyword-only; transports ignore
        options that do not apply to them.
        """

    @abstractmethod
    def leave(self, member: str) -> None:
        """Remove a member (missing is a no-op)."""

    @abstractmethod
    def send(self, data: bytes) -> int:
        """Multicast one datagram to every member; returns members targeted."""

    @abstractmethod
    def send_to(self, member: str, data: bytes) -> bool:
        """Unicast one datagram to a single member; True when sent."""

    def send_many(self, payloads) -> int:
        """Multicast many datagrams; returns payloads delivered to >= 1
        member.

        Semantically a loop of :meth:`send` — same per-payload framing,
        accounting and error behaviour — and that is exactly the default.
        Transports with a genuinely vectored wire path (UDP's ``sendmmsg``)
        override it so the whole batch costs one syscall per member.
        """
        delivered = 0
        for payload in payloads:
            if self.send(payload) > 0:
                delivered += 1
        return delivered

    @abstractmethod
    def members(self) -> List[str]:
        """Names of the current members."""

    def local_receivers(self) -> List[DatagramReceiver]:
        """Receivers this process hosts for the channel (for metrics).

        Transports that track members in-process override this; the base
        returns an empty list so remote-only channels stay scrape-safe.
        """
        return []

    def close(self) -> None:
        """End the stream: signal end-of-stream to every member (idempotent)."""
        self._closed = True

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._closed

    def _account(self, nbytes: int) -> None:
        self.packets_sent += 1
        self.bytes_sent += nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} {self.name} "
                f"members={self.members()} sent={self.packets_sent}>")


class StreamConnection(ABC):
    """One end of a reliable, ordered byte pipe (the stream service)."""

    @abstractmethod
    def send(self, data: bytes) -> None:
        """Deliver every byte of ``data`` (blocking until accepted)."""

    @abstractmethod
    def recv(self, max_bytes: int = 65536,
             timeout: Optional[float] = None) -> bytes:
        """Read up to ``max_bytes``; ``b""`` only at end-of-stream.

        Raises :class:`TransportTimeoutError` when ``timeout`` elapses with
        no data.
        """

    @abstractmethod
    def close(self) -> None:
        """Close both directions (idempotent)."""

    def close_sending(self) -> None:
        """Half-close: signal end-of-stream to the peer, keep receiving."""
        self.close()

    def fileno(self) -> Optional[int]:
        """The underlying selectable fd, when the transport has one."""
        return None


class StreamListener(ABC):
    """The accepting side of the stream service."""

    @property
    @abstractmethod
    def address(self):
        """The address peers pass to :meth:`Transport.connect`."""

    @abstractmethod
    def accept(self, timeout: Optional[float] = None) -> StreamConnection:
        """Wait for one inbound connection."""

    @abstractmethod
    def close(self) -> None:
        """Stop accepting (idempotent)."""


class Transport(ABC):
    """Interface for network substrates (simulated or real).

    One transport instance may serve many channels and streams — sharing an
    instance across a proxy's streams (as :class:`repro.core.proxy.Proxy`
    does) is what lets one UDP transport own all of the proxy's sockets.
    """

    #: Registry key; subclasses must override.
    name: str = ""

    @abstractmethod
    def open_channel(self, name: str = "default", **options) -> DatagramChannel:
        """Create (or look up) the named datagram channel."""

    @abstractmethod
    def listen(self, address=None) -> StreamListener:
        """Open a stream listener (``None`` picks a fresh address)."""

    @abstractmethod
    def connect(self, address) -> StreamConnection:
        """Open a stream connection to a listener's address."""

    def close(self) -> None:
        """Release transport-wide resources (idempotent)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


_TRANSPORTS: Registry[Transport] = Registry(
    "transport", Transport, TRANSPORT_ENV_VAR, TransportError, factories=True)


#: ``register_transport(name, factory, make_default=False)`` and friends:
#: the registry's own methods are the public functions.
register_transport = _TRANSPORTS.register
available_transports = _TRANSPORTS.available
set_default_transport = _TRANSPORTS.set_default


def get_transport(name: Optional[str] = None) -> Transport:
    """Instantiate a transport by name, environment variable, or default.

    ``None`` consults ``REPRO_TRANSPORT`` and falls back to the registry
    default (inproc).  Unknown names raise :class:`TransportError` so typos
    never silently select the wrong network.  Each call returns a *fresh*
    transport instance; share the instance explicitly (e.g. one per Proxy)
    to share its sockets and channels.

    Fault injection composes here rather than in the registry: a
    ``chaos:<inner>`` name wraps the named transport in a
    :class:`~repro.chaos.transport.ChaosTransport`, and when ``REPRO_CHAOS``
    is set *every* resolution is wrapped — so an unchanged caller (or an
    entire unchanged test suite) runs under the configured fault plan.
    """
    name = _TRANSPORTS.choose(name)
    if name.startswith("chaos:"):
        # Imported lazily: repro.chaos imports this module for the base
        # classes, so a top-level import would be circular.
        from ..chaos import ChaosTransport

        inner = name[len("chaos:"):] or _TRANSPORTS.default
        return ChaosTransport(_TRANSPORTS.get(inner))
    transport = _TRANSPORTS.get(name)
    if os.environ.get("REPRO_CHAOS", "").strip():
        from ..chaos import ChaosTransport, FaultPlan

        return ChaosTransport(transport, FaultPlan.from_env())
    return transport


def resolve_transport(transport: Union[str, Transport, None]) -> Transport:
    """Normalise a ``transport=`` argument (instance, name, or None)."""
    return _TRANSPORTS.resolve(transport, get_transport)


def _monotonic() -> float:
    import time

    return time.monotonic()


#: Convenience alias used by annotations in the endpoint layer.
Address = Union[str, Tuple[str, int]]
