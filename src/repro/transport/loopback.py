"""The loopback transport — zero-config in-memory queue pairs.

Everything stays in-process and lossless: a datagram channel is a fan-out
onto per-member deques, and the stream service is a pair of byte queues.
This is the transport the unit tests reach for when they need transport
semantics (membership, end-of-stream, readiness callbacks) without either
the seeded loss simulation of ``inproc`` or the real sockets of ``udp``.

The in-memory stream machinery (:class:`MemoryStreamConnection`,
:class:`MemoryStreamListener`) is shared with the inproc transport, whose
datagram side is the simulated WLAN but whose byte streams are the same
reliable in-process pipes.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Optional

from .base import (
    DatagramChannel,
    DatagramReceiver,
    StreamConnection,
    StreamListener,
    Transport,
    TransportError,
    TransportTimeoutError,
    _monotonic,
)


class LoopbackReceiver(DatagramReceiver):
    """A queue-backed receiver; delivery is a direct in-process enqueue."""


class LoopbackChannel(DatagramChannel):
    """An in-process, lossless datagram channel."""

    def __init__(self, name: str = "loopback") -> None:
        super().__init__(name)
        self._lock = threading.Lock()
        self._receivers: Dict[str, LoopbackReceiver] = {}

    def join(self, member: str, on_receive=None, queue_payloads: bool = True,
             **_options) -> LoopbackReceiver:
        """Register a member (transport-specific options are ignored)."""
        with self._lock:
            if member in self._receivers:
                raise TransportError(
                    f"channel {self.name!r}: member {member!r} already joined")
            receiver = LoopbackReceiver(member, on_receive=on_receive,
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

    def receiver(self, member: str) -> LoopbackReceiver:
        """Look up a member's receiving end (KeyError when absent)."""
        with self._lock:
            return self._receivers[member]

    def local_receivers(self) -> List[LoopbackReceiver]:
        """Receivers this process hosts (all of them, for loopback)."""
        with self._lock:
            return list(self._receivers.values())

    def _enqueue(self, batch: List[bytes], member: Optional[str] = None) -> int:
        """Deliver ``batch`` to every member, or to ``member``; count them.

        Returns the members reached.  The membership is taken once and
        each member receives the batch in one lock hold with one readiness
        notification.  A multicast is accounted even with no member to
        reach; a unicast only when its member exists.
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
        self.packets_sent += len(batch)
        self.bytes_sent += sum(map(len, batch))
        for receiver in receivers:
            receiver._deliver_many(batch)
        return len(receivers)

    def send(self, data: bytes) -> int:
        """Enqueue one datagram at every member; returns members targeted."""
        return self._enqueue([bytes(data)])

    def send_many(self, payloads) -> int:
        """Enqueue a batch at every member; returns payloads delivered."""
        batch = list(map(bytes, payloads))
        if not batch:
            return 0
        return len(batch) if self._enqueue(batch) else 0

    def send_to(self, member: str, data: bytes) -> bool:
        """Enqueue one datagram at a single member; True when it exists."""
        return bool(self._enqueue([bytes(data)], member))

    def close(self) -> None:
        """End the stream: every member observes EOF after draining."""
        with self._lock:
            if self._closed:
                return
            super().close()
            receivers = list(self._receivers.values())
        for receiver in receivers:
            receiver._mark_eof()


# --------------------------------------------------------------------------
# In-memory stream service (shared with the inproc transport)
# --------------------------------------------------------------------------


class _ByteQueue:
    """One direction of an in-memory pipe: chunks in, bytes out."""

    def __init__(self) -> None:
        self._chunks: Deque[bytes] = deque()
        self._cond = threading.Condition()
        self._closed = False

    def put(self, data: bytes) -> None:
        with self._cond:
            if self._closed:
                raise TransportError("stream connection is closed")
            if data:
                self._chunks.append(bytes(data))
                self._cond.notify_all()

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def get(self, max_bytes: int, timeout: Optional[float]) -> bytes:
        deadline = None if timeout is None else _monotonic() + timeout
        with self._cond:
            while not self._chunks:
                if self._closed:
                    return b""
                remaining = None
                if deadline is not None:
                    remaining = deadline - _monotonic()
                    if remaining <= 0:
                        raise TransportTimeoutError("stream recv timed out")
                if not self._cond.wait(remaining):
                    raise TransportTimeoutError("stream recv timed out")
            chunk = self._chunks.popleft()
            if len(chunk) > max_bytes:
                chunk, rest = chunk[:max_bytes], chunk[max_bytes:]
                self._chunks.appendleft(rest)
            return chunk


class MemoryStreamConnection(StreamConnection):
    """One end of an in-memory duplex byte pipe."""

    def __init__(self, outbound: _ByteQueue, inbound: _ByteQueue) -> None:
        self._outbound = outbound
        self._inbound = inbound
        self._closed = False

    def send(self, data: bytes) -> None:
        """Deliver every byte of ``data`` to the peer."""
        self._outbound.put(data)

    def recv(self, max_bytes: int = 65536,
             timeout: Optional[float] = None) -> bytes:
        """Read up to ``max_bytes``; empty bytes only at end-of-stream."""
        return self._inbound.get(max_bytes, timeout)

    def close_sending(self) -> None:
        """Half-close: signal end-of-stream to the peer, keep receiving."""
        self._outbound.close()

    def close(self) -> None:
        """Close both directions (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._outbound.close()
        self._inbound.close()


def memory_stream_pair() -> "tuple[MemoryStreamConnection, MemoryStreamConnection]":
    """A connected pair of in-memory stream ends (client, server)."""
    a_to_b = _ByteQueue()
    b_to_a = _ByteQueue()
    return (MemoryStreamConnection(a_to_b, b_to_a),
            MemoryStreamConnection(b_to_a, a_to_b))


class MemoryStreamListener(StreamListener):
    """Accepts in-memory stream connections under a string address."""

    def __init__(self, address: str) -> None:
        self._address = address
        self._pending: Deque[MemoryStreamConnection] = deque()
        self._cond = threading.Condition()
        self._closed = False

    @property
    def address(self) -> str:
        """The string address peers pass to ``connect``."""
        return self._address

    def _offer(self, server_end: MemoryStreamConnection) -> None:
        with self._cond:
            if self._closed:
                raise TransportError(
                    f"listener {self._address!r} is closed")
            self._pending.append(server_end)
            self._cond.notify_all()

    def accept(self, timeout: Optional[float] = None) -> MemoryStreamConnection:
        """Wait for one inbound connection (TransportTimeoutError on timeout)."""
        deadline = None if timeout is None else _monotonic() + timeout
        with self._cond:
            while not self._pending:
                if self._closed:
                    raise TransportError(
                        f"listener {self._address!r} is closed")
                remaining = None
                if deadline is not None:
                    remaining = deadline - _monotonic()
                    if remaining <= 0:
                        raise TransportTimeoutError(
                            f"listener {self._address!r}: accept timed out")
                if not self._cond.wait(remaining):
                    raise TransportTimeoutError(
                        f"listener {self._address!r}: accept timed out")
            return self._pending.popleft()

    def close(self) -> None:
        """Stop accepting; blocked accepts raise TransportError."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class MemoryStreamServiceMixin:
    """Stream service over in-memory pipes, keyed by string address."""

    def __init__(self) -> None:
        self._listeners: Dict[str, MemoryStreamListener] = {}
        self._listener_lock = threading.Lock()
        self._listener_seq = 0

    def listen(self, address=None) -> MemoryStreamListener:
        """Open a listener (``None`` picks a fresh string address)."""
        with self._listener_lock:
            if address is None:
                self._listener_seq += 1
                address = f"{self.name}-listener-{self._listener_seq}"
            if address in self._listeners:
                raise TransportError(
                    f"transport {self.name!r}: address {address!r} in use")
            listener = MemoryStreamListener(address)
            self._listeners[address] = listener
            return listener

    def connect(self, address) -> MemoryStreamConnection:
        """Connect to a listener's address, returning the client end."""
        with self._listener_lock:
            listener = self._listeners.get(address)
        if listener is None:
            raise TransportError(
                f"transport {self.name!r}: nothing listening on {address!r}")
        client_end, server_end = memory_stream_pair()
        listener._offer(server_end)
        return client_end

    def _close_listeners(self) -> None:
        with self._listener_lock:
            listeners = list(self._listeners.values())
            self._listeners.clear()
        for listener in listeners:
            listener.close()


class LoopbackTransport(MemoryStreamServiceMixin, Transport):
    """Zero-config in-memory transport (lossless, single-process)."""

    name = "loopback"

    def __init__(self) -> None:
        MemoryStreamServiceMixin.__init__(self)
        self._channels: Dict[str, LoopbackChannel] = {}
        self._channel_lock = threading.Lock()

    def open_channel(self, name: str = "default", **_options) -> LoopbackChannel:
        """Create (or look up) the named lossless channel."""
        with self._channel_lock:
            channel = self._channels.get(name)
            if channel is None:
                channel = LoopbackChannel(name)
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
