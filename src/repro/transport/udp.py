"""The UDP transport — real datagram sockets for multi-process deployment.

This is the transport that turns the proxy from a simulation harness into a
deployable process: a channel member is a bound UDP socket, so the sender
(the proxy) and its receivers (the mobile hosts) can live in different OS
processes or on different machines.  Two delivery modes:

* **unicast fan-out** (default): ``send`` transmits one copy per member to
  each member's address — application-level multicast, works everywhere
  (loopback, containers, NATs);
* **IP multicast**: pass ``multicast_group=(group_ip, port)`` to
  ``open_channel`` and ``send`` transmits a single datagram to the group;
  members bind the group port and join the group.  Availability depends on
  the host's multicast routing, so tests treat it as optional.

Framing: every datagram carries exactly one length-prefixed frame from
:mod:`repro.streams.framing` (magic byte + length + payload), so a
corrupted or foreign datagram is *detected and dropped* (counted in
``framing_errors``) instead of silently mis-parsed.  End-of-stream is a
frame header whose length field is ``0xFFFFFFFF`` — above
``MAX_FRAME_SIZE`` and therefore unambiguous — sent to every member when
the channel closes, the datagram analogue of a TCP FIN.

Receivers are non-blocking sockets drained opportunistically into the
receiver's queue.  ``pending`` / ``take`` / ``recv`` drain first, always;
``poll`` / ``at_eof`` / ``readable`` drain only when the queue is empty —
with payloads queued their answer cannot change, so they skip the syscall.
``recv`` blocks in :func:`select.select`, and ``selectable_fileno`` exposes
the fd so the event engine parks the receiver on its selector — many UDP
streams, one scheduler thread, no per-socket threads.

The stream service is TCP: ``listen``/``connect`` return
:class:`TcpStreamListener`/:class:`TcpStreamConnection`, the objects the
socket EndPoints (:class:`repro.core.endpoints.SocketSource` /
``SocketSink``) are built on.
"""

from __future__ import annotations

import select
import socket
import struct
import threading
from typing import Dict, List, Optional, Tuple

from ..obs.events import EVENT_TRANSPORT_ERROR, get_event_log
from ..streams.framing import FRAME_MAGIC, HEADER_SIZE, MAX_FRAME_SIZE
from . import vectored as _vectored
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

_HEADER = struct.Struct(">BI")

#: Length field of the end-of-stream marker: above MAX_FRAME_SIZE, so no
#: legal data frame can ever collide with it.
_EOS_LENGTH = 0xFFFFFFFF

#: The end-of-stream datagram (a frame header with the sentinel length).
EOS_DATAGRAM = _HEADER.pack(FRAME_MAGIC, _EOS_LENGTH)

#: Largest payload accepted per datagram (header + payload must fit a UDP
#: datagram; 60 KiB leaves headroom under the 64 KiB IPv4 limit).
MAX_DATAGRAM_PAYLOAD = 60 * 1024

UdpAddress = Tuple[str, int]

#: Receive-ring geometry: datagrams land in preallocated slots (no 64 KiB
#: allocation per datagram) and the payload is copied out exactly once, at
#: its real size, before the slot is reused.
_RING_SLOTS = 8
_RING_SLOT_SIZE = 65535


def encode_datagram(payload: bytes) -> bytes:
    """Frame one payload for the wire (one frame per datagram)."""
    payload = bytes(payload)
    if len(payload) > min(MAX_DATAGRAM_PAYLOAD, MAX_FRAME_SIZE):
        raise TransportError(
            f"datagram payload of {len(payload)} bytes exceeds the "
            f"{MAX_DATAGRAM_PAYLOAD}-byte UDP limit")
    return _HEADER.pack(FRAME_MAGIC, len(payload)) + payload


def decode_datagram(datagram: bytes) -> Optional[bytes]:
    """Unframe one datagram: the payload, or None for the EOS marker.

    Raises :class:`TransportError` for anything malformed (bad magic, bad
    length, trailing garbage) so callers can count-and-drop it.
    """
    if len(datagram) < HEADER_SIZE:
        raise TransportError("datagram shorter than a frame header")
    magic, length = _HEADER.unpack_from(datagram, 0)
    if magic != FRAME_MAGIC:
        raise TransportError(f"bad frame magic 0x{magic:02x}")
    if length == _EOS_LENGTH:
        return None
    if length != len(datagram) - HEADER_SIZE:
        raise TransportError(
            f"frame length {length} does not match datagram size "
            f"{len(datagram)}")
    return datagram[HEADER_SIZE:]


class UdpReceiver(DatagramReceiver):
    """A channel member backed by a bound, non-blocking UDP socket."""

    def __init__(self, name: str, sock: socket.socket,
                 on_receive=None, queue_payloads: bool = True) -> None:
        super().__init__(name, on_receive=on_receive,
                         queue_payloads=queue_payloads)
        sock.setblocking(False)
        self._socket = sock
        self.address: UdpAddress = sock.getsockname()
        self.framing_errors = 0
        #: Receive syscalls attempted (``recvmmsg`` or ``recvfrom_into``,
        #: data or ``EAGAIN`` alike); over ``packets_received`` it is the
        #: syscalls-per-datagram ratio ``/metrics`` exposes.
        self.receive_syscalls = 0
        # Allocated lazily on the first drain: channel members that only
        # ever send (remote registrations) never pay for the ring.
        self._ring: Optional[_vectored.RecvRing] = None
        self._ring_index = 0
        # Vectored (recvmmsg) batch receives, mirroring the channel's
        # sendmmsg path: cleared permanently on a DISABLE_ERRNOS errno.
        self._vectored_recv = _vectored.recv_available()

    # -- socket draining -------------------------------------------------------

    def _parse_slot(self, buf: bytearray, nbytes: int,
                    payloads: List[bytes]) -> None:
        """Frame-check one datagram; its payload joins the drain's batch."""
        if nbytes < HEADER_SIZE:
            self.framing_errors += 1
            return
        magic, length = _HEADER.unpack_from(buf, 0)
        if magic != FRAME_MAGIC:
            self.framing_errors += 1
            return
        if length == _EOS_LENGTH:
            # End of stream comes after the payloads that preceded it.
            self._deliver_many(payloads, notify=False)
            payloads.clear()
            self._mark_eof()
            return
        if length != nbytes - HEADER_SIZE:
            self.framing_errors += 1
            return
        # Exact-size copy: the queued payload must outlive the ring slot,
        # which is reused on the next lap.
        payloads.append(bytes(memoryview(buf)[HEADER_SIZE:nbytes]))

    def _drain_socket(self) -> None:
        """Pull every kernel-buffered datagram into the receiver queue.

        Datagrams land in a preallocated ring of buffers — a whole ring
        per ``recvmmsg`` syscall where the platform has it, one slot per
        ``recvfrom_into`` otherwise — and are parsed in place, so the
        per-datagram cost is (a fraction of) one syscall plus one
        exact-size copy of the payload, instead of a 64 KiB allocation, a
        resize, and a slice per datagram.  What a drain parsed is queued
        as one batch.  No listener call: data readiness is the fd's
        business (selectable_fileno); the hooks carry EOF and close.
        """
        ring = self._ring
        if ring is None:
            ring = self._ring = _vectored.RecvRing(_RING_SLOTS,
                                                   _RING_SLOT_SIZE)
        buffers = ring.buffers
        payloads: List[bytes] = []
        try:
            while self._vectored_recv:
                # Batch path: every payload is copied out by _parse_slot
                # before the next call reuses the ring.
                self.receive_syscalls += 1
                lengths, error = ring.recv(self._socket)
                for slot, nbytes in enumerate(lengths):
                    self._parse_slot(buffers[slot], nbytes, payloads)
                if error is not None:
                    if error.errno in _vectored.DISABLE_ERRNOS:
                        # recvmmsg can never work here; stop paying for the
                        # doomed syscall and drain per-datagram from now on.
                        self._vectored_recv = False
                        break
                    # Transient, or the socket was closed under us (EBADF;
                    # EOF state already recorded): what remains waits for
                    # the next drain.
                    return
                if len(lengths) < _RING_SLOTS:
                    return  # kernel queue drained
            while True:
                buf = buffers[self._ring_index]
                self.receive_syscalls += 1
                try:
                    nbytes, _sender = self._socket.recvfrom_into(
                        buf, _RING_SLOT_SIZE)
                except (BlockingIOError, InterruptedError):
                    return
                except OSError:
                    return  # closed under us: EOF state already recorded
                self._ring_index = (self._ring_index + 1) % _RING_SLOTS
                self._parse_slot(buf, nbytes, payloads)
        finally:
            if payloads:
                self._deliver_many(payloads, notify=False)

    # -- host-facing API -------------------------------------------------------
    #
    # With payloads queued, the next payload, "not at EOF" and "readable"
    # are already decided, so poll/at_eof/readable only pay the drain
    # syscall on an empty queue.  pending/take/recv report *everything*
    # received so far and therefore always drain first.

    def poll(self) -> Optional[bytes]:
        """Return the next payload (non-blocking), draining if none queued."""
        if not self._queue:
            self._drain_socket()
        return super().poll()

    def poll_many(self, max_items: int) -> List[bytes]:
        """Up to ``max_items`` payloads, draining first if none is queued."""
        if not self._queue:
            self._drain_socket()
        return super().poll_many(max_items)

    def pending(self) -> int:
        """Drain the socket, then count the unread payloads."""
        self._drain_socket()
        return super().pending()

    def at_eof(self) -> bool:
        """Report end-of-stream, draining first unless payloads are queued."""
        if not self._queue:
            self._drain_socket()
        return super().at_eof()

    def readable(self) -> bool:
        """True when a payload is queued or this is EOF; one drain at most."""
        if not self._queue:
            self._drain_socket()
        return super().readable()

    def take(self) -> List[bytes]:
        """Drain the socket, then return everything delivered so far."""
        self._drain_socket()
        return super().take()

    def recv(self, timeout: Optional[float] = None) -> Optional[bytes]:
        """Return the next payload, blocking in ``select`` up to ``timeout``."""
        deadline = None if timeout is None else _monotonic() + timeout
        while True:
            self._drain_socket()
            payload = super().poll()
            if payload is not None:
                return payload
            if super().at_eof():
                return None
            remaining = None
            if deadline is not None:
                remaining = deadline - _monotonic()
                if remaining <= 0:
                    raise TransportTimeoutError(
                        f"receiver {self.name!r}: recv timed out")
            try:
                readable, _, _ = select.select([self._socket], [], [],
                                               remaining)
            except OSError:
                return None  # closed while blocked
            if not readable and remaining is not None:
                raise TransportTimeoutError(
                    f"receiver {self.name!r}: recv timed out")

    def selectable_fileno(self) -> Optional[int]:
        """The receiver socket's fd, for the event engine's selector."""
        try:
            return self._socket.fileno()
        except OSError:  # pragma: no cover - closed socket
            return None

    def close(self) -> None:
        """Stop receiving and close the bound socket."""
        super().close()
        try:
            self._socket.close()
        except OSError:  # pragma: no cover - best effort
            pass


class UdpChannel(DatagramChannel):
    """A datagram channel over real UDP sockets.

    Members joined locally get a bound receiver socket; remote members (in
    another process) are registered by address with :meth:`add_member` —
    their side calls ``join`` on its own channel object with an explicit
    ``address`` to bind.
    """

    def __init__(self, name: str = "udp", host: str = "127.0.0.1",
                 multicast_group: Optional[UdpAddress] = None,
                 multicast_ttl: int = 1) -> None:
        super().__init__(name)
        self.host = host
        self.multicast_group = multicast_group
        self._lock = threading.Lock()
        self._members: Dict[str, UdpAddress] = {}
        self._receivers: Dict[str, UdpReceiver] = {}
        self._send_socket = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        # Vectored (sendmmsg) batch sends, where the platform has them.
        # Cleared permanently the first time the syscall reports an errno
        # that means "never going to work here" (see vectored.DISABLE_ERRNOS).
        self._vectored = _vectored.available()
        # The sendmmsg header pool, built by the first batch that needs it.
        self._send_pool: Optional[_vectored.SendPool] = None
        if multicast_group is not None:
            self._send_socket.setsockopt(socket.IPPROTO_IP,
                                         socket.IP_MULTICAST_TTL,
                                         multicast_ttl)
            self._send_socket.setsockopt(socket.IPPROTO_IP,
                                         socket.IP_MULTICAST_LOOP, 1)

    # -- membership ------------------------------------------------------------

    def join(self, member: str, address: Optional[UdpAddress] = None,
             on_receive=None, recv_buffer_bytes: Optional[int] = None,
             queue_payloads: bool = True, reuse_port: bool = False,
             reuse_addr: bool = False, **_options) -> UdpReceiver:
        """Bind a local receiver socket and register it as a member.

        ``reuse_port`` sets ``SO_REUSEPORT`` before binding, so several
        processes can bind the *same* address and the kernel shards
        incoming datagrams across them — the cluster's UDP ingress path.
        Platforms without ``SO_REUSEPORT`` raise a
        :class:`~repro.transport.base.TransportError` naming the option
        (never a silent bind failure).  ``reuse_addr`` sets
        ``SO_REUSEADDR`` (implied on the multicast path, where it always
        was).
        """
        with self._lock:
            if member in self._receivers:
                raise TransportError(
                    f"channel {self.name!r}: member {member!r} already joined")
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            if recv_buffer_bytes:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF,
                                recv_buffer_bytes)
            if reuse_addr:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if reuse_port:
                if not hasattr(socket, "SO_REUSEPORT"):
                    raise TransportError(
                        f"channel {self.name!r}: reuse_port requested but "
                        "this platform does not define SO_REUSEPORT")
                try:
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
                except OSError as exc:
                    raise TransportError(
                        f"channel {self.name!r}: kernel rejected "
                        f"SO_REUSEPORT ({exc})") from exc
            if self.multicast_group is not None:
                group_ip, group_port = self.multicast_group
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                sock.bind(("", group_port))
                membership = (socket.inet_aton(group_ip)
                              + socket.inet_aton("0.0.0.0"))
                sock.setsockopt(socket.IPPROTO_IP, socket.IP_ADD_MEMBERSHIP,
                                membership)
            else:
                sock.bind(address or (self.host, 0))
        except (OSError, TransportError):
            sock.close()
            raise
        receiver = UdpReceiver(member, sock, on_receive=on_receive,
                               queue_payloads=queue_payloads)
        with self._lock:
            # Re-check under the lock: a concurrent join of the same name
            # must not silently replace (and leak) the first socket.
            if member in self._receivers:
                raced = True
            else:
                raced = False
                self._receivers[member] = receiver
                if self.multicast_group is None:
                    self._members[member] = receiver.address
                if self._closed:
                    receiver._mark_eof()
        if raced:
            receiver.close()
            raise TransportError(
                f"channel {self.name!r}: member {member!r} already joined")
        return receiver

    def add_member(self, member: str, address: UdpAddress) -> None:
        """Register a remote member by address (no local socket)."""
        with self._lock:
            self._members[member] = (address[0], int(address[1]))

    def leave(self, member: str) -> None:
        """Remove a member, closing its local receiver if there is one."""
        with self._lock:
            self._members.pop(member, None)
            receiver = self._receivers.pop(member, None)
        if receiver is not None:
            receiver.close()

    def members(self) -> List[str]:
        """Names of the current members, local and remote."""
        with self._lock:
            return sorted(set(self._members) | set(self._receivers))

    def receiver(self, member: str) -> UdpReceiver:
        """Look up a locally joined member's receiver (KeyError when absent)."""
        with self._lock:
            return self._receivers[member]

    def local_receivers(self) -> List[UdpReceiver]:
        """Receivers this process hosts (remote members have none here)."""
        with self._lock:
            return list(self._receivers.values())

    # -- transmission ----------------------------------------------------------

    def _destinations(self) -> List[UdpAddress]:
        if self.multicast_group is not None:
            return [self.multicast_group]
        with self._lock:
            return list(self._members.values())

    def _transmit(self, wires: List[bytes],
                  destinations: List[UdpAddress]) -> List[int]:
        """Transmit every wire frame to every destination, batched.

        Returns, per frame, the number of destinations reached.  Each
        destination's frames leave in ``sendmmsg`` syscalls where the
        platform has them.  The per-datagram ``sendto`` loop takes what
        the vectored path does not: a single frame (one ``sendto`` is
        cheaper than a one-message ``sendmmsg`` through ctypes), the tail
        of a batch after an error, and everything where ``sendmmsg`` is
        absent.  The vectored path reports how many leading frames the
        kernel accepted before an error, so the loop resumes exactly
        there: a frame is never put on the wire twice (UDP has no dedupe,
        and a duplicated datagram would corrupt a raw byte stream
        downstream).
        """
        reached = [0] * len(wires)
        for address in destinations:
            start = 0
            if self._vectored and len(wires) > 1:
                pool = self._send_pool
                if pool is None:
                    pool = self._send_pool = _vectored.SendPool()
                done, error = pool.send(self._send_socket, address, wires)
                for i in range(done):
                    reached[i] += 1
                start = done
                if error is None:
                    continue
                if error.errno in _vectored.DISABLE_ERRNOS:
                    self._vectored = False
                # Transient errors (ENOBUFS, ECONNREFUSED, ...) fall through
                # to the per-datagram loop for the unsent tail, which judges
                # — and counts — each datagram on its own.
            for i in range(start, len(wires)):
                try:
                    self._send_socket.sendto(wires[i], address)
                    reached[i] += 1
                except OSError as exc:
                    # An unreachable member must not break the others, but
                    # the drop is observable: counted for /metrics and
                    # logged as a structured event for post-hoc diagnosis.
                    self.send_errors += 1
                    get_event_log().emit(
                        EVENT_TRANSPORT_ERROR, stream=self.name,
                        transport="udp", address=f"{address[0]}:{address[1]}",
                        error=str(exc))
        return reached

    def _send(self, payloads, member: Optional[str] = None) -> List[int]:
        """Frame and transmit ``payloads`` to every member, or to ``member``.

        Returns, per payload, the members it reached.  A payload is
        accounted when it reached at least one member, in payload bytes,
        matching the inproc/loopback channels, so cross-transport
        statistics (e.g. compression ratios) compare like with like;
        framing overhead is a wire detail.
        """
        if self._closed:
            raise TransportError(f"channel {self.name!r}: send after close")
        if member is None:
            destinations = self._destinations()
        else:
            if self.multicast_group is not None:
                # Group members share one bound port (SO_REUSEADDR), so a
                # unicast datagram would reach an arbitrary member — refuse
                # loudly instead of delivering to the wrong host.
                raise TransportError(
                    f"channel {self.name!r}: send_to is unavailable in "
                    "IP-multicast mode (members share the group port)")
            with self._lock:
                address = self._members.get(member)
            if address is None:
                return [0]
            destinations = [address]
        wires = [encode_datagram(payload) for payload in payloads]
        if not wires:
            return []
        reached = self._transmit(wires, destinations)
        for payload, count in zip(payloads, reached):
            if count:
                self._account(len(payload))
        return reached

    def send(self, data: bytes) -> int:
        """Transmit one framed datagram per member (or one, multicast)."""
        return self._send((data,))[0]

    def send_many(self, payloads) -> int:
        """Transmit many payloads, one framed datagram each, per member.

        Returns the number of payloads delivered to at least one member.
        """
        return sum(1 for count in self._send(payloads) if count)

    def send_to(self, member: str, data: bytes) -> bool:
        """Unicast one framed datagram to a member; True when sent."""
        return bool(self._send((data,), member)[0])

    def close(self) -> None:
        """Send the EOS marker to every member and release the send socket.

        Local receivers are additionally marked EOF directly, so a dropped
        EOS datagram can never wedge an in-process consumer; datagrams
        already in their kernel buffers are still drained first (EOF is
        checked *after* the opportunistic drain).
        """
        with self._lock:
            if self._closed:
                return
            super().close()
            receivers = list(self._receivers.values())
        self._transmit([EOS_DATAGRAM], self._destinations())
        for receiver in receivers:
            receiver._mark_eof()
        try:
            self._send_socket.close()
        except OSError:  # pragma: no cover - best effort
            pass


# --------------------------------------------------------------------------
# TCP stream service
# --------------------------------------------------------------------------


class TcpStreamConnection(StreamConnection):
    """A reliable byte stream over a connected TCP socket."""

    def __init__(self, sock: socket.socket) -> None:
        self._socket = sock
        self._closed = False

    @property
    def socket(self) -> socket.socket:
        """The underlying connected TCP socket."""
        return self._socket

    def send(self, data: bytes) -> None:
        """Deliver every byte of ``data`` (TransportError on socket error)."""
        try:
            self._socket.sendall(bytes(data))
        except OSError as exc:
            raise TransportError(f"stream send failed: {exc}") from exc

    def recv(self, max_bytes: int = 65536,
             timeout: Optional[float] = None) -> bytes:
        """Read up to ``max_bytes``; empty bytes only at end-of-stream."""
        try:
            self._socket.settimeout(timeout)
            return self._socket.recv(max_bytes)
        except socket.timeout:
            raise TransportTimeoutError("stream recv timed out") from None
        except OSError:
            return b""  # connection reset / closed under us: end of stream

    def close_sending(self) -> None:
        """Half-close: TCP FIN to the peer, keep receiving."""
        try:
            self._socket.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    def unblock(self) -> None:
        """Make a blocked :meth:`recv` return promptly (end-of-stream)."""
        try:
            self._socket.shutdown(socket.SHUT_RD)
        except OSError:
            pass

    def close(self) -> None:
        """Close both directions (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._socket.close()
        except OSError:  # pragma: no cover - best effort
            pass

    def fileno(self) -> Optional[int]:
        """The connected socket's fd (None once closed)."""
        try:
            return self._socket.fileno()
        except OSError:  # pragma: no cover - closed socket
            return None


class TcpStreamListener(StreamListener):
    """Accepts TCP stream connections."""

    def __init__(self, address: Optional[UdpAddress] = None,
                 backlog: int = 16) -> None:
        self._socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._socket.bind(address or ("127.0.0.1", 0))
        self._socket.listen(backlog)
        self._closed = False

    @property
    def address(self) -> UdpAddress:
        """The bound ``(host, port)`` peers pass to ``connect``."""
        return self._socket.getsockname()

    def accept(self, timeout: Optional[float] = None) -> TcpStreamConnection:
        """Wait for one inbound TCP connection."""
        try:
            self._socket.settimeout(timeout)
            conn, _peer = self._socket.accept()
        except socket.timeout:
            raise TransportTimeoutError("accept timed out") from None
        except OSError as exc:
            raise TransportError(f"accept failed: {exc}") from exc
        return TcpStreamConnection(conn)

    def close(self) -> None:
        """Stop accepting (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._socket.close()
        except OSError:  # pragma: no cover - best effort
            pass


class UdpTransport(Transport):
    """Real sockets: UDP datagram channels plus a TCP stream service."""

    name = "udp"

    def __init__(self, host: str = "127.0.0.1") -> None:
        self.host = host
        self._channels: Dict[str, UdpChannel] = {}
        self._channel_lock = threading.Lock()
        self._listeners: List[TcpStreamListener] = []

    def open_channel(self, name: str = "default",
                     multicast_group: Optional[UdpAddress] = None,
                     multicast_ttl: int = 1, **_options) -> UdpChannel:
        """Create (or look up) the named channel (optionally IP multicast)."""
        with self._channel_lock:
            channel = self._channels.get(name)
            if channel is None:
                channel = UdpChannel(name, host=self.host,
                                     multicast_group=multicast_group,
                                     multicast_ttl=multicast_ttl)
                self._channels[name] = channel
            return channel

    def listen(self, address=None) -> TcpStreamListener:
        """Open a TCP listener (``None`` binds an ephemeral local port)."""
        listener = TcpStreamListener(address)
        with self._channel_lock:
            self._listeners.append(listener)
        return listener

    def connect(self, address) -> TcpStreamConnection:
        """Open a TCP connection to a listener's address."""
        try:
            sock = socket.create_connection(address)
        except OSError as exc:
            raise TransportError(
                f"connect to {address!r} failed: {exc}") from exc
        return TcpStreamConnection(sock)

    def close(self) -> None:
        """Close every channel, receiver and listener (idempotent)."""
        with self._channel_lock:
            channels = list(self._channels.values())
            self._channels.clear()
            listeners = list(self._listeners)
            self._listeners.clear()
        for channel in channels:
            channel.close()
            for member in channel.members():
                channel.leave(member)
        for listener in listeners:
            listener.close()
