"""Vectored UDP I/O — ``sendmmsg(2)``/``recvmmsg(2)`` via ctypes.

Linux's ``sendmmsg`` hands the kernel a whole batch of datagrams in one
syscall, so a pump budget of FEC packets costs one kernel crossing per
member instead of one per packet; ``recvmmsg`` is the mirror image on the
receive side, draining a batch of kernel-buffered datagrams per syscall.
Python's stdlib exposes neither, so this module binds both with ctypes:

* :func:`available` — True when the ``sendmmsg`` symbol was found *and*
  the ``REPRO_UDP_VECTORED`` kill-switch is not set to ``0``;
* :class:`SendPool` — a channel's ``sendmmsg`` header pool, built once:
  :meth:`SendPool.send` transmits many pre-framed datagrams to one IPv4
  address writing only ``iov_base``/``iov_len`` per frame, and returns
  ``(frames_sent, error)`` so a caller can continue a partially
  transmitted batch over the plain ``sendto`` loop without ever re-sending
  a frame (UDP duplicates would corrupt a byte stream);
* :func:`recv_available` / :class:`RecvRing` — the receive-side pair: a
  receiver's ring of datagram slots whose ``iovec``/``mmsghdr`` arrays are
  built once and pinned for the ring's life, so :meth:`RecvRing.recv` is
  one ``recvmmsg`` and nothing else — an empty socket costs one syscall
  returning ``EAGAIN`` — returning ``(lengths, error)``.

Callers classify the returned errno: values in :data:`DISABLE_ERRNOS` mean
the host cannot do vectored I/O at all (disable permanently, stop paying
for the failed syscall); anything else is transient and only the current
batch falls back.  Everywhere without the symbols (non-Linux, exotic libc)
the availability probes are simply False and the transport uses its
per-datagram loops, byte-for-byte identical on the wire.  The same
``REPRO_UDP_VECTORED=0`` kill switch governs both directions.
"""

from __future__ import annotations

import ctypes
import errno as _errno
import os
import socket
import sys
import threading
from typing import List, Optional, Sequence, Tuple

#: Environment kill-switch: ``REPRO_UDP_VECTORED=0`` forces the plain
#: per-datagram ``sendto`` loop even where ``sendmmsg`` exists (useful for
#: A/B benchmarks and for debugging suspected batching bugs).
VECTORED_ENV_VAR = "REPRO_UDP_VECTORED"

#: errno values meaning "vectored sends cannot work on this host" — the
#: syscall is missing, filtered, or our call shape is rejected outright.
#: A channel seeing one of these disables its vectored path permanently
#: instead of paying a doomed syscall per batch.
DISABLE_ERRNOS = frozenset({
    _errno.ENOSYS,
    _errno.EOPNOTSUPP,
    _errno.EPERM,
    _errno.EFAULT,
    _errno.EINVAL,
})

#: Datagrams per ``sendmmsg`` call (the send pool's size).  The kernel caps
#: a call at UIO_MAXIOV (1024) messages; 64 matches the largest pump budgets
#: upstream.
MAX_BATCH = 64


class _iovec(ctypes.Structure):
    # c_char_p, not c_void_p: assigning a ``bytes`` object stores the address
    # of its buffer (and a reference pinning it) in one attribute write —
    # the send pool's whole per-frame cost.  Frame length comes from
    # iov_len, so embedded NULs are irrelevant; the receive ring assigns a
    # plain integer address.
    _fields_ = [
        ("iov_base", ctypes.c_char_p),
        ("iov_len", ctypes.c_size_t),
    ]


class _sockaddr_in(ctypes.Structure):
    _fields_ = [
        ("sin_family", ctypes.c_uint16),
        ("sin_port", ctypes.c_uint16),  # network byte order
        ("sin_addr", ctypes.c_uint8 * 4),
        ("sin_zero", ctypes.c_uint8 * 8),
    ]


class _msghdr(ctypes.Structure):
    _fields_ = [
        ("msg_name", ctypes.c_void_p),
        ("msg_namelen", ctypes.c_uint32),
        ("msg_iov", ctypes.POINTER(_iovec)),
        ("msg_iovlen", ctypes.c_size_t),
        ("msg_control", ctypes.c_void_p),
        ("msg_controllen", ctypes.c_size_t),
        ("msg_flags", ctypes.c_int),
    ]


class _mmsghdr(ctypes.Structure):
    _fields_ = [
        ("msg_hdr", _msghdr),
        ("msg_len", ctypes.c_uint32),
    ]


def _load_sendmmsg():
    """Resolve ``sendmmsg`` from the running process (Linux only)."""
    if not sys.platform.startswith("linux"):
        return None
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        fn = libc.sendmmsg
    except (OSError, AttributeError):
        return None
    fn.restype = ctypes.c_int
    fn.argtypes = [ctypes.c_int, ctypes.POINTER(_mmsghdr),
                   ctypes.c_uint, ctypes.c_int]
    return fn


def _load_recvmmsg():
    """Resolve ``recvmmsg`` from the running process (Linux only)."""
    if not sys.platform.startswith("linux"):
        return None
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        fn = libc.recvmmsg
    except (OSError, AttributeError):
        return None
    fn.restype = ctypes.c_int
    # The final argument is ``struct timespec *timeout``; always NULL here
    # (the sockets are non-blocking), so a void pointer suffices.
    fn.argtypes = [ctypes.c_int, ctypes.POINTER(_mmsghdr),
                   ctypes.c_uint, ctypes.c_int, ctypes.c_void_p]
    return fn


_sendmmsg = _load_sendmmsg()
_recvmmsg = _load_recvmmsg()


def available() -> bool:
    """True when a vectored send can be attempted on this host right now."""
    return (_sendmmsg is not None
            and os.environ.get(VECTORED_ENV_VAR, "1") != "0")


def recv_available() -> bool:
    """True when a vectored receive can be attempted on this host right now."""
    return (_recvmmsg is not None
            and os.environ.get(VECTORED_ENV_VAR, "1") != "0")


def _os_error(err: int) -> OSError:
    return OSError(err, os.strerror(err))


def _header_array(count: int):
    """``count`` single-iovec message headers, wired once.

    Returns ``(headers, iovecs, header_views, iovec_views)``: the two
    ctypes arrays handed to the kernel, plus per-slot element views so the
    data path reads ``msg_len`` / writes ``iov_base`` without creating a
    ctypes object per access.
    """
    iovecs = (_iovec * count)()
    headers = (_mmsghdr * count)()
    iovec_views = [iovecs[i] for i in range(count)]
    header_views = [headers[i] for i in range(count)]
    for view, iov in zip(header_views, iovec_views):
        view.msg_hdr.msg_iov = ctypes.pointer(iov)
        view.msg_hdr.msg_iovlen = 1
    return headers, iovecs, header_views, iovec_views


class SendPool:
    """A channel's ``sendmmsg`` headers, built once and reused per batch.

    Every header points at one shared ``sockaddr_in``, rewritten per
    destination, so a batch costs two attribute writes per frame
    (``iov_base``/``iov_len``) plus the syscall.  The pool is one channel's
    shared state, so :meth:`send` serialises callers on a lock (several
    sinks of a threaded proxy may share a channel).
    """

    def __init__(self) -> None:
        self._addr = _sockaddr_in()
        self._addr.sin_family = socket.AF_INET
        (self._headers, self._iovecs,
         header_views, self._iovec_views) = _header_array(MAX_BATCH)
        for view in header_views:
            view.msg_hdr.msg_name = ctypes.addressof(self._addr)
            view.msg_hdr.msg_namelen = ctypes.sizeof(self._addr)
        self._lock = threading.Lock()

    def send(
        self,
        sock: socket.socket,
        address: Tuple[str, int],
        frames: Sequence[bytes],
    ) -> Tuple[int, Optional[OSError]]:
        """Transmit pre-framed ``bytes`` datagrams to one IPv4 address.

        Returns ``(sent, error)``: the number of leading frames fully
        handed to the kernel, and the ``OSError`` that stopped the batch
        (``None`` when every frame went out).  The caller resumes from
        ``frames[sent:]`` on its fallback path — no frame is ever
        transmitted twice from here.
        """
        fd = sock.fileno()
        total = len(frames)
        done = 0
        with self._lock:
            addr = self._addr
            addr.sin_port = socket.htons(address[1])
            addr.sin_addr[:] = socket.inet_aton(address[0])
            iovec_views = self._iovec_views
            while done < total:
                count = min(MAX_BATCH, total - done)
                # Each assignment pins its frame in the array's _objects
                # until the slot is next written, which outlives the call.
                for i in range(count):
                    frame = frames[done + i]
                    iov = iovec_views[i]
                    iov.iov_base = frame
                    iov.iov_len = len(frame)
                sent = _sendmmsg(fd, self._headers, count, 0)
                if sent < 0:
                    err = ctypes.get_errno()
                    if err == _errno.EINTR:
                        continue
                    return done, _os_error(err)
                if sent == 0:
                    # Defensive: zero progress from a blocking socket
                    # would spin.
                    return done, _os_error(_errno.EAGAIN)
                done += sent
        return done, None


class RecvRing:
    """A receiver's ring of datagram slots with its ``recvmmsg`` headers.

    ``buffers`` are the slots themselves (the scalar ``recvfrom_into``
    fallback fills the same ones); the ``iovec``/``mmsghdr`` arrays over
    them are built here, once, and the ``from_buffer`` views stay pinned
    for the ring's life.  Sender addresses are not captured (``msg_name``
    NULL): the UDP transport identifies streams by frame content, not peer
    address, and skipping the copy is free speed.
    """

    def __init__(self, slots: int, slot_size: int) -> None:
        self.buffers = [bytearray(slot_size) for _ in range(slots)]
        # from_buffer shares each bytearray's memory with its iovec —
        # received bytes appear in the slot with no extra copy.
        self._pinned = [(ctypes.c_char * slot_size).from_buffer(buf)
                        for buf in self.buffers]
        (self._headers, self._iovecs,
         self._header_views, iovec_views) = _header_array(slots)
        for iov, pinned in zip(iovec_views, self._pinned):
            iov.iov_base = ctypes.addressof(pinned)
            iov.iov_len = slot_size

    def recv(self, sock: socket.socket) -> Tuple[List[int], Optional[OSError]]:
        """Receive up to one datagram per slot in one syscall.

        Each datagram lands in ``buffers[i]`` (truncated to the slot size,
        like ``recvfrom_into``).  Returns ``(lengths, error)``: the byte
        count of each datagram received, and the ``OSError`` that stopped
        the call — ``None`` both for a full ring and for a cleanly drained
        kernel queue (``EAGAIN`` on a non-blocking socket is "no more
        data", not an error).  The caller must copy each payload out
        before the next call reuses the slots.
        """
        fd = sock.fileno()
        while True:
            received = _recvmmsg(fd, self._headers, len(self.buffers), 0,
                                 None)
            if received < 0:
                err = ctypes.get_errno()
                if err == _errno.EINTR:
                    continue
                if err in (_errno.EAGAIN, _errno.EWOULDBLOCK):
                    return [], None
                return [], _os_error(err)
            views = self._header_views
            return [views[i].msg_len for i in range(received)], None
