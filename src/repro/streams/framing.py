"""Packet framing over detachable byte streams.

Detachable streams carry raw bytes (they are modelled on Java I/O streams).
Many proxy filters, however, operate on *packets* — audio packets, FEC
groups, multicast datagrams.  This module provides a simple length-prefixed
framing layer so packet-oriented filters can be composed over the same
detachable-stream plumbing:

* each frame is ``MAGIC (1 byte) | length (4 bytes, big-endian) | payload``;
* the magic byte catches de-synchronisation (e.g. a filter that corrupted
  the byte stream) early rather than silently mis-parsing lengths;
* :class:`FrameWriter` / :class:`FrameReader` wrap a DOS / DIS respectively;
* :func:`encode_frame` / :class:`FrameDecoder` are the stateless /
  incremental building blocks used by the network simulator and the tests.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Deque, Iterator, List, Optional

from .detachable import DetachableInputStream, DetachableOutputStream
from .exceptions import FramingError, StreamTimeoutError

#: Single sync byte prepended to every frame.
FRAME_MAGIC = 0xC5

#: Frames larger than this are rejected — catches corrupted length fields.
MAX_FRAME_SIZE = 16 * 1024 * 1024

_HEADER = struct.Struct(">BI")
HEADER_SIZE = _HEADER.size


def encode_frame(payload: bytes) -> bytes:
    """Encode a payload into a single framed byte string."""
    if payload is None:
        raise ValueError("payload must be bytes, not None")
    length = len(payload)
    if length > MAX_FRAME_SIZE:
        raise FramingError(f"frame of {length} bytes exceeds MAX_FRAME_SIZE")
    # One concatenation, one copy: bytes-like payloads (views included) are
    # read through the buffer protocol, never materialised first.
    return _HEADER.pack(FRAME_MAGIC, length) + payload


def encode_frame_batch(payloads: "List[bytes]") -> "List[bytes]":
    """Frame every payload of a batch: ``[encode_frame(p) for p in payloads]``,
    with the size check run once over the batch."""
    if payloads and max(map(len, payloads)) > MAX_FRAME_SIZE:
        raise FramingError(
            f"frame of {max(map(len, payloads))} bytes exceeds MAX_FRAME_SIZE")
    pack = _HEADER.pack
    return [pack(FRAME_MAGIC, len(payload)) + payload for payload in payloads]


def encode_frames(payloads: "List[bytes]") -> bytes:
    """Encode several payloads back-to-back into one byte string."""
    return b"".join(encode_frame(p) for p in payloads)


class FrameDecoder:
    """Incremental frame decoder.

    Feed arbitrary byte chunks with :meth:`feed` (or a list of them with
    :meth:`feed_many`), which returns the payloads each chunk completes and
    keeps only the partial frame.  The decoder tolerates frames split across
    chunk boundaries, which is exactly what happens when a byte-oriented
    filter sits between two packet filters; while nothing is buffered,
    frames are sliced straight out of the chunk that carries them and the
    internal buffer is never touched.
    """

    def __init__(self) -> None:
        self._pending = bytearray()
        self.frames_decoded = 0
        self.bytes_consumed = 0
        self.chunks_consumed = 0

    def feed(self, chunk: bytes) -> List[bytes]:
        """Add ``chunk`` and return the list of payloads completed by it."""
        self.chunks_consumed += 1
        self.bytes_consumed += len(chunk)
        pending = self._pending
        if pending:
            pending.extend(chunk)
            data = pending
        else:
            # Nothing buffered: parse the chunk in place and buffer only
            # the partial frame it may end with.
            data = chunk if chunk.__class__ is bytes else memoryview(chunk)
        out: List[bytes] = []
        pos = 0
        end = len(data)
        try:
            while end - pos >= HEADER_SIZE:
                magic, length = _HEADER.unpack_from(data, pos)
                if magic != FRAME_MAGIC:
                    raise FramingError(
                        f"bad frame magic 0x{magic:02x} (stream out of sync)")
                if length > MAX_FRAME_SIZE:
                    raise FramingError(
                        f"frame length {length} exceeds MAX_FRAME_SIZE")
                stop = pos + HEADER_SIZE + length
                if stop > end:
                    break
                payload = data[pos + HEADER_SIZE:stop]
                out.append(payload if payload.__class__ is bytes
                           else bytes(payload))
                pos = stop
        finally:
            # Also on a framing error: the frames before the bad one count
            # and the bad frame stays buffered, as a per-frame parse leaves it.
            self.frames_decoded += len(out)
            if data is pending:
                del pending[:pos]
            elif pos < end:
                pending.extend(data[pos:])
        return out

    def feed_many(self, chunks: "List[bytes]") -> List[bytes]:
        """Decode a batch of chunks: ``feed`` per chunk, concatenated.

        The whole-frame path: while nothing is buffered, a ``bytes`` chunk
        that is exactly one frame — what every packet writer hands over —
        is validated and its payload taken with one slice.  Anything else
        (a split frame, several frames in a chunk, a bad header, a view)
        goes through :meth:`feed`, chunk by chunk, until the buffer is
        empty again.
        """
        out: List[bytes] = []
        append = out.append
        unpack_from = _HEADER.unpack_from
        pending = self._pending
        whole = whole_bytes = 0
        try:
            for chunk in chunks:
                if not pending and chunk.__class__ is bytes:
                    size = len(chunk)
                    if size >= HEADER_SIZE:
                        magic, length = unpack_from(chunk)
                        if (length == size - HEADER_SIZE
                                and magic == FRAME_MAGIC
                                and length <= MAX_FRAME_SIZE):
                            append(chunk[HEADER_SIZE:])
                            whole += 1
                            whole_bytes += size
                            continue
                out.extend(self.feed(chunk))
        finally:
            self.frames_decoded += whole
            self.bytes_consumed += whole_bytes
            self.chunks_consumed += whole
        return out

    def packets(self) -> List[bytes]:
        """Return the decoded-but-unclaimed payloads: always none.

        :meth:`feed` hands every payload to its caller and retains nothing
        (retaining them too grew a framed stream by one payload per packet,
        for ever, since no consumer claimed them here).  Kept callable for
        code written against the retaining decoder.
        """
        return []

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered that do not yet form a complete frame."""
        return len(self._pending)

    def has_partial_frame(self) -> bool:
        return bool(self._pending)


class FrameWriter:
    """Write framed packets onto a :class:`DetachableOutputStream`."""

    def __init__(self, dos: DetachableOutputStream) -> None:
        self._dos = dos
        self.packets_written = 0

    @property
    def stream(self) -> DetachableOutputStream:
        return self._dos

    def write_packet(self, payload: bytes, timeout: Optional[float] = None) -> None:
        """Frame ``payload`` and write it to the underlying stream."""
        self._dos.write(encode_frame(payload), timeout=timeout)
        self.packets_written += 1

    def write_packets(self, payloads: "List[bytes]",
                      timeout: Optional[float] = None) -> None:
        for payload in payloads:
            self.write_packet(payload, timeout=timeout)

    def flush(self) -> None:
        self._dos.flush()

    def close(self) -> None:
        self._dos.close()


class FrameReader:
    """Read framed packets from a :class:`DetachableInputStream`.

    ``read_packet`` blocks until a complete frame is available, raises
    :class:`StreamTimeoutError` when ``timeout`` elapses first, and returns
    ``None`` at end-of-stream.  A truncated trailing frame at end-of-stream
    raises :class:`FramingError` because it means data was lost mid-frame.
    """

    def __init__(self, dis: DetachableInputStream) -> None:
        self._dis = dis
        self._decoder = FrameDecoder()
        self._queue: Deque[bytes] = deque()
        self.packets_read = 0

    @property
    def stream(self) -> DetachableInputStream:
        return self._dis

    def read_packet(self, timeout: Optional[float] = None) -> Optional[bytes]:
        """Return the next payload, ``None`` at end-of-stream."""
        while not self._queue:
            try:
                chunk = self._dis.read(65536, timeout=timeout)
            except StreamTimeoutError:
                raise
            if chunk == b"":
                if self._decoder.has_partial_frame():
                    raise FramingError(
                        "end of stream inside a frame "
                        f"({self._decoder.pending_bytes} bytes pending)")
                return None
            self._queue.extend(self._decoder.feed(chunk))
        self.packets_read += 1
        return self._queue.popleft()

    def read_all(self, timeout: Optional[float] = None) -> List[bytes]:
        """Drain the stream to end-of-stream and return every payload."""
        out: List[bytes] = []
        while True:
            packet = self.read_packet(timeout=timeout)
            if packet is None:
                return out
            out.append(packet)

    def __iter__(self) -> Iterator[bytes]:
        while True:
            packet = self.read_packet()
            if packet is None:
                return
            yield packet
