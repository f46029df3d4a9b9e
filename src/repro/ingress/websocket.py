"""A minimal stdlib RFC 6455 WebSocket codec.

Covers exactly what the ingress front door needs: the handshake accept
key, an incremental frame parser, and frame encoding for both roles —
the server side (unmasked out, masked in) and the client side (masked
out), so the tests and the README one-liners can speak to the server
with no external dependency.

Fragmentation is supported on the parse side (continuation frames are
reassembled per RFC 6455 §5.4); the encoder always emits single
unfragmented frames, which every peer must accept.
"""

from __future__ import annotations

import base64
import hashlib
import os
import struct
from typing import Iterator, List, Optional, Tuple

__all__ = [
    "OP_CONT",
    "OP_TEXT",
    "OP_BINARY",
    "OP_CLOSE",
    "OP_PING",
    "OP_PONG",
    "WebSocketProtocolError",
    "accept_key",
    "encode_frame",
    "close_payload",
    "FrameParser",
]

#: RFC 6455 §1.3 — the fixed GUID appended to the client key.
_ACCEPT_GUID = b"258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

_CONTROL_OPS = (OP_CLOSE, OP_PING, OP_PONG)
_KNOWN_OPS = (OP_CONT, OP_TEXT, OP_BINARY) + _CONTROL_OPS

#: Upper bound on one (reassembled) message.
MAX_MESSAGE_BYTES = 16 * 1024 * 1024


class WebSocketProtocolError(Exception):
    """The peer violated the subset of RFC 6455 this codec enforces."""


def accept_key(client_key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a client's key (RFC 6455 §4)."""
    digest = hashlib.sha1(client_key.strip().encode("ascii") + _ACCEPT_GUID)
    return base64.b64encode(digest.digest()).decode("ascii")


def _mask(payload: bytes, key: bytes) -> bytes:
    """Apply (or remove — XOR is its own inverse) a 4-byte frame mask."""
    if not payload:
        return payload
    repeated = (key * (len(payload) // 4 + 1))[:len(payload)]
    return bytes(a ^ b for a, b in zip(payload, repeated))


def encode_frame(opcode: int, payload: bytes = b"", fin: bool = True,
                 mask: bool = False) -> bytes:
    """One wire frame.  Servers send unmasked; clients must set ``mask``."""
    if opcode in _CONTROL_OPS and len(payload) > 125:
        raise WebSocketProtocolError("control frame payload exceeds 125 bytes")
    head = bytearray()
    head.append((0x80 if fin else 0x00) | (opcode & 0x0F))
    mask_bit = 0x80 if mask else 0x00
    length = len(payload)
    if length < 126:
        head.append(mask_bit | length)
    elif length < 1 << 16:
        head.append(mask_bit | 126)
        head += struct.pack("!H", length)
    else:
        head.append(mask_bit | 127)
        head += struct.pack("!Q", length)
    if mask:
        key = os.urandom(4)
        return bytes(head) + key + _mask(payload, key)
    return bytes(head) + payload


def close_payload(code: int = 1000, reason: str = "") -> bytes:
    """The payload of a Close frame: status code plus optional reason."""
    return struct.pack("!H", code) + reason.encode("utf-8")[:123]


class FrameParser:
    """Incremental RFC 6455 frame parser (both masked and unmasked input).

    Feed arbitrary byte slices with :meth:`feed`; complete *messages* come
    out — data fragments are reassembled across continuation frames, and
    control frames (which may interleave with a fragmented message) are
    surfaced as soon as they complete.  Each yielded item is
    ``(opcode, payload)`` where ``opcode`` is the message's original
    opcode (never ``OP_CONT``).
    """

    def __init__(self, require_masked: bool = False) -> None:
        #: Servers set ``require_masked`` — RFC 6455 §5.1 obliges clients
        #: to mask every frame, and obliges servers to enforce it.
        self.require_masked = require_masked
        self._buffer = bytearray()
        self._fragments: List[bytes] = []
        self._fragment_opcode: Optional[int] = None

    def feed(self, data: bytes) -> List[Tuple[int, bytes]]:
        """Consume ``data``; return every message it completed."""
        self._buffer += data
        return list(self._drain())

    def _drain(self) -> Iterator[Tuple[int, bytes]]:
        while True:
            frame = self._parse_one()
            if frame is None:
                return
            fin, opcode, payload = frame
            if opcode in _CONTROL_OPS:
                if not fin:
                    raise WebSocketProtocolError(
                        "fragmented control frame")
                yield opcode, payload
                continue
            if opcode == OP_CONT:
                if self._fragment_opcode is None:
                    raise WebSocketProtocolError(
                        "continuation frame without a message in progress")
            else:
                if self._fragment_opcode is not None:
                    raise WebSocketProtocolError(
                        "new data frame while a message is in progress")
                self._fragment_opcode = opcode
            self._fragments.append(payload)
            if sum(map(len, self._fragments)) > MAX_MESSAGE_BYTES:
                raise WebSocketProtocolError("message exceeds size limit")
            if fin:
                message = b"".join(self._fragments)
                message_opcode = self._fragment_opcode
                self._fragments = []
                self._fragment_opcode = None
                yield message_opcode, message

    def _parse_one(self) -> Optional[Tuple[bool, int, bytes]]:
        """Pop one complete frame off the buffer, or None to await bytes."""
        buf = self._buffer
        if len(buf) < 2:
            return None
        first, second = buf[0], buf[1]
        if first & 0x70:
            raise WebSocketProtocolError("unexpected RSV bits")
        fin = bool(first & 0x80)
        opcode = first & 0x0F
        if opcode not in _KNOWN_OPS:
            # RFC 6455 §5.2: a reserved opcode fails the connection.
            raise WebSocketProtocolError(f"reserved opcode 0x{opcode:x}")
        masked = bool(second & 0x80)
        if self.require_masked and not masked:
            raise WebSocketProtocolError("client frames must be masked")
        length = second & 0x7F
        offset = 2
        if length == 126:
            if len(buf) < 4:
                return None
            (length,) = struct.unpack_from("!H", buf, 2)
            offset = 4
        elif length == 127:
            if len(buf) < 10:
                return None
            (length,) = struct.unpack_from("!Q", buf, 2)
            offset = 10
        if length > MAX_MESSAGE_BYTES:
            raise WebSocketProtocolError("frame exceeds size limit")
        if opcode in _CONTROL_OPS and length > 125:
            # RFC 6455 §5.5: control frames carry at most 125 bytes.
            raise WebSocketProtocolError(
                "control frame payload exceeds 125 bytes")
        key = b""
        if masked:
            if len(buf) < offset + 4:
                return None
            key = bytes(buf[offset:offset + 4])
            offset += 4
        if len(buf) < offset + length:
            return None
        payload = bytes(buf[offset:offset + length])
        del buf[:offset + length]
        if masked:
            payload = _mask(payload, key)
        return fin, opcode, payload
