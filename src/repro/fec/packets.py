"""Wire format for FEC-encoded packets.

Every packet emitted by the FEC encoder filter carries a small header that
identifies the (n, k) code parameters, the FEC *group* the packet belongs
to, and the packet's index within the group (indices < k are data packets,
indices >= k are parity packets).  The decoder filter uses these headers to
reassemble groups and reconstruct lost data packets.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

#: Header layout: magic and version (one u16 tag), flags, k, n, index,
#: group_id (u32).
_HEADER = struct.Struct(">HBBBBI")
HEADER_SIZE = _HEADER.size
_LENGTH = struct.Struct(">H")

FEC_MAGIC = 0xFE
FEC_VERSION = 1
_TAG = FEC_MAGIC << 8 | FEC_VERSION

#: Flag: the payload is an uncoded passthrough packet (e.g. the tail of a
#: stream that did not fill a complete group).
FLAG_UNCODED = 0x01
#: Flag: the packet is a parity packet (index >= k); informational.
FLAG_PARITY = 0x02


class FecPacketError(ValueError):
    """Raised when an FEC packet header is malformed."""


class FecPacket(NamedTuple):
    """A single FEC-encoded packet (data or parity): an immutable six-field
    value, compared and hashed by its fields.

    Attributes
    ----------
    group_id:
        Monotonically increasing identifier of the FEC group.
    index:
        Position of this packet within the group's ``n`` encoded packets.
    k, n:
        Code parameters used for the group.
    payload:
        The encoded block (padded source block for data packets, parity
        bytes for parity packets) or the raw payload for uncoded packets.
    flags:
        Bitwise OR of ``FLAG_*`` values.
    """

    group_id: int
    index: int
    k: int
    n: int
    payload: bytes
    flags: int = 0

    @property
    def is_parity(self) -> bool:
        """True when this packet carries parity rather than source data."""
        return self.index >= self.k and not self.flags & FLAG_UNCODED

    @property
    def is_data(self) -> bool:
        """True when this packet carries a (padded) source block."""
        return self.index < self.k and not self.flags & FLAG_UNCODED

    @property
    def is_uncoded(self) -> bool:
        """True when the payload bypassed FEC (stream tail / flush)."""
        return bool(self.flags & FLAG_UNCODED)

    def pack(self) -> bytes:
        """Serialise the packet (header + payload) to bytes."""
        group_id, index, k, n, payload, flags = self
        try:
            header = _HEADER.pack(_TAG, flags, k, n, index, group_id)
        except struct.error:
            # struct enforces the field widths; name the field as ever.
            self._check_ranges()
            raise
        if not (k and n):
            self._check_ranges()
        return header + payload

    def _check_ranges(self) -> None:
        if not 0 <= self.group_id <= 0xFFFFFFFF:
            raise FecPacketError(f"group_id {self.group_id} out of range")
        if not 0 <= self.index < 256 or not 0 < self.k < 256 or not 0 < self.n < 256:
            raise FecPacketError("index/k/n out of range for the wire format")

    @classmethod
    def unpack(cls, data: bytes) -> "FecPacket":
        """Parse a packet previously produced by :meth:`pack`."""
        try:
            tag, flags, k, n, index, group_id = _HEADER.unpack_from(data)
        except struct.error:
            raise FecPacketError(
                f"packet too short for FEC header ({len(data)} bytes)") from None
        if tag != _TAG:
            if tag >> 8 != FEC_MAGIC:
                raise FecPacketError(f"bad FEC magic 0x{tag >> 8:02x}")
            raise FecPacketError(f"unsupported FEC version {tag & 0xFF}")
        return tuple.__new__(cls, (group_id, index, k, n,
                                   data[HEADER_SIZE:], flags))


def pad_block(payload: bytes, block_size: int) -> bytes:
    """Prefix ``payload`` with its 16-bit length and pad to ``block_size``.

    The length prefix lets the decoder strip padding after reconstruction;
    the encoder chooses ``block_size`` as the longest payload in the group
    plus the two length bytes.
    """
    if len(payload) > 0xFFFF:
        raise FecPacketError("payload larger than 65535 bytes cannot be padded")
    prefixed = _LENGTH.pack(len(payload)) + payload
    if len(prefixed) > block_size:
        raise FecPacketError(
            f"payload of {len(payload)} bytes does not fit block size {block_size}")
    return prefixed + b"\x00" * (block_size - len(prefixed))


def unpad_block(block: bytes) -> bytes:
    """Recover the original payload from a padded block."""
    return _unpad(block, 0, len(block))


def _unpad(data: bytes, start: int, end: int) -> bytes:
    """The payload of the padded block ``data[start:end]``, sliced once.

    The block is read where it lies — inside a wire packet, behind its
    header, or inside a row of reconstructed blocks — so it is never
    copied out on its own first.
    """
    try:
        stop = start + 2 + (data[start] << 8 | data[start + 1])
    except IndexError:
        stop = end + 1
    if stop > end:
        if end - start < 2:
            raise FecPacketError("padded block shorter than its length prefix")
        raise FecPacketError(f"length prefix {stop - start - 2} exceeds "
                             f"block payload {end - start - 2}")
    return data[start + 2:stop]


def block_size_for(payloads: "list[bytes]") -> int:
    """The padded block size needed to carry every payload in a group."""
    if not payloads:
        raise FecPacketError("cannot size a block for an empty group")
    return max(len(p) for p in payloads) + 2
