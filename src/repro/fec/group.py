"""FEC group assembly — turning packet streams into coded groups and back.

The encoder side (:class:`FecGroupEncoder`) collects source packets into
groups of ``k``, length-prefixes them (padding only a ragged group), and
emits the ``n`` encoded :class:`~repro.fec.packets.FecPacket` values of each
full group (the paper's "FEC Encoder" component in Figure 6).

The decoder side (:class:`FecGroupDecoder`) receives whatever subset of
those packets survived the lossy link, reconstructs each group as soon as
any ``k`` of its packets have arrived, and emits the original payloads (the
paper's "FEC Decoder").  Groups that never become decodable surrender
whatever data packets did arrive, so FEC can only improve delivery.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from struct import error as struct_error
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .backend import GFBackend, resolve_backend
from .block_codes import BlockErasureCode, FecCodingError
from .vandermonde import MAX_GROUP_SIZE, _repair_rows
from .packets import (
    _HEADER,
    _LENGTH,
    _TAG,
    FLAG_PARITY,
    FLAG_UNCODED,
    HEADER_SIZE,
    FecPacket,
    FecPacketError,
    _unpad,
)

_new_packet = tuple.__new__

#: Where the group id sits in the wire header (see ``packets._HEADER``).
_GROUP_ID = slice(HEADER_SIZE - 4, HEADER_SIZE)


def _stacked(blocks: List[bytes], k: int, offset: int) -> np.ndarray:
    """Whole groups of k equal-length blocks, each read from ``offset`` on,
    as one ``(k, G * size)`` batch (row i holds block i of every group,
    group after group): one join and one transposing copy, however many
    groups there are — and the wire headers in front of the blocks are
    stepped over by the copy, not stripped one packet at a time."""
    frame = np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(
        -1, k, len(blocks[0]))
    return frame[:, :, offset:].transpose(1, 0, 2).reshape(k, -1)


@dataclass
class FecEncoderStats:
    """Counters maintained by :class:`FecGroupEncoder`."""

    payloads_in: int = 0
    groups_encoded: int = 0
    data_packets_out: int = 0
    parity_packets_out: int = 0
    uncoded_packets_out: int = 0

    @property
    def packets_out(self) -> int:
        return self.data_packets_out + self.parity_packets_out + self.uncoded_packets_out


class FecGroupEncoder:
    """Accumulate payloads and emit (n, k)-encoded FEC packets.

    Parameters
    ----------
    k, n:
        Erasure-code parameters; the paper's audio experiment uses (6, 4),
        i.e. ``k=4, n=6``.
    start_group_id:
        First group identifier to use (useful when resuming a stream).
    backend:
        GF(256) engine name/instance, or ``None`` for the process default.
    """

    def __init__(
        self,
        k: int,
        n: int,
        start_group_id: int = 0,
        backend: Union[str, GFBackend, None] = None,
    ) -> None:
        self._code = BlockErasureCode(k, n, backend=backend)
        #: Every packet's header but for its group id, by index.
        self._flags = [0] * k + [FLAG_PARITY] * (n - k)
        self._template = np.frombuffer(b"".join(
            _HEADER.pack(_TAG, self._flags[index], k, n, index, 0)
            for index in range(n)), dtype=np.uint8).reshape(n, HEADER_SIZE)
        self._pending: List[bytes] = []
        self._next_group_id = start_group_id
        self.stats = FecEncoderStats()

    @property
    def backend_name(self) -> str:
        """Name of the GF(256) backend encoding this stream."""
        return self._code.backend.name

    @property
    def k(self) -> int:
        return self._code.k

    @property
    def n(self) -> int:
        return self._code.n

    @property
    def pending_count(self) -> int:
        """Payloads waiting for the current group to fill."""
        return len(self._pending)

    def add(self, payload: bytes) -> List[FecPacket]:
        """Add one source payload; returns the group's packets when full.

        Until ``k`` payloads have accumulated the return value is an empty
        list; on the ``k``-th payload the full group of ``n`` packets is
        returned (data packets first, then parity).
        """
        return self.add_batch((payload,))

    def add_batch(self, payloads: Sequence[bytes],
                  out: Optional[List[FecPacket]] = None) -> List[FecPacket]:
        """Add many payloads at once; returns the packets of every group
        the batch completed, appended to ``out`` when one is given.

        The packets are cut from the same frame :meth:`add_wire` sends (see
        :meth:`_encode_groups`): a packet's payload is its wire bytes after
        the header.  When a payload is rejected, the groups completed by the
        payloads before it are still encoded, counted and appended before
        the error propagates — a caller that passed ``out`` keeps them, as
        it would have kept the results of the :meth:`add` calls before the
        offending one.
        """
        if out is None:
            out = []
        self._add(payloads, out, False)
        return out

    def add_wire(self, payloads: Sequence[bytes], out: List[bytes]) -> None:
        """:meth:`add_batch`, appending every packet already packed: the
        bytes ``FecPacket.pack()`` would give, without a ``FecPacket``."""
        self._add(payloads, out, True)

    def _add(self, payloads: Sequence[bytes], out: list, wire: bool) -> None:
        """The one encode path: queue the payloads, encode the whole groups.

        The groups are cut from the pending payloads in one slice and
        encoded in one pass; a rejected payload keeps the groups before it.
        """
        pending = self._pending
        before = len(pending)
        try:
            for payload in payloads:
                if payload is None:
                    raise ValueError("payload must be bytes, not None")
                pending.append(payload if payload.__class__ is bytes
                               else bytes(payload))
        finally:
            self.stats.payloads_in += len(pending) - before
            whole = len(pending) - len(pending) % self._code.k
            if whole:
                full = pending[:whole]
                del pending[:whole]
                self._encode_groups(full, out, wire)

    def _encode_groups(self, payloads: List[bytes], out: list,
                       wire: bool) -> None:
        """Encode whole groups (``len(payloads)`` is a multiple of k).

        Every block-size cohort of groups is written into one preallocated
        ``(G, n, HEADER_SIZE + size)`` frame, laid out exactly as the wire
        packets follow each other: the per-index header template
        (broadcast), the group-id column, the length prefixes, the joined
        payloads, and the parity the backend computes from the frame's
        data rows as one ``(k, G * size)`` product (parity is a columnwise
        linear map, so the fused product is byte-for-byte the per-group
        results).  A batch whose payloads share a length (audio: always)
        is one cohort with no padding pass; a ragged one pads each group to
        its own longest payload.  One ``tobytes()`` per cohort, then one
        slice per packet: the whole packet for the wire, the part after
        the header for a ``FecPacket``.
        """
        code = self._code
        k, n = code.k, code.n
        groups = len(payloads) // k
        lengths = list(map(len, payloads))
        longest = max(lengths)
        if longest > 0xFFFF:
            # The groups before the oversize one still go out, as they did
            # payload by payload.
            whole = next(i for i, length in enumerate(lengths)
                         if length > 0xFFFF) // k * k
            if whole:
                self._encode_groups(payloads[:whole], out, wire)
            raise FecPacketError(
                "payload larger than 65535 bytes cannot be padded")
        first_id = self._next_group_id
        self._next_group_id += groups
        stats = self.stats
        stats.groups_encoded += groups
        stats.data_packets_out += groups * k
        stats.parity_packets_out += groups * (n - k)

        # size -> the groups of that block size; None: all, in order.
        cohorts: Dict[int, Optional[List[int]]] = {}
        if longest == min(lengths):
            cohorts[longest + 2] = None
        else:
            for group in range(groups):
                size = max(lengths[group * k:group * k + k]) + 2
                cohorts.setdefault(size, []).append(group)
        # (frame bytes, packet width, first offset, end), in group order.
        segments: List = [] if None in cohorts.values() else [None] * groups
        for size, members in cohorts.items():
            data = self._frame(payloads, lengths, members, size, first_id)
            width = HEADER_SIZE + size
            if members is None:
                segments.append((data, width, 0, len(data)))
            else:
                span = n * width
                for slot, group in enumerate(members):
                    segments[group] = (data, width, slot * span,
                                       slot * span + span)

        if wire:
            if first_id < 0 or first_id + groups > 1 << 32:
                # As ``FecPacket.pack`` names the first unpackable packet.
                bad = first_id if first_id < 0 else max(first_id, 1 << 32)
                raise FecPacketError(f"group_id {bad} out of range")
            for data, width, lo, end in segments:
                out += [data[at:at + width] for at in range(lo, end, width)]
            return
        append = out.append
        group_id = first_id
        flags = self._flags
        for data, width, lo, end in segments:
            for base in range(lo, end, n * width):
                for index, flag in enumerate(flags):
                    at = base + index * width
                    append(_new_packet(FecPacket, (
                        group_id, index, k, n,
                        data[at + HEADER_SIZE:at + width], flag)))
                group_id += 1

    def _frame(self, payloads: List[bytes], lengths: List[int],
               members: Optional[List[int]], size: int,
               first_id: int) -> bytes:
        """The wire bytes of one block-size cohort: ``members`` (None: all)
        of the groups, each ``n`` packets of ``HEADER_SIZE + size`` bytes."""
        code = self._code
        k, n = code.k, code.n
        count = len(payloads) // k if members is None else len(members)
        frame = np.empty((count, n, HEADER_SIZE + size), dtype=np.uint8)
        frame[:, :, :HEADER_SIZE] = self._template
        # Group ids wrap at 32 bits here; the wire path refuses them before
        # they are sent, as ``FecPacket.pack`` does.
        ids = (np.arange(count, dtype=np.int64) if members is None
               else np.array(members, dtype=np.int64))
        ids += first_id & 0xFFFFFFFF
        frame[:, :, _GROUP_ID] = ids.astype(">u4").view(np.uint8).reshape(
            count, 1, 4)
        if members is None:
            # Every block is the shared prefix and a payload: the prefix is
            # the join's separator too.
            prefix = _LENGTH.pack(size - 2)
            blocks = prefix + prefix.join(payloads)
        else:
            pack_length = _LENGTH.pack
            blocks = b"".join([
                pack_length(length) + payload + bytes(size - 2 - length)
                for group in members
                for payload, length in zip(payloads[group * k:group * k + k],
                                           lengths[group * k:group * k + k])])
        source = frame[:, :k, HEADER_SIZE:]
        source[:] = np.frombuffer(blocks, dtype=np.uint8).reshape(
            count, k, size)
        if n > k:
            parity = code.encode_parity_batch(
                source.transpose(1, 0, 2).reshape(k, -1))
            frame[:, k:, HEADER_SIZE:] = parity.reshape(
                n - k, count, size).transpose(1, 0, 2)
        return frame.tobytes()

    def flush(self) -> List[FecPacket]:
        """Emit any partially filled group as *uncoded* packets.

        Called at end-of-stream so trailing payloads that never filled a
        group are not lost; they are sent without redundancy, exactly as the
        original unprotected stream would have sent them.
        """
        if not self._pending:
            return []
        payloads, self._pending = self._pending, []
        group_id = self._next_group_id
        self._next_group_id += 1
        packets = [FecPacket(group_id=group_id, index=index,
                             k=self._code.k, n=self._code.n,
                             payload=payload, flags=FLAG_UNCODED)
                   for index, payload in enumerate(payloads)]
        self.stats.uncoded_packets_out += len(packets)
        return packets


@dataclass
class FecDecoderStats:
    """Counters maintained by :class:`FecGroupDecoder`."""

    packets_in: int = 0
    data_packets_in: int = 0
    parity_packets_in: int = 0
    uncoded_packets_in: int = 0
    groups_seen: int = 0
    groups_decoded: int = 0
    groups_repaired: int = 0
    groups_unrecoverable: int = 0
    payloads_out: int = 0
    payloads_recovered: int = 0


class _GroupState:
    """One tracked group; ``received`` is None once it has been delivered.

    ``received`` maps an index to the packet as it arrived, its block
    starting at the decoder's offset (see :meth:`FecGroupDecoder._decode`).
    """

    __slots__ = ("k", "n", "received")

    def __init__(self, k: int, n: int) -> None:
        self.k = k
        self.n = n
        self.received: Optional[Dict[int, bytes]] = {}


class FecGroupDecoder:
    """Reassemble FEC groups and recover lost payloads.

    ``add`` returns the group's original payloads (in source order) as soon
    as the group becomes decodable — i.e. when any ``k`` of its ``n``
    packets have arrived.  Each group is delivered exactly once; late
    packets for an already-delivered group are counted and dropped.
    """

    def __init__(
        self,
        max_tracked_groups: int = 1024,
        backend: Union[str, GFBackend, None] = None,
    ) -> None:
        if max_tracked_groups < 1:
            raise ValueError("max_tracked_groups must be >= 1")
        self._groups: Dict[int, _GroupState] = {}
        self._group_ids: List[int] = []  # min-heap of the tracked ids
        self._max_tracked = max_tracked_groups
        self._backend = resolve_backend(backend)
        #: Where a tracked block starts in what ``received`` holds: 0 for
        #: ``FecPacket`` payloads, ``HEADER_SIZE`` for wire packets.
        self._offset = 0
        self.stats = FecDecoderStats()

    @property
    def backend_name(self) -> str:
        """Name of the GF(256) backend decoding this stream."""
        return self._backend.name

    def add(self, packet: FecPacket) -> List[bytes]:
        """Process one received packet; returns recovered payloads (if any)."""
        return self.add_batch((packet,))

    def add_batch(self, packets: Sequence[FecPacket],
                  out: Optional[List[bytes]] = None) -> List[bytes]:
        """Process many received packets at once; returns the payloads of
        every group they completed, appended to ``out`` when one is given.

        A group whose k data blocks all arrived is unpadded on the spot.
        The others wait for the end of the batch, where groups that chose
        the same encoded indices (a uniformly lossy stream decodes from the
        same few survivor sets) are reconstructed by one backend product.
        When a packet is rejected, what the packets before it completed is
        still decoded, counted and appended before the error propagates; a
        repair the algebra itself shows to be garbage surfaces once the
        batch is tracked, after the deliveries that precede it.
        """
        if out is None:
            out = []
        self._decode(packets, 0, out, None)
        return out

    def add_wire(self, packets: Sequence[bytes], out: List[bytes],
                 stray: Callable[[bytes], bool]) -> None:
        """:meth:`add_batch` straight from the wire: packed packets in,
        payloads appended to ``out``, no ``FecPacket`` in between.

        A packet that is not an FEC packet (too short for the header, or a
        foreign magic or version) ends the run of FEC packets before it —
        which is decoded and delivered first, as a batch of its own — and
        goes to ``stray``; it is appended to ``out`` in its place when
        ``stray`` returns True.
        """
        self._decode(packets, HEADER_SIZE, out, stray)

    def _decode(self, packets, offset: int, out: List[bytes],
                stray: Optional[Callable[[bytes], bool]]) -> None:
        """The one decode path, from packets whose blocks start at
        ``offset``: ``FecPacket`` values (0) or wire packets (``HEADER_SIZE``,
        parsed here with one header unpack each)."""
        if offset != self._offset:
            self._rebase(offset)
        packets = iter(packets)
        while True:
            foreign = self._decode_run(packets, offset, out)
            if foreign is None:
                return
            if stray(foreign):
                out.append(foreign)

    def _decode_run(self, packets, offset: int, out: List[bytes]):
        """Decode packets up to the first foreign one, which is returned
        (``None`` at the end); the run is delivered before it."""
        groups = self._groups
        unpack = _HEADER.unpack_from
        # In arrival order: a group's payloads, or a placeholder that the
        # repair turns into them (or into the error it ended in).
        deliveries: List[Union[List[bytes], Exception, None]] = []
        # (k, n, indices, width) -> [(packets, place among the deliveries)]
        repairs: Dict[Tuple, List[Tuple[Dict[int, bytes], int]]] = {}
        seen = parity = uncoded = decoded = 0
        try:
            for packet in packets:
                if offset:
                    try:
                        tag, flags, k, n, index, group_id = unpack(packet)
                    except struct_error:
                        return packet
                    if tag != _TAG:
                        return packet
                else:
                    group_id, index, k, n, packet, flags = packet
                seen += 1
                if flags & FLAG_UNCODED:
                    uncoded += 1
                    deliveries.append([packet[offset:]])
                    continue
                if index >= k:
                    parity += 1
                state = groups.get(group_id)
                if state is None:
                    state = self._track(group_id, k, n)
                received = state.received
                if received is None:
                    continue  # late packet of a delivered group
                if k != state.k or n != state.n:
                    raise FecCodingError(
                        f"group {group_id} has inconsistent (n, k) parameters")
                if index in received:
                    continue
                received[index] = packet
                if len(received) < k:
                    continue
                # Decodable from exactly these k blocks.  Delivered *now*,
                # so a late packet in this same batch is dropped as such.
                state.received = None
                chosen = sorted(received)
                last = chosen[-1]
                if not (0 < k <= n <= MAX_GROUP_SIZE and last < n):
                    raise FecCodingError(
                        f"group {group_id}: blocks {tuple(chosen)} are not "
                        f"of a valid (n={n}, k={k}) code word")
                if last < k:
                    # Every data block arrived: each payload is sliced out
                    # of its packet behind the length prefix, read in place
                    # (``_unpad`` raises what a block that lies deserves).
                    payloads = []
                    for block in map(received.__getitem__, chosen):
                        try:
                            stop = offset + 2 + (block[offset] << 8
                                                 | block[offset + 1])
                        except IndexError:
                            stop = len(block) + 1
                        if stop > len(block):
                            _unpad(block, offset, len(block))
                        payloads.append(block[offset + 2:stop])
                    deliveries.append(payloads)
                    decoded += 1
                else:
                    if len(set(map(len, received.values()))) != 1:
                        raise FecCodingError(
                            f"group {group_id} has blocks of unequal length")
                    if len(packet) - offset < 2:
                        raise FecPacketError(
                            "padded block shorter than its length prefix")
                    repairs.setdefault(
                        (k, n, tuple(chosen), len(packet)), []
                    ).append((received, len(deliveries)))
                    deliveries.append(None)
            return None
        finally:
            stats = self.stats
            stats.packets_in += seen
            stats.parity_packets_in += parity
            stats.uncoded_packets_in += uncoded
            stats.data_packets_in += seen - parity - uncoded
            stats.groups_decoded += decoded
            self._repair(repairs, deliveries, offset)
            for payloads in deliveries:
                if isinstance(payloads, Exception):
                    raise payloads
                out += payloads
                stats.payloads_out += len(payloads)

    def _repair(self, repairs, deliveries, offset: int) -> None:
        """Reconstruct the deferred groups, one backend product per cohort.

        The cohort key is ``(k, n, chosen indices, packet length)``: groups
        sharing it use the same decode matrix on same-width columns, so one
        product over the joined batch — stacked from the packets as they
        arrived, read from ``offset`` on — is byte-identical to per-group
        decodes.  Each payload is sliced once, from its packet or from the
        row of rebuilt blocks.  A group whose repair is garbage gets the
        error as its delivery.
        """
        stats = self.stats
        for (k, n, chosen, width), members in repairs.items():
            missing, rows = _repair_rows(k, n, chosen)
            size = width - offset
            span = len(members) * size
            solved = self._backend.apply_matrix(rows, _stacked(
                [received[i] for received, _ in members for i in chosen],
                k, offset)).tobytes()
            for slot, (received, position) in enumerate(members):
                payloads = []
                # Rebuilt block r of this group: row r of ``solved``.
                lo = slot * size
                try:
                    for i in range(k):
                        block = received.get(i)
                        if block is None:
                            payloads.append(_unpad(solved, lo, lo + size))
                            lo += span
                        else:
                            payloads.append(_unpad(block, offset, width))
                except FecPacketError as exc:
                    deliveries[position] = exc
                    continue
                deliveries[position] = payloads
                stats.groups_decoded += 1
                stats.groups_repaired += 1
                stats.payloads_recovered += len(missing)

    def flush(self) -> List[bytes]:
        """Surrender data packets from groups that never became decodable.

        Called at end-of-stream.  For each undelivered group the payloads of
        the data packets that *did* arrive are returned in index order; lost
        packets in those groups are counted as unrecoverable.
        """
        leftovers: List[bytes] = []
        offset = self._offset
        for group_id in sorted(self._groups):
            state = self._groups[group_id]
            received = state.received
            if received is None:
                continue
            self.stats.groups_unrecoverable += 1
            for index in sorted(received):
                if index < state.k:
                    block = received[index]
                    leftovers.append(_unpad(block, offset, len(block)))
                    self.stats.payloads_out += 1
            state.received = None
        return leftovers

    def _rebase(self, offset: int) -> None:
        """Switch what tracked groups hold between ``FecPacket`` payloads
        and wire packets (a decoder fed both ways; never on a hot path).
        Only the block after the header is ever read, so a zero header
        stands in for the one a payload lost."""
        for state in self._groups.values():
            if state.received:
                state.received = {
                    index: block[self._offset:] if offset == 0
                    else bytes(HEADER_SIZE) + block
                    for index, block in state.received.items()}
        self._offset = offset

    def _track(self, group_id: int, k: int, n: int) -> _GroupState:
        """Start tracking the group of a first-seen packet, evicting the
        smallest tracked group ids while the table is over its limit.

        The heap holds exactly the table's keys (an id is pushed when its
        entry is created and popped when it is evicted, and a re-appearing
        id is a new entry), so its root is ``min()`` of the table in
        O(log n) instead of a scan per new group.
        """
        state = _GroupState(k, n)
        self._groups[group_id] = state
        heappush(self._group_ids, group_id)
        self.stats.groups_seen += 1
        while len(self._groups) > self._max_tracked:
            evicted = self._groups.pop(heappop(self._group_ids))
            if evicted.received:
                self.stats.groups_unrecoverable += 1
        return state

    @property
    def pending_groups(self) -> int:
        """Number of groups tracked but not yet delivered."""
        return sum(1 for state in self._groups.values()
                   if state.received is not None)

