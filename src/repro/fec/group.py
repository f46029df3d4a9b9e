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
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .backend import GFBackend, resolve_backend
from .block_codes import BlockErasureCode, FecCodingError
from .vandermonde import MAX_GROUP_SIZE, _decoding_matrix_cached
from .packets import (
    _LENGTH,
    FLAG_PARITY,
    FLAG_UNCODED,
    FecPacket,
    FecPacketError,
    unpad_block,
)

_new_packet = tuple.__new__


def _stacked(blocks: List[bytes], k: int, size: int) -> np.ndarray:
    """Whole groups of k ``size``-byte blocks as one ``(k, G * size)`` batch
    (row i holds block i of every group, group after group): one join and
    one transposing copy, however many groups there are."""
    return np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(
        -1, k, size).transpose(1, 0, 2).reshape(k, -1)


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

        The groups are cut from the pending payloads in one slice and
        encoded in one pass (see :meth:`_encode_groups`).  When a payload
        is rejected, the groups completed by the payloads before it are
        still encoded, counted and appended before the error propagates —
        a caller that passed ``out`` keeps them, as it would have kept the
        results of the :meth:`add` calls before the offending one.
        """
        if out is None:
            out = []
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
                self._encode_groups(full, out)
        return out

    def _encode_groups(self, payloads: List[bytes],
                       out: List[FecPacket]) -> None:
        """Encode whole groups (``len(payloads)`` is a multiple of k).

        Lengths are measured once.  A batch whose payloads share a length
        (audio: always) gets one length prefix and no padding pass; a
        ragged one pads each group to its own longest payload.  Every
        block-size cohort reaches the backend as one joined ``(k, G*L)``
        array (parity is a columnwise linear map, so the fused product is
        byte-for-byte the per-group results) and its parity comes back
        through one ``tobytes()``.
        """
        k, n = self._code.k, self._code.n
        groups = len(payloads) // k
        lengths = list(map(len, payloads))
        longest = max(lengths)
        if longest > 0xFFFF:
            # The groups before the oversize one still go out, as they did
            # payload by payload.
            whole = next(i for i, length in enumerate(lengths)
                         if length > 0xFFFF) // k * k
            if whole:
                self._encode_groups(payloads[:whole], out)
            raise FecPacketError(
                "payload larger than 65535 bytes cannot be padded")
        cohorts: Dict[int, Sequence[int]] = {}
        if longest == min(lengths):
            prefix = _LENGTH.pack(longest)
            blocks = [prefix + payload for payload in payloads]
            cohorts[longest + 2] = range(groups)
        else:
            pack_length = _LENGTH.pack
            blocks = []
            for group in range(groups):
                members = slice(group * k, group * k + k)
                size = max(lengths[members]) + 2
                cohorts.setdefault(size, []).append(group)
                blocks += [pack_length(length) + payload
                           + bytes(size - 2 - length)
                           for payload, length in zip(payloads[members],
                                                      lengths[members])]
        parity: List[List[bytes]] = [[]] * groups
        for size, members in cohorts.items():
            coded = self._code.encode_parity_batch(_stacked(
                blocks if len(members) == groups else
                [blocks[g * k + i] for g in members for i in range(k)],
                k, size)).tobytes()
            span = len(members) * size
            for slot, group in enumerate(members):
                parity[group] = [coded[lo:lo + size] for lo in
                                 range(slot * size, len(coded), span)]
        first_id = self._next_group_id
        self._next_group_id += groups
        append = out.append
        for group in range(groups):
            for index, block in enumerate(
                    blocks[group * k:group * k + k] + parity[group]):
                append(_new_packet(FecPacket, (
                    first_id + group, index, k, n, block,
                    FLAG_PARITY if index >= k else 0)))
        stats = self.stats
        stats.groups_encoded += groups
        stats.data_packets_out += groups * k
        stats.parity_packets_out += groups * (n - k)

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
    """One tracked group; ``received`` is None once it has been delivered."""

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
        groups = self._groups
        # In arrival order: a group's payloads, or a placeholder that the
        # repair turns into them (or into the error it ended in).
        deliveries: List[Union[List[bytes], Exception, None]] = []
        # (k, n, indices, size) -> [(blocks, place among the deliveries)]
        repairs: Dict[Tuple, List[Tuple[Dict[int, bytes], int]]] = {}
        seen = parity = uncoded = decoded = 0
        try:
            for group_id, index, k, n, payload, flags in packets:
                seen += 1
                if flags & FLAG_UNCODED:
                    uncoded += 1
                    deliveries.append([payload])
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
                received[index] = payload
                if len(received) < k:
                    continue
                # Decodable from exactly these k blocks.  Delivered *now*,
                # so a late packet in this same batch is dropped as such.
                state.received = None
                chosen = tuple(sorted(received))
                if not (0 < k <= n <= MAX_GROUP_SIZE and chosen[-1] < n):
                    raise FecCodingError(
                        f"group {group_id}: blocks {chosen} are not of a "
                        f"valid (n={n}, k={k}) code word")
                if chosen[-1] < k:
                    deliveries.append(
                        [unpad_block(received[i]) for i in chosen])
                    decoded += 1
                else:
                    if len(set(map(len, received.values()))) != 1:
                        raise FecCodingError(
                            f"group {group_id} has blocks of unequal length")
                    if len(payload) < 2:
                        raise FecPacketError(
                            "padded block shorter than its length prefix")
                    repairs.setdefault(
                        (k, n, chosen, len(payload)), []
                    ).append((received, len(deliveries)))
                    deliveries.append(None)
        finally:
            stats = self.stats
            stats.packets_in += seen
            stats.parity_packets_in += parity
            stats.uncoded_packets_in += uncoded
            stats.data_packets_in += seen - parity - uncoded
            stats.groups_decoded += decoded
            self._repair(repairs, deliveries)
            for payloads in deliveries:
                if isinstance(payloads, Exception):
                    raise payloads
                out += payloads
                stats.payloads_out += len(payloads)
        return out

    def _repair(self, repairs, deliveries) -> None:
        """Reconstruct the deferred groups, one backend product per cohort.

        The cohort key is ``(k, n, chosen indices, block length)``: groups
        sharing it use the same decode matrix on same-width columns, so one
        product over the joined batch is byte-identical to per-group
        decodes.  A group whose repair is garbage gets the error as its
        delivery.
        """
        stats = self.stats
        for (k, n, chosen, size), members in repairs.items():
            missing = [i for i in range(k) if i not in chosen]
            matrix = _decoding_matrix_cached(k, n, chosen)
            span = len(members) * size
            solved = self._backend.apply_matrix(
                [matrix.row(i) for i in missing],
                _stacked([received[i] for received, _ in members
                          for i in chosen], k, size)).tobytes()
            for slot, (received, position) in enumerate(members):
                for row, i in enumerate(missing):
                    lo = row * span + slot * size
                    received[i] = solved[lo:lo + size]
                try:
                    deliveries[position] = [unpad_block(received[i])
                                            for i in range(k)]
                except FecPacketError as exc:
                    deliveries[position] = exc
                    continue
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
        for group_id in sorted(self._groups):
            state = self._groups[group_id]
            received = state.received
            if received is None:
                continue
            self.stats.groups_unrecoverable += 1
            for index in sorted(received):
                if index < state.k:
                    leftovers.append(unpad_block(received[index]))
                    self.stats.payloads_out += 1
            state.received = None
        return leftovers

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

