"""FEC group assembly — turning packet streams into coded groups and back.

The encoder side (:class:`FecGroupEncoder`) collects source packets into
groups of ``k``, pads them to a common block size, and emits the ``n``
encoded :class:`~repro.fec.packets.FecPacket` objects for each full group
(the paper's "FEC Encoder" component in Figure 6).

The decoder side (:class:`FecGroupDecoder`) receives whatever subset of
those packets survived the lossy link, reconstructs each group as soon as
any ``k`` of its packets have arrived, and emits the original payloads (the
paper's "FEC Decoder").  Groups that never become decodable surrender
whatever data packets did arrive, so FEC can only improve delivery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .backend import GFBackend, resolve_backend
from .block_codes import BlockErasureCode, FecCodingError, _as_batch
from .vandermonde import _decoding_matrix_cached
from .packets import (
    FLAG_PARITY,
    FLAG_UNCODED,
    FecPacket,
    block_size_for,
    pad_block,
    unpad_block,
)


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
        if payload is None:
            raise ValueError("payload must be bytes, not None")
        self._pending.append(bytes(payload))
        self.stats.payloads_in += 1
        if len(self._pending) < self._code.k:
            return []
        return self._encode_group()

    def add_batch(self, payloads: Sequence[bytes]) -> List[FecPacket]:
        """Add many payloads at once; returns the packets of every group
        the batch completed.

        Byte- and stats-identical to calling :meth:`add` per payload, but
        all groups filled by the batch are parity-encoded *fused*: groups
        sharing a block size are hstacked into one ``(k, G*L)`` array and
        encoded by a single backend product (parity is a columnwise linear
        map, so the fused product is byte-for-byte the per-group results).
        """
        k = self._code.k
        groups: List[Tuple[int, List[bytes]]] = []
        for payload in payloads:
            if payload is None:
                raise ValueError("payload must be bytes, not None")
            self._pending.append(bytes(payload))
            self.stats.payloads_in += 1
            if len(self._pending) == k:
                full, self._pending = self._pending, []
                group_id = self._next_group_id
                self._next_group_id += 1
                block_size = block_size_for(full)
                groups.append(
                    (group_id, [pad_block(p, block_size) for p in full]))
        if not groups:
            return []
        parity_lists = self._fused_parity([blocks for _, blocks in groups])
        packets: List[FecPacket] = []
        for (group_id, blocks), parity_blocks in zip(groups, parity_lists):
            packets.extend(self._packets_for(group_id, blocks, parity_blocks))
        return packets

    def _fused_parity(self, padded: List[List[bytes]]) -> List[List[bytes]]:
        """Parity blocks for many groups, one backend product per block size."""
        parity_out: List[List[bytes]] = [[] for _ in padded]
        cohorts: Dict[int, List[int]] = {}
        for pos, blocks in enumerate(padded):
            cohorts.setdefault(len(blocks[0]), []).append(pos)
        for block_size, members in cohorts.items():
            if len(members) == 1:
                pos = members[0]
                parity = self._code.encode_parity_batch(_as_batch(padded[pos]))
                parity_out[pos] = [parity[i].tobytes()
                                   for i in range(parity.shape[0])]
                continue
            stacked = np.hstack([_as_batch(padded[pos]) for pos in members])
            parity = self._code.encode_parity_batch(stacked)
            for j, pos in enumerate(members):
                lo = j * block_size
                hi = lo + block_size
                parity_out[pos] = [parity[i, lo:hi].tobytes()
                                   for i in range(parity.shape[0])]
        return parity_out

    def _encode_group(self) -> List[FecPacket]:
        payloads, self._pending = self._pending, []
        group_id = self._next_group_id
        self._next_group_id += 1
        block_size = block_size_for(payloads)
        blocks = [pad_block(p, block_size) for p in payloads]
        # One vectorised batch product yields every parity block; the data
        # packets reuse the padded source blocks directly.
        parity = self._code.encode_parity_batch(_as_batch(blocks))
        parity_blocks = [parity[i].tobytes() for i in range(parity.shape[0])]
        return self._packets_for(group_id, blocks, parity_blocks)

    def _packets_for(self, group_id: int, blocks: List[bytes],
                     parity_blocks: List[bytes]) -> List[FecPacket]:
        """Wrap one group's encoded blocks as packets, with per-group stats."""
        packets: List[FecPacket] = []
        for index, block in enumerate(blocks + parity_blocks):
            flags = FLAG_PARITY if index >= self._code.k else 0
            packets.append(FecPacket(group_id=group_id, index=index,
                                     k=self._code.k, n=self._code.n,
                                     payload=block, flags=flags))
        self.stats.groups_encoded += 1
        self.stats.data_packets_out += self._code.k
        self.stats.parity_packets_out += self._code.n - self._code.k
        return packets

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


@dataclass
class _GroupState:
    k: int
    n: int
    received: Dict[int, bytes] = field(default_factory=dict)
    uncoded: Dict[int, bytes] = field(default_factory=dict)
    delivered: bool = False


@dataclass
class _PendingDecode:
    """A group that became decodable mid-batch, awaiting the fused algebra."""

    k: int
    n: int
    received: Dict[int, bytes]
    payloads: List[bytes] = field(default_factory=list)
    chosen: List[int] = field(default_factory=list)
    data_received: int = 0


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
        self._codes: Dict[Tuple[int, int], BlockErasureCode] = {}
        self.stats = FecDecoderStats()

    @property
    def backend_name(self) -> str:
        """Name of the GF(256) backend decoding this stream."""
        return self._backend.name

    def _code_for(self, k: int, n: int) -> BlockErasureCode:
        code = self._codes.get((k, n))
        if code is None:
            code = BlockErasureCode(k, n, backend=self._backend)
            self._codes[(k, n)] = code
        return code

    def add(self, packet: FecPacket) -> List[bytes]:
        """Process one received packet; returns recovered payloads (if any)."""
        self.stats.packets_in += 1
        if packet.is_uncoded:
            self.stats.uncoded_packets_in += 1
            self.stats.payloads_out += 1
            return [packet.payload]

        if packet.is_parity:
            self.stats.parity_packets_in += 1
        else:
            self.stats.data_packets_in += 1

        state = self._groups.get(packet.group_id)
        if state is None:
            state = self._track(packet)
        if state.delivered:
            return []
        if packet.k != state.k or packet.n != state.n:
            raise FecCodingError(
                f"group {packet.group_id} has inconsistent (n, k) parameters")
        state.received.setdefault(packet.index, packet.payload)

        if len(state.received) < state.k:
            return []
        return self._deliver(packet.group_id, state)

    def add_batch(self, packets: Sequence[FecPacket]) -> List[bytes]:
        """Process many received packets at once.

        Byte-, order- and stats-identical to calling :meth:`add` per packet
        and concatenating the results, but the algebra for every group the
        batch completes runs *fused*: groups that chose the same encoded
        indices (the common case — a clean stream always decodes from the
        k data indices, a uniformly lossy one from the same survivor set)
        are hstacked and reconstructed by one backend product.
        """
        deliveries: List[Tuple[str, object]] = []
        pending_decodes: List[_PendingDecode] = []
        for packet in packets:
            self.stats.packets_in += 1
            if packet.is_uncoded:
                self.stats.uncoded_packets_in += 1
                self.stats.payloads_out += 1
                deliveries.append(("payloads", [packet.payload]))
                continue
            if packet.is_parity:
                self.stats.parity_packets_in += 1
            else:
                self.stats.data_packets_in += 1
            state = self._groups.get(packet.group_id)
            if state is None:
                state = self._track(packet)
            if state.delivered:
                continue
            if packet.k != state.k or packet.n != state.n:
                raise FecCodingError(
                    f"group {packet.group_id} has inconsistent (n, k) parameters")
            state.received.setdefault(packet.index, packet.payload)
            if len(state.received) < state.k:
                continue
            # The group became decodable: snapshot it and mark it delivered
            # *now*, so a late same-batch packet is dropped exactly as the
            # sequential path drops it; the algebra itself is deferred so
            # same-shaped groups decode fused below.
            pending = _PendingDecode(k=state.k, n=state.n,
                                     received=state.received)
            state.delivered = True
            state.received = {}
            pending_decodes.append(pending)
            deliveries.append(("group", pending))
        if pending_decodes:
            self._decode_pending(pending_decodes)
        out: List[bytes] = []
        for kind, value in deliveries:
            if kind == "group":
                out.extend(value.payloads)
            else:
                out.extend(value)
        return out

    def _decode_pending(self, pending_decodes: List[_PendingDecode]) -> None:
        """Run the deferred reconstructions, fusing same-shaped groups.

        The cohort key is ``(k, n, chosen indices, block length)`` — groups
        sharing it use the same decode matrix on same-width columns, so one
        product over the hstacked batch is byte-identical to per-group
        decodes.
        """
        cohorts: Dict[Tuple, List[_PendingDecode]] = {}
        for pending in pending_decodes:
            received = pending.received
            data_indices = sorted(i for i in received if i < pending.k)
            if len(data_indices) == pending.k:
                # Every source block arrived — no algebra needed.
                pending.payloads = [unpad_block(received[i])
                                    for i in range(pending.k)]
                self._count_decoded(pending, pending.k)
                continue
            parity_indices = sorted(i for i in received if i >= pending.k)
            chosen = (data_indices + parity_indices)[:pending.k]
            chosen.sort()
            pending.chosen = chosen
            pending.data_received = len(data_indices)
            key = (pending.k, pending.n, tuple(chosen),
                   len(received[chosen[0]]))
            cohorts.setdefault(key, []).append(pending)
        for (k, n, chosen, _length), members in cohorts.items():
            if len(members) == 1:
                pending = members[0]
                code = self._code_for(k, n)
                blocks = code.decode(pending.received)
                pending.payloads = [unpad_block(block) for block in blocks]
                self._count_decoded(pending, pending.data_received)
                continue
            self._decode_cohort(k, n, list(chosen), members)

    def _decode_cohort(self, k: int, n: int, chosen: List[int],
                       members: List[_PendingDecode]) -> None:
        """Reconstruct many same-shaped groups with one backend product."""
        block_len = len(members[0].received[chosen[0]])
        stacked = np.hstack([
            _as_batch([member.received[i] for i in chosen])
            for member in members])
        present = {i for i in chosen if i < k}
        missing = [i for i in range(k) if i not in present]
        decode_matrix = _decoding_matrix_cached(k, n, tuple(chosen))
        rows = [decode_matrix.row(i) for i in missing]
        recovered = self._backend.apply_matrix(rows, stacked)
        for position, pending in enumerate(members):
            lo = position * block_len
            hi = lo + block_len
            sources: List[bytes] = [b""] * k
            for i in chosen:
                if i < k:
                    sources[i] = bytes(pending.received[i])
            for slot, source_index in enumerate(missing):
                sources[source_index] = recovered[slot, lo:hi].tobytes()
            pending.payloads = [unpad_block(block) for block in sources]
            self._count_decoded(pending, pending.data_received)

    def _count_decoded(self, pending: _PendingDecode, data_received: int) -> None:
        """The delivery-time stats of :meth:`_deliver`, for one fused group."""
        self.stats.groups_decoded += 1
        if data_received < pending.k:
            self.stats.groups_repaired += 1
            self.stats.payloads_recovered += pending.k - data_received
        self.stats.payloads_out += len(pending.payloads)

    def _deliver(self, group_id: int, state: _GroupState) -> List[bytes]:
        code = self._code_for(state.k, state.n)
        blocks = code.decode(state.received)
        payloads = [unpad_block(block) for block in blocks]
        data_received = sum(1 for i in state.received if i < state.k)
        state.delivered = True
        state.received.clear()
        self.stats.groups_decoded += 1
        if data_received < state.k:
            self.stats.groups_repaired += 1
            self.stats.payloads_recovered += state.k - data_received
        self.stats.payloads_out += len(payloads)
        return payloads

    def flush(self) -> List[bytes]:
        """Surrender data packets from groups that never became decodable.

        Called at end-of-stream.  For each undelivered group the payloads of
        the data packets that *did* arrive are returned in index order; lost
        packets in those groups are counted as unrecoverable.
        """
        leftovers: List[bytes] = []
        for group_id in sorted(self._groups):
            state = self._groups[group_id]
            if state.delivered:
                continue
            if state.received:
                self.stats.groups_unrecoverable += 1
            for index in sorted(state.received):
                if index < state.k:
                    leftovers.append(unpad_block(state.received[index]))
                    self.stats.payloads_out += 1
            state.received.clear()
            state.delivered = True
        return leftovers

    def _track(self, packet: FecPacket) -> _GroupState:
        """Start tracking the group of a first-seen packet, evicting the
        smallest tracked group ids while the table is over its limit.

        The heap holds exactly the table's keys (an id is pushed when its
        entry is created and popped when it is evicted, and a re-appearing
        id is a new entry), so its root is ``min()`` of the table in
        O(log n) instead of a scan per new group.
        """
        state = _GroupState(k=packet.k, n=packet.n)
        self._groups[packet.group_id] = state
        heappush(self._group_ids, packet.group_id)
        self.stats.groups_seen += 1
        while len(self._groups) > self._max_tracked:
            evicted = self._groups.pop(heappop(self._group_ids))
            if not evicted.delivered and evicted.received:
                self.stats.groups_unrecoverable += 1
        return state

    @property
    def pending_groups(self) -> int:
        """Number of groups tracked but not yet delivered."""
        return sum(1 for state in self._groups.values() if not state.delivered)
