"""Unit tests for FEC group encoding/decoding and the packet wire format."""

import random

import pytest

from repro.fec import (
    FLAG_UNCODED,
    FecGroupDecoder,
    FecGroupEncoder,
    FecPacket,
    FecPacketError,
    block_size_for,
    pad_block,
    unpad_block,
)


class TestPacketWireFormat:
    def test_pack_unpack_round_trip(self):
        packet = FecPacket(group_id=42, index=3, k=4, n=6, payload=b"payload", flags=0)
        assert FecPacket.unpack(packet.pack()) == packet

    def test_parity_flag_semantics(self):
        data = FecPacket(group_id=0, index=1, k=4, n=6, payload=b"d")
        parity = FecPacket(group_id=0, index=5, k=4, n=6, payload=b"p")
        uncoded = FecPacket(group_id=0, index=0, k=4, n=6, payload=b"u", flags=FLAG_UNCODED)
        assert data.is_data and not data.is_parity
        assert parity.is_parity and not parity.is_data
        assert uncoded.is_uncoded and not uncoded.is_data and not uncoded.is_parity

    def test_unpack_rejects_short_packet(self):
        with pytest.raises(FecPacketError):
            FecPacket.unpack(b"\xfe\x01")

    def test_unpack_rejects_bad_magic(self):
        packet = FecPacket(group_id=1, index=0, k=2, n=3, payload=b"x").pack()
        with pytest.raises(FecPacketError):
            FecPacket.unpack(b"\x00" + packet[1:])

    def test_pack_rejects_out_of_range_fields(self):
        with pytest.raises(FecPacketError):
            FecPacket(group_id=2 ** 40, index=0, k=2, n=3, payload=b"").pack()
        with pytest.raises(FecPacketError):
            FecPacket(group_id=0, index=300, k=2, n=3, payload=b"").pack()

    def test_pad_unpad_round_trip(self):
        block = pad_block(b"hello", 16)
        assert len(block) == 16
        assert unpad_block(block) == b"hello"

    def test_pad_rejects_too_small_block(self):
        with pytest.raises(FecPacketError):
            pad_block(b"too long for this", 4)

    def test_unpad_rejects_corrupt_length(self):
        with pytest.raises(FecPacketError):
            unpad_block(b"\xff\xff\x00")

    def test_block_size_for_group(self):
        assert block_size_for([b"ab", b"abcd", b"a"]) == 6
        with pytest.raises(FecPacketError):
            block_size_for([])


class TestGroupEncoder:
    def test_emits_nothing_until_group_full(self):
        encoder = FecGroupEncoder(k=4, n=6)
        assert encoder.add(b"p0") == []
        assert encoder.add(b"p1") == []
        assert encoder.add(b"p2") == []
        packets = encoder.add(b"p3")
        assert len(packets) == 6

    def test_group_packet_metadata(self):
        encoder = FecGroupEncoder(k=2, n=3)
        encoder.add(b"a")
        packets = encoder.add(b"b")
        assert [p.index for p in packets] == [0, 1, 2]
        assert all(p.group_id == 0 for p in packets)
        assert packets[2].is_parity
        more = encoder.add(b"c")
        assert more == []

    def test_group_ids_increment(self):
        encoder = FecGroupEncoder(k=1, n=2)
        first = encoder.add(b"x")
        second = encoder.add(b"y")
        assert first[0].group_id == 0
        assert second[0].group_id == 1

    def test_start_group_id_respected(self):
        encoder = FecGroupEncoder(k=1, n=1, start_group_id=100)
        assert encoder.add(b"x")[0].group_id == 100

    def test_variable_length_payloads_padded(self):
        encoder = FecGroupEncoder(k=2, n=4)
        encoder.add(b"short")
        packets = encoder.add(b"a much longer payload")
        lengths = {len(p.payload) for p in packets}
        assert len(lengths) == 1  # every block padded to the same size

    def test_flush_emits_uncoded_tail(self):
        encoder = FecGroupEncoder(k=4, n=6)
        encoder.add(b"tail-0")
        encoder.add(b"tail-1")
        tail = encoder.flush()
        assert len(tail) == 2
        assert all(p.is_uncoded for p in tail)
        assert [p.payload for p in tail] == [b"tail-0", b"tail-1"]

    def test_flush_when_empty_returns_nothing(self):
        encoder = FecGroupEncoder(k=4, n=6)
        assert encoder.flush() == []

    def test_stats(self):
        encoder = FecGroupEncoder(k=2, n=3)
        encoder.add(b"a")
        encoder.add(b"b")
        encoder.add(b"c")
        encoder.flush()
        assert encoder.stats.payloads_in == 3
        assert encoder.stats.groups_encoded == 1
        assert encoder.stats.data_packets_out == 2
        assert encoder.stats.parity_packets_out == 1
        assert encoder.stats.uncoded_packets_out == 1
        assert encoder.stats.packets_out == 4


class TestGroupDecoder:
    def encode_group(self, payloads, k=4, n=6):
        encoder = FecGroupEncoder(k=k, n=n)
        packets = []
        for payload in payloads:
            packets.extend(encoder.add(payload))
        return packets

    def test_lossless_delivery(self):
        payloads = [b"p0", b"p1", b"p2", b"p3"]
        packets = self.encode_group(payloads)
        decoder = FecGroupDecoder()
        out = []
        for packet in packets:
            out.extend(decoder.add(packet))
        assert out == payloads
        assert decoder.stats.groups_repaired == 0

    def test_recovers_single_data_loss(self):
        payloads = [b"p0", b"p1", b"p2", b"p3"]
        packets = self.encode_group(payloads)
        decoder = FecGroupDecoder()
        out = []
        for packet in packets:
            if packet.index == 1:
                continue  # lose one data packet
            out.extend(decoder.add(packet))
        assert out == payloads
        assert decoder.stats.groups_repaired == 1
        assert decoder.stats.payloads_recovered == 1

    def test_recovers_double_loss_with_two_parity(self):
        payloads = [b"p0", b"p1", b"p2", b"p3"]
        packets = self.encode_group(payloads)
        decoder = FecGroupDecoder()
        out = []
        for packet in packets:
            if packet.index in (0, 2):
                continue
            out.extend(decoder.add(packet))
        assert out == payloads

    def test_delivers_group_exactly_once(self):
        payloads = [b"p0", b"p1", b"p2", b"p3"]
        packets = self.encode_group(payloads)
        decoder = FecGroupDecoder()
        out = []
        for packet in packets:
            out.extend(decoder.add(packet))
        # every extra packet after the group decoded yields nothing more
        assert out == payloads

    def test_uncoded_packets_pass_through(self):
        decoder = FecGroupDecoder()
        packet = FecPacket(group_id=9, index=0, k=4, n=6,
                           payload=b"uncoded", flags=FLAG_UNCODED)
        assert decoder.add(packet) == [b"uncoded"]

    def test_unrecoverable_group_flush_returns_received_data(self):
        payloads = [b"p0", b"p1", b"p2", b"p3"]
        packets = self.encode_group(payloads)
        decoder = FecGroupDecoder()
        # Deliver only two data packets: below k, cannot decode.
        decoder.add(packets[0])
        decoder.add(packets[3])
        leftovers = decoder.flush()
        assert leftovers == [b"p0", b"p3"]
        assert decoder.stats.groups_unrecoverable == 1

    def test_flush_ignores_delivered_groups(self):
        payloads = [b"p0", b"p1", b"p2", b"p3"]
        packets = self.encode_group(payloads)
        decoder = FecGroupDecoder()
        for packet in packets:
            decoder.add(packet)
        assert decoder.flush() == []

    def test_interleaved_groups(self):
        encoder = FecGroupEncoder(k=2, n=3)
        group_a = encoder.add(b"a0") + encoder.add(b"a1")
        group_b = encoder.add(b"b0") + encoder.add(b"b1")
        decoder = FecGroupDecoder()
        out = []
        # interleave: a.data0, b.data0, a.parity, b.data1 -> both decode
        out.extend(decoder.add(group_a[0]))
        out.extend(decoder.add(group_b[0]))
        out.extend(decoder.add(group_a[2]))
        out.extend(decoder.add(group_b[1]))
        assert sorted(out) == [b"a0", b"a1", b"b0", b"b1"]

    def test_eviction_of_stale_groups(self):
        decoder = FecGroupDecoder(max_tracked_groups=2)
        encoder = FecGroupEncoder(k=2, n=2)
        for i in range(5):
            packets = encoder.add(f"g{i}-0".encode()) + encoder.add(f"g{i}-1".encode())
            decoder.add(packets[0])  # only one packet per group: never decodable
        assert decoder.pending_groups <= 2

    @pytest.mark.parametrize("batched", [False, True], ids=["add", "add_batch"])
    def test_eviction_picks_the_smallest_tracked_id(self, batched):
        """The victims are ``min()`` of the table, whatever the arrival order:
        ids out of order, an id re-appearing after its eviction, one that is
        itself the smallest on arrival — replayed against a plain model."""
        rng = random.Random(7)
        ids = [rng.randrange(40) for _ in range(400)]
        ids += list(range(100, 60, -1)) + [3, 3, 250, 2, 1, 0, 251]
        limit = 5
        packets = [FecPacket(group_id=group_id, index=rng.randrange(2), k=2,
                             n=3, payload=pad_block(b"x", 8))
                   for group_id in ids]

        decoder = FecGroupDecoder(max_tracked_groups=limit)
        if batched:
            decoder.add_batch(packets)
        else:
            for packet in packets:
                decoder.add(packet)

        # The model: a table, evicted by min() over its keys.
        tracked, unrecoverable = {}, 0
        for packet in packets:
            state = tracked.get(packet.group_id)
            if state is None:
                state = tracked[packet.group_id] = {"got": set(),
                                                    "done": False}
                while len(tracked) > limit:
                    victim = tracked.pop(min(tracked))
                    if not victim["done"] and victim["got"]:
                        unrecoverable += 1
            if not state["done"]:
                state["got"].add(packet.index)
                if len(state["got"]) == 2:
                    state["done"], state["got"] = True, set()

        assert sorted(decoder._groups) == sorted(tracked)
        assert sorted(decoder._group_ids) == sorted(tracked)
        assert decoder.stats.groups_unrecoverable == unrecoverable > 0
        assert decoder.pending_groups == sum(
            1 for state in tracked.values() if not state["done"])

    def test_inconsistent_group_parameters_raise(self):
        decoder = FecGroupDecoder()
        decoder.add(FecPacket(group_id=1, index=0, k=4, n=6, payload=pad_block(b"x", 4)))
        from repro.fec import FecCodingError
        with pytest.raises(FecCodingError):
            decoder.add(FecPacket(group_id=1, index=1, k=3, n=6, payload=pad_block(b"y", 4)))
