"""One encode core, one decode core: ``add`` is ``add_batch`` of one.

Whatever is fed — one at a time through ``add``, one at a time through
``add_batch``, or all at once — the packets / payloads, their order, every
stats field and the state left behind are the same.  That includes a
sequence that *raises* part-way: the batch call hands over (through
``out``) and counts exactly what the calls before the offending one had
returned and counted.
"""

import random

import pytest

from repro.core import CollectorSink, ControlThread, IterableSource
from repro.fec import (
    FLAG_PARITY,
    FecCodingError,
    FecGroupDecoder,
    FecGroupEncoder,
    FecPacket,
    FecPacketError,
)
from repro.filters import FecDecoderFilter, FecEncoderFilter
from repro.streams.framing import encode_frame

ENGINES = ["threaded", "event", "asyncio"]


def _feed(target, items, mode):
    """Feed ``items`` to an encoder or decoder; returns (results, error).

    ``one``: ``add`` per item.  ``batch-of-one``: ``add_batch`` per item.
    ``whole``: a single ``add_batch``.  Results are what was handed over
    before any error."""
    out = []
    try:
        if mode == "one":
            for item in items:
                out.extend(target.add(item))
        elif mode == "batch-of-one":
            for item in items:
                target.add_batch([item], out)
        else:
            target.add_batch(items, out)
    except (ValueError, TypeError) as exc:
        return out, exc
    return out, None


MODES = ["one", "batch-of-one", "whole"]


def _encoder_runs(payloads, k=4, n=6):
    runs = []
    for mode in MODES:
        encoder = FecGroupEncoder(k=k, n=n, start_group_id=10)
        packets, error = _feed(encoder, payloads, mode)
        runs.append((packets, repr(error), encoder.stats,
                     encoder.pending_count))
    return runs


def _decoder_runs(packets, **options):
    runs = []
    for mode in MODES:
        decoder = FecGroupDecoder(**options)
        payloads, error = _feed(decoder, packets, mode)
        first = (payloads, repr(error))
        # What a raise leaves tracked is not part of the contract (the
        # filter that saw it is done); what it *counted* for delivery is.
        stats = decoder.stats
        runs.append((first, (stats.groups_decoded, stats.groups_repaired,
                             stats.payloads_recovered, stats.payloads_out)
                     if error else (dict(vars(stats)), decoder.pending_groups,
                                    decoder.flush(), dict(vars(stats)))))
    return runs


def _payloads(rng, count, uniform):
    return [rng.randbytes(48 if uniform else rng.randrange(0, 90))
            for _ in range(count)]


def _encoded(payloads, k=4, n=6):
    encoder = FecGroupEncoder(k=k, n=n)
    return encoder.add_batch(payloads) + encoder.flush()


class TestEncoderCore:
    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("count", [0, 1, 3, 4, 5, 23, 64])
    def test_every_way_of_feeding_is_the_same(self, count, uniform):
        one, batch_of_one, whole = _encoder_runs(
            _payloads(random.Random(count), count, uniform))
        assert one == batch_of_one == whole
        assert one[1] == "None" and one[3] == count % 4

    def test_a_batch_of_mixed_block_sizes_costs_one_product_per_size(self):
        calls = []
        encoder = FecGroupEncoder(k=2, n=3)
        product = encoder._code.encode_parity_batch
        encoder._code.encode_parity_batch = lambda source: (
            calls.append(source.shape), product(source))[1]
        # Groups of block size 7, 12, 7, 7, 12: two distinct sizes.
        encoder.add_batch([b"12345", b"1", bytes(10), b"", b"x" * 5, b"yy",
                           b"5" * 5, b"5" * 5, bytes(10), bytes(10)])
        assert sorted(calls) == [(2, 21), (2, 24)]

    @pytest.mark.parametrize("position", [0, 2, 3, 7, 10])
    def test_a_none_payload_leaves_what_came_before(self, position):
        # 0: first of all; 2: mid-group; 3 and 7: would complete a group;
        # 10: last of the batch.
        payloads = _payloads(random.Random(1), 11, uniform=False)
        payloads[position] = None
        one, batch_of_one, whole = _encoder_runs(payloads)
        assert one == batch_of_one == whole
        packets, error, stats, pending = whole
        assert error.startswith("ValueError(")
        assert len(packets) == position // 4 * 6
        assert stats.payloads_in == position and pending == position % 4
        assert stats.groups_encoded == position // 4

    @pytest.mark.parametrize("position", [0, 2, 3, 7, 10])
    def test_an_oversize_payload_leaves_the_groups_before_it(self, position):
        payloads = _payloads(random.Random(2), 12, uniform=True)
        payloads[position] = bytes(0x10000)
        one, batch_of_one, whole = _encoder_runs(payloads)
        for packets, error, stats, _pending in (one, batch_of_one, whole):
            assert error.startswith("FecPacketError(")
            assert packets == one[0] and len(packets) == position // 4 * 6
            assert stats.groups_encoded == position // 4
            assert stats.data_packets_out == position // 4 * 4

    def test_the_reported_twin_of_the_decoder_bug(self):
        encoder = FecGroupEncoder(k=2, n=3)
        out = []
        with pytest.raises(ValueError):
            encoder.add_batch([b"a", b"b", None], out)
        assert [(p.group_id, p.index) for p in out] == [(0, 0), (0, 1), (0, 2)]
        assert encoder.stats.groups_encoded == 1
        assert encoder.stats.payloads_in == 2 and encoder.pending_count == 0
        # The group id was consumed by a group that did go out.
        assert encoder.add_batch([b"c", b"d"])[0].group_id == 1


def _lossy(rng, packets, loss=0.25, duplicate=0.1):
    survivors = []
    for packet in packets:
        if rng.random() < loss:
            continue
        survivors.append(packet)
        if rng.random() < duplicate:
            survivors.append(packet)
    return survivors


class TestDecoderCore:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("uniform", [True, False])
    def test_every_way_of_feeding_is_the_same(self, seed, uniform):
        rng = random.Random(seed)
        packets = _lossy(rng, _encoded(_payloads(rng, 50, uniform)))
        if seed % 2:
            rng.shuffle(packets)  # late packets, groups completing anywhere
        one, batch_of_one, whole = _decoder_runs(packets)
        assert one == batch_of_one == whole
        assert one[0][1] == "None"

    @pytest.mark.parametrize("limit", [1, 2, 5])
    def test_eviction_is_the_same_at_the_tracking_limit(self, limit):
        rng = random.Random(limit)
        packets = _encoded(_payloads(rng, 48, uniform=True))
        # Three packets of every group: nothing decodes, everything is
        # tracked until it is evicted, smallest group id first.
        starved = [p for p in packets if p.index in (0, 2, 5)]
        rng.shuffle(starved)
        one, batch_of_one, whole = _decoder_runs(
            starved, max_tracked_groups=limit)
        assert one == batch_of_one == whole
        before_flush, pending, _surrendered, after_flush = whole[1]
        assert 0 < pending <= limit
        assert before_flush["groups_seen"] >= 12
        assert after_flush["groups_unrecoverable"] \
            == before_flush["groups_unrecoverable"] + pending

    def _clean(self, groups=6):
        payloads = _payloads(random.Random(7), groups * 4, uniform=True)
        return payloads, _encoded(payloads)

    @pytest.mark.parametrize("position", [0, 1, 8, 9, 33])
    def test_inconsistent_parameters_leave_what_came_before(self, position):
        payloads, packets = self._clean()
        # 0 opens a group (the *next* packet is then the inconsistent one),
        # 8 is mid-group, 9 would complete its group, 33 the last one.
        packets[position] = packets[position]._replace(k=5)
        one, batch_of_one, whole = _decoder_runs(packets)
        assert one == batch_of_one == whole
        (delivered, error), counted = whole
        assert error.startswith("FecCodingError(")
        offender = position + 1 if position % 6 == 0 else position
        groups = offender // 6 + (offender % 6 > 3)
        assert delivered == payloads[:groups * 4]
        assert counted == (groups, 0, 0, groups * 4)

    @pytest.mark.parametrize("position, error_type", [
        (3, FecCodingError),    # index 9 of 6 completes the group
        (15, FecCodingError),   # a block of another length completes it
    ])
    def test_a_group_no_code_produced_leaves_what_came_before(
            self, position, error_type):
        payloads, packets = self._clean()
        group = position // 6
        if position == 3:
            packets[position] = packets[position]._replace(index=9)
        else:
            packets[position] = packets[position]._replace(
                payload=packets[position].payload + b"\x00")
        del packets[group * 6 + 1]  # so the group needs the bad block
        position -= 1
        one, batch_of_one, whole = _decoder_runs(packets)
        assert one == batch_of_one == whole
        (delivered, error), counted = whole
        assert error.startswith(error_type.__name__ + "(")
        assert delivered == payloads[:group * 4]

    @pytest.mark.parametrize("k", [0, 7])
    def test_impossible_code_parameters_are_a_coding_error(self, k):
        # k = 0 "completes" at once; n < k completes after k packets.
        packets = [FecPacket(1, index, k, 6, b"\x00\x01x")
                   for index in range(max(k, 1))]
        for mode in MODES:
            _payloads_out, error = _feed(FecGroupDecoder(), packets, mode)
            assert type(error) is FecCodingError

    def test_a_garbage_repair_surfaces_after_the_deliveries_before_it(self):
        payloads, packets = self._clean(groups=8)
        by_group = [packets[g * 6:g * 6 + 6] for g in range(8)]
        # Groups 1, 3, 5 lose data packet 0 (one cohort), groups 2, 6 lose
        # data packet 2 (another); group 5's parity is garbled so that its
        # rebuilt block 0 claims an impossible length.
        for g in (1, 3, 5):
            del by_group[g][0]
        for g in (2, 6):
            del by_group[g][2]
        garbled = by_group[5][3]
        assert garbled.index == 4 and garbled.flags == FLAG_PARITY
        by_group[5][3] = garbled._replace(
            payload=bytes(b ^ 0xFF for b in garbled.payload))
        # The fifth packet of each group is now one too many; drop it so
        # that every damaged group really is repaired from parity.
        stream = [p for g, group in enumerate(by_group)
                  for p in (group[:4] if g in (1, 2, 3, 5, 6) else group)]
        one, batch_of_one, whole = _decoder_runs(stream)
        for (delivered, error), counted in (one, batch_of_one, whole):
            assert error.startswith("FecPacketError(")
            assert delivered == payloads[:5 * 4]
        # Delivered and counted: groups 0-4, of which 1, 2, 3 repaired.
        assert one[1] == batch_of_one[1] == (5, 3, 3, 20)
        # The whole batch had tracked groups 6 and 7 as well (and solved
        # them) by the time the algebra showed group 5 to be garbage: they
        # are counted as decoded, and handed over to nobody.
        assert whole[1] == (7, 4, 4, 20)

    def test_the_reported_bug(self):
        payloads, packets = self._clean(groups=10)
        wire = [p.pack() for p in packets]
        offender = 3 * 6 + 1
        damaged = bytearray(wire[offender])
        damaged[3] ^= 0xFF  # the k byte, as corrupt_p does at offset % len 3
        wire[offender] = bytes(damaged)
        framed = [encode_frame(p) for p in wire]

        per_packet = FecDecoderFilter()
        per_packet.fused_packet_batch = False
        fused = FecDecoderFilter()
        results = []
        for decoder in (per_packet, fused):
            outputs = []
            with pytest.raises(FecCodingError):
                decoder.transform_chunks(framed, outputs)
            results.append((outputs, decoder.decoder_stats))
        assert results[0] == results[1]
        assert results[1][0] == [encode_frame(p) for p in payloads[:12]]
        assert results[1][1].groups_decoded == 3


class FecTap(FecDecoderFilter):
    """Per-packet twin of the fused decoder filter."""

    fused_packet_batch = False


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("decoder_type", [FecDecoderFilter, FecTap])
def test_a_damaged_header_mid_stream_delivers_the_groups_before_it(
        engine, decoder_type):
    rng = random.Random(11)
    payloads = _payloads(rng, 40, uniform=True)
    encoder = FecEncoderFilter(k=4, n=6, start_group_id=0)
    wire = encoder.transform_packets(payloads)
    damaged = bytearray(wire[3 * 6 + 1])
    damaged[3] ^= 0xFF
    wire[3 * 6 + 1] = bytes(damaged)

    sink = CollectorSink(expect_frames=True)
    decoder = decoder_type(name="dec")
    control = ControlThread(IterableSource(wire, frame_output=True), sink,
                            engine=engine, auto_start=False)
    control.add(decoder)
    control.start()
    try:
        assert control.wait_for_completion(timeout=15.0)
    finally:
        control.shutdown()
    assert sink.items() == payloads[:12]
    assert isinstance(decoder.error, FecCodingError)
    assert decoder.decoder_stats.groups_decoded == 3
    assert decoder.decoder_stats.payloads_out == 12


@pytest.mark.parametrize("engine", ENGINES)
def test_a_rejected_payload_mid_stream_delivers_the_groups_before_it(engine):
    payloads = _payloads(random.Random(12), 30, uniform=False)
    payloads[14] = bytes(0x10000)  # in the fourth group
    sink = CollectorSink(expect_frames=True)
    encoder = FecEncoderFilter(k=4, n=6, start_group_id=0, name="enc")
    control = ControlThread(IterableSource(payloads, frame_output=True), sink,
                            engine=engine, auto_start=False)
    control.add(encoder)
    control.start()
    try:
        assert control.wait_for_completion(timeout=15.0)
    finally:
        control.shutdown()
    expected = FecEncoderFilter(k=4, n=6, start_group_id=0)
    assert sink.items() == expected.transform_packets(payloads[:12])
    assert isinstance(encoder.error, FecPacketError)
    assert encoder.encoder_stats.groups_encoded == 3
