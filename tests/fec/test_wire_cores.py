"""The FEC filters work on wire bytes; the ``FecPacket`` API is an adapter.

The encoder filter writes whole groups into one frame and slices the wire
packets out of it; ``FecGroupEncoder.add_batch`` slices ``FecPacket`` values
out of the same frame.  The decoder filter parses each wire packet's header
in place and slices a payload once, on delivery; ``FecGroupDecoder.add``
feeds the same core from ``FecPacket`` values.  Each side must equal the
value path it replaced — packing every ``FecPacket``, unpacking every wire
packet — byte for byte, error for error, stat for stat.  And the chaos
injector's batch core must equal a loop of its per-datagram call.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import DatagramFaultInjector, FaultPlan
from repro.fec import (
    FecGroupDecoder,
    FecGroupEncoder,
    FecPacket,
    FecPacketError,
)
from repro.filters import FecDecoderFilter, FecEncoderFilter


def _batches(items, cuts):
    """``items`` cut at the (sorted, deduplicated) positions ``cuts``."""
    edges = [0] + sorted({cut % (len(items) + 1) for cut in cuts}) \
        + [len(items)]
    return [items[lo:hi] for lo, hi in zip(edges, edges[1:])]


# ------------------------------------------------------------------ encoder


def _pack_each(encoder, batch, outputs):
    """The value path: ``FecPacket`` values, each packed on its own (what
    the encoder filter did before it sliced its frame)."""
    fec_packets = []
    try:
        encoder.add_batch(batch, fec_packets)
    finally:
        outputs += [fec_packet.pack() for fec_packet in fec_packets]


def _encode(feed, batches):
    """Run ``batches`` through ``feed`` until one raises; returns what was
    handed over and the error."""
    outputs = []
    for batch in batches:
        try:
            feed(batch, outputs)
        except (ValueError, TypeError) as exc:
            return outputs, repr(exc)
    return outputs, None


_GEOMETRY = st.integers(1, 6).flatmap(lambda k: st.tuples(
    st.just(k), st.integers(k, k + 3)))

_PAYLOAD = st.one_of(
    st.integers(0, 40).map(lambda size: bytes(range(size))),
    st.binary(max_size=40))


@given(geometry=_GEOMETRY, uniform=st.booleans(),
       payloads=st.lists(_PAYLOAD, max_size=40),
       bad=st.one_of(st.none(), st.tuples(
           st.integers(min_value=0), st.sampled_from([None, 0x10000]))),
       cuts=st.lists(st.integers(min_value=0), max_size=4),
       start=st.sampled_from([0, 7, (1 << 32) - 3]))
@settings(deadline=None, max_examples=150)
def test_the_encoder_filter_sends_the_packed_values(geometry, uniform,
                                                    payloads, bad, cuts,
                                                    start):
    k, n = geometry
    if uniform:
        payloads = [payload[:8].ljust(8, b"u") for payload in payloads]
    if bad is not None:
        # None or an over-size payload mid-batch: the groups before it go.
        position, item = bad
        payloads = list(payloads)
        payloads.insert(position % (len(payloads) + 1),
                        item if item is None else bytes(item))
    batches = _batches(payloads, cuts)
    wire_filter = FecEncoderFilter(k=k, n=n, start_group_id=start)
    values = FecGroupEncoder(k=k, n=n, start_group_id=start)

    sent = _encode(lambda batch, out: wire_filter.transform_packets(
        batch, out), batches)
    packed = _encode(lambda batch, out: _pack_each(values, batch, out),
                     batches)
    assert sent == packed
    assert wire_filter.encoder_stats == values.stats
    assert wire_filter._encoder.pending_count == values.pending_count
    if sent[1] is None:
        assert _finished(wire_filter.finalize_packets) == _finished(
            lambda: [packet.pack() for packet in values.flush()])


def _finished(flush):
    """The uncoded tail, or the error packing it raised (a group id past
    32 bits)."""
    try:
        return flush()
    except FecPacketError as exc:
        return repr(exc)


@pytest.mark.parametrize("sizes", [[12] * 8, [3, 9, 0, 1, 7, 7, 2, 5],
                                   [0] * 4])
def test_a_packet_value_is_its_wire_bytes_after_the_header(sizes):
    payloads = [bytes([i]) * size for i, size in enumerate(sizes)]
    wire = FecEncoderFilter(k=4, n=6, start_group_id=3).transform_packets(
        payloads)
    values = FecGroupEncoder(k=4, n=6, start_group_id=3).add_batch(payloads)
    assert [FecPacket.unpack(packet) for packet in wire] == values
    assert all(type(value.payload) is bytes for value in values)


def test_a_group_id_past_32_bits_is_refused_as_packing_refuses_it():
    payloads = [b"abc"] * 12
    wire_filter = FecEncoderFilter(k=4, n=6, start_group_id=(1 << 32) - 2)
    with pytest.raises(FecPacketError, match="group_id 4294967296 out of"):
        wire_filter.transform_packets(payloads, [])
    # The groups were encoded and counted, as they were before packing.
    assert wire_filter.encoder_stats.groups_encoded == 3
    values = FecGroupEncoder(k=4, n=6, start_group_id=(1 << 32) - 2)
    assert [p.group_id for p in values.add_batch(payloads)][::6] \
        == [(1 << 32) - 2, (1 << 32) - 1, 1 << 32]


# ------------------------------------------------------------------ decoder


def _stream(rng, k, n, groups):
    payloads = [rng.randbytes(rng.randrange(0, 30) if rng.random() < 0.5
                              else 16) for _ in range(groups * k)]
    encoder = FecEncoderFilter(k=k, n=n, start_group_id=rng.randrange(100))
    tail = [rng.randbytes(5) for _ in range(rng.randrange(k))]
    return (encoder.transform_packets(payloads + tail)
            + encoder.finalize_packets())


def _garble(rng, wire):
    """Random loss, duplication, local reordering, and interleaved garbage:
    noise, truncated headers, a foreign version, and damaged FEC packets."""
    out = []
    # Some streams run clean to the end, others hit an error early.
    damage = 0.08 + rng.choice([0.0, 0.01, 0.05])
    for packet in wire:
        if rng.random() < 0.15:
            continue
        out.append(packet)
        if rng.random() < 0.1:
            out.append(packet)
        roll = rng.random()
        if roll < 0.04:
            out.append(rng.randbytes(rng.randrange(0, 24)))
        elif roll < 0.06:
            out.append(packet[:rng.randrange(0, 11)])
        elif roll < 0.08:
            out.append(b"\xfe\x02" + packet[2:])
        elif roll < damage:
            damaged = bytearray(packet)
            damaged[rng.randrange(len(damaged))] ^= 1 << rng.randrange(8)
            out.append(bytes(damaged))
    for _ in range(len(out) // 6):
        i = rng.randrange(len(out))
        j = min(len(out) - 1, i + rng.randrange(1, 8))
        out[i], out[j] = out[j], out[i]
    return out


def _unpack_each(wire, passthrough, max_tracked):
    """The value path: every wire packet unpacked to a ``FecPacket`` and
    added on its own (what the decoder filter did, packet by packet)."""
    decoder = FecGroupDecoder(max_tracked_groups=max_tracked)
    outputs, unknown = [], 0
    try:
        for packet in wire:
            try:
                value = FecPacket.unpack(packet)
            except FecPacketError:
                unknown += 1
                if passthrough:
                    outputs.append(packet)
                continue
            outputs += decoder.add(value)
    except ValueError as exc:
        return outputs, repr(exc), unknown, decoder
    return outputs, None, unknown, decoder


def _decode_wire(wire, cuts, passthrough, max_tracked):
    decoder = FecDecoderFilter(passthrough_unknown=passthrough,
                               max_tracked_groups=max_tracked)
    outputs = []
    try:
        for batch in _batches(wire, cuts):
            decoder.transform_packets(batch, outputs)
    except ValueError as exc:
        return outputs, repr(exc), decoder.unknown_packets, \
            decoder._group_decoder
    return outputs, None, decoder.unknown_packets, decoder._group_decoder


def _flushed(decoder):
    """What end of stream surrenders (or the error a damaged block left
    tracked raises), and the stats after it."""
    try:
        leftovers = decoder.flush()
    except FecPacketError as exc:
        leftovers = repr(exc)
    return leftovers, decoder.stats


@given(seed=st.integers(0, 2 ** 32 - 1), geometry=_GEOMETRY,
       groups=st.integers(0, 12), passthrough=st.booleans(),
       max_tracked=st.sampled_from([2, 1024]),
       cuts=st.lists(st.integers(min_value=0), max_size=5))
@settings(deadline=None, max_examples=200)
def test_the_decoder_filter_delivers_what_unpacking_each_packet_does(
        seed, geometry, groups, passthrough, max_tracked, cuts):
    rng = random.Random(seed)
    wire = _garble(rng, _stream(rng, *geometry, groups))
    got, got_error, got_unknown, got_decoder = _decode_wire(
        wire, cuts, passthrough, max_tracked)
    want, want_error, want_unknown, want_decoder = _unpack_each(
        wire, passthrough, max_tracked)
    # The same payloads and strays, in the same order, then the same error.
    assert (got, got_error, got_unknown) == (want, want_error, want_unknown)
    if want_error is None:
        assert got_decoder.stats == want_decoder.stats
        assert got_decoder.pending_groups == want_decoder.pending_groups
        assert _flushed(got_decoder) == _flushed(want_decoder)
    else:
        # A batch may have tracked (and repaired) groups past a repair that
        # turned out garbage; what it *delivered* is the same.
        assert got_decoder.stats.payloads_out == want_decoder.stats.payloads_out


def test_a_decoder_fed_both_ways_keeps_its_groups():
    """Wire packets and ``FecPacket`` values into one decoder: the groups
    it tracks survive the switch (and flush the same payloads)."""
    payloads = [bytes([i]) * (5 + i) for i in range(8)]
    values = FecGroupEncoder(k=4, n=6).add_batch(payloads)
    wire = [value.pack() for value in values]
    # Group 0 misses two data packets, group 1 three: neither decodes yet.
    mixed = FecGroupDecoder()
    assert mixed.add_batch(values[:2]) == []
    mixed.add_wire(wire[6:9], [], lambda packet: False)
    assert mixed.pending_groups == 2
    out = []
    mixed.add_wire(wire[4:6], out, lambda packet: False)  # group 0: parity
    assert out == payloads[:4]
    assert mixed.add(values[9]) == payloads[4:8]
    assert mixed.flush() == []


# -------------------------------------------------------------------- chaos

PLANS = {
    "drop": FaultPlan(seed=1, drop_p=0.3, drop_offsets=(2,)),
    "duplicate": FaultPlan(seed=2, duplicate_p=0.3, duplicate_offsets=(0,)),
    "reorder": FaultPlan(seed=3, reorder_p=0.3, reorder_offsets=(4, 5)),
    "corrupt": FaultPlan(seed=4, corrupt_p=0.3, corrupt_offsets=(1,)),
    "stall": FaultPlan(seed=5, stall_offset=7, stall_s=0.5),
    "delay": FaultPlan(seed=6, delay_s=0.001, drop_p=0.2, reorder_p=0.2),
    "all": FaultPlan(seed=7, drop_p=0.1, duplicate_p=0.1, reorder_p=0.1,
                     corrupt_p=0.1, stall_offset=11, stall_s=0.25,
                     delay_s=0.002),
}


@pytest.mark.parametrize("cuts", [(), (1, 2, 3), (5, 17, 40), (0, 60)])
@pytest.mark.parametrize("plan", PLANS.values(), ids=PLANS.keys())
def test_process_many_is_a_loop_of_process(plan, cuts):
    rng = random.Random(9)
    payloads = [rng.randbytes(rng.randrange(0, 12)) for _ in range(60)]
    one = DatagramFaultInjector(plan, "wlan")
    sends, faults, pauses, silenced = [], [], [], 0
    for payload in payloads:
        sent, faulted, delay_s = one.process(payload)
        faults += faulted
        if delay_s > 0:
            pauses.append((len(sends), len(faults), delay_s))
        sends += sent
        silenced += not sent

    many = DatagramFaultInjector(plan, "wlan")
    got_sends, got_faults, got_pauses, got_silenced = [], [], [], 0
    for batch in _batches(payloads, cuts):
        batch_sends, batch_faults, batch_pauses, batch_silenced = \
            many.process_many(batch)
        got_pauses += [(at + len(got_sends), upto + len(got_faults), delay_s)
                       for at, upto, delay_s in batch_pauses]
        got_sends += batch_sends
        got_faults += batch_faults
        got_silenced += batch_silenced
    assert (got_sends, got_faults, got_pauses, got_silenced) \
        == (sends, faults, pauses, silenced)
    assert many.index == one.index == len(payloads)
    assert many._rng.getstate() == one._rng.getstate()
    assert many.flush() == one.flush()
