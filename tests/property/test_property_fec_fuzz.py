"""Fuzz of the FEC wire parser and of the decoder filter behind it.

Whatever bytes arrive — noise, truncated packets, packets with a flipped
bit, in any interleaving with valid ones — the parser and the decoder may
reject them with ``FecPacketError`` / ``FecCodingError`` and with nothing
else, never track more groups than they were told to, and keep a packet
they do not understand where it was in the stream.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.fec import (
    FecCodingError,
    FecGroupDecoder,
    FecPacket,
    FecPacketError,
)
from repro.fec.packets import HEADER_SIZE
from repro.filters import FecDecoderFilter, FecEncoderFilter


def _wire(k=3, n=5, count=18, seed=0):
    rng = random.Random(seed)
    payloads = [b"P%03d" % i + rng.randbytes(rng.randrange(0, 24))
                for i in range(count)]
    encoder = FecEncoderFilter(k=k, n=n, start_group_id=0)
    return payloads, (encoder.transform_packets(payloads)
                      + encoder.finalize_packets())


_PAYLOADS, _VALID = _wire()

#: A packet of the valid stream, possibly truncated or with one bit flipped.
_DAMAGED = st.builds(
    lambda index, cut, bit: _damage(_VALID[index % len(_VALID)], cut, bit),
    st.integers(min_value=0), st.one_of(st.none(), st.integers(0, 40)),
    st.one_of(st.none(), st.integers(min_value=0)))


def _damage(packet, cut, bit):
    if bit is not None:
        mutable = bytearray(packet)
        mutable[bit // 8 % len(mutable)] ^= 1 << bit % 8
        packet = bytes(mutable)
    return packet if cut is None else packet[:cut]


@given(st.binary(max_size=64))
@settings(deadline=None, max_examples=300)
def test_unpack_returns_the_fields_or_a_packet_error(data):
    try:
        packet = FecPacket.unpack(data)
    except FecPacketError:
        assert len(data) < HEADER_SIZE or data[:2] != b"\xfe\x01"
        return
    assert data[:2] == b"\xfe\x01" and packet.payload == data[HEADER_SIZE:]
    assert (packet.flags, packet.k, packet.n, packet.index) == tuple(data[2:6])
    assert packet.group_id == int.from_bytes(data[6:10], "big")
    if packet.k and packet.n:
        assert packet.pack() == data


@given(st.lists(st.one_of(st.binary(max_size=40), _DAMAGED,
                          st.binary(max_size=30).map(b"\xfe\x01".__add__)),
                max_size=60),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=9))
@settings(deadline=None, max_examples=300)
def test_the_decoder_filter_rejects_garbage_cleanly(packets, limit, step):
    decoder = FecDecoderFilter(max_tracked_groups=limit)
    try:
        for start in range(0, len(packets), step):
            for payload in decoder.transform_packets(
                    packets[start:start + step]):
                assert isinstance(payload, bytes)
            assert len(decoder._group_decoder._groups) <= limit
        decoder.finalize_packets()
    except (FecPacketError, FecCodingError):
        pass
    assert len(decoder._group_decoder._groups) <= limit


@given(st.lists(st.integers(min_value=0, max_value=len(_VALID)),
                max_size=12),
       st.integers(min_value=1, max_value=11), st.booleans())
@settings(deadline=None, max_examples=200)
def test_unknown_packets_keep_their_place_or_vanish(places, step, passthrough):
    # Junk inserted before the valid packet at each of ``places``.
    stream, junk = [], set()
    for position, packet in enumerate(_VALID + [None]):
        for _ in range(places.count(position)):
            junk.add(b"\x00junk-%d" % len(junk))
            stream.append(b"\x00junk-%d" % (len(junk) - 1))
        if packet is not None:
            stream.append(packet)

    decoder = FecDecoderFilter(passthrough_unknown=passthrough)
    out = []
    for start in range(0, len(stream), step):
        out.extend(decoder.transform_packets(stream[start:start + step]))
    out.extend(decoder.finalize_packets())
    assert decoder.unknown_packets == len(junk)
    assert [item for item in out if item not in junk] == _PAYLOADS

    if not passthrough:
        assert not junk.intersection(out)
        return
    # Each unknown packet follows exactly the payloads that the valid
    # packets before it had completed.
    reference = FecGroupDecoder()
    delivered_before = {}
    delivered = 0
    for item in stream:
        if item in junk:
            delivered_before[item] = delivered
        else:
            delivered += len(reference.add(FecPacket.unpack(item)))
    seen = 0
    for item in out:
        if item in junk:
            assert delivered_before.pop(item) == seen
        else:
            seen += 1
    assert not delivered_before
