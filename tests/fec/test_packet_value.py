"""The FecPacket value contract and the wire bytes of the encoder filter.

The wire digests below were computed at the commit *before* FecPacket
stopped being a frozen dataclass and the group encoder became one batch
pass; they pin every byte the encoder filter puts on the wire, for any way
the same payloads are split into batches.
"""

import hashlib
import pickle
import random
import struct

import pytest

from repro.fec import FLAG_PARITY, FLAG_UNCODED, FecPacket, FecPacketError
from repro.filters import FecEncoderFilter


class TestFecPacketValue:
    def test_keyword_and_positional_construction_agree(self):
        by_name = FecPacket(group_id=7, index=2, k=4, n=6, payload=b"abc",
                            flags=FLAG_PARITY)
        assert by_name == FecPacket(7, 2, 4, 6, b"abc", FLAG_PARITY)
        assert (by_name.group_id, by_name.index, by_name.k, by_name.n,
                by_name.payload, by_name.flags) == (7, 2, 4, 6, b"abc", 2)

    def test_flags_default_to_zero(self):
        assert FecPacket(group_id=0, index=0, k=1, n=1, payload=b"").flags == 0

    def test_equality_and_hash_are_by_fields(self):
        a = FecPacket(group_id=1, index=0, k=2, n=3, payload=b"x")
        b = FecPacket(group_id=1, index=0, k=2, n=3, payload=b"x", flags=0)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        for field, other in [("group_id", 2), ("index", 1), ("k", 1),
                             ("n", 4), ("payload", b"y"),
                             ("flags", FLAG_UNCODED)]:
            assert a != a._replace(**{field: other})

    @pytest.mark.parametrize("field", ["group_id", "index", "k", "n",
                                       "payload", "flags"])
    def test_fields_cannot_be_assigned(self, field):
        packet = FecPacket(group_id=1, index=0, k=2, n=3, payload=b"x")
        with pytest.raises(AttributeError):
            setattr(packet, field, 0)

    def test_kind_predicates_are_booleans(self):
        data = FecPacket(0, 1, 4, 6, b"d")
        parity = FecPacket(0, 4, 4, 6, b"p", FLAG_PARITY)
        uncoded = FecPacket(0, 5, 4, 6, b"u", FLAG_UNCODED)
        assert (data.is_data, data.is_parity, data.is_uncoded) \
            == (True, False, False)
        assert (parity.is_data, parity.is_parity, parity.is_uncoded) \
            == (False, True, False)
        assert (uncoded.is_data, uncoded.is_parity, uncoded.is_uncoded) \
            == (False, False, True)
        # proxybench sums is_data: it must be a real bool, not a flag int.
        assert all(type(flag) is bool for packet in (data, parity, uncoded)
                   for flag in (packet.is_data, packet.is_parity,
                                packet.is_uncoded))

    @pytest.mark.parametrize("fields", [
        dict(group_id=-1), dict(group_id=1 << 32),
        dict(index=-1), dict(index=256),
        dict(k=0), dict(k=256), dict(k=-3),
        dict(n=0), dict(n=256),
    ])
    def test_pack_rejects_fields_the_wire_cannot_carry(self, fields):
        packet = FecPacket(group_id=1, index=0, k=2, n=3, payload=b"x")
        with pytest.raises(FecPacketError) as caught:
            packet._replace(**fields).pack()
        expected = ("group_id" if "group_id" in fields else "index/k/n")
        assert expected in str(caught.value)

    def test_pack_accepts_the_extremes(self):
        packet = FecPacket(group_id=0xFFFFFFFF, index=255, k=255, n=255,
                           payload=b"", flags=255)
        assert packet.pack() == struct.pack(">BBBBBBI", 0xFE, 1, 255, 255,
                                            255, 255, 0xFFFFFFFF)
        assert FecPacket.unpack(packet.pack()) == packet

    @pytest.mark.parametrize("wire, text", [
        (b"", "packet too short for FEC header (0 bytes)"),
        (b"\xfe\x01\x00\x04\x06\x00\x00\x00\x00",
         "packet too short for FEC header (9 bytes)"),
        (b"\x00\x01" + bytes(8), "bad FEC magic 0x00"),
        (b"\xfe\x02" + bytes(8), "unsupported FEC version 2"),
    ])
    def test_unpack_rejects_what_pack_never_wrote(self, wire, text):
        with pytest.raises(FecPacketError) as caught:
            FecPacket.unpack(wire)
        assert text in str(caught.value)

    @pytest.mark.parametrize("view", [bytes, bytearray, memoryview])
    def test_unpack_inverts_pack(self, view):
        rng = random.Random(3)
        for _ in range(200):
            packet = FecPacket(group_id=rng.randrange(1 << 32),
                               index=rng.randrange(256),
                               k=rng.randrange(1, 256),
                               n=rng.randrange(1, 256),
                               payload=rng.randbytes(rng.randrange(0, 40)),
                               flags=rng.randrange(256))
            assert FecPacket.unpack(view(packet.pack())) == packet

    def test_pickle_round_trip(self):
        # Packets cross the cluster RPC boundary pickled.
        packet = FecPacket(group_id=9, index=5, k=4, n=6, payload=b"\x00\xff",
                           flags=FLAG_PARITY)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(packet, protocol))
            assert type(clone) is FecPacket and clone == packet
            assert clone.pack() == packet.pack()


# ------------------------------------------------------------- wire pins


def _payloads(name):
    rng = random.Random(24)
    if name == "uniform":
        return [rng.randbytes(320) for _ in range(42)]
    if name == "ragged":
        return [rng.randbytes(rng.randrange(1, 200)) for _ in range(43)]
    if name == "empty-payloads":
        return [b"" if i % 3 else rng.randbytes(i % 7) for i in range(27)]
    if name == "largest":
        return [rng.randbytes(0xFFFF if i == 5 else 16) for i in range(9)]
    raise KeyError(name)


#: name -> (k, n, payload set, wrapper applied to each payload)
WIRE_CASES = {
    "uniform": (4, 6, "uniform", bytes),
    "ragged": (4, 6, "ragged", bytes),
    "ragged-3-of-5": (3, 5, "ragged", bytes),
    "no-parity": (4, 4, "ragged", bytes),
    "empty-payloads": (2, 3, "empty-payloads", bytes),
    "largest": (4, 6, "largest", bytes),
    "bytearray": (4, 6, "ragged", bytearray),
    "memoryview": (4, 6, "ragged", memoryview),
}

#: sha256 over the length-prefixed wire packets, computed at the parent.
WIRE_PINS = {
    "uniform":
        "0e42af4d11a64480ee16651a5281839fa03db88330cfd7e261650c8fe62154ef",
    "ragged":
        "020a125174264c3e2615349648bd1f44d26d7b59c1e0072bda608e7ce6222172",
    "ragged-3-of-5":
        "5e8f07163ee7cbf35efc8671a279b13045998e83a351f08b9a7f952aec7093c6",
    "no-parity":
        "ebda0b3bbe6c3e3a3f470ddf0d7a43400714b67f71afcbc368f67abd02fc410b",
    "empty-payloads":
        "382ea8f76d9a9a838ad528c8d78bd08dd0b9728e35bf8cc6b44332f0fca1fcbb",
    "largest":
        "1d4a7e5aea91bca0856348684b9fa3f90ffadd1c330bf99d64b04f9a9e3053ca",
    "bytearray":
        "020a125174264c3e2615349648bd1f44d26d7b59c1e0072bda608e7ce6222172",
    "memoryview":
        "020a125174264c3e2615349648bd1f44d26d7b59c1e0072bda608e7ce6222172",
}


def wire_digest(case, step):
    """Digest of everything the encoder filter emits for ``case`` when the
    payloads arrive ``step`` at a time (``None``: all at once)."""
    k, n, payload_set, wrap = WIRE_CASES[case]
    payloads = [wrap(p) for p in _payloads(payload_set)]
    encoder = FecEncoderFilter(k=k, n=n, start_group_id=0)
    wire = []
    step = step or len(payloads)
    for start in range(0, len(payloads), step):
        wire.extend(encoder.transform_packets(payloads[start:start + step]))
    wire.extend(encoder.finalize_packets())
    digest = hashlib.sha256()
    for packet in wire:
        digest.update(struct.pack(">I", len(packet)))
        digest.update(packet)
    return digest.hexdigest()


@pytest.mark.parametrize("step", [None, 1, 2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("case", sorted(WIRE_CASES))
def test_wire_bytes_are_pinned_for_every_batch_split(case, step):
    assert wire_digest(case, step) == WIRE_PINS[case]


def test_ragged_inputs_share_one_wire_whatever_their_type():
    assert WIRE_PINS["ragged"] == WIRE_PINS["bytearray"] \
        == WIRE_PINS["memoryview"]


@pytest.mark.parametrize("step", [None, 1, 3])
def test_a_payload_over_65535_bytes_is_still_rejected(step):
    payloads = [b"a", b"b", b"c", b"d", b"e", bytes(0x10000), b"g", b"h"]
    encoder = FecEncoderFilter(k=4, n=6, start_group_id=0)
    with pytest.raises(FecPacketError):
        for start in range(0, len(payloads), step or len(payloads)):
            encoder.transform_packets(payloads[start:start + (step or 8)])
