"""Fuzz the stream framing parser: whatever the bytes, a clean verdict.

Hypothesis builds byte streams out of valid frames, bad magic bytes,
over-size length fields and raw random bytes, and cuts them at random
points.  Fed to :class:`FrameDecoder` — chunk by chunk, as one
``feed_many`` batch, or through a byte writer into a packet reader's DIS,
the one place a chain de-frames — every run must end one of two ways: the
payloads, or the payloads before the first bad frame and then a
:class:`FramingError` (never another exception, never a hang).  The batch
path must equal the per-chunk path payload for payload and counter for
counter, and an accepting decoder never buffers more than one frame.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams import (
    FRAME_MAGIC,
    HEADER_SIZE,
    MAX_FRAME_SIZE,
    DetachableInputStream,
    DetachableOutputStream,
    FrameDecoder,
    FramingError,
    encode_frame,
)

pieces = st.one_of(
    st.binary(max_size=64).map(encode_frame),                  # a valid frame
    st.binary(min_size=1, max_size=16).map(                    # bad magic
        lambda tail: bytes([FRAME_MAGIC ^ 0x5A]) + tail),
    st.integers(MAX_FRAME_SIZE + 1, 2 ** 32 - 1).map(          # over-size
        lambda n: bytes([FRAME_MAGIC]) + n.to_bytes(4, "big")),
    st.binary(max_size=24),                                    # anything
)
streams = st.lists(pieces, max_size=12).map(b"".join)
cuts = st.lists(st.integers(min_value=0), max_size=10)


def _cut(stream, points):
    bounds = sorted({point % (len(stream) + 1) for point in points})
    edges = [0] + bounds + [len(stream)]
    return [stream[a:b] for a, b in zip(edges, edges[1:]) if b > a]


def _per_chunk(chunks):
    """``feed`` chunk by chunk: (payloads, error, decoder)."""
    decoder = FrameDecoder()
    out = []
    try:
        for chunk in chunks:
            decoder.feed(chunk, out)
    except FramingError as exc:
        return out, exc, decoder
    return out, None, decoder


def _counters(decoder):
    return (decoder.frames_decoded, decoder.bytes_consumed,
            decoder.chunks_consumed, decoder.pending_bytes)


def _holds_at_most_one_frame(decoder):
    pending = bytes(decoder._pending)
    if len(pending) < HEADER_SIZE:
        return True
    return len(pending) < HEADER_SIZE + int.from_bytes(pending[1:5], "big")


@settings(max_examples=300, deadline=None)
@given(streams, cuts)
def test_feed_many_is_feed_per_chunk_whatever_the_bytes(stream, points):
    chunks = _cut(stream, points)
    out, error, per_chunk = _per_chunk(chunks)

    batch = FrameDecoder()
    batch_out = []
    try:
        batch.feed_many(chunks, batch_out)
    except FramingError as exc:
        assert error is not None and str(exc) == str(error)
    else:
        assert error is None
    assert batch_out == out
    assert _counters(batch) == _counters(per_chunk)
    if error is None:
        assert _holds_at_most_one_frame(batch)
    else:
        # Rejected for good: more bytes never revive the stream.
        with pytest.raises(FramingError):
            batch.feed(encode_frame(b"more"))


@settings(max_examples=300, deadline=None)
@given(streams)
def test_every_prefix_is_accepted_or_rejected_cleanly(stream):
    """Byte at a time: each byte either completes nothing, completes
    frames, or is rejected — and an accepting decoder holds one frame."""
    decoder = FrameDecoder()
    for index in range(len(stream)):
        try:
            decoder.feed(stream[index:index + 1])
        except FramingError:
            return
        assert _holds_at_most_one_frame(decoder)


@settings(max_examples=200, deadline=None)
@given(streams, cuts, st.booleans())
def test_a_byte_writer_into_a_packet_reader(stream, points, batched):
    """The hop that de-frames: the writer never fails; the reader gets the
    packets before a bad or unfinished frame, then the FramingError."""
    chunks = _cut(stream, points)
    expected, error, decoder = _per_chunk(chunks)
    truncated = error is None and decoder.has_partial_frame()
    dos, dis = DetachableOutputStream(), DetachableInputStream(capacity=None)
    dis.packets = True
    dos.connect(dis)
    if batched:
        dos.write_many(chunks)
    else:
        for chunk in chunks:
            dos.write(chunk)
    dos.close()
    got = []
    try:
        while True:
            batch = dis.read_chunks(1 << 20, timeout=1.0)
            if not batch:
                break
            got.extend(batch)
    except FramingError:
        assert error is not None or truncated
    else:
        assert error is None and not truncated
    assert got == [packet for packet in expected if packet]
    assert dos.bytes_written == dis.bytes_received == sum(map(len, got))
