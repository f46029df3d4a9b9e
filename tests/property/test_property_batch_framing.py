"""Property: every way of feeding a framed stream decodes it the same.

``FrameDecoder.feed_many`` (the whole-frame path with its per-chunk
fallback), ``feed`` per chunk, and a byte-at-a-time feed must agree on the
payloads and on every counter, for any chunking of any payload list — and
all three must reject a bad header the same way, with the frames before it
already counted.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams import (
    FRAME_MAGIC,
    MAX_FRAME_SIZE,
    FrameDecoder,
    FramingError,
    encode_frame,
    encode_frame_batch,
    encode_frames,
)

payload_lists = st.lists(st.binary(min_size=0, max_size=200), max_size=24)


def _rechunk(frames, cuts):
    """Re-cut the frames' byte stream at ``cuts`` (whole frames when empty)."""
    if not cuts:
        return list(frames)
    stream = b"".join(frames)
    bounds = sorted({cut % (len(stream) + 1) for cut in cuts})
    edges = [0] + bounds + [len(stream)]
    return [stream[a:b] for a, b in zip(edges, edges[1:])]


def _state(decoder):
    return (decoder.frames_decoded, decoder.bytes_consumed,
            decoder.pending_bytes)


class TestBatchDecodeEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(payload_lists, st.lists(st.integers(min_value=0), max_size=12))
    def test_batch_per_chunk_and_bytewise_agree(self, payloads, cuts):
        chunks = _rechunk(encode_frame_batch(payloads), cuts)

        batch = FrameDecoder()
        batch_out = batch.feed_many(chunks)

        per_chunk = FrameDecoder()
        per_chunk_out = []
        for chunk in chunks:
            per_chunk_out.extend(per_chunk.feed(chunk))

        bytewise = FrameDecoder()
        bytewise_out = []
        for chunk in chunks:
            for index in range(len(chunk)):
                bytewise_out.extend(bytewise.feed(chunk[index:index + 1]))

        assert batch_out == per_chunk_out == bytewise_out == payloads
        assert all(type(payload) is bytes for payload in batch_out)
        assert _state(batch) == _state(per_chunk) == _state(bytewise)
        assert batch.chunks_consumed == per_chunk.chunks_consumed == len(chunks)
        assert batch.pending_bytes == 0

    @settings(max_examples=100, deadline=None)
    @given(payload_lists, st.integers(min_value=0))
    def test_a_truncated_stream_leaves_the_same_partial_frame(self, payloads,
                                                              cut):
        stream = encode_frames(payloads)
        stream = stream[:cut % (len(stream) + 1)]
        chunks = [stream[i:i + 7] for i in range(0, len(stream), 7)]
        batch, per_chunk = FrameDecoder(), FrameDecoder()
        per_chunk_out = []
        for chunk in chunks:
            per_chunk_out.extend(per_chunk.feed(chunk))
        assert batch.feed_many(chunks) == per_chunk_out
        assert _state(batch) == _state(per_chunk)

    @settings(max_examples=100, deadline=None)
    @given(payload_lists, st.sampled_from([bytearray, memoryview]))
    def test_views_decode_to_bytes_through_the_fallback(self, payloads, kind):
        chunks = [kind(frame) for frame in encode_frame_batch(payloads)]
        decoder = FrameDecoder()
        out = decoder.feed_many(chunks)
        assert out == payloads
        assert all(type(payload) is bytes for payload in out)

    @given(payload_lists)
    def test_batch_encode_is_encode_frame_per_payload(self, payloads):
        assert encode_frame_batch(payloads) == [encode_frame(p)
                                                for p in payloads]
        views = [memoryview(p) for p in payloads]
        assert encode_frame_batch(views) == encode_frame_batch(payloads)


def _bad_magic(payload=b"doomed"):
    frame = bytearray(encode_frame(payload))
    frame[0] = FRAME_MAGIC ^ 0xFF
    return bytes(frame)


def _oversize():
    return (bytes([FRAME_MAGIC]) + (MAX_FRAME_SIZE + 1).to_bytes(4, "big")
            + b"x")


class TestBadHeadersOnTheWholeFramePath:
    @pytest.mark.parametrize("bad", [_bad_magic(), _oversize()],
                             ids=["bad-magic", "oversize-length"])
    @given(payloads=st.lists(st.binary(max_size=64), max_size=8))
    def test_rejected_mid_batch_with_earlier_counters_intact(self, bad,
                                                             payloads):
        good = encode_frame_batch(payloads)
        chunks = good + [bad] + [encode_frame(b"never reached")]

        batch = FrameDecoder()
        with pytest.raises(FramingError):
            batch.feed_many(chunks)

        per_chunk = FrameDecoder()
        with pytest.raises(FramingError):
            for chunk in chunks:
                per_chunk.feed(chunk)

        assert batch.frames_decoded == per_chunk.frames_decoded == len(good)
        assert (batch.bytes_consumed == per_chunk.bytes_consumed
                == sum(map(len, good)) + len(bad))
        assert batch.chunks_consumed == per_chunk.chunks_consumed \
            == len(good) + 1
        assert batch.pending_bytes == per_chunk.pending_bytes == len(bad)

    def test_a_whole_frame_with_a_bad_magic_alone(self):
        decoder = FrameDecoder()
        with pytest.raises(FramingError):
            decoder.feed_many([_bad_magic()])
        assert decoder.frames_decoded == 0

    def test_a_whole_frame_over_the_size_limit(self):
        # Exactly one frame, header and length consistent, only too big:
        # the whole-frame path must not wave it through.
        body = bytes(MAX_FRAME_SIZE + 1)
        frame = bytes([FRAME_MAGIC]) + len(body).to_bytes(4, "big") + body
        decoder = FrameDecoder()
        with pytest.raises(FramingError):
            decoder.feed_many([encode_frame(b"ok"), frame])
        assert decoder.frames_decoded == 1

    def test_encode_rejects_an_oversize_payload_in_a_batch(self):
        class Huge(bytes):
            def __len__(self):
                return MAX_FRAME_SIZE + 1

        with pytest.raises(FramingError):
            encode_frame_batch([b"fine", Huge(b"x")])
        with pytest.raises(FramingError):
            encode_frame(Huge(b"x"))
