"""Unit tests for the packet framing layer."""

import pytest

from repro.streams import (
    FramingError,
    FrameDecoder,
    FrameReader,
    FrameWriter,
    HEADER_SIZE,
    StreamTimeoutError,
    encode_frame,
    encode_frames,
    make_pipe,
)


class TestEncodeFrame:
    def test_frame_layout(self):
        frame = encode_frame(b"abc")
        assert len(frame) == HEADER_SIZE + 3
        assert frame[0] == 0xC5
        assert int.from_bytes(frame[1:5], "big") == 3
        assert frame[HEADER_SIZE:] == b"abc"

    def test_empty_payload_allowed(self):
        frame = encode_frame(b"")
        assert len(frame) == HEADER_SIZE

    def test_none_payload_rejected(self):
        with pytest.raises(ValueError):
            encode_frame(None)

    def test_encode_frames_concatenates(self):
        data = encode_frames([b"a", b"bb", b"ccc"])
        decoder = FrameDecoder()
        assert decoder.feed(data) == [b"a", b"bb", b"ccc"]


class TestFrameDecoder:
    def test_single_frame_in_one_chunk(self):
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(b"payload")) == [b"payload"]

    def test_frame_split_across_chunks(self):
        decoder = FrameDecoder()
        frame = encode_frame(b"split-payload")
        assert decoder.feed(frame[:3]) == []
        assert decoder.feed(frame[3:7]) == []
        assert decoder.feed(frame[7:]) == [b"split-payload"]

    def test_multiple_frames_in_one_chunk(self):
        decoder = FrameDecoder()
        chunk = encode_frame(b"one") + encode_frame(b"two")
        assert decoder.feed(chunk) == [b"one", b"two"]

    def test_byte_at_a_time_feeding(self):
        decoder = FrameDecoder()
        payloads = [b"x" * 5, b"", b"hello world"]
        stream = encode_frames(payloads)
        out = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i:i + 1]))
        assert out == payloads

    def test_bad_magic_raises(self):
        decoder = FrameDecoder()
        with pytest.raises(FramingError):
            decoder.feed(b"\x00\x00\x00\x00\x05hello")

    def test_oversized_length_raises(self):
        decoder = FrameDecoder()
        bad = bytes([0xC5]) + (2 ** 31).to_bytes(4, "big") + b"x"
        with pytest.raises(FramingError):
            decoder.feed(bad)

    def test_pending_bytes_reported(self):
        decoder = FrameDecoder()
        frame = encode_frame(b"abcdef")
        decoder.feed(frame[:4])
        assert decoder.has_partial_frame()
        assert decoder.pending_bytes == 4

    def test_frames_decoded_counter(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frames([b"a", b"b", b"c"]))
        assert decoder.frames_decoded == 3

    def test_feed_hands_payloads_over_and_keeps_none(self):
        decoder = FrameDecoder()
        assert decoder.feed(encode_frames([b"a", b"b"])) == [b"a", b"b"]
        # Nothing is left to claim: feed() already returned them.
        assert decoder.packets() == []
        assert not decoder.has_partial_frame()

    def test_a_long_framed_stream_does_not_grow_the_decoder(self):
        """50 000 frames through a PacketFilter: the decoder behind it must
        hold O(1) payloads, not one per packet ever decoded."""
        from repro.core.filter import PacketFilter

        filter_obj = PacketFilter()
        payload = bytes(320)
        batch = [encode_frames([payload] * 50)] * 10
        for _ in range(100):
            filter_obj.transform_chunks(batch, [])
        decoder = filter_obj._decoder
        assert decoder.frames_decoded == 50_000
        # No container on the decoder holds anything between frames.
        assert [len(value) for value in vars(decoder).values()
                if hasattr(value, "__len__")] == [0]
        assert decoder.packets() == []


class TestFrameReaderWriter:
    def test_round_trip_over_pipe(self):
        dos, dis = make_pipe()
        writer = FrameWriter(dos)
        reader = FrameReader(dis)
        writer.write_packet(b"packet-1")
        writer.write_packet(b"packet-2")
        assert reader.read_packet(timeout=1.0) == b"packet-1"
        assert reader.read_packet(timeout=1.0) == b"packet-2"

    def test_read_packet_returns_none_at_eof(self):
        dos, dis = make_pipe()
        writer = FrameWriter(dos)
        reader = FrameReader(dis)
        writer.write_packet(b"last")
        writer.close()
        assert reader.read_packet(timeout=1.0) == b"last"
        assert reader.read_packet(timeout=1.0) is None

    def test_read_packet_times_out(self):
        _dos, dis = make_pipe()
        reader = FrameReader(dis)
        with pytest.raises(StreamTimeoutError):
            reader.read_packet(timeout=0.05)

    def test_truncated_stream_raises(self):
        dos, dis = make_pipe()
        reader = FrameReader(dis)
        frame = encode_frame(b"never finished")
        dos.write(frame[:-3])
        dos.close()
        with pytest.raises(FramingError):
            reader.read_packet(timeout=1.0)

    def test_write_packets_and_read_all(self):
        dos, dis = make_pipe()
        writer = FrameWriter(dos)
        reader = FrameReader(dis)
        payloads = [bytes([i]) * i for i in range(1, 20)]
        writer.write_packets(payloads)
        writer.close()
        assert reader.read_all(timeout=1.0) == payloads

    def test_iteration_protocol(self):
        dos, dis = make_pipe()
        writer = FrameWriter(dos)
        reader = FrameReader(dis)
        writer.write_packets([b"a", b"b", b"c"])
        writer.close()
        assert list(reader) == [b"a", b"b", b"c"]

    def test_counters(self):
        dos, dis = make_pipe()
        writer = FrameWriter(dos)
        reader = FrameReader(dis)
        writer.write_packets([b"1", b"2"])
        writer.close()
        reader.read_all(timeout=1.0)
        assert writer.packets_written == 2
        assert reader.packets_read == 2
