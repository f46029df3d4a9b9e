"""Unit tests for the packet framing layer."""

import pytest

from repro.streams import (
    DetachableInputStream,
    DetachableOutputStream,
    FramingError,
    FrameDecoder,
    HEADER_SIZE,
    StreamTimeoutError,
    encode_frame,
    encode_frames,
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
        """50 000 frames over a byte -> packet hop: the decoder behind it
        must hold O(1) payloads, not one per packet ever decoded."""
        from repro.core.filter import PacketFilter

        filter_obj = PacketFilter()
        up = DetachableOutputStream()  # a byte writer: the hop de-frames
        up.connect(filter_obj.dis)
        payload = bytes(320)
        batch = [encode_frames([payload] * 50)] * 10
        for _ in range(100):
            up.write_many(batch)
            assert len(filter_obj.dis.read_chunks(1 << 20, timeout=0)) == 500
        decoder = filter_obj.dis._decoder
        assert decoder.frames_decoded == 50_000
        # No container on the decoder holds anything between frames.
        assert [len(value) for value in vars(decoder).values()
                if hasattr(value, "__len__")] == [0]
        assert decoder.packets() == []


def _packet_pipe(writer_packets, reader_packets):
    """A pipe with the given ends; the kinds are set before the connect,
    which is where the hop is decided."""
    dos, dis = DetachableOutputStream(), DetachableInputStream()
    dos.packets, dis.packets = writer_packets, reader_packets
    dos.connect(dis)
    return dos, dis


class TestPacketPipe:
    """A pipe whose ends carry packets frames only where bytes meet them."""

    def test_packets_cross_a_packet_pipe_whole_and_unframed(self):
        dos, dis = _packet_pipe(True, True)
        packet = b"packet-1"
        dos.write_many([packet, b"", b"packet-2"])  # the empty one is dropped
        got = dis.read_chunks(timeout=1.0)
        assert got == [b"packet-1", b"packet-2"] and got[0] is packet
        assert dis.bytes_received == dos.bytes_written == 16

    def test_a_packet_writer_into_a_byte_reader_is_framed(self):
        dos, dis = _packet_pipe(True, False)
        dos.write_many([b"packet-1", b""])
        dos.write(b"packet-2")
        assert dis.read_chunks(timeout=1.0) == [encode_frame(b"packet-1"),
                                                encode_frame(b"packet-2")]
        assert dos.bytes_written == 2 * (HEADER_SIZE + 8)

    def test_a_byte_writer_into_a_packet_reader_is_deframed(self):
        dos, dis = _packet_pipe(False, True)
        payloads = [bytes([i]) * i for i in range(20)]  # 0: an empty packet
        stream = encode_frames(payloads)
        for start in range(0, len(stream), 7):
            dos.write(stream[start:start + 7])
        dos.close()
        assert dis.read_chunks(1 << 16, timeout=1.0) == payloads[1:]
        assert dis.read_chunks(timeout=1.0) == []  # end of stream
        assert dos.bytes_written == sum(map(len, payloads))

    def test_read_times_out_while_open_and_empty(self):
        _dos, dis = _packet_pipe(False, True)
        with pytest.raises(StreamTimeoutError):
            dis.read_chunks(timeout=0.05)

    def test_a_truncated_stream_raises_after_the_packets_before_it(self):
        dos, dis = _packet_pipe(False, True)
        dos.write(encode_frame(b"whole") + encode_frame(b"never finished")[:-3])
        dos.close()
        assert dis.read_chunks(timeout=1.0) == [b"whole"]
        with pytest.raises(FramingError):
            dis.read_chunks(timeout=1.0)
        assert dis.at_eof() and isinstance(dis.fault, FramingError)

    def test_a_bad_frame_fails_the_reader_not_the_writer(self):
        dos, dis = _packet_pipe(False, True)
        dos.write_many([encode_frame(b"one"), b"\x00garbage", encode_frame(b"x")])
        dos.write(encode_frame(b"dropped"))  # after the fault: never read
        assert dis.read_chunks(timeout=1.0) == [b"one"]
        with pytest.raises(FramingError, match="magic"):
            dis.read_chunks(timeout=1.0)
