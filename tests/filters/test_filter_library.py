"""Unit tests for the concrete filter library.

These tests drive the filters through their packet/chunk transforms directly
(the chain-level behaviour is covered by the core and integration tests), so
each filter's data transformation can be checked precisely.
"""

import zlib

import pytest

from repro.fec import FecPacket
from repro.filters import (
    AudioDownsampleFilter,
    AudioMonoFilter,
    AudioRequantizeFilter,
    ByteCounterFilter,
    DelayFilter,
    DuplicateSuppressorFilter,
    FecDecoderFilter,
    FecEncoderFilter,
    PacketTapFilter,
    PassthroughFilter,
    RateLimiterFilter,
    ReorderingFilter,
    SequenceGapTapFilter,
    SequenceStamperFilter,
    UppercaseFilter,
    VideoBFrameDropFilter,
    VideoFrameThinningFilter,
    XorCipherFilter,
    ZlibCompressFilter,
    ZlibDecompressFilter,
)
from repro.media import (
    AudioFormat,
    FRAME_B,
    FRAME_I,
    MediaPacket,
    ToneSource,
    TYPE_AUDIO,
    VideoSource,
    packetize_pcm,
)


def audio_packets(duration=0.2):
    return packetize_pcm(ToneSource(duration=duration).pcm_bytes())


class TestSimpleFilters:
    def test_passthrough(self):
        assert PassthroughFilter().transform(b"abc") == b"abc"

    def test_uppercase(self):
        assert UppercaseFilter().transform(b"hello World") == b"HELLO WORLD"

    def test_delay_filter_validates(self):
        with pytest.raises(ValueError):
            DelayFilter(delay_s=-1)
        assert DelayFilter(delay_s=0).transform(b"x") == b"x"

    def test_byte_counter(self):
        counter = ByteCounterFilter()
        counter.transform(b"abc")
        counter.transform(b"de")
        assert counter.total_bytes == 5
        assert counter.total_chunks == 2


class TestFecFilters:
    def test_encoder_emits_groups(self):
        encoder = FecEncoderFilter(k=2, n=3)
        assert encoder.transform_packets([b"p0"]) == []
        group = encoder.transform_packets([b"p1"])
        assert len(group) == 3
        parsed = [FecPacket.unpack(p) for p in group]
        assert [p.index for p in parsed] == [0, 1, 2]

    def test_encoder_flush_emits_uncoded_tail(self):
        encoder = FecEncoderFilter(k=4, n=6)
        encoder.transform_packets([b"only one"])
        tail = encoder.finalize_packets()
        assert len(tail) == 1
        assert FecPacket.unpack(tail[0]).is_uncoded

    def test_encoder_decoder_round_trip(self):
        encoder = FecEncoderFilter(k=4, n=6)
        decoder = FecDecoderFilter()
        payloads = [f"payload-{i}".encode() for i in range(8)]
        encoded = []
        for payload in payloads:
            encoded.extend(encoder.transform_packets([payload]))
        out = []
        for packet in encoded:
            out.extend(decoder.transform_packets([packet]) or [])
        out.extend(decoder.finalize_packets() or [])
        assert out == payloads

    def test_decoder_recovers_losses(self):
        encoder = FecEncoderFilter(k=4, n=6)
        decoder = FecDecoderFilter()
        payloads = [f"pkt-{i}".encode() for i in range(4)]
        encoded = []
        for payload in payloads:
            encoded.extend(encoder.transform_packets([payload]))
        # lose two of the six encoded packets
        survivors = [p for i, p in enumerate(encoded) if i not in (1, 4)]
        out = []
        for packet in survivors:
            out.extend(decoder.transform_packets([packet]) or [])
        assert out == payloads
        assert decoder.decoder_stats.groups_repaired == 1

    def test_decoder_passthrough_of_non_fec_packets(self):
        decoder = FecDecoderFilter(passthrough_unknown=True)
        assert decoder.transform_packets([b"not fec at all"]) == [b"not fec at all"]
        assert decoder.unknown_packets == 1
        strict = FecDecoderFilter(passthrough_unknown=False)
        assert strict.transform_packets([b"not fec at all"]) == []

    def test_two_encoders_use_distinct_group_ids(self):
        first = FecEncoderFilter(k=1, n=1)
        second = FecEncoderFilter(k=1, n=1)
        id_a = FecPacket.unpack(first.transform_packets([b"x"])[0]).group_id
        id_b = FecPacket.unpack(second.transform_packets([b"x"])[0]).group_id
        assert id_a != id_b

    def test_every_group_id_base_leaves_2_31_ids_of_headroom(self):
        from repro.filters import fec_filters

        # Bases wrap every 2048 encoders: one lap reaches the largest.
        bases = {fec_filters._allocate_group_id_base() for _ in range(2048)}
        assert max(bases) == (1 << 31) - (1 << 20)
        # An encoder at the largest base, 2^20 groups in, still encodes.
        past = max(bases) + (1 << 20)
        encoder = FecEncoderFilter(k=1, n=2, start_group_id=past)
        group = encoder.transform_packets([b"x"])
        assert [FecPacket.unpack(p).group_id for p in group] == [past, past]

    def test_describe_includes_fec_details(self):
        encoder = FecEncoderFilter(k=4, n=6)
        assert encoder.describe()["fec"]["k"] == 4
        decoder = FecDecoderFilter()
        assert "groups_decoded" in decoder.describe()["fec"]


class TestAudioTranscoders:
    def test_downsample_halves_payload(self):
        packet = audio_packets()[0]
        transcoded = AudioDownsampleFilter(factor=2).transform_media(packet)
        assert len(transcoded.payload) == len(packet.payload) // 2
        assert transcoded.sequence == packet.sequence

    def test_downsample_factor_one_is_identity(self):
        packet = audio_packets()[0]
        assert AudioDownsampleFilter(factor=1).transform_media(packet) is packet

    def test_downsample_validates_arguments(self):
        with pytest.raises(ValueError):
            AudioDownsampleFilter(factor=0)
        with pytest.raises(ValueError):
            AudioDownsampleFilter(channels=0)
        with pytest.raises(ValueError):
            AudioDownsampleFilter(sample_width=3)

    def test_mono_mix_halves_payload(self):
        packet = audio_packets()[0]
        mono = AudioMonoFilter().transform_media(packet)
        assert len(mono.payload) == len(packet.payload) // 2

    def test_requantize_halves_16bit_payload(self):
        fmt = AudioFormat(sample_rate=8000, channels=1, sample_width=2)
        pcm = ToneSource(duration=0.1, audio_format=fmt).pcm_bytes()
        packet = MediaPacket(sequence=0, timestamp_ms=0, payload=pcm,
                             media_type=TYPE_AUDIO)
        requantized = AudioRequantizeFilter().transform_media(packet)
        assert len(requantized.payload) == len(pcm) // 2

    def test_non_audio_packets_untouched(self):
        video_packet = VideoSource(duration=0.1).frame(0).to_packet()
        assert AudioDownsampleFilter().transform_media(video_packet) is video_packet

    def test_non_media_packets_pass_through_filter_api(self):
        downsampler = AudioDownsampleFilter()
        assert downsampler.transform_packet(b"opaque") == b"opaque"
        assert downsampler.non_media_packets == 1


class TestVideoTranscoders:
    def test_b_frames_dropped(self):
        video = VideoSource(duration=0.5)
        dropper = VideoBFrameDropFilter()
        kept = []
        for packet in video.packets():
            result = dropper.transform_media(packet)
            if result is not None:
                kept.append(result)
        assert all(p.marker != FRAME_B for p in kept)
        assert dropper.frames_dropped > 0
        assert any(p.marker == FRAME_I for p in kept)

    def test_frame_thinning_keeps_every_nth(self):
        video = VideoSource(duration=0.5)
        thinner = VideoFrameThinningFilter(keep_every=3)
        kept = [p for p in (thinner.transform_media(pkt) for pkt in video.packets())
                if p is not None]
        assert len(kept) == 5  # 15 frames / 3
        with pytest.raises(ValueError):
            VideoFrameThinningFilter(keep_every=0)

    def test_audio_untouched_by_video_filters(self):
        packet = audio_packets()[0]
        assert VideoBFrameDropFilter().transform_media(packet) is packet
        assert VideoFrameThinningFilter().transform_media(packet) is packet


class TestCompressionAndCipher:
    def test_zlib_round_trip(self):
        compressor = ZlibCompressFilter()
        decompressor = ZlibDecompressFilter()
        payload = b"collaborative web content " * 50
        compressed = compressor.transform_packet(payload)
        assert len(compressed) < len(payload)
        assert decompressor.transform_packet(compressed) == payload
        assert compressor.bytes_saved > 0

    def test_zlib_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            ZlibCompressFilter(level=10)

    def test_decompress_invalid_data(self):
        strict = ZlibDecompressFilter()
        with pytest.raises(zlib.error):
            strict.transform_packet(b"not compressed")
        lenient = ZlibDecompressFilter(passthrough_invalid=True)
        assert lenient.transform_packet(b"not compressed") == b"not compressed"
        assert lenient.invalid_packets == 1

    def test_xor_cipher_round_trips(self):
        cipher = XorCipherFilter(key=b"secret")
        payload = b"the quick brown fox"
        scrambled = cipher.transform_packet(payload)
        assert scrambled != payload
        assert cipher.transform_packet(scrambled) == payload

    def test_xor_cipher_empty_key_rejected(self):
        with pytest.raises(ValueError):
            XorCipherFilter(key=b"")


class TestTapsAndSequencing:
    def test_packet_tap_counts_and_calls_back(self):
        seen = []
        tap = PacketTapFilter(callback=seen.append)
        assert tap.transform_packet(b"one") == b"one"
        tap.transform_packet(b"two")
        assert tap.packets_seen == 2
        assert seen == [b"one", b"two"]

    def test_packet_tap_callback_errors_do_not_propagate(self):
        def explode(_packet):
            raise RuntimeError("observer bug")

        tap = PacketTapFilter(callback=explode)
        assert tap.transform_packet(b"x") == b"x"
        assert tap.stats.snapshot()["errors"] == 1

    def test_sequence_gap_tap_estimates_loss(self):
        tap = SequenceGapTapFilter(window=100)
        packets = audio_packets(duration=1.0)
        for packet in packets:
            if packet.sequence % 10 == 3:
                continue  # 10% loss
            tap.transform_packet(packet.pack())
        assert tap.recent_loss_rate() == pytest.approx(0.1, abs=0.03)

    def test_sequence_gap_tap_no_loss(self):
        tap = SequenceGapTapFilter()
        for packet in audio_packets(duration=0.2):
            tap.transform_packet(packet.pack())
        assert tap.recent_loss_rate() == 0.0

    def test_sequence_stamper_wraps_payloads(self):
        stamper = SequenceStamperFilter()
        first = MediaPacket.unpack(stamper.transform_packet(b"alpha"))
        second = MediaPacket.unpack(stamper.transform_packet(b"beta"))
        assert (first.sequence, second.sequence) == (0, 1)
        assert first.payload == b"alpha"

    def test_duplicate_suppressor(self):
        suppressor = DuplicateSuppressorFilter()
        packet = audio_packets()[0].pack()
        assert suppressor.transform_packet(packet) == packet
        assert suppressor.transform_packet(packet) is None
        assert suppressor.duplicates_dropped == 1

    def test_reordering_filter_restores_order(self):
        reorderer = ReorderingFilter(window=8)
        packets = [p.pack() for p in audio_packets(duration=0.2)]
        shuffled = [packets[1], packets[0], packets[3], packets[2]] + packets[4:]
        out = []
        for packet in shuffled:
            out.extend(reorderer.transform_packet(packet))
        out.extend(reorderer.finalize_packets())
        assert out == packets

    def test_reordering_filter_skips_after_window_fills(self):
        reorderer = ReorderingFilter(window=2)
        packets = [p.pack() for p in audio_packets(duration=0.2)]
        out = []
        for packet in packets[1:5]:  # packet 0 never arrives
            out.extend(reorderer.transform_packet(packet))
        assert reorderer.packets_skipped == 1
        assert out  # later packets were eventually released

    def test_rate_limiter_validates(self):
        with pytest.raises(ValueError):
            RateLimiterFilter(bytes_per_second=0)
        limiter = RateLimiterFilter(bytes_per_second=1e9)
        assert limiter.transform(b"x" * 100) == b"x" * 100
