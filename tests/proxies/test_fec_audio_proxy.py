"""Unit tests for the FEC audio proxy and the Figure 7 experiment driver."""

import pytest

from repro.media import AudioPacketizer, ToneSource
from repro.net import BernoulliLoss, FixedPatternLoss, NoLoss
from repro.proxies import (
    FecAudioProxy,
    FecAudioProxyConfig,
    WirelessAudioReceiver,
    run_fec_audio_experiment,
)
from repro.transport import InprocChannel


def audio_packets(duration_s=1.0):
    return AudioPacketizer(ToneSource(duration=duration_s)).packet_list()


def wireless_host(loss_model=None):
    """A simulated WLAN with one mobile host (lossless by default)."""
    channel = InprocChannel()
    return channel, channel.join("host", loss_model=loss_model or NoLoss())


class TestFecAudioProxy:
    def test_lossless_link_delivers_everything(self):
        packets = audio_packets(1.0)
        channel, host = wireless_host()
        proxy = FecAudioProxy(packets, channel=channel).start()
        assert proxy.wait_for_completion(timeout=30.0)
        proxy.shutdown()

        receiver = WirelessAudioReceiver("host")
        receiver.process(host.take())
        receiver.finish()
        report = receiver.delivery_report(len(packets))
        assert report.received_percent == pytest.approx(100.0)
        assert report.reconstructed_percent == pytest.approx(100.0)

    def test_fec_expands_traffic_by_n_over_k(self):
        packets = audio_packets(1.0)  # 50 packets
        channel, host = wireless_host()
        proxy = FecAudioProxy(packets, channel=channel,
                              config=FecAudioProxyConfig(k=4, n=6)).start()
        proxy.wait_for_completion(timeout=30.0)
        proxy.shutdown()
        # 50 payloads = 12 full groups (72 packets) + 2 uncoded tail packets.
        assert channel.packets_sent == 12 * 6 + 2

    def test_without_fec_traffic_is_unexpanded(self):
        packets = audio_packets(1.0)
        channel, host = wireless_host()
        proxy = FecAudioProxy(packets, channel=channel,
                              config=FecAudioProxyConfig(fec_enabled=False)).start()
        proxy.wait_for_completion(timeout=30.0)
        proxy.shutdown()
        assert channel.packets_sent == len(packets)

    def test_fec_recovers_single_losses_per_group(self):
        # 0.96 s = 48 packets = 12 complete FEC(6,4) groups, no uncoded tail,
        # so a strictly periodic one-in-six loss is always repairable.
        packets = audio_packets(0.96)
        # Lose exactly one packet in six, always recoverable with FEC(6,4).
        channel, host = wireless_host(FixedPatternLoss(
            [True, False, False, False, False, False]))
        proxy = FecAudioProxy(packets, channel=channel).start()
        proxy.wait_for_completion(timeout=30.0)
        proxy.shutdown()

        receiver = WirelessAudioReceiver("host")
        receiver.process(host.take())
        receiver.finish()
        report = receiver.delivery_report(len(packets))
        assert report.received_percent < 100.0
        assert report.reconstructed_percent == pytest.approx(100.0)

    def test_enable_and_disable_fec_on_live_stream(self):
        packets = audio_packets(4.0)
        channel, host = wireless_host()
        proxy = FecAudioProxy(packets, channel=channel,
                              config=FecAudioProxyConfig(fec_enabled=False))
        # Pace the source so the stream is still live while we reconfigure.
        proxy._source.pacing_s = 0.001
        proxy.start()
        assert not proxy.fec_active
        proxy.enable_fec()
        assert proxy.fec_active
        proxy.enable_fec()  # idempotent
        proxy.disable_fec()
        assert not proxy.fec_active
        proxy.disable_fec()  # idempotent
        proxy.enable_fec()
        assert proxy.wait_for_completion(timeout=60.0)
        proxy.shutdown()

        receiver = WirelessAudioReceiver("host")
        receiver.process(host.take())
        receiver.finish()
        report = receiver.delivery_report(len(packets))
        # Reconfiguration on a lossless link must not lose anything.
        assert report.reconstructed_percent == pytest.approx(100.0)


class TestRunFecAudioExperiment:
    def test_paper_configuration_shape(self):
        """The headline reproduction: raw ~98.5%, reconstructed ~100%."""
        result = run_fec_audio_experiment(duration_s=20.0, distance_m=25.0,
                                          receiver_count=3, seed=99)
        assert result.total_packets == 1000
        assert len(result.reports) == 3
        assert 97.0 <= result.average_received_percent() <= 99.5
        assert result.average_reconstructed_percent() >= 99.8
        assert result.average_reconstructed_percent() >= result.average_received_percent()

    def test_without_fec_reconstructed_equals_received(self):
        result = run_fec_audio_experiment(duration_s=5.0, distance_m=25.0,
                                          receiver_count=1, fec_enabled=False,
                                          seed=5)
        report = next(iter(result.reports.values()))
        assert report.reconstructed_percent == pytest.approx(report.received_percent)

    def test_custom_loss_model_factory(self):
        result = run_fec_audio_experiment(
            duration_s=5.0, receiver_count=2,
            loss_model_factory=lambda i: BernoulliLoss(0.05, seed=i), seed=1)
        assert result.average_received_percent() < 99.0
        assert result.average_reconstructed_percent() > result.average_received_percent()

    def test_airtime_overhead_of_fec(self):
        with_fec = run_fec_audio_experiment(duration_s=5.0, receiver_count=1,
                                            seed=3)
        without = run_fec_audio_experiment(duration_s=5.0, receiver_count=1,
                                           fec_enabled=False, seed=3)
        assert with_fec.bytes_on_air > without.bytes_on_air
        # Redundancy should cost roughly n/k = 1.5x the bytes (plus headers).
        ratio = with_fec.bytes_on_air / without.bytes_on_air
        assert 1.3 < ratio < 1.8

    def test_invalid_receiver_count(self):
        with pytest.raises(ValueError):
            run_fec_audio_experiment(duration_s=1.0, receiver_count=0)

    def test_windowed_report_matches_figure7_format(self):
        result = run_fec_audio_experiment(duration_s=10.0, distance_m=25.0,
                                          receiver_count=1, seed=7)
        report = next(iter(result.reports.values()))
        points = report.windowed(window_size=100)
        assert len(points) == 5
        for point in points:
            assert point.reconstructed_percent >= point.received_percent
