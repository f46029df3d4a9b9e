"""Sessions over non-default transports (regression tests for review).

The pavilion and rapidware sessions advertise ``transport=``; these tests
pin the behaviours that were found broken in review: delivery over pull
transports (UDP), graceful degradation of the adaptation plane off the
simulated LAN, ``REPRO_TRANSPORT`` being honoured, and the channel-side
receiver queues not duplicating every delivered packet.
"""

from repro.media import AudioPacketizer, ToneSource
from repro.pavilion import CollaborativeSession
from repro.rapidware import AdaptiveAudioSession
from repro.transport import TRANSPORT_ENV_VAR, InprocChannel, UdpChannel


def _packets(duration_s=0.2):
    return AudioPacketizer(ToneSource(duration=duration_s),
                           packet_duration_ms=20).packet_list()


class TestPavilionOverTransports:
    def _browse_once(self, session):
        session.join("leader")
        session.join("mobile", wireless=True)
        try:
            session.browse("leader", "http://collab.example/page0.html")
            return session.delivery_summary()["mobile"]
        finally:
            session.shutdown()

    def test_wireless_delivery_over_loopback(self):
        summary = self._browse_once(CollaborativeSession(transport="loopback"))
        assert summary["pages"] == 1
        assert summary["over_air_bytes"] > 0

    def test_wireless_delivery_over_udp(self):
        """Pull transports must be drained, not just sent to (review #1)."""
        summary = self._browse_once(CollaborativeSession(transport="udp"))
        assert summary["pages"] == 1
        assert summary["over_air_bytes"] > 0

    def test_udp_matches_inproc_delivery(self):
        inproc = self._browse_once(CollaborativeSession(seed=3))
        udp = self._browse_once(CollaborativeSession(transport="udp", seed=3))
        assert udp["bytes"] == inproc["bytes"]

    def test_env_var_is_honoured(self, monkeypatch):
        monkeypatch.setenv(TRANSPORT_ENV_VAR, "udp")
        session = CollaborativeSession()
        try:
            assert isinstance(session.channel, UdpChannel)
        finally:
            session.shutdown()
        monkeypatch.delenv(TRANSPORT_ENV_VAR)
        session = CollaborativeSession()
        try:
            assert isinstance(session.channel, InprocChannel)
        finally:
            session.shutdown()

    def test_wireless_receiver_queue_stays_empty(self):
        """Callback-only receivers must not hoard a copy of every page."""
        session = CollaborativeSession()
        session.join("leader")
        session.join("mobile", wireless=True)
        try:
            for _ in range(3):
                session.browse("leader", "http://collab.example/page0.html")
            receiver = session._wireless_receivers["mobile"]
            assert receiver.packets_received > 0
            assert receiver.pending() == 0
        finally:
            session.shutdown()


class TestAdaptiveSessionOverTransports:
    def test_stream_and_inert_adaptation_over_loopback(self):
        session = AdaptiveAudioSession(transport="loopback")
        try:
            packets = _packets()
            session.enqueue_packets(packets)
            session.observe(1.0)       # must be a no-op, not AttributeError
            session.move_receiver(40)  # likewise (review #2)
            session.finish(timeout=30.0)
            report = session.delivery_report()
            assert report.reconstructed_percent == 100.0
            assert not session.fec_active
        finally:
            session.shutdown()

    def test_stream_over_udp(self):
        session = AdaptiveAudioSession(transport="udp")
        try:
            packets = _packets()
            session.enqueue_packets(packets)
            session.finish(timeout=30.0)
            assert session.delivery_report().reconstructed_percent == 100.0
        finally:
            session.shutdown()

    def test_inproc_capture_drains_the_receiver(self):
        """Capture drains the member's queue: nothing is left behind."""
        session = AdaptiveAudioSession(seed=7)
        try:
            session.enqueue_packets(_packets())
            session.finish(timeout=30.0)
            assert session.receiver.pending() == 0
            assert session.receiver.packets_received > 0
        finally:
            session.shutdown()

    def test_env_var_is_honoured(self, monkeypatch):
        monkeypatch.setenv(TRANSPORT_ENV_VAR, "udp")
        session = AdaptiveAudioSession()
        try:
            assert isinstance(session.channel, UdpChannel)
        finally:
            session.shutdown()
