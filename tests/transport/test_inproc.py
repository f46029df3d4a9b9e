"""The inproc transport must preserve the simulation's semantics exactly."""

import pytest

from repro.net import DistanceLoss, FixedPatternLoss, WirelessLAN
from repro.transport import InprocChannel, InprocTransport, TransportError


class TestInprocChannel:
    def test_wraps_an_existing_wlan(self):
        wlan = WirelessLAN(seed=5)
        channel = InprocChannel("wlan", wlan=wlan)
        receiver = channel.join("laptop")
        channel.send(b"pkt")
        assert receiver.take() == [b"pkt"]
        # The same packet went through the simulated access point.
        assert wlan.access_point.packets_sent == 1
        assert wlan.access_point.receiver("laptop").stats.packets_received == 1

    def test_loss_model_applies_per_member(self):
        channel = InprocChannel("wlan")
        lossy = channel.join("lossy",
                             loss_model=FixedPatternLoss([True, False]))
        clean = channel.join("clean")
        channel.send(b"p1")
        channel.send(b"p2")
        assert lossy.take() == [b"p2"]        # first packet lost
        assert clean.take() == [b"p1", b"p2"]  # no-loss default
        assert lossy.stats.packets_lost == 1

    def test_seeded_losses_are_deterministic(self):
        def run(seed):
            channel = InprocChannel("wlan", seed=seed)
            receiver = channel.join("m", distance_m=30.0, seed=seed)
            for i in range(200):
                channel.send(bytes([i % 256]))
            return [bytes(p) for p in receiver.take()]

        assert run(11) == run(11)
        assert run(11) != run(12)  # different seed, different losses

    def test_members_keep_no_second_copy(self):
        """The simulated receiver hands each payload to the channel
        receiver and keeps none itself; a callback-only member keeps none
        at all."""
        channel = InprocChannel("w", seed=1)
        queued = channel.join("queued", distance_m=10.0)
        seen = []
        callback = channel.join("callback", distance_m=10.0,
                                queue_payloads=False, on_receive=seen.append)
        for i in range(500):
            channel.send(b"%d" % i)
        assert callback.pending() == 0
        assert callback.wireless.pending() == 0
        assert len(seen) == callback.packets_received > 0
        assert queued.wireless.pending() == 0
        assert queued.pending() == queued.packets_received > 0

    def test_distance_and_move(self):
        channel = InprocChannel("wlan")
        receiver = channel.join("walker", distance_m=5.0, seed=3)
        assert isinstance(receiver.wireless.loss_model, DistanceLoss)
        receiver.move_to(40.0)
        assert receiver.wireless.distance_m == 40.0

    def test_send_to_unicasts_through_the_access_point(self):
        channel = InprocChannel("wlan")
        a = channel.join("a")
        channel.join("b")
        assert channel.send_to("a", b"uni")
        assert not channel.send_to("ghost", b"lost")
        assert a.take() == [b"uni"]
        assert channel.access_point.packets_sent == 1

    def test_close_marks_channel_receivers_eof(self):
        channel = InprocChannel("wlan")
        receiver = channel.join("a")
        channel.send(b"x")
        channel.close()
        assert receiver.recv(timeout=1.0) == b"x"
        assert receiver.recv(timeout=1.0) is None
        with pytest.raises(TransportError):
            channel.send(b"late")

    def test_duplicate_member_rejected(self):
        channel = InprocChannel("wlan")
        channel.join("a")
        with pytest.raises(TransportError):
            channel.join("a")


class TestInprocTransport:
    def test_channels_get_stable_derived_seeds(self):
        def packets(transport):
            channel = transport.open_channel("wlan")
            receiver = channel.join("m", distance_m=30.0)
            for i in range(100):
                channel.send(bytes([i % 256]))
            return receiver.take()

        assert packets(InprocTransport(seed=7)) == packets(InprocTransport(seed=7))
        assert packets(InprocTransport(seed=7)) != packets(InprocTransport(seed=8))

    def test_bound_wlan_is_shared_by_channels(self):
        wlan = WirelessLAN(seed=1)
        transport = InprocTransport(wlan=wlan)
        channel = transport.open_channel("wlan")
        assert channel.wlan is wlan

    def test_stream_service_is_reliable(self):
        transport = InprocTransport()
        listener = transport.listen()
        client = transport.connect(listener.address)
        server = listener.accept(timeout=1.0)
        client.send(b"wired side")
        client.close_sending()
        assert server.recv(timeout=1.0) == b"wired side"
        assert server.recv(timeout=1.0) == b""
        transport.close()
