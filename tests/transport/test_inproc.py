"""The inproc channel is the simulated WLAN: seeded losses, airtime, stats."""

import tracemalloc

import pytest

from repro.net import DistanceLoss, FixedPatternLoss, NoLoss
from repro.transport import InprocChannel, InprocTransport, TransportError


class TestInprocChannel:
    def test_members_by_distance_or_model(self):
        channel = InprocChannel("wlan")
        channel.join("a", distance_m=10.0)
        channel.join("b", loss_model=NoLoss())
        assert channel.members() == ["a", "b"]
        assert channel.receiver("a").distance_m == 10.0
        assert channel.receiver("b").distance_m is None

    def test_multicast_reaches_every_member(self):
        channel = InprocChannel("wlan")
        a = channel.join("a")
        b = channel.join("b")
        assert channel.send(b"hello") == 2
        assert a.take() == [b"hello"]
        assert b.pending() == 1
        assert channel.packets_sent == 1
        assert channel.bytes_sent == 5

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

    def test_stats_track_losses(self):
        channel = InprocChannel("wlan")
        receiver = channel.join("r", loss_model=FixedPatternLoss([True, False]))
        assert channel.send_many([b"a", b"b", b"c", b"d"]) == 4
        stats = receiver.stats
        assert stats.packets_sent_to == 4
        assert stats.packets_lost == 2
        assert stats.delivery_ratio == pytest.approx(0.5)
        assert stats.loss_ratio == pytest.approx(0.5)

    def test_seeded_losses_are_deterministic(self):
        def run(seed):
            channel = InprocChannel("wlan", seed=seed)
            receiver = channel.join("m", distance_m=30.0, seed=seed)
            for i in range(200):
                channel.send(bytes([i % 256]))
            return [bytes(p) for p in receiver.take()]

        assert run(11) == run(11)
        assert run(11) != run(12)  # different seed, different losses

    def test_unseeded_members_are_seeded_from_the_channel(self):
        """A member joined by distance alone draws from
        ``seed * 7919 + members + 1``."""
        channel = InprocChannel("wlan", seed=5)
        channel.join("first", distance_m=30.0)
        second = channel.join("second", distance_m=30.0)
        reference = DistanceLoss(30.0, seed=5 * 7919 + 2)
        expected = [not reference.packet_lost() for _ in range(300)]
        for i in range(300):
            channel.send(bytes([i % 256]))
        assert [p[0] for p in second.take()] == [
            i % 256 for i, kept in enumerate(expected) if kept]

    def test_send_many_draws_like_a_loop_of_send(self):
        """Losses are drawn packet by packet, members in join order, so a
        batch replays exactly what one send per packet would."""
        def run(send):
            channel = InprocChannel("wlan", seed=3)
            # A model shared by two members exposes the draw order.
            shared = DistanceLoss(35.0, seed=9)
            members = [channel.join("a", loss_model=shared),
                       channel.join("b", distance_m=30.0),
                       channel.join("c", loss_model=shared)]
            send(channel, [b"%d" % i for i in range(400)])
            return ([m.take() for m in members],
                    [vars(m.stats) for m in members],
                    channel.packets_sent, channel.busy_time_s)

        def one_by_one(channel, payloads):
            for payload in payloads:
                channel.send(payload)

        assert run(one_by_one) == run(
            lambda channel, payloads: channel.send_many(payloads))

    def test_callback_only_member_keeps_nothing(self):
        """A callback-only member sees every delivery and queues none."""
        channel = InprocChannel("w", seed=1)
        queued = channel.join("queued", distance_m=10.0)
        seen = []
        callback = channel.join("callback", distance_m=10.0,
                                queue_payloads=False, on_receive=seen.append)
        for i in range(500):
            channel.send(b"%d" % i)
        assert callback.pending() == 0
        assert len(seen) == callback.packets_received > 0
        assert queued.pending() == queued.packets_received > 0

    def test_sending_keeps_no_per_packet_record(self):
        """The channel and its members keep counters only: 20 000 sends to
        a callback-only member leave the traced heap where it was."""
        channel = InprocChannel("w", seed=1)
        channel.join("m", distance_m=25.0, queue_payloads=False,
                     on_receive=lambda payload: None)
        payload = b"\x00" * 64
        for _ in range(100):
            channel.send(payload)
        tracemalloc.start()
        try:
            before, _peak = tracemalloc.get_traced_memory()
            for _ in range(20_000):
                channel.send(payload)
            after, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 1 << 20

    def test_airtime_accounting(self):
        channel = InprocChannel("wlan", bandwidth_bps=2_000_000)
        channel.per_packet_overhead_s = 0.0
        channel.join("r")
        channel.send(b"\x00" * 250)  # 2000 bits at 2 Mbps = 1 ms
        assert channel.busy_time_s == pytest.approx(0.001)
        assert channel.bytes_sent == 250
        assert channel.utilisation(0.01) == pytest.approx(0.1)
        assert channel.utilisation(0.0) == 0.0

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            InprocChannel("wlan", bandwidth_bps=0)

    def test_receiver_callback(self):
        got = []
        channel = InprocChannel("wlan")
        channel.join("cb", on_receive=got.append)
        channel.send(b"payload")
        assert got == [b"payload"]

    def test_distance_and_move(self):
        channel = InprocChannel("wlan")
        receiver = channel.join("walker", distance_m=5.0, seed=3)
        assert isinstance(receiver.loss_model, DistanceLoss)
        receiver.move_to(40.0)
        assert receiver.distance_m == 40.0

    def test_move_requires_a_distance_model(self):
        receiver = InprocChannel("wlan").join("fixed", loss_model=NoLoss())
        with pytest.raises(TypeError):
            receiver.move_to(30.0)

    def test_send_to_unicasts_to_one_member(self):
        channel = InprocChannel("wlan")
        a = channel.join("a")
        b = channel.join("b")
        assert channel.send_to("a", b"uni")
        assert not channel.send_to("ghost", b"lost")
        assert a.take() == [b"uni"]
        assert b.pending() == 0
        assert channel.packets_sent == 1
        assert b.stats.packets_sent_to == 0

    def test_unicast_draws_no_loss_for_other_members(self):
        """A unicast consumes only its member's loss draws, so the others
        replay the same losses as on a channel that never unicast."""
        def multicasts(unicast):
            channel = InprocChannel("wlan", seed=4)
            channel.join("a", distance_m=30.0)
            b = channel.join("b", distance_m=30.0)
            for i in range(300):
                channel.send(bytes([i % 256]))
                if unicast:
                    channel.send_to("a", b"direct")
            return b.take(), vars(b.stats)

        assert multicasts(unicast=True) == multicasts(unicast=False)

    def test_multicast_without_members_is_still_on_the_air(self):
        channel = InprocChannel("wlan")
        assert channel.send(b"abc") == 0
        assert channel.send_many([b"de", b"f"]) == 0
        assert channel.packets_sent == 3
        assert channel.bytes_sent == 6
        assert channel.busy_time_s == pytest.approx(
            channel.airtime_for(3) + channel.airtime_for(2)
            + channel.airtime_for(1))

    def test_an_empty_batch_sends_nothing(self):
        channel = InprocChannel("wlan")
        receiver = channel.join("a")
        assert channel.send_many([]) == 0
        assert channel.packets_sent == 0
        assert channel.busy_time_s == 0.0
        assert receiver.stats.packets_sent_to == 0

    def test_lookup_of_a_missing_member_raises(self):
        channel = InprocChannel("wlan")
        a = channel.join("a")
        b = channel.join("b", distance_m=12.0)
        assert channel.local_receivers() == [a, b]
        with pytest.raises(KeyError):
            channel.receiver("ghost")

    def test_leave_marks_the_member_eof(self):
        channel = InprocChannel("wlan")
        receiver = channel.join("a")
        channel.leave("a")
        channel.leave("a")  # missing is a no-op
        assert channel.members() == []
        assert receiver.at_eof()
        assert channel.send(b"x") == 0

    def test_close_marks_channel_receivers_eof(self):
        channel = InprocChannel("wlan")
        receiver = channel.join("a")
        channel.send(b"x")
        channel.close()
        assert receiver.recv(timeout=1.0) == b"x"
        assert receiver.recv(timeout=1.0) is None
        with pytest.raises(TransportError):
            channel.send(b"late")

    def test_a_member_joining_after_close_is_at_eof(self):
        channel = InprocChannel("wlan")
        channel.close()
        late = channel.join("late")
        assert late.at_eof()
        assert late.recv(timeout=1.0) is None

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

    def test_an_explicit_seed_wins(self):
        def packets(channel):
            receiver = channel.join("m", distance_m=30.0)
            for i in range(100):
                channel.send(bytes([i % 256]))
            return receiver.take()

        opened = InprocTransport(seed=7).open_channel("wlan", seed=3)
        assert packets(opened) == packets(InprocChannel("wlan", seed=3))

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
