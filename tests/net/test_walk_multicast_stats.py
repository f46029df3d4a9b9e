"""Unit tests for mobility, multicast groups, delivery stats and traces."""

import pytest

from repro.net import (
    DeliveryReport,
    FIG7_WINDOW_SIZE,
    LinearWalk,
    MulticastGroup,
    PacketTrace,
    loss_run_lengths,
    windowed_percentages,
)


class TestLinearWalk:
    def test_distance_interpolation(self):
        walk = LinearWalk(start_distance_m=5.0, end_distance_m=45.0, duration_s=40.0)
        assert walk.distance_at(0) == 5.0
        assert walk.distance_at(20) == pytest.approx(25.0)
        assert walk.distance_at(40) == 45.0
        assert walk.distance_at(100) == 45.0
        assert walk.distance_at(-5) == 5.0

    def test_positions_sampling(self):
        walk = LinearWalk(0.0, 10.0, 10.0)
        samples = walk.positions(step_s=2.5)
        assert len(samples) == 5
        assert samples[0] == (0.0, 0.0)
        assert samples[-1][1] == 10.0

    def test_invalid_step_rejected(self):
        with pytest.raises(ValueError):
            LinearWalk().positions(0)


class TestMulticastGroup:
    def test_send_to_all_but_sender(self):
        group = MulticastGroup("g")
        seen = {"a": [], "b": []}
        group.subscribe("a", seen["a"].append)
        group.subscribe("b", seen["b"].append)
        assert group.send("msg", exclude="a") == 1
        assert seen == {"a": [], "b": ["msg"]}

    def test_faulty_subscriber_does_not_break_others(self):
        group = MulticastGroup()
        good = []

        def bad(_message):
            raise RuntimeError("subscriber crashed")

        group.subscribe("bad", bad)
        group.subscribe("good", good.append)
        assert group.send("x") == 1
        assert good == ["x"]
        assert group.stats()["bad"]["errors"] == 1

    def test_unsubscribe(self):
        group = MulticastGroup()
        got = []
        group.subscribe("a", got.append)
        group.unsubscribe("a")
        group.send("x")
        assert got == []
        assert group.member_count() == 0


class TestDeliveryReport:
    def test_percentages(self):
        report = DeliveryReport(total_packets=100,
                                received=set(range(90)),
                                reconstructed=set(range(98)))
        assert report.received_percent == pytest.approx(90.0)
        assert report.reconstructed_percent == pytest.approx(98.0)
        assert report.repaired_count == 8

    def test_out_of_range_sequences_ignored(self):
        report = DeliveryReport(total_packets=10, received={0, 5, 99},
                                reconstructed={0, 5, 99, 200})
        assert report.received_percent == pytest.approx(20.0)
        assert report.reconstructed_percent == pytest.approx(20.0)

    def test_windowed_points(self):
        report = DeliveryReport(total_packets=2 * FIG7_WINDOW_SIZE,
                                received=set(range(FIG7_WINDOW_SIZE)),
                                reconstructed=set(range(2 * FIG7_WINDOW_SIZE)))
        points = report.windowed()
        assert len(points) == 2
        assert points[0].received_percent == pytest.approx(100.0)
        assert points[1].received_percent == pytest.approx(0.0)
        assert all(p.reconstructed_percent == pytest.approx(100.0) for p in points)

    def test_windowed_invalid_size(self):
        with pytest.raises(ValueError):
            DeliveryReport(total_packets=10).windowed(window_size=0)

    def test_empty_report(self):
        report = DeliveryReport(total_packets=0)
        assert report.received_percent == 100.0
        assert report.summary()["reconstructed_percent"] == 100.0

    def test_windowed_percentages_helper(self):
        values = windowed_percentages([0, 1, 2, 3, 8], total_packets=10,
                                      window_size=5)
        assert values == [pytest.approx(80.0), pytest.approx(20.0)]

    def test_loss_run_lengths(self):
        assert loss_run_lengths([False, True, True, False, True]) == [2, 1]
        assert loss_run_lengths([]) == []
        assert loss_run_lengths([True, True]) == [2]


class TestPacketTrace:
    def test_record_and_query(self):
        trace = PacketTrace()
        trace.record("sent", 0, time_s=0.0)
        trace.record("delivered", 0, time_s=0.001, receiver="a", size_bytes=100)
        trace.record("lost", 1, time_s=0.002, receiver="a")
        assert trace.count("sent") == 1
        assert trace.count("lost", receiver="a") == 1
        assert trace.sequences("delivered") == [0]
        assert trace.receivers() == ["a"]
        assert trace.summary() == {"sent": 1, "delivered": 1, "lost": 1}
        assert len(trace) == 3

    def test_unknown_event_rejected(self):
        with pytest.raises(ValueError):
            PacketTrace().record("teleported", 0)

    def test_csv_round_trip(self):
        trace = PacketTrace("t")
        trace.record("sent", 3, time_s=1.5, receiver="x", size_bytes=42)
        trace.record("repaired", 3, time_s=1.6, receiver="x")
        restored = PacketTrace.from_csv(trace.to_csv())
        assert restored.events == trace.events
