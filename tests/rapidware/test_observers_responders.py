"""Unit tests for the concrete observers, responders and the adaptive session."""

import pytest

from repro.core import CollectorSink, IterableSource, null_proxy
from repro.net import (
    FixedPatternLoss,
    LinearWalk,
    NoLoss,
)
from repro.rapidware import (
    AdaptationLimits,
    BandwidthObserver,
    EVENT_DEVICE_JOINED,
    EVENT_FILTER_INSERTED,
    EVENT_HANDOFF,
    EVENT_LOSS_RATE,
    Event,
    EventBus,
    FecPolicy,
    FecResponder,
    LossRateObserver,
    MembershipObserver,
    MigrationObserver,
    SEVERITY_CRITICAL,
    SEVERITY_DEGRADED,
    SEVERITY_INFO,
    TranscoderResponder,
    run_adaptive_walk_experiment,
)
from repro.transport import InprocChannel


def lossy_receiver(loss_model):
    channel = InprocChannel()
    receiver = channel.join("r", loss_model=loss_model)
    return channel, receiver


def airtime_channel(bandwidth_bps):
    """A channel whose airtime is the payload bits alone."""
    channel = InprocChannel(bandwidth_bps=bandwidth_bps)
    channel.per_packet_overhead_s = 0.0
    channel.join("r", loss_model=NoLoss(), queue_payloads=False)
    return channel


class TestLossRateObserver:
    def test_no_event_until_enough_samples(self):
        _channel, receiver = lossy_receiver(NoLoss())
        bus = EventBus()
        observer = LossRateObserver(receiver, bus, min_sample_packets=50)
        assert observer.observe(0.0) == []

    def test_clean_link_reports_info(self):
        channel, receiver = lossy_receiver(NoLoss())
        bus = EventBus()
        observer = LossRateObserver(receiver, bus, min_sample_packets=10)
        for _ in range(20):
            channel.send(b"pkt")
        events = observer.observe(1.0)
        assert len(events) == 1
        assert events[0].severity == SEVERITY_INFO
        assert events[0].value("loss_rate") == 0.0

    def test_lossy_link_reports_degraded_or_critical(self):
        channel, receiver = lossy_receiver(FixedPatternLoss([True, False]))
        bus = EventBus()
        observer = LossRateObserver(receiver, bus, min_sample_packets=10,
                                    smoothing=1.0)
        for _ in range(40):
            channel.send(b"pkt")
        events = observer.observe(1.0)
        assert events[0].severity == SEVERITY_CRITICAL
        assert events[0].value("loss_rate") == pytest.approx(0.5)

    def test_smoothing_decays_gradually(self):
        channel, receiver = lossy_receiver(FixedPatternLoss([True], repeat=False))
        bus = EventBus()
        observer = LossRateObserver(receiver, bus, min_sample_packets=5,
                                    smoothing=0.5)
        for _ in range(10):
            channel.send(b"pkt")
        observer.observe(0.0)
        first_estimate = observer.last_loss_rate
        assert first_estimate > 0.0
        for _ in range(10):
            channel.send(b"pkt")  # all delivered now
        observer.observe(1.0)
        assert 0.0 < observer.last_loss_rate < first_estimate

    def test_invalid_thresholds_rejected(self):
        _channel, receiver = lossy_receiver(NoLoss())
        with pytest.raises(ValueError):
            LossRateObserver(receiver, EventBus(), degraded_threshold=0.5,
                             critical_threshold=0.1)
        with pytest.raises(ValueError):
            LossRateObserver(receiver, EventBus(), smoothing=0.0)


class TestBandwidthObserver:
    def test_reports_utilisation(self):
        channel = airtime_channel(2_000_000)
        bus = EventBus()
        observer = BandwidthObserver(channel, bus)
        assert observer.observe(0.0) == []  # first call establishes a baseline
        # 2 Mbps for 0.5 s = 125000 bytes fills half of a 1-second interval.
        for _ in range(500):
            channel.send(b"\x00" * 250)
        events = observer.observe(1.0)
        assert events[0].value("utilisation") == pytest.approx(0.5, abs=0.05)
        assert events[0].severity == SEVERITY_INFO

    def test_critical_when_saturated(self):
        channel = airtime_channel(1_000_000)
        bus = EventBus()
        observer = BandwidthObserver(channel, bus)
        observer.observe(0.0)
        for _ in range(1000):
            channel.send(b"\x00" * 125)
        events = observer.observe(1.0)
        assert events[0].severity == SEVERITY_CRITICAL


class TestMigrationObserver:
    def test_handoff_event_on_zone_crossing(self):
        receiver = InprocChannel().join("mobile", distance_m=5.0)
        bus = EventBus()
        observer = MigrationObserver(receiver, bus,
                                     boundary_distances_m=(15.0, 30.0))
        assert observer.observe(0.0) == []  # establishes the initial zone
        receiver.move_to(20.0)
        events = observer.observe(1.0)
        assert len(events) == 1
        assert events[0].event_type == EVENT_HANDOFF
        assert events[0].severity == SEVERITY_DEGRADED
        receiver.move_to(22.0)
        assert observer.observe(2.0) == []  # same zone: no event
        receiver.move_to(5.0)
        back = observer.observe(3.0)
        assert back[0].severity == SEVERITY_INFO

    def test_non_distance_receiver_ignored(self):
        receiver = InprocChannel().join("fixed", loss_model=NoLoss())
        observer = MigrationObserver(receiver, EventBus())
        assert observer.observe(0.0) == []


class TestMembershipObserver:
    def test_join_and_leave_events(self):
        bus = EventBus()
        observer = MembershipObserver(bus)
        observer.join("palmtop", {"limited": True}, now_s=1.0)
        observer.join("workstation", {}, now_s=2.0)
        events = observer.observe(2.0)
        assert [e.event_type for e in events] == [EVENT_DEVICE_JOINED] * 2
        assert observer.members() == ["palmtop", "workstation"]
        observer.leave("palmtop", now_s=3.0)
        events = observer.observe(3.0)
        assert events[0].value("device") == "palmtop"
        assert observer.members() == ["workstation"]


def make_live_stream(chunk_count=20000, pacing_s=0.001):
    source = IterableSource(
        [f"chunk-{i};".encode() for i in range(chunk_count)], pacing_s=pacing_s)
    sink = CollectorSink()
    return null_proxy(source, sink), sink


class TestFecResponder:
    def test_inserts_on_high_loss_and_removes_on_recovery(self):
        control, _sink = make_live_stream()
        bus = EventBus()
        responder = FecResponder(control, bus, policy=FecPolicy(),
                                 limits=AdaptationLimits(min_interval_s=0.0))
        bus.publish(Event(event_type=EVENT_LOSS_RATE, source="obs",
                          data={"loss_rate": 0.05}, time_s=1.0))
        assert responder.fec_active
        assert responder.current_code == (4, 6)
        assert control.filter_count() == 1
        bus.publish(Event(event_type=EVENT_LOSS_RATE, source="obs",
                          data={"loss_rate": 0.0}, time_s=2.0))
        assert not responder.fec_active
        assert control.filter_count() == 0
        assert len(bus.events_of_type(EVENT_FILTER_INSERTED)) == 1
        control.shutdown()

    def test_upgrades_code_as_loss_worsens(self):
        control, _sink = make_live_stream()
        bus = EventBus()
        responder = FecResponder(control, bus,
                                 limits=AdaptationLimits(min_interval_s=0.0))
        bus.publish(Event(event_type=EVENT_LOSS_RATE, source="obs",
                          data={"loss_rate": 0.03}, time_s=1.0))
        assert responder.current_code == (4, 5)
        bus.publish(Event(event_type=EVENT_LOSS_RATE, source="obs",
                          data={"loss_rate": 0.2}, time_s=2.0))
        assert responder.current_code == (4, 8)
        assert responder.upgrades == 1
        control.shutdown()

    def test_rate_limited(self):
        control, _sink = make_live_stream()
        bus = EventBus()
        responder = FecResponder(control, bus,
                                 limits=AdaptationLimits(min_interval_s=10.0))
        bus.publish(Event(event_type=EVENT_LOSS_RATE, source="obs",
                          data={"loss_rate": 0.05}, time_s=0.0))
        bus.publish(Event(event_type=EVENT_LOSS_RATE, source="obs",
                          data={"loss_rate": 0.0}, time_s=1.0))
        # Removal suppressed: only 1 second has elapsed since the insertion.
        assert responder.fec_active
        control.shutdown()

    def test_handoff_event_triggers_proactive_fec(self):
        control, _sink = make_live_stream()
        bus = EventBus()
        responder = FecResponder(control, bus,
                                 limits=AdaptationLimits(min_interval_s=0.0))
        bus.publish(Event(event_type=EVENT_HANDOFF, source="obs",
                          data={"distance_m": 40.0, "receiver": "mobile"},
                          time_s=1.0))
        assert responder.fec_active
        control.shutdown()

    def test_preferences_can_forbid_fec(self):
        from repro.rapidware import UserPreferences

        control, _sink = make_live_stream(chunk_count=100)
        bus = EventBus()
        responder = FecResponder(control, bus,
                                 preferences=UserPreferences(allow_fec=False))
        bus.publish(Event(event_type=EVENT_LOSS_RATE, source="obs",
                          data={"loss_rate": 0.5}, time_s=1.0))
        assert not responder.fec_active
        control.shutdown()


class TestTranscoderResponder:
    def test_limited_device_triggers_transcoding(self):
        control, _sink = make_live_stream()
        bus = EventBus()
        responder = TranscoderResponder(control, bus)
        bus.publish(Event(event_type=EVENT_DEVICE_JOINED, source="m",
                          data={"device": "palmtop",
                                "descriptor": {"limited": True,
                                               "max_audio_channels": 1}},
                          time_s=0.0))
        assert responder.transcoding_active
        assert control.filter_count() >= 1
        bus.publish(Event(event_type="device-left", source="m",
                          data={"device": "palmtop"}, time_s=1.0))
        assert not responder.transcoding_active
        assert control.filter_count() == 0
        control.shutdown()

    def test_capable_device_ignored(self):
        control, _sink = make_live_stream(chunk_count=100)
        bus = EventBus()
        responder = TranscoderResponder(control, bus)
        bus.publish(Event(event_type=EVENT_DEVICE_JOINED, source="m",
                          data={"device": "workstation", "descriptor": {}},
                          time_s=0.0))
        assert not responder.transcoding_active
        control.shutdown()


class TestAdaptiveWalkExperiment:
    def test_fec_engages_as_user_walks_away(self):
        result = run_adaptive_walk_experiment(
            walk=LinearWalk(start_distance_m=5.0, end_distance_m=40.0,
                            duration_s=8.0), wlan_seed=21)
        assert result.report is not None
        activation = result.fec_activation_time()
        assert activation is not None
        assert activation > 0.0          # not active at the start (clean link)
        assert result.insertions >= 1
        assert result.report.reconstructed_percent >= result.report.received_percent

    def test_adaptive_beats_unprotected_baseline(self):
        walk = LinearWalk(start_distance_m=20.0, end_distance_m=42.0,
                          duration_s=8.0)
        adaptive = run_adaptive_walk_experiment(walk=walk, wlan_seed=5)
        baseline = run_adaptive_walk_experiment(walk=walk, adaptive=False,
                                                wlan_seed=5)
        assert baseline.insertions == 0
        assert (adaptive.report.reconstructed_percent
                > baseline.report.reconstructed_percent)

    def test_step_records_cover_the_walk(self):
        result = run_adaptive_walk_experiment(
            walk=LinearWalk(5.0, 30.0, 4.0), wlan_seed=2)
        assert len(result.steps) == 10  # 4 s / 0.4 s steps
        assert result.steps[0].distance_m == pytest.approx(5.0)
        assert result.steps[-1].distance_m <= 30.0
