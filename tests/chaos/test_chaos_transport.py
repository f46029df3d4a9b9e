"""ChaosTransport: registry wiring, fault application, events, determinism."""

import pytest

from repro.chaos import CHAOS_ENV_VAR, ChaosTransport, FaultPlan
from repro.obs.events import EVENT_CHAOS_FAULT, get_event_log
from repro.transport import get_transport


@pytest.fixture(autouse=True)
def _no_ambient_plan(monkeypatch):
    """These tests build their own plans (or assert there is none), so a
    ``REPRO_CHAOS`` set around the run — CI's chaos job sets one — must not
    wrap their transports a second time.  The tests about the variable set
    it themselves, after this."""
    monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)


def _drain(receiver, timeout=2.0):
    captured = []
    while True:
        payload = receiver.recv(timeout=timeout)
        if payload is None:
            break
        captured.append(bytes(payload))
    return captured


def _send_all(channel, payloads):
    for payload in payloads:
        channel.send(payload)


class TestRegistryWiring:
    def test_chaos_prefix_wraps_named_transport(self):
        transport = get_transport("chaos:loopback")
        try:
            assert isinstance(transport, ChaosTransport)
            assert transport.name == "chaos:loopback"
        finally:
            transport.close()

    def test_chaos_prefix_defaults_inner_to_default_transport(self):
        transport = get_transport("chaos:")
        try:
            assert isinstance(transport, ChaosTransport)
            assert transport.name.startswith("chaos:")
        finally:
            transport.close()

    def test_env_auto_wraps_any_resolution(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV_VAR, "seed=1,drop=0.5")
        transport = get_transport("loopback")
        try:
            assert isinstance(transport, ChaosTransport)
            assert transport.plan.drop_p == 0.5
        finally:
            transport.close()

    def test_env_does_not_double_wrap_chaos_names(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV_VAR, "seed=1,drop=0.5")
        transport = get_transport("chaos:loopback")
        try:
            assert isinstance(transport, ChaosTransport)
            assert not isinstance(transport.inner, ChaosTransport)
        finally:
            transport.close()

    def test_inactive_plan_is_passthrough(self):
        transport = get_transport("chaos:loopback")
        try:
            channel = transport.open_channel("wlan")
            # No plan at all: the inner channel comes back unwrapped, so
            # the chaos layer cannot even add per-send overhead.
            assert type(channel).__name__ != "ChaosChannel"
            receiver = channel.join("r")
            channel.send(b"hello")
            channel.close()
            assert _drain(receiver) == [b"hello"]
        finally:
            transport.close()


class TestFaultApplication:
    def _run(self, plan, payloads, channel_name="wlan"):
        transport = ChaosTransport(get_transport("loopback"), plan)
        try:
            channel = transport.open_channel(channel_name)
            receiver = channel.join("r")
            _send_all(channel, payloads)
            channel.close()
            return _drain(receiver)
        finally:
            transport.close()

    def test_offset_drop(self):
        payloads = [bytes([i]) * 16 for i in range(6)]
        got = self._run(FaultPlan(seed=0, drop_offsets=(1, 4)), payloads)
        assert got == [payloads[0], payloads[2], payloads[3], payloads[5]]

    def test_offset_duplicate(self):
        payloads = [b"a", b"b", b"c"]
        got = self._run(FaultPlan(seed=0, duplicate_offsets=(1,)), payloads)
        assert got == [b"a", b"b", b"b", b"c"]

    def test_offset_reorder_swaps_and_close_flushes(self):
        payloads = [b"a", b"b", b"c"]
        got = self._run(FaultPlan(seed=0, reorder_offsets=(0,)), payloads)
        assert got == [b"b", b"a", b"c"]
        # Reordering the final datagram must not lose it: close() flushes.
        got = self._run(FaultPlan(seed=0, reorder_offsets=(2,)), payloads)
        assert got == [b"a", b"b", b"c"]

    def test_offset_corrupt(self):
        payloads = [bytes(range(16))] * 3
        got = self._run(FaultPlan(seed=0, corrupt_offsets=(2,)), payloads)
        assert len(got) == 3
        assert got[0] == payloads[0] and got[1] == payloads[1]
        diff = [i for i in range(16) if got[2][i] != payloads[2][i]]
        assert len(diff) == 1

    def test_seeded_runs_are_bit_reproducible(self):
        plan = FaultPlan(seed=99, drop_p=0.2, duplicate_p=0.1,
                         reorder_p=0.1, corrupt_p=0.1)
        payloads = [bytes([i]) * 32 for i in range(60)]
        first = self._run(plan, payloads)
        second = self._run(plan, payloads)
        assert first == second
        assert first != payloads  # the plan actually did something

    def test_fault_events_are_emitted(self):
        log = get_event_log()
        log.clear()
        self._run(FaultPlan(seed=0, drop_offsets=(1,)), [b"a", b"b", b"c"])
        faults = log.records(event=EVENT_CHAOS_FAULT)
        assert len(faults) == 1
        record = faults[0]
        assert record["action"] == "drop"
        assert record["offset"] == 1
        assert record["channel"] == "wlan"
        assert "drop_offsets" in record["plan"]

    def test_fault_counter_increments(self):
        from repro.obs.metrics import default_registry

        counter = default_registry().counter(
            "repro_chaos_faults_total",
            "Datagram faults injected by the chaos transport",
            label_names=("action",))
        before = counter.labels(action="duplicate").value
        self._run(FaultPlan(seed=0, duplicate_offsets=(0,)), [b"x"])
        assert counter.labels(action="duplicate").value == before + 1

    def test_unicast_repair_path_is_never_chaosd(self):
        # send_to carries FEC repair/unicast traffic; the fault plane only
        # applies to multicast send()s.
        plan = FaultPlan(seed=0, drop_p=1.0)
        transport = ChaosTransport(get_transport("loopback"), plan)
        try:
            channel = transport.open_channel("wlan")
            receiver = channel.join("r")
            channel.send_to("r", b"repair")
            channel.close()
            assert _drain(receiver) == [b"repair"]
        finally:
            transport.close()


class TestEquivalenceUnderInactiveChaos:
    """The full FEC round trip through an inactive chaos wrapper is
    byte-identical to the bare transport — the wrapper composes with the
    existing equivalence suite rather than forking it."""

    @pytest.mark.parametrize("inner", ["inproc", "loopback"])
    def test_round_trip_matches_bare_transport(self, inner):
        from repro.media import AudioPacketizer, ToneSource
        from repro.proxies import (
            FecAudioProxy,
            FecAudioProxyConfig,
            WirelessAudioReceiver,
        )

        packets = AudioPacketizer(ToneSource(duration=0.2),
                                  packet_duration_ms=20).packet_list()

        def run(transport_name):
            transport = get_transport(transport_name)
            try:
                channel = transport.open_channel("wlan")
                receiver = channel.join("mobile-host")
                config = FecAudioProxyConfig(fec_enabled=True,
                                             fec_start_group_id=0)
                proxy = FecAudioProxy(packets, channel=channel, config=config)
                proxy.start()
                assert proxy.wait_for_completion(timeout=30.0)
                proxy.shutdown()
                captured = _drain(receiver, timeout=10.0)
                audio = WirelessAudioReceiver("mobile-host")
                audio.process(captured)
                audio.finish()
                return captured, audio.reconstructed_pcm(len(packets))
            finally:
                transport.close()

        bare_wire, bare_pcm = run(inner)
        chaos_wire, chaos_pcm = run(f"chaos:{inner}")
        assert chaos_wire == bare_wire
        assert chaos_pcm == bare_pcm
