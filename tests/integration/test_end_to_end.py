"""Integration tests: whole-system scenarios spanning several subsystems.

These correspond to the paper's architecture figures: the proxy configuration
of Figure 3/4 (a chain of filters between two endpoints on a wireless path),
the FEC audio proxy of Figure 6, the RAPIDware configuration of Figure 2
(observers + responders reconfiguring a proxy), and the Pavilion session of
Figure 1.
"""



from repro.core import (
    CollectorSink,
    ControlThread,
    ControlManager,
    ControlServer,
    FilterSpec,
    IterableSource,
    Proxy,
)
from repro.filters import (
    FecDecoderFilter,
    FecEncoderFilter,
    PacketTapFilter,
    XorCipherFilter,
    ZlibCompressFilter,
    ZlibDecompressFilter,
)
from repro.media import AudioPacketizer, ToneSource, pcm_similarity
from repro.net import BernoulliLoss
from repro.pavilion import CollaborativeSession, build_demo_site
from repro.proxies import (
    DeviceDescriptor,
    WirelessAudioReceiver,
    run_fec_audio_experiment,
)
from repro.rapidware import run_adaptive_walk_experiment
from repro.net import LinearWalk
from repro.transport import InprocChannel


class TestFilterChainPipelines:
    """Figure 4: several filters composed on one stream."""

    def test_compress_cipher_pipeline_round_trips(self):
        payloads = [f"page fragment {i} ".encode() * 20 for i in range(40)]
        source = IterableSource(list(payloads), frame_output=True)
        sink = CollectorSink(expect_frames=True)
        control = ControlThread(source, sink, auto_start=False)
        control.add(ZlibCompressFilter(name="compress"))
        control.add(XorCipherFilter(key=b"k1", name="encrypt"))
        control.add(XorCipherFilter(key=b"k1", name="decrypt"))
        control.add(ZlibDecompressFilter(name="decompress"))
        control.start()
        assert control.wait_for_completion(timeout=30.0)
        assert sink.items() == payloads
        control.shutdown()

    def test_fec_encode_decode_pipeline_inside_one_proxy(self):
        packets = AudioPacketizer(ToneSource(duration=1.0)).packet_list()
        source = IterableSource([p.pack() for p in packets], frame_output=True)
        sink = CollectorSink(expect_frames=True)
        control = ControlThread(source, sink, auto_start=False)
        control.add(FecEncoderFilter(k=4, n=6, name="enc"))
        control.add(FecDecoderFilter(name="dec"))
        control.start()
        assert control.wait_for_completion(timeout=30.0)
        assert sink.items() == [p.pack() for p in packets]
        control.shutdown()

    def test_tap_observes_without_perturbing(self):
        packets = [f"payload-{i}".encode() for i in range(100)]
        seen = []
        source = IterableSource(list(packets), frame_output=True)
        sink = CollectorSink(expect_frames=True)
        control = ControlThread(source, sink, auto_start=False)
        control.add(PacketTapFilter(callback=seen.append, name="tap"))
        control.start()
        assert control.wait_for_completion(timeout=30.0)
        assert sink.items() == packets
        assert seen == packets
        control.shutdown()


class TestRemoteManagementScenario:
    """ControlManager driving a remote proxy over TCP, as in Section 4."""

    def test_third_party_filter_uploaded_and_inserted_over_tcp(self):
        chunks = [f"record {i};".encode() for i in range(2000)]
        proxy = Proxy("managed")
        source = IterableSource(list(chunks), pacing_s=0.001)
        sink = CollectorSink()
        proxy.add_stream(source, sink, name="data")

        upload = '''
class RedactingFilter(Filter):
    """Third-party filter: masks digits before they cross the wireless hop."""

    type_name = "redactor"

    def transform(self, chunk):
        return bytes(ord("#") if 48 <= b <= 57 else b for b in chunk)
'''
        from repro.core import FilterRegistry

        with ControlServer(proxy, registry=FilterRegistry()) as server:
            manager = ControlManager()
            manager.register_proxy("edge", server.address)
            assert manager.ping_all() == {"edge": True}
            registered = manager.upload_filters("edge", "thirdparty", upload)
            assert registered == ["redactor"]
            manager.insert_filter("edge", FilterSpec("redactor", name="redact"),
                                  stream="data")
            rendering = manager.render_state()
            assert "redact" in rendering
            manager.close()

        control = proxy.stream("data")
        assert control.wait_for_completion(timeout=60.0)
        data = sink.data()
        proxy.shutdown()
        assert len(data) == len(b"".join(chunks))
        assert b"#" in data            # later records were redacted
        assert b"record 0;" in data    # early records passed through unmodified


class TestFecOverLossyWlan:
    """Figure 6 / Figure 7: the FEC audio proxy over the simulated WLAN."""

    def test_audio_quality_improves_with_fec(self):
        def run(fec_enabled):
            result = run_fec_audio_experiment(
                audio_source=ToneSource(duration=8.0),
                duration_s=8.0, receiver_count=1, fec_enabled=fec_enabled,
                loss_model_factory=lambda i: BernoulliLoss(0.08, seed=31 + i),
                seed=31)
            return next(iter(result.reports.values()))

        protected = run(True)
        unprotected = run(False)
        assert protected.reconstructed_percent > unprotected.reconstructed_percent
        assert protected.reconstructed_percent > 99.0

    def test_multiple_receivers_with_different_conditions(self):
        result = run_fec_audio_experiment(
            duration_s=6.0, receiver_count=3,
            loss_model_factory=lambda i: BernoulliLoss(0.02 * (i + 1), seed=i),
            seed=17)
        reports = list(result.reports.values())
        # Receivers with heavier loss receive less raw...
        raw = [r.received_percent for r in reports]
        assert raw[0] > raw[2]
        # ...but FEC keeps everyone's reconstructed rate high.
        assert all(r.reconstructed_percent > 98.0 for r in reports)

    def test_reconstructed_audio_is_byte_accurate_when_fec_suffices(self):
        audio = ToneSource(duration=2.0)
        packets = AudioPacketizer(audio).packet_list()
        channel = InprocChannel(seed=3)
        host = channel.join("host", loss_model=BernoulliLoss(0.03, seed=9))
        from repro.proxies import FecAudioProxy

        proxy = FecAudioProxy(packets, channel=channel).start()
        assert proxy.wait_for_completion(timeout=60.0)
        proxy.shutdown()

        receiver = WirelessAudioReceiver("host")
        receiver.process(host.take())
        receiver.finish()
        report = receiver.delivery_report(len(packets))
        rebuilt = receiver.reconstructed_pcm(len(packets))
        similarity = pcm_similarity(audio.pcm_bytes(), rebuilt)
        # Every reconstructed packet is byte-identical; only unrecovered
        # packets (if any) degrade similarity.
        assert similarity >= report.reconstructed_percent / 100.0 - 0.01


class TestAdaptiveScenario:
    """Figure 2 / Section 3: observers and responders around a live proxy."""

    def test_walk_scenario_inserts_fec_exactly_when_needed(self):
        result = run_adaptive_walk_experiment(
            walk=LinearWalk(start_distance_m=5.0, end_distance_m=42.0,
                            duration_s=12.0), wlan_seed=41)
        activation = result.fec_activation_time()
        assert activation is not None and activation >= 1.0
        near_steps = [s for s in result.steps if s.distance_m < 12.0]
        assert not any(s.fec_active for s in near_steps)
        far_steps = [s for s in result.steps if s.distance_m > 35.0]
        assert any(s.fec_active for s in far_steps)


class TestCollaborativeScenario:
    """Figure 1: Pavilion collaborative browsing with a wireless participant."""

    def test_full_session_with_handoff_and_wireless_member(self):
        store = build_demo_site(page_count=6, images_per_page=1, seed=11)
        session = CollaborativeSession(store=store)
        try:
            session.join("leader-workstation")
            session.join("wired-laptop")
            session.join("palmtop", device=DeviceDescriptor.palmtop(),
                         wireless=True, distance_m=12.0)
            pages = [u for u in store.urls() if u.endswith(".html")][:3]
            session.browse("leader-workstation", pages[0])
            session.browse("leader-workstation", pages[1])
            session.request_floor("wired-laptop")
            session.grant_floor()
            session.browse("wired-laptop", pages[2])

            for member in ("wired-laptop", "palmtop"):
                received = session.participant(member).browser.pages()
                expected = [p for p in pages
                            if p not in session.participant(member).browser.announced_urls]
                # every member saw every page it did not itself announce
                assert [p for p in pages if p in received] == expected
            assert session.pages_browsed == 3
            assert session.leader == "wired-laptop"
        finally:
            session.shutdown()
