"""Unit tests for the Filter / PacketFilter / FilterContainer base classes."""

import threading
import time

import pytest

from repro.core import Filter, FilterContainer, FilterStateError, PacketFilter
from repro.streams import encode_frame


class DoublingFilter(Filter):
    type_name = "doubling"

    def transform(self, chunk):
        return chunk + chunk


class ExplodingFilter(Filter):
    type_name = "exploding"

    def transform(self, chunk):
        raise RuntimeError("boom")


class TrailerFilter(Filter):
    type_name = "trailer"

    def finalize(self):
        return b"<END>"


class MarkerExplodingFilter(Filter):
    """Passes chunks through until it sees the marker, then raises."""

    type_name = "marker-exploding"

    def transform(self, chunk):
        if chunk == b"BOOM":
            raise RuntimeError("boom")
        return chunk


class TestFilterLifecycle:
    def test_cannot_start_twice(self):
        f = Filter()
        f.start()
        with pytest.raises(FilterStateError):
            f.start()
        f.stop()

    def test_stop_before_start_is_noop(self):
        f = Filter()
        f.stop()  # must not raise

    def test_running_and_finished_flags(self):
        f = Filter()
        assert not f.running and not f.finished
        f.start()
        assert f.running
        f.stop()
        assert not f.running

    def test_set_dis_dos_before_start_only(self):
        from repro.streams import DetachableInputStream, DetachableOutputStream
        f = Filter()
        f.set_dis(DetachableInputStream())
        f.set_dos(DetachableOutputStream())
        f.start()
        with pytest.raises(FilterStateError):
            f.set_dis(DetachableInputStream())
        with pytest.raises(FilterStateError):
            f.set_dos(DetachableOutputStream())
        f.stop()

    def test_paper_style_accessors(self):
        f = Filter(name="myfilter")
        assert f.get_dis() is f.dis
        assert f.get_dos() is f.dos
        assert f.get_id() == "myfilter"

    def test_auto_names_are_unique(self):
        names = {Filter().name for _ in range(50)}
        assert len(names) == 50

    def test_invalid_constructor_arguments(self):
        with pytest.raises(ValueError):
            Filter(read_timeout=0)
        with pytest.raises(ValueError):
            Filter(chunk_size=0)


class TestFilterDataPath:
    def _wire(self, filter_obj):
        """Connect a fresh upstream DOS and downstream DIS to the filter."""
        from repro.streams import DetachableInputStream, DetachableOutputStream
        up = DetachableOutputStream("up")
        up.connect(filter_obj.dis)
        down = DetachableInputStream("down")
        filter_obj.dos.connect(down)
        return up, down

    def test_default_transform_is_passthrough(self):
        f = Filter()
        up, down = self._wire(f)
        f.start()
        up.write(b"payload")
        up.close()
        assert f.wait_finished(timeout=5.0)
        assert down.read(100) == b"payload"

    def test_mid_batch_transform_error_keeps_prior_outputs(self):
        """A transform failing at chunk k of a batch must not discard the
        outputs of chunks 1..k-1 (the per-chunk loop delivered those)."""
        f = MarkerExplodingFilter()
        up, down = self._wire(f)
        # Queue the whole batch before starting so one budgeted read
        # drains all three chunks in a single pump/loop iteration.
        up.write(b"first")
        up.write(b"second")
        up.write(b"BOOM")
        f.start()
        assert f.wait_finished(timeout=5.0)
        assert isinstance(f.error, RuntimeError)
        assert down.read_exactly(11, timeout=2.0) == b"firstsecond"

    def test_mid_batch_transform_error_keeps_prior_outputs_cooperative(self):
        class StubEngine:
            def notify_element(self, element):
                pass

        f = MarkerExplodingFilter()
        up, down = self._wire(f)
        up.write(b"first")
        up.write(b"second")
        up.write(b"BOOM")
        f.bind_engine(StubEngine())
        while not f.finished:
            f.pump()
        assert isinstance(f.error, RuntimeError)
        assert down.read_exactly(11, timeout=2.0) == b"firstsecond"

    def test_custom_transform_applied(self):
        f = DoublingFilter()
        up, down = self._wire(f)
        f.start()
        up.write(b"ab")
        up.close()
        f.wait_finished(timeout=5.0)
        assert down.read(100) == b"abab"

    def test_finalize_emits_trailer_and_closes(self):
        f = TrailerFilter()
        up, down = self._wire(f)
        f.start()
        up.write(b"data|")
        up.close()
        f.wait_finished(timeout=5.0)
        collected = bytearray()
        while True:
            chunk = down.read(100, timeout=0.5)
            if not chunk:
                break
            collected.extend(chunk)
        assert bytes(collected) == b"data|<END>"
        assert down.at_eof()

    def test_eof_propagates_without_finalize_output(self):
        f = Filter()
        up, down = self._wire(f)
        f.start()
        up.close()
        f.wait_finished(timeout=5.0)
        assert down.read(10, timeout=1.0) == b""

    def test_stats_counted(self):
        f = Filter()
        up, down = self._wire(f)
        f.start()
        up.write(b"12345")
        up.close()
        f.wait_finished(timeout=5.0)
        down.read(100)
        snap = f.stats.snapshot()
        assert snap["bytes_in"] == 5
        assert snap["bytes_out"] == 5
        assert snap["errors"] == 0

    def test_transform_exception_recorded(self):
        f = ExplodingFilter()
        up, down = self._wire(f)
        f.start()
        up.write(b"trigger")
        f.wait_finished(timeout=5.0)
        assert isinstance(f.error, RuntimeError)
        assert f.stats.snapshot()["errors"] == 1
        # downstream sees EOF rather than a hang
        assert down.read(10, timeout=1.0) == b""

    def test_transform_returning_multiple_chunks(self):
        class Splitter(Filter):
            type_name = "splitter"

            def transform(self, chunk):
                return [bytes([b]) for b in chunk]

        f = Splitter()
        up, down = self._wire(f)
        f.start()
        up.write(b"xyz")
        up.close()
        f.wait_finished(timeout=5.0)
        assert down.read(100) == b"xyz"

    def test_transform_returning_none_emits_nothing(self):
        class Dropper(Filter):
            type_name = "dropper"

            def transform(self, chunk):
                return None

        f = Dropper()
        up, down = self._wire(f)
        f.start()
        up.write(b"discard me")
        up.close()
        f.wait_finished(timeout=5.0)
        assert down.read(10, timeout=1.0) == b""

    def test_describe_contains_name_type_and_stats(self):
        f = DoublingFilter(name="dbl")
        info = f.describe()
        assert info["name"] == "dbl"
        assert info["type"] == "doubling"
        assert "stats" in info


class TestQuiesceAndHold:
    def test_is_idle_when_no_input(self):
        f = Filter()
        assert f.is_idle()

    def test_quiesce_waits_for_buffered_input(self):
        from repro.streams import DetachableInputStream, DetachableOutputStream
        f = DoublingFilter()
        up = DetachableOutputStream()
        up.connect(f.dis)
        down = DetachableInputStream()
        f.dos.connect(down)
        up.write(b"x" * 1000)
        assert not f.is_idle()
        f.start()
        assert f.quiesce(timeout=5.0)
        assert down.read(5000) == b"x" * 2000
        f.stop()

    def test_hold_and_release(self):
        from repro.streams import DetachableInputStream, DetachableOutputStream
        f = Filter()
        up = DetachableOutputStream()
        up.connect(f.dis)
        down = DetachableInputStream()
        f.dos.connect(down)
        f.start()
        up.write(b"first")
        time.sleep(0.1)
        assert down.read(100) == b"first"

        holder = {}

        def do_hold():
            holder["held"] = f.hold_at_boundary(timeout=2.0)

        t = threading.Thread(target=do_hold)
        t.start()
        time.sleep(0.05)
        up.write(b"second")  # triggers the hold check before emitting
        t.join(timeout=3.0)
        assert holder["held"] is True
        assert f.held
        # While held, nothing is emitted.
        assert down.available() == 0
        f.release_hold()
        time.sleep(0.1)
        assert down.read(100, timeout=1.0) == b"second"
        f.stop()


class PacketDoubler(PacketFilter):
    type_name = "packet-doubler"

    def transform_packet(self, packet):
        return [packet, packet]


def _read_all(dis):
    out = []
    while True:
        chunks = dis.read_chunks(1 << 16, timeout=1.0)
        if not chunks:
            return out
        out.extend(chunks)


class TestPacketFilter:
    def _wire(self, filter_obj):
        """Packet ends on both sides: packets cross whole, unframed."""
        from repro.streams import DetachableInputStream, DetachableOutputStream
        up = DetachableOutputStream("up")
        up.packets = True
        up.connect(filter_obj.dis)
        down = DetachableInputStream("down")
        down.packets = True
        filter_obj.dos.connect(down)
        return up, down

    def test_packet_passthrough_round_trip(self):
        f = PacketFilter()
        up, down = self._wire(f)
        f.start()
        up.write(b"pkt-1")
        up.write(b"pkt-2")
        up.close()
        f.wait_finished(timeout=5.0)
        assert _read_all(down) == [b"pkt-1", b"pkt-2"]

    def test_packet_transform_multiplies(self):
        f = PacketDoubler()
        up, down = self._wire(f)
        f.start()
        up.write(b"dup")
        up.close()
        f.wait_finished(timeout=5.0)
        assert _read_all(down) == [b"dup", b"dup"]

    def test_packet_stats_count_packets(self):
        f = PacketDoubler()
        up, down = self._wire(f)
        f.start()
        up.write_many([b"a", b"b", b"c"])
        up.close()
        f.wait_finished(timeout=5.0)
        _read_all(down)
        snap = f.stats.snapshot()
        assert snap["packets_in"] == 3
        assert snap["packets_out"] == 6

    def test_a_packet_raising_mid_batch_counts_only_what_was_seen(self):
        """Packet 3 of a batch of 8 raises: the input stats count the three
        packets the transform saw, and the outputs of the two before it
        still go downstream (per-packet stats, one batch)."""

        class ThirdPacketFails(PacketFilter):
            def transform_packet(self, packet):
                if packet == b"p2":
                    raise ValueError("packet 3 is bad")
                return [packet, packet + b"!"] if packet == b"p0" else packet

        f = ThirdPacketFails()
        up, down = self._wire(f)
        up.write_many([b"p%d" % i for i in range(8)])  # one batch
        f.start()
        f.wait_finished(timeout=5.0)
        assert _read_all(down) == [b"p0", b"p0!", b"p1"]
        assert isinstance(f.error, ValueError)
        assert f.stats.snapshot() == {
            "chunks_in": 6, "chunks_out": 6, "bytes_in": 6, "bytes_out": 7,
            "packets_in": 3, "packets_out": 3, "errors": 1,
            "budget_exhausted": 0}

    def test_frames_split_across_chunks_are_reassembled(self):
        f = PacketFilter(chunk_size=3)  # force tiny reads
        from repro.streams import DetachableInputStream, DetachableOutputStream
        up = DetachableOutputStream()  # byte ends: the hops frame
        up.connect(f.dis)
        down = DetachableInputStream()
        f.dos.connect(down)
        f.start()
        frame = encode_frame(b"a-long-payload-spanning-reads")
        for start in range(0, len(frame), 3):
            up.write(frame[start:start + 3])
        up.close()
        f.wait_finished(timeout=5.0)
        assert _read_all(down) == [frame]


class TestFilterContainer:
    def test_count_and_names(self):
        container = FilterContainer([Filter(name="a"), Filter(name="b")])
        assert container.count() == 2
        assert container.names() == ["a", "b"]

    def test_add_and_get(self):
        container = FilterContainer(name="bundle")
        f = Filter(name="x")
        container.add(f)
        assert container.get(0) is f
        assert container.by_name("x") is f
        assert len(container) == 1

    def test_by_name_missing_raises(self):
        container = FilterContainer()
        with pytest.raises(KeyError):
            container.by_name("ghost")

    def test_iteration(self):
        filters = [Filter(name=f"f{i}") for i in range(3)]
        container = FilterContainer(filters)
        assert list(container) == filters
