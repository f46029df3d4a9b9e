"""EventEngine selector integration: sockets in the dirty-set loop."""

import time

from repro.core import CollectorSink, ControlThread
from repro.runtime import EventEngine
from repro.transport import TransportSource, UdpTransport


def test_selector_is_lazy():
    """Purely in-process proxies never pay for a selector or self-pipe."""
    from repro.core import IterableSource

    engine = EventEngine()
    control = ControlThread(IterableSource([b"x"]), CollectorSink(),
                            engine=engine)
    assert control.wait_for_completion(timeout=5.0)
    assert engine._selector is None
    control.shutdown()


def test_readable_socket_wakes_idle_scheduler_without_heartbeat():
    """A datagram arriving while the scheduler sleeps must be dispatched by
    the selector, well inside the heartbeat interval."""
    # A heartbeat long enough that falling back to it would fail the test.
    engine = EventEngine(heartbeat_s=30.0)
    transport = UdpTransport()
    try:
        channel = transport.open_channel("c")
        receiver = channel.join("m")
        source = TransportSource(receiver)
        sink = CollectorSink(expect_frames=True)
        control = ControlThread(source, sink, engine=engine)
        assert engine._selector is not None  # the fd is registered
        time.sleep(0.2)  # let the scheduler go idle (into select)
        start = time.monotonic()
        channel.send(b"wake")
        deadline = start + 5.0
        while time.monotonic() < deadline and not sink.items():
            time.sleep(0.005)
        latency = time.monotonic() - start
        assert sink.items() == [b"wake"]
        assert latency < 5.0  # far below the 30 s heartbeat
        channel.close()
        assert control.wait_for_completion(timeout=10.0)
        control.shutdown()
    finally:
        transport.close()


def test_held_selectable_fd_is_suspended_not_spun_on():
    """A held source with a readable socket must come off the selector
    (otherwise every idle select() returns instantly — a busy spin) and go
    back on when the hold is released."""
    engine = EventEngine()
    transport = UdpTransport()
    try:
        channel = transport.open_channel("c")
        receiver = channel.join("m")
        source = TransportSource(receiver)
        sink = CollectorSink(expect_frames=True)
        control = ControlThread(source, sink, engine=engine)
        # Arm a hold while nothing flows (so it cannot engage yet and the
        # zero timeout just returns): the very next unit parks the source
        # mid-emit.  Armed after the send, it raced the scheduler for it.
        assert not source.hold_at_boundary(timeout=0)
        channel.send(b"first")
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not source.held:
            time.sleep(0.005)
        assert source.held
        channel.send(b"second")  # readable fd while held
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and source not in engine._suspended:
            time.sleep(0.005)
        assert source in engine._suspended
        source.release_hold()
        channel.send(b"third")
        channel.close()
        assert control.wait_for_completion(timeout=10.0)
        assert sink.items() == [b"first", b"second", b"third"]
        assert source not in engine._suspended
        control.shutdown()
    finally:
        transport.close()


def test_finished_elements_are_unregistered():
    engine = EventEngine()
    transport = UdpTransport()
    try:
        channel = transport.open_channel("c")
        receiver = channel.join("m")
        source = TransportSource(receiver)
        sink = CollectorSink(expect_frames=True)
        control = ControlThread(source, sink, engine=engine)
        channel.send(b"only")
        channel.close()
        assert control.wait_for_completion(timeout=10.0)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and engine._selectable_fds:
            time.sleep(0.01)
        assert not engine._selectable_fds
        control.shutdown()
    finally:
        transport.close()


def test_shutdown_releases_selector_resources():
    engine = EventEngine()
    transport = UdpTransport()
    try:
        channel = transport.open_channel("c")
        receiver = channel.join("m")
        control = ControlThread(TransportSource(receiver),
                                CollectorSink(expect_frames=True),
                                engine=engine)
        channel.close()
        control.wait_for_completion(timeout=10.0)
        control.shutdown()
        engine.shutdown(timeout=5.0)  # the instance is ours, not the control's
        assert engine._selector is None
        assert engine._wakeup_send is None and engine._wakeup_recv is None
    finally:
        transport.close()
