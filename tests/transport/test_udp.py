"""The UDP transport: real sockets, framing, EOS, cross-process address use."""

import socket
import threading
import time

import pytest

from repro.streams import FRAME_MAGIC
from repro.transport import (
    EOS_DATAGRAM,
    MAX_DATAGRAM_PAYLOAD,
    TransportError,
    TransportTimeoutError,
    UdpTransport,
    decode_datagram,
    encode_datagram,
)


@pytest.fixture
def transport():
    t = UdpTransport()
    yield t
    t.close()


class TestFraming:
    def test_round_trip(self):
        wire = encode_datagram(b"payload")
        assert wire[0] == FRAME_MAGIC
        assert decode_datagram(wire) == b"payload"

    def test_eos_marker_decodes_to_none(self):
        assert decode_datagram(EOS_DATAGRAM) is None

    def test_oversized_payload_rejected(self):
        with pytest.raises(TransportError):
            encode_datagram(b"x" * (MAX_DATAGRAM_PAYLOAD + 1))

    def test_bad_magic_rejected(self):
        with pytest.raises(TransportError):
            decode_datagram(b"\x00\x00\x00\x00\x07payload")

    def test_truncated_datagram_rejected(self):
        wire = encode_datagram(b"payload")
        with pytest.raises(TransportError):
            decode_datagram(wire[:-2])
        with pytest.raises(TransportError):
            decode_datagram(wire[:3])


class TestUdpChannel:
    def test_unicast_fanout_multicast(self, transport):
        channel = transport.open_channel("c")
        a = channel.join("a")
        b = channel.join("b")
        assert channel.send(b"hello") == 2
        assert a.recv(timeout=2.0) == b"hello"
        assert b.recv(timeout=2.0) == b"hello"

    def test_send_to_single_member(self, transport):
        channel = transport.open_channel("c")
        a = channel.join("a")
        b = channel.join("b")
        assert channel.send_to("a", b"solo")
        assert not channel.send_to("ghost", b"lost")
        assert a.recv(timeout=2.0) == b"solo"
        assert b.pending() == 0

    def test_close_sends_eos_and_marks_local_receivers(self, transport):
        channel = transport.open_channel("c")
        receiver = channel.join("a")
        channel.send(b"one")
        channel.close()
        # Data queued before close still drains, then EOF.
        assert receiver.recv(timeout=2.0) == b"one"
        assert receiver.recv(timeout=2.0) is None
        assert receiver.at_eof()

    def test_remote_member_by_address(self, transport):
        """The cross-process pattern: receiver binds, sender adds by address."""
        receiver_side = UdpTransport()
        receiver_channel = receiver_side.open_channel("c")
        receiver = receiver_channel.join("me")
        try:
            sender_channel = transport.open_channel("c")
            sender_channel.add_member("remote", receiver.address)
            assert sender_channel.send(b"over the wire") == 1
            assert receiver.recv(timeout=2.0) == b"over the wire"
            sender_channel.close()  # EOS datagram crosses the "process" gap
            assert receiver.recv(timeout=2.0) is None
        finally:
            receiver_side.close()

    def test_foreign_datagrams_are_counted_and_dropped(self, transport):
        channel = transport.open_channel("c")
        receiver = channel.join("a")
        noise = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            noise.sendto(b"not a frame", receiver.address)
            channel.send(b"good")
            assert receiver.recv(timeout=2.0) == b"good"
            assert receiver.framing_errors == 1
        finally:
            noise.close()

    def test_receiver_is_selectable(self, transport):
        receiver = transport.open_channel("c").join("a")
        assert isinstance(receiver.selectable_fileno(), int)

    def test_recv_timeout(self, transport):
        receiver = transport.open_channel("c").join("a")
        with pytest.raises(TransportTimeoutError):
            receiver.recv(timeout=0.05)

    def test_blocking_recv_wakes_on_datagram(self, transport):
        channel = transport.open_channel("c")
        receiver = channel.join("a")
        got = []
        thread = threading.Thread(
            target=lambda: got.append(receiver.recv(timeout=5.0)))
        thread.start()
        channel.send(b"wake")
        thread.join(timeout=5.0)
        assert got == [b"wake"]

    def test_poll_many_drains_the_socket_and_keeps_the_rest(self, transport):
        channel = transport.open_channel("c")
        receiver = channel.join("a")
        payloads = [bytes([i]) * 8 for i in range(5)]
        assert channel.send_many(payloads) == 5
        assert receiver.recv(timeout=2.0) == payloads[0]
        got = []
        deadline = time.monotonic() + 2.0
        while len(got) < 4 and time.monotonic() < deadline:
            batch = receiver.poll_many(2)
            assert len(batch) <= 2
            got.extend(batch)
        assert got == payloads[1:]
        assert receiver.poll_many(2) == []

    def test_duplicate_member_rejected(self, transport):
        channel = transport.open_channel("c")
        channel.join("a")
        with pytest.raises(TransportError):
            channel.join("a")


class TestIpMulticast:
    def test_send_to_refused_in_multicast_mode(self):
        """Members share the group port, so unicast would mis-deliver."""
        transport = UdpTransport()
        try:
            channel = transport.open_channel(
                "mc-unicast", multicast_group=("239.255.42.98", 48764))
            with pytest.raises(TransportError):
                channel.send_to("anyone", b"data")
        finally:
            transport.close()

    def test_group_delivery_when_routable(self):
        """Real IP multicast; environments without multicast routing skip."""
        transport = UdpTransport()
        try:
            try:
                channel = transport.open_channel(
                    "mc", multicast_group=("239.255.42.99", 0))
                # Rebind with the port the OS actually picked is not possible
                # for group sockets, so choose a fixed high port instead.
            except OSError:
                pytest.skip("IP multicast unavailable")
            channel.close()
            channel = transport.open_channel(
                "mc2", multicast_group=("239.255.42.99", 48765))
            try:
                a = channel.join("a")
                b = channel.join("b")
                channel.send(b"group")
                assert a.recv(timeout=2.0) == b"group"
                assert b.recv(timeout=2.0) == b"group"
            except (OSError, TransportTimeoutError):
                pytest.skip("IP multicast not routable on this host")
        finally:
            transport.close()


class TestTcpStreams:
    def test_listen_connect_round_trip(self, transport):
        listener = transport.listen()
        client = transport.connect(listener.address)
        server = listener.accept(timeout=2.0)
        client.send(b"stream bytes")
        client.close_sending()
        received = bytearray()
        while True:
            chunk = server.recv(timeout=2.0)
            if not chunk:
                break
            received.extend(chunk)
        assert bytes(received) == b"stream bytes"
        client.close()
        server.close()

    def test_connect_refused_raises(self, transport):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(TransportError):
            transport.connect(("127.0.0.1", port))

    def test_accept_timeout(self, transport):
        listener = transport.listen()
        with pytest.raises(TransportTimeoutError):
            listener.accept(timeout=0.05)
