"""Semantics of the loopback transport (and the shared memory pipes)."""

import sys
import threading
import time

import pytest

from repro.transport import (
    LoopbackTransport,
    TransportError,
    TransportTimeoutError,
    memory_stream_pair,
)


@pytest.fixture
def transport():
    t = LoopbackTransport()
    yield t
    t.close()


class TestLoopbackChannel:
    def test_multicast_reaches_every_member(self, transport):
        channel = transport.open_channel("c")
        a = channel.join("a")
        b = channel.join("b")
        assert channel.send(b"hello") == 2
        assert a.take() == [b"hello"]
        assert b.take() == [b"hello"]
        assert channel.packets_sent == 1
        assert channel.bytes_sent == 5

    def test_unicast_targets_one_member(self, transport):
        channel = transport.open_channel("c")
        a = channel.join("a")
        b = channel.join("b")
        assert channel.send_to("a", b"solo")
        assert not channel.send_to("ghost", b"lost")
        assert a.take() == [b"solo"]
        assert b.take() == []

    def test_duplicate_member_rejected(self, transport):
        channel = transport.open_channel("c")
        channel.join("a")
        with pytest.raises(TransportError):
            channel.join("a")

    def test_open_channel_is_idempotent_per_name(self, transport):
        assert transport.open_channel("c") is transport.open_channel("c")
        assert transport.open_channel("c") is not transport.open_channel("d")

    def test_close_marks_members_eof_after_drain(self, transport):
        channel = transport.open_channel("c")
        receiver = channel.join("a")
        channel.send(b"one")
        channel.close()
        assert not receiver.at_eof()  # one payload still queued
        assert receiver.recv(timeout=1.0) == b"one"
        assert receiver.recv(timeout=1.0) is None
        assert receiver.at_eof()

    def test_send_after_close_raises(self, transport):
        channel = transport.open_channel("c")
        channel.close()
        with pytest.raises(TransportError):
            channel.send(b"late")

    def test_join_after_close_sees_immediate_eof(self, transport):
        channel = transport.open_channel("c")
        channel.close()
        receiver = channel.join("late")
        assert receiver.at_eof()

    def test_leave_marks_receiver_eof(self, transport):
        channel = transport.open_channel("c")
        receiver = channel.join("a")
        channel.leave("a")
        assert receiver.at_eof()
        assert channel.members() == []

    def test_recv_timeout(self, transport):
        receiver = transport.open_channel("c").join("a")
        with pytest.raises(TransportTimeoutError):
            receiver.recv(timeout=0.05)

    def test_blocking_recv_wakes_on_delivery(self, transport):
        channel = transport.open_channel("c")
        receiver = channel.join("a")
        got = []
        thread = threading.Thread(
            target=lambda: got.append(receiver.recv(timeout=5.0)))
        thread.start()
        channel.send(b"wake")
        thread.join(timeout=5.0)
        assert got == [b"wake"]

    def test_subscribe_fires_on_delivery_and_eof(self, transport):
        channel = transport.open_channel("c")
        receiver = channel.join("a")
        events = []
        receiver.subscribe(lambda: events.append("event"))
        channel.send(b"x")
        channel.close()
        assert len(events) == 2

    def test_on_receive_callback(self, transport):
        seen = []
        channel = transport.open_channel("c")
        channel.join("a", on_receive=seen.append)
        channel.send(b"cb")
        assert seen == [b"cb"]


class TestLoopbackBatch:
    """``send_many`` and the batched take against the per-datagram calls."""

    PAYLOADS = [bytes([i]) * (i + 1) for i in range(10)]

    def _two_members(self, transport, name):
        channel = transport.open_channel(name)
        queued = channel.join("queued")
        seen = []
        callback_only = channel.join("callback", on_receive=seen.append,
                                     queue_payloads=False)
        return channel, queued, callback_only, seen

    def test_send_many_is_a_loop_of_send(self, transport):
        batch = self._two_members(transport, "batch")
        loop = self._two_members(transport, "loop")
        assert batch[0].send_many(self.PAYLOADS) == len(self.PAYLOADS)
        for payload in self.PAYLOADS:
            assert loop[0].send(payload) == 2
        for channel, queued, callback_only, seen in (batch, loop):
            assert seen == self.PAYLOADS              # on_receive, in order
            assert callback_only.pending() == 0       # never queued
            assert queued.pending() == len(self.PAYLOADS)
            assert (queued.packets_received == callback_only.packets_received
                    == channel.packets_sent == len(self.PAYLOADS))
            assert (queued.bytes_received == callback_only.bytes_received
                    == channel.bytes_sent == sum(map(len, self.PAYLOADS)))
            assert queued.take() == self.PAYLOADS     # per-receiver order

    def test_a_batch_fires_each_listener_once(self, transport):
        channel, queued, callback_only, _seen = self._two_members(
            transport, "c")
        events = []
        queued.subscribe(lambda: events.append("queued"))
        callback_only.subscribe(lambda: events.append("callback"))
        channel.send_many(self.PAYLOADS)
        assert sorted(events) == ["callback", "queued"]

    def test_send_many_copies_views_and_accepts_any_iterable(self, transport):
        channel = transport.open_channel("c")
        receiver = channel.join("a")
        backing = bytearray(b"abcdef")
        assert channel.send_many(iter([memoryview(backing)[:3], backing])) == 2
        backing[:] = b"zzzzzz"
        assert receiver.take() == [b"abc", b"abcdef"]

    def test_send_many_without_members_delivers_nothing(self, transport):
        channel = transport.open_channel("c")
        assert channel.send_many(self.PAYLOADS) == 0
        assert channel.packets_sent == len(self.PAYLOADS)  # as send accounts
        assert channel.send_many([]) == 0

    def test_send_many_after_close_raises(self, transport):
        channel = transport.open_channel("c")
        receiver = channel.join("a")
        channel.close()
        with pytest.raises(TransportError):
            channel.send_many([b"late"])
        assert receiver.pending() == 0

    def test_a_closed_receiver_drops_the_batch(self, transport):
        channel = transport.open_channel("c")
        receiver = channel.join("a")
        receiver.close()
        channel.send_many(self.PAYLOADS)
        assert receiver.packets_received == 0

    def test_poll_many_leaves_the_remainder_queued_in_order(self, transport):
        channel = transport.open_channel("c")
        receiver = channel.join("a")
        channel.send_many(self.PAYLOADS)
        assert receiver.poll_many(4) == self.PAYLOADS[:4]
        assert receiver.pending() == 6
        assert receiver.poll() == self.PAYLOADS[4]
        assert receiver.poll_many(64) == self.PAYLOADS[5:]
        assert receiver.poll_many(64) == []
        assert not receiver.readable()


    def test_concurrent_batches_are_neither_lost_nor_torn(self, transport):
        """More senders than cores batch into one receiver while a consumer
        takes budgets out: every datagram arrives once, each sender's in
        order, and each batch contiguous (one lock hold per batch)."""
        channel = transport.open_channel("c")
        receiver = channel.join("a")
        senders, batches, batch_size = 6, 60, 16
        expected = senders * batches * batch_size

        def send(sender):
            for batch in range(batches):
                base = batch * batch_size
                channel.send_many([b"%d:%d" % (sender, base + i)
                                   for i in range(batch_size)])

        got = []
        deadline = time.monotonic() + 30.0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=send, args=(sender,))
                       for sender in range(senders)]
            for thread in threads:
                thread.start()
            while len(got) < expected and time.monotonic() < deadline:
                got.extend(receiver.poll_many(7))
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == expected == receiver.packets_received
        assert receiver.pending() == 0
        last = {}
        for index, payload in enumerate(got):
            sender, _, seq = payload.partition(b":")
            seq = int(seq)
            assert seq == last.get(sender, -1) + 1
            last[sender] = seq
            if seq % batch_size:  # inside a batch: same sender as before
                assert got[index - 1].startswith(sender + b":")


class TestMemoryStreams:
    def test_pair_round_trip_with_chunk_splitting(self):
        client, server = memory_stream_pair()
        client.send(b"abcdef")
        assert server.recv(4, timeout=1.0) == b"abcd"
        assert server.recv(4, timeout=1.0) == b"ef"
        server.send(b"reply")
        assert client.recv(timeout=1.0) == b"reply"

    def test_half_close_gives_peer_eof(self):
        client, server = memory_stream_pair()
        client.send(b"last")
        client.close_sending()
        assert server.recv(timeout=1.0) == b"last"
        assert server.recv(timeout=1.0) == b""

    def test_recv_timeout(self):
        client, _server = memory_stream_pair()
        with pytest.raises(TransportTimeoutError):
            client.recv(timeout=0.05)

    def test_listen_connect_accept(self, transport):
        listener = transport.listen("svc")
        assert listener.address == "svc"
        client = transport.connect("svc")
        server = listener.accept(timeout=1.0)
        client.send(b"ping")
        assert server.recv(timeout=1.0) == b"ping"

    def test_connect_unknown_address_raises(self, transport):
        with pytest.raises(TransportError):
            transport.connect("nowhere")

    def test_listen_duplicate_address_raises(self, transport):
        transport.listen("svc")
        with pytest.raises(TransportError):
            transport.listen("svc")

    def test_accept_timeout(self, transport):
        listener = transport.listen("svc")
        with pytest.raises(TransportTimeoutError):
            listener.accept(timeout=0.05)
