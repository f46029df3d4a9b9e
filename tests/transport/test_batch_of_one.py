"""One send path and one delivery path per channel: a single datagram is a
batch of one.

``send(x)`` must leave every counter and every delivery exactly as
``send_many([x])`` does, on every transport; only the return values keep
their own meaning (members reached for ``send``, payloads delivered for
``send_many``).  On the receive side a UDP drain queues what it parsed as
one batch, and an end-of-stream datagram in the middle of a ring must not
overtake the payloads before it.
"""

import socket
import time

import pytest

from repro.chaos import ChaosTransport, FaultPlan
from repro.transport import (
    EOS_DATAGRAM,
    DatagramReceiver,
    LoopbackTransport,
    encode_datagram,
    get_transport,
)

TRANSPORTS = ["loopback", "udp", "inproc", "chaos:loopback"]
SENDS = 6


def _open(name):
    if name == "chaos:loopback":
        # An active plan, so the chaos channel itself is what is tested:
        # both runs draw the same seeded drops for the same channel name.
        return ChaosTransport(LoopbackTransport(), FaultPlan(seed=3, drop_p=0.5))
    return get_transport(name)


def _collect(receiver, expected, timeout=2.0):
    """Everything delivered to ``receiver``; waits for ``expected`` items
    (UDP datagrams cross the kernel) unless the deadline passes first."""
    items = receiver.take()
    deadline = time.monotonic() + timeout
    while len(items) < expected and time.monotonic() < deadline:
        time.sleep(0.005)
        items += receiver.take()
    return items


def _run(name, members, call):
    transport = _open(name)
    try:
        channel = transport.open_channel("batch-of-one")
        receivers = [channel.join(f"m{i}") for i in range(members)]
        returned = [call(channel, b"payload-%d" % i) for i in range(SENDS)]
        expected = 0 if name.startswith("chaos") else SENDS
        delivered = [_collect(r, expected) for r in receivers]
        counters = (channel.packets_sent, channel.bytes_sent, channel.send_errors,
                    [(r.packets_received, r.bytes_received) for r in receivers])
        return returned, delivered, counters
    finally:
        transport.close()


@pytest.mark.parametrize("members", [0, 1, 2])
@pytest.mark.parametrize("name", TRANSPORTS)
def test_send_is_send_many_of_one(name, members):
    one_by_one = _run(name, members, lambda channel, x: channel.send(x))
    batches = _run(name, members, lambda channel, x: channel.send_many([x]))
    assert one_by_one[1:] == batches[1:]
    # send returns the members it reached (a dropped datagram still
    # targeted them); send_many the payloads delivered to >= 1 member.
    assert one_by_one[0] == [members] * SENDS
    assert batches[0] == [1 if members else 0] * SENDS
    if not name.startswith("chaos"):
        payloads = [b"payload-%d" % i for i in range(SENDS)]
        assert one_by_one[1] == [payloads] * members


@pytest.mark.parametrize("vectored", [True, False])
def test_an_eos_mid_ring_marks_eof_after_the_payloads_before_it(vectored):
    transport = get_transport("udp")
    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        receiver = transport.open_channel("eos").join("r")
        receiver._vectored_recv = receiver._vectored_recv and vectored
        queued_at_eof = []
        # The base class's count: no drain from inside the drain.
        receiver.subscribe(
            lambda: queued_at_eof.append(DatagramReceiver.pending(receiver)))
        for datagram in (encode_datagram(b"a"), encode_datagram(b"b"),
                         EOS_DATAGRAM):
            sender.sendto(datagram, receiver.address)
        deadline = time.monotonic() + 2.0
        while not queued_at_eof and time.monotonic() < deadline:
            receiver.pending()  # one drain parses the whole ring
            time.sleep(0.005)
        assert queued_at_eof == [2]
        assert receiver.take() == [b"a", b"b"]
        assert receiver.at_eof()
    finally:
        sender.close()
        transport.close()
