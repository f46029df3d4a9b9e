"""Receive syscalls per delivered datagram in the live regime.

The paper's proxy runs one small packet per wake-up per stream, so what a
packet costs is what one scheduler look costs.  A cooperative UDP source
may pay for the drain that finds the datagram and for the ``EAGAIN`` that
proves the socket empty again — nothing more.
"""

import socket
import time

import pytest

from repro.core import CollectorSink, Proxy
from repro.transport import (
    TransportSource,
    UdpTransport,
    encode_datagram,
    vectored,
)

STREAMS = 8
ROUNDS = 40

#: With ``recvmmsg`` one syscall both delivers the datagram and shows the
#: queue drained behind it.  The scalar ``recvfrom_into`` loop needs its
#: own ``EAGAIN`` to end each data-bearing drain: one more per wake-up.
SYSCALLS_PER_DATAGRAM = 2 if vectored.recv_available() else 3


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


@pytest.mark.parametrize("engine", ["event", "asyncio"])
def test_one_datagram_per_wakeup_costs_at_most_two_receive_syscalls(engine):
    transport = UdpTransport()
    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        with Proxy("live", engine=engine, transport=transport) as proxy:
            receivers, sinks, controls = [], [], []
            for index in range(STREAMS):
                channel = transport.open_channel(f"ingest-{index}")
                receiver = channel.join("proxy")
                sink = CollectorSink(expect_frames=True)
                controls.append(proxy.add_stream(
                    TransportSource(receiver), sink, name=f"live-{index}"))
                receivers.append(receiver)
                sinks.append(sink)
            for round_no in range(ROUNDS):
                for index, receiver in enumerate(receivers):
                    sender.sendto(
                        encode_datagram(b"%d:%d" % (index, round_no)),
                        receiver.address)
                # The next datagram is only sent once this one is through:
                # every wake-up finds exactly one.
                assert _wait_for(lambda: all(
                    len(sink.items()) == round_no + 1 for sink in sinks))
            time.sleep(0.05)  # a source re-looking at its socket shows here
            datagrams = sum(r.packets_received for r in receivers)
            syscalls = sum(r.receive_syscalls for r in receivers)
            for channel_index in range(STREAMS):
                transport.open_channel(f"ingest-{channel_index}").close()
            assert all(c.wait_for_completion(timeout=10.0) for c in controls)
        assert datagrams == STREAMS * ROUNDS
        for index, sink in enumerate(sinks):
            assert sink.items() == [b"%d:%d" % (index, r)
                                    for r in range(ROUNDS)]
        # The allowance is each source's first look, before anything was
        # sent, with one to spare; a third syscall per datagram is 320 over.
        assert syscalls <= SYSCALLS_PER_DATAGRAM * datagrams + 2 * STREAMS, (
            f"{syscalls} receive syscalls for {datagrams} datagrams")
    finally:
        sender.close()
        transport.close()
