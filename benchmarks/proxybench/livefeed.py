"""The harness side of ``live_udp_fanin``: an open-loop generator and a receiver.

Both live in the harness process, on the CPU the proxy is *not* pinned to,
so their cost never lands in the proxy's CPU figures.  The generator (one
thread) sends every packet at its *due* time on an absolute schedule and
stamps it with that due time, not the time it actually left: when the
proxy — or the generator itself — stalls, the wait shows up as latency of
the packets behind the stall instead of silently thinning the load.  How
late the generator ran is reported separately.  The receiver (one thread)
timestamps each datagram as ``recvfrom`` returns it.
"""

from __future__ import annotations

import random
import select
import socket
import threading
import time
from typing import Callable, Dict, List, Tuple

from repro.fec import FecPacket
from repro.transport import EOS_DATAGRAM, decode_datagram, encode_datagram

from .oracle import STAMP, SequenceChecker
from .workloads import FEC_K, LIVE_INTERVAL_S, LIVE_PACKET_BYTES

_SEQ_BITS = 48
_LENGTH_PREFIX = 2  # FEC data blocks carry a 16-bit payload length first


def open_receive_sockets(count: int) -> List[socket.socket]:
    """Bind the sockets the proxy's egress channels will send to."""
    sockets = []
    for _ in range(count):
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
        sock.bind(("127.0.0.1", 0))
        sock.setblocking(False)
        sockets.append(sock)
    return sockets


class Arrival:
    """What the receiver learned about one source packet."""

    __slots__ = ("stream", "seq", "due_ns", "arrived_ns", "completes_group")

    def __init__(self, stream: int, seq: int, due_ns: int, arrived_ns: int,
                 completes_group: bool) -> None:
        self.stream = stream
        self.seq = seq
        self.due_ns = due_ns
        self.arrived_ns = arrived_ns
        self.completes_group = completes_group


class Receiver(threading.Thread):
    """Drain the egress sockets until every stream signalled end-of-stream."""

    def __init__(self, sockets: List[socket.socket]) -> None:
        super().__init__(name="proxybench-receiver", daemon=True)
        self._sockets = sockets
        self._stop_at = float("inf")
        self.arrivals: List[Arrival] = []
        self.checkers = [SequenceChecker() for _ in sockets]
        self.undecodable = 0
        self.streams_ended = 0

    def finish_by(self, deadline: float) -> None:
        """Give up waiting for end-of-stream at ``deadline`` (monotonic)."""
        self._stop_at = deadline

    def run(self) -> None:
        index_of = {sock: index for index, sock in enumerate(self._sockets)}
        open_sockets = list(self._sockets)
        while open_sockets and time.monotonic() < self._stop_at:
            readable, _, _ = select.select(open_sockets, [], [], 0.1)
            for sock in readable:
                while True:
                    try:
                        datagram = sock.recv(65535)
                    except BlockingIOError:
                        break
                    arrived = time.perf_counter_ns()
                    if not self._handle(index_of[sock], datagram, arrived):
                        open_sockets.remove(sock)
                        break

    def _handle(self, stream: int, datagram: bytes, arrived_ns: int) -> bool:
        """Account for one datagram; False once the stream has ended."""
        try:
            payload = decode_datagram(datagram)
            if payload is None:
                self.streams_ended += 1
                return False
            packet = FecPacket.unpack(payload)
        except ValueError:
            self.undecodable += 1
            return True
        if packet.is_parity:
            return True
        offset = 0 if packet.is_uncoded else _LENGTH_PREFIX
        stamped, due_ns = STAMP.unpack_from(packet.payload, offset)
        seq = stamped & ((1 << _SEQ_BITS) - 1)
        if stamped >> _SEQ_BITS != stream:
            self.undecodable += 1
            return True
        self.checkers[stream].observe(seq)
        self.arrivals.append(Arrival(
            stream, seq, due_ns, arrived_ns,
            completes_group=(not packet.is_uncoded
                             and packet.index == FEC_K - 1)))
        return True


class Generator(threading.Thread):
    """Send 320-byte packets to every ingest address, 50 per second each.

    Tick ``n`` of stream ``s`` is due at ``t0 + n * 20 ms + s * 2.5 ms``:
    the streams are staggered so the proxy sees one packet per wakeup, the
    regime the workload exists to measure.  ``on_tick`` is called with the
    tick number before the tick's first packet (the harness uses it to
    place window marks).
    """

    def __init__(self, seed: int, addresses: List[Tuple[str, int]],
                 ticks: int, on_tick: Callable[[int], None]) -> None:
        super().__init__(name="proxybench-generator", daemon=True)
        rng = random.Random(seed)
        body = LIVE_PACKET_BYTES - STAMP.size
        self._tails = [rng.randbytes(body) for _ in range(8)]
        self._addresses = [tuple(address) for address in addresses]
        self._ticks = ticks
        self._on_tick = on_tick
        self._socket = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.start_ns = 0
        #: When each packet actually left, in send order (tick-major).
        self.sent_ns: List[int] = []

    def due_ns(self, tick: int, stream: int) -> int:
        """The instant packet ``tick`` of ``stream`` is scheduled for."""
        interval = int(LIVE_INTERVAL_S * 1e9)
        return (self.start_ns + tick * interval
                + stream * interval // len(self._addresses))

    def run(self) -> None:
        self.start_ns = time.perf_counter_ns() + 50_000_000
        send = self._socket.sendto
        try:
            for tick in range(self._ticks):
                self._on_tick(tick)
                for stream, address in enumerate(self._addresses):
                    due = self.due_ns(tick, stream)
                    wait = due - time.perf_counter_ns()
                    if wait > 0:
                        time.sleep(wait / 1e9)
                    payload = (STAMP.pack(stream << _SEQ_BITS | tick, due)
                               + self._tails[tick & 7])
                    send(encode_datagram(payload), address)
                    self.sent_ns.append(time.perf_counter_ns())
            for address in self._addresses:
                send(EOS_DATAGRAM, address)
        finally:
            self._socket.close()


def failures(receiver: Receiver, ticks: int) -> Dict[str, int]:
    """Failure counts by kind over every stream (``ticks`` packets each)."""
    totals: Dict[str, int] = {"undecodable": receiver.undecodable}
    for checker in receiver.checkers:
        for key, value in checker.verdict(ticks).items():
            if key not in ("failed", "expected_units"):
                totals[key] = totals.get(key, 0) + value
    return totals
