"""EndPoints anchoring a filter chain on a transport.

:class:`TransportSource` feeds a chain with the packets arriving at a
:class:`~repro.transport.base.DatagramReceiver`; :class:`TransportSink`
multicasts every packet leaving a chain onto a
:class:`~repro.transport.base.DatagramChannel`.  Together they replace the
ad-hoc pairs the proxies grew before the transport layer existed
(``CallableSink(channel.send)``, queue-fed ``CallableSource``) with endpoints
that work identically over the simulated LAN, in-memory queues, and real
UDP sockets.

Execution-engine integration:

* under the threaded engine the source blocks in ``receiver.recv`` with a
  short timeout (its dedicated thread can afford to);
* under the event engine the source is *cooperative*: queue-backed
  receivers wake the scheduler through their ``subscribe`` hook, and
  socket-backed receivers expose ``selectable_fileno`` so the engine parks
  them on its selector — N UDP streams run on one scheduler thread with no
  per-socket threads (see :mod:`repro.runtime.event`).
"""

from __future__ import annotations

from typing import List, Optional

from ..core.endpoints import SinkEndPoint, SourceEndPoint
from .base import DatagramChannel, DatagramReceiver, TransportTimeoutError


class TransportSource(SourceEndPoint):
    """Produces the packets arriving at a transport datagram receiver.

    Each received payload enters the chain as one framed packet
    (``frame_output=True`` by default) so packet filters compose directly.
    End-of-stream is the channel's close (the receiver's EOF).
    """

    type_name = "transport-source"

    #: Cooperative: the pump only reads what is already queued (or already
    #: buffered in the kernel, for socket-backed receivers) and never blocks.
    cooperative_capable = True

    def __init__(self, receiver: DatagramReceiver, name: Optional[str] = None,
                 frame_output: bool = True,
                 poll_interval_s: float = 0.1) -> None:
        if poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        super().__init__(name=name or f"transport-source-{receiver.name}",
                         frame_output=frame_output)
        self.receiver = receiver
        self.poll_interval_s = poll_interval_s

    # -- engine integration ----------------------------------------------------

    def bind_engine(self, engine) -> "TransportSource":
        """Bind to a cooperative engine and hook up receiver readiness."""
        super().bind_engine(engine)
        # Queue-backed receivers signal arrivals through this hook; for
        # socket-backed receivers it only fires on explicit state changes
        # (EOF, close) and the engine's selector provides data readiness.
        self.receiver.subscribe(self._notify_engine)
        return self

    def selectable_fileno(self) -> Optional[int]:
        """The receiver's fd, for the event engine's selector (or None)."""
        return self.receiver.selectable_fileno()

    def wants_input_pump(self) -> bool:
        """True when queued payloads (or EOF) make a pump worthwhile."""
        return self.receiver.readable()

    def _starved_wakeup_armed(self) -> bool:
        """Arrivals re-mark this source, so an empty look need not.

        Queue-backed receivers fire the ``subscribe`` hook on delivery;
        socket-backed ones sit on the engine's level-triggered selector.
        """
        return True

    # -- production ------------------------------------------------------------

    def produce(self) -> Optional[bytes]:
        """Emit the next received payload (None at end-of-stream)."""
        if self.cooperative:
            # Never block: emit a queued payload, EOF, or nothing (b"" is
            # skipped by the pump and the engine re-parks us until the
            # receiver's hooks report new readiness).  readable() is the
            # only step that may touch the socket, and only on an empty
            # queue; poll() after it finds the queue already filled.
            receiver = self.receiver
            if not receiver.readable():
                return b""
            payload = receiver.poll()
            if payload is not None:
                return payload
            return None if receiver.at_eof() else b""
        while not self._stop_event.is_set():
            try:
                return self.receiver.recv(timeout=self.poll_interval_s)
            except TransportTimeoutError:
                continue
        return None

    def produce_many(self, max_items: int) -> Optional[List[bytes]]:
        """Take up to a budget of queued payloads: one look, one lock hold.

        Cooperative only — the dedicated thread blocks in :meth:`produce`.
        ``readable()`` is again the only step that may touch the socket.
        """
        if not self.cooperative:
            return None
        receiver = self.receiver
        if not receiver.readable():
            return []
        return receiver.poll_many(max_items)

    def stop(self, timeout: float = 5.0) -> None:
        """Stop producing and detach from the receiver's readiness hook."""
        super().stop(timeout=timeout)
        self.receiver.unsubscribe(self._notify_engine)


class TransportSink(SinkEndPoint):
    """Multicasts every packet leaving the chain onto a datagram channel.

    With ``close_channel_on_eof`` (the default) the chain's end-of-stream
    closes the channel, which propagates EOF to every member — including
    receivers in other processes, via the UDP transport's end-of-stream
    datagram.  Disable it when several streams share one channel.
    """

    type_name = "transport-sink"

    #: Sends are non-blocking for every shipped transport (queue append,
    #: simulated multicast, UDP ``sendto``), so the event engine may pump
    #: this sink cooperatively.
    cooperative_capable = True

    def __init__(self, channel: DatagramChannel, name: Optional[str] = None,
                 expect_frames: bool = True,
                 close_channel_on_eof: bool = True) -> None:
        super().__init__(name=name or f"transport-sink-{channel.name}",
                         expect_frames=expect_frames)
        self.channel = channel
        self.close_channel_on_eof = close_channel_on_eof

    def consume_many(self, items) -> None:
        """Multicast a whole batch through the channel's vectored send.

        One :meth:`DatagramChannel.send_many` call per pump budget — on the
        UDP transport that is one ``sendmmsg`` syscall per member instead
        of one ``sendto`` per packet.
        """
        self.channel.send_many(items)
        self.items_consumed += len(items)

    def finalize(self):
        """Propagate chain end-of-stream by closing the channel."""
        result = super().finalize()
        if self.close_channel_on_eof and not self.channel.closed:
            self.channel.close()
        return result
