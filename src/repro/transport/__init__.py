"""Pluggable transports: simulated networks and real sockets, one interface.

This package owns *where* a proxy's packets travel, behind the same
registry pattern as the GF(256) backends (:mod:`repro.fec.backend`) and the
execution engines (:mod:`repro.runtime`):

* :class:`InprocTransport` — the paper's simulated testbed (seeded loss
  models, WaveLAN accounting; deterministic, single-process; the default);
* :class:`UdpTransport` — real UDP sockets with packet framing, so the
  proxy and its receivers can run as separate OS processes;
* :class:`LoopbackTransport` — zero-config in-memory queues for tests.

Select with ``Proxy(..., transport=...)`` / ``ControlThread(...,
transport=...)`` (name or instance), the ``REPRO_TRANSPORT`` environment
variable, or :func:`set_default_transport`.
"""

from .base import (
    TRANSPORT_ENV_VAR,
    DatagramChannel,
    DatagramReceiver,
    StreamConnection,
    StreamListener,
    Transport,
    TransportError,
    TransportTimeoutError,
    available_transports,
    get_transport,
    register_transport,
    resolve_transport,
    set_default_transport,
)
from .endpoints import TransportSink, TransportSource
from .inproc import InprocChannel, InprocReceiver, InprocTransport
from .loopback import (
    LoopbackChannel,
    LoopbackReceiver,
    LoopbackTransport,
    MemoryStreamConnection,
    MemoryStreamListener,
    memory_stream_pair,
)
from .udp import (
    EOS_DATAGRAM,
    MAX_DATAGRAM_PAYLOAD,
    TcpStreamConnection,
    TcpStreamListener,
    UdpChannel,
    UdpReceiver,
    UdpTransport,
    decode_datagram,
    encode_datagram,
)

register_transport(InprocTransport.name, InprocTransport, make_default=True)
register_transport(LoopbackTransport.name, LoopbackTransport)
register_transport(UdpTransport.name, UdpTransport)

__all__ = [
    "TRANSPORT_ENV_VAR",
    "Transport",
    "TransportError",
    "TransportTimeoutError",
    "DatagramChannel",
    "DatagramReceiver",
    "StreamConnection",
    "StreamListener",
    "register_transport",
    "available_transports",
    "get_transport",
    "resolve_transport",
    "set_default_transport",
    "InprocTransport",
    "InprocChannel",
    "InprocReceiver",
    "LoopbackTransport",
    "LoopbackChannel",
    "LoopbackReceiver",
    "MemoryStreamConnection",
    "MemoryStreamListener",
    "memory_stream_pair",
    "UdpTransport",
    "UdpChannel",
    "UdpReceiver",
    "TcpStreamConnection",
    "TcpStreamListener",
    "encode_datagram",
    "decode_datagram",
    "EOS_DATAGRAM",
    "MAX_DATAGRAM_PAYLOAD",
    "TransportSource",
    "TransportSink",
]
