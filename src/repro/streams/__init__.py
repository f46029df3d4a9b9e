"""Detachable streams — the transport substrate for composable proxy filters.

This package reproduces the paper's detachable Java I/O streams in Python:

* :class:`~repro.streams.detachable.DetachableOutputStream` /
  :class:`~repro.streams.detachable.DetachableInputStream` — piped byte
  streams that can be paused, disconnected, reconnected and restarted;
* :class:`~repro.streams.buffer.StreamBuffer` — the bounded byte buffer held
  at the DIS side;
* :mod:`~repro.streams.framing` — length-prefixed packet framing so
  packet-oriented filters (FEC, transcoders) can ride on byte streams;
* :mod:`~repro.streams.awaitable` — asyncio adapters that turn the
  streams' ``subscribe()`` callbacks into awaitable readiness, so
  coroutine code (the asyncio engine, the ingress front door) can wait
  on a DIS/DOS without blocking a thread.
"""

from .awaitable import (
    DEFAULT_RECHECK_S,
    AsyncStreamEvent,
    read_async,
    read_chunks_async,
    wait_readable,
    wait_writable,
    write_async,
)

from .buffer import DEFAULT_CAPACITY, StreamBuffer
from .detachable import (
    DEFAULT_DRAIN_TIMEOUT,
    DEFAULT_RECONNECT_WAIT,
    DetachableInputStream,
    DetachableOutputStream,
    connect,
    make_pipe,
)
from .exceptions import (
    AlreadyConnectedError,
    BrokenStreamError,
    FramingError,
    NotConnectedError,
    StreamClosedError,
    StreamError,
    StreamTimeoutError,
)
from .framing import (
    FRAME_MAGIC,
    HEADER_SIZE,
    MAX_FRAME_SIZE,
    FrameDecoder,
    encode_frame,
    encode_frame_batch,
    encode_frames,
)

__all__ = [
    "DEFAULT_CAPACITY",
    "DEFAULT_DRAIN_TIMEOUT",
    "DEFAULT_RECONNECT_WAIT",
    "StreamBuffer",
    "DetachableInputStream",
    "DetachableOutputStream",
    "connect",
    "make_pipe",
    "StreamError",
    "AlreadyConnectedError",
    "NotConnectedError",
    "StreamClosedError",
    "StreamTimeoutError",
    "BrokenStreamError",
    "FramingError",
    "FrameDecoder",
    "encode_frame",
    "encode_frame_batch",
    "encode_frames",
    "FRAME_MAGIC",
    "HEADER_SIZE",
    "MAX_FRAME_SIZE",
    "DEFAULT_RECHECK_S",
    "AsyncStreamEvent",
    "wait_readable",
    "wait_writable",
    "read_async",
    "read_chunks_async",
    "write_async",
]
