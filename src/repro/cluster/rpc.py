"""Length-prefixed JSON RPC — the cluster's parent/worker control protocol.

One frame on the wire is::

    +--------+----------------+------------------------+
    | 0x9C   |  body length   |  UTF-8 JSON object     |
    | 1 byte |  >I (4 bytes)  |  `length` bytes        |
    +--------+----------------+------------------------+

the same magic-plus-big-endian-length shape as the stream framing in
:mod:`repro.streams.framing` and the UDP datagram framing, with a distinct
magic byte (``0x9C``) so a control frame can never be mistaken for stream
data.  The body is one JSON object; requests carry ``{"id": n, "op": ...}``
and responses echo the id as ``{"id": n, "ok": true/false, ...}``.

The transport is any connected stream socket (the cluster uses loopback
TCP: workers connect back to the parent's listener, which sidesteps fd
inheritance under the ``spawn`` start method).  :class:`RpcConnection`
gives both sides a symmetric message API; the parent's
:meth:`RpcConnection.request` serialises one outstanding request per
connection (the worker's control loop is single-threaded by design — a
drain cannot race a splice).
"""

from __future__ import annotations

import itertools
import json
import os
import random
import socket
import struct
import threading
import time
from typing import Any, Dict, Optional

_HEADER = struct.Struct(">BI")

#: Environment variable overriding the default per-call RPC deadline, in
#: seconds (``REPRO_RPC_TIMEOUT=5``).  ``0`` or a negative value means no
#: deadline (block forever — the pre-deadline behaviour).
RPC_TIMEOUT_ENV_VAR = "REPRO_RPC_TIMEOUT"

#: Deadline applied when neither the call nor the environment names one.
DEFAULT_RPC_TIMEOUT_S = 30.0

#: Sentinel distinguishing "caller passed nothing" from an explicit
#: ``timeout=None`` (which means block forever).
_UNSET = object()


def default_rpc_timeout() -> Optional[float]:
    """The process-wide RPC deadline: ``REPRO_RPC_TIMEOUT`` or 30 s."""
    raw = os.environ.get(RPC_TIMEOUT_ENV_VAR, "").strip()
    if not raw:
        return DEFAULT_RPC_TIMEOUT_S
    try:
        value = float(raw)
    except ValueError:
        raise RpcError(
            f"invalid {RPC_TIMEOUT_ENV_VAR} value {raw!r}: "
            f"expected seconds as a number") from None
    return value if value > 0 else None

#: First byte of every control frame.  Distinct from the stream/datagram
#: framing magic (``0xC5``) so cross-plugged sockets fail loudly.
RPC_MAGIC = 0x9C

HEADER_SIZE = _HEADER.size

#: Largest accepted body.  Control messages are small; the ceiling exists
#: so a corrupt length field cannot make a reader allocate gigabytes.
MAX_RPC_FRAME = 64 * 1024 * 1024


class RpcError(RuntimeError):
    """Raised for malformed frames or request failures."""


class RpcConnectionClosed(RpcError):
    """Raised when the peer closed the connection mid-conversation."""


def encode_message(payload: Dict[str, Any]) -> bytes:
    """Frame one JSON-serialisable message for the wire."""
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True,
                      default=str).encode("utf-8")
    if len(body) > MAX_RPC_FRAME:
        raise RpcError(
            f"RPC body of {len(body)} bytes exceeds {MAX_RPC_FRAME}")
    return _HEADER.pack(RPC_MAGIC, len(body)) + body


def decode_header(header: bytes) -> int:
    """Validate a frame header; returns the body length."""
    if len(header) != HEADER_SIZE:
        raise RpcError(f"short RPC header ({len(header)} bytes)")
    magic, length = _HEADER.unpack(header)
    if magic != RPC_MAGIC:
        raise RpcError(f"bad RPC magic 0x{magic:02x}")
    if length > MAX_RPC_FRAME:
        raise RpcError(f"RPC body length {length} exceeds {MAX_RPC_FRAME}")
    return length


def _retry_counter():
    from ..obs.metrics import default_registry

    return default_registry().counter(
        "repro_rpc_retries_total",
        "Cluster RPC attempts re-sent after a deadline timeout",
        label_names=("op",))


class RpcConnection:
    """A message pipe over one connected stream socket.

    Thread safety: sends take a lock (frames never interleave); receives
    are expected from a single reader thread per side, which is how both
    the worker's serve loop and the parent's per-worker handle use it.
    """

    def __init__(self, sock: socket.socket) -> None:
        try:
            # Control messages are tiny and latency-sensitive; don't let
            # Nagle batch them.  Non-TCP sockets (tests use socketpairs)
            # reject the option and are already unbuffered.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        self._socket = sock
        self._send_lock = threading.Lock()
        self._request_lock = threading.Lock()
        self._request_ids = itertools.count(1)
        self._closed = False

    # -- framing ---------------------------------------------------------------

    def _recv_exact(self, nbytes: int,
                    timeout: Optional[float]) -> bytes:
        """Read exactly ``nbytes`` (RpcConnectionClosed on EOF)."""
        self._socket.settimeout(timeout)
        pieces = []
        remaining = nbytes
        while remaining:
            try:
                piece = self._socket.recv(remaining)
            except socket.timeout:
                raise TimeoutError(
                    f"RPC receive timed out after {timeout}s") from None
            except OSError as exc:
                raise RpcConnectionClosed(
                    f"RPC connection lost: {exc}") from exc
            if not piece:
                raise RpcConnectionClosed("RPC peer closed the connection")
            pieces.append(piece)
            remaining -= len(piece)
        return b"".join(pieces)

    def send(self, payload: Dict[str, Any]) -> None:
        """Send one message (frames never interleave across threads)."""
        frame = encode_message(payload)
        with self._send_lock:
            try:
                self._socket.sendall(frame)
            except OSError as exc:
                raise RpcConnectionClosed(
                    f"RPC connection lost: {exc}") from exc

    def receive(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Receive one message (blocking up to ``timeout`` seconds)."""
        length = decode_header(self._recv_exact(HEADER_SIZE, timeout))
        body = self._recv_exact(length, timeout)
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError,
                RecursionError) as exc:  # nesting deeper than the parser
            raise RpcError(f"malformed RPC body: {exc}") from exc
        if not isinstance(payload, dict):
            raise RpcError(
                f"RPC body must be a JSON object, got {type(payload).__name__}")
        return payload

    # -- request/response ------------------------------------------------------

    def request(self, op: str, timeout: Any = _UNSET, retries: int = 0,
                backoff_s: float = 0.05, backoff_factor: float = 2.0,
                jitter_s: float = 0.02, **fields: Any) -> Any:
        """One round trip: send ``op``, return the response's ``result``.

        Every call carries a deadline: the default comes from
        ``REPRO_RPC_TIMEOUT`` (falling back to 30 s), an explicit
        ``timeout=None`` blocks forever.  ``retries`` re-sends the request
        after a timeout, sleeping an exponential backoff plus a uniform
        jitter between attempts (idempotent ops only — the worker may have
        processed a timed-out attempt); each retry is counted in
        ``repro_rpc_retries_total{op=...}``.

        Raises :class:`RpcError` when the peer answered ``ok: false`` (the
        peer's error text is preserved), :class:`TimeoutError` when no
        response arrived within the deadline on any attempt.  One request
        is outstanding at a time per connection, matching the worker's
        single-threaded control loop.
        """
        if timeout is _UNSET:
            timeout = default_rpc_timeout()
        attempt = 0
        while True:
            try:
                with self._request_lock:
                    return self._request_locked(op, timeout, fields)
            except TimeoutError:
                if attempt >= retries:
                    raise
                _retry_counter().labels(op=op).inc()
                delay = min(backoff_s * (backoff_factor ** attempt), 5.0)
                time.sleep(delay + random.uniform(0.0, jitter_s))
                attempt += 1

    def try_request(self, op: str, timeout: Any = _UNSET,
                    **fields: Any) -> Any:
        """Like :meth:`request`, but give up instead of queueing.

        Returns ``None`` without sending anything when another request is
        already outstanding on this connection — the behaviour a heartbeat
        wants: never pile probe traffic behind a slow in-flight call (the
        in-flight call's own deadline covers that case).
        """
        if timeout is _UNSET:
            timeout = default_rpc_timeout()
        if not self._request_lock.acquire(blocking=False):
            return None
        try:
            return self._request_locked(op, timeout, fields)
        finally:
            self._request_lock.release()

    def _request_locked(self, op: str, timeout: Optional[float],
                        fields: Dict[str, Any]) -> Any:
        """One send/receive round trip (the request lock is already held)."""
        request_id = next(self._request_ids)
        message = {"id": request_id, "op": op}
        message.update(fields)
        self.send(message)
        while True:
            response = self.receive(timeout=timeout)
            if response.get("id") != request_id:
                # A stale response from an earlier timed-out request;
                # drop it and keep waiting for ours.
                continue
            if not response.get("ok"):
                raise RpcError(
                    f"RPC {op!r} failed: {response.get('error', 'unknown')}")
            return response.get("result")

    def respond(self, request: Dict[str, Any], result: Any = None) -> None:
        """Answer one request affirmatively."""
        self.send({"id": request.get("id"), "ok": True, "result": result})

    def respond_error(self, request: Dict[str, Any], error: str) -> None:
        """Answer one request with a failure."""
        self.send({"id": request.get("id"), "ok": False, "error": str(error)})

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Close the underlying socket (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._socket.close()
        except OSError:  # pragma: no cover - best effort
            pass

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._closed

    def fileno(self) -> int:
        """The socket's fd (for selector-based waits)."""
        return self._socket.fileno()
