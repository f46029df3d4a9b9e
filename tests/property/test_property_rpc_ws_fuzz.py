"""Fuzz the WebSocket frame parser and the cluster RPC framing.

Hypothesis builds byte streams out of valid frames, bad magic / reserved
opcodes, over-size length fields and raw random bytes, and cuts them at
random points.  Every run must end one of two ways: the messages, or the
messages before the first bad frame and then the layer's own protocol
error (:class:`WebSocketProtocolError`, :class:`RpcError`) — never another
exception, never a hang.  A parser that has not rejected its input never
buffers more than one frame.
"""

import socket
import struct
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.rpc import (
    HEADER_SIZE,
    MAX_RPC_FRAME,
    RPC_MAGIC,
    RpcConnection,
    RpcConnectionClosed,
    RpcError,
    decode_header,
    encode_message,
)
from repro.ingress.websocket import (
    MAX_MESSAGE_BYTES,
    OP_BINARY,
    OP_CLOSE,
    OP_CONT,
    OP_PING,
    OP_PONG,
    OP_TEXT,
    FrameParser,
    WebSocketProtocolError,
    encode_frame,
)

cuts = st.lists(st.integers(min_value=0), max_size=10)


def _cut(stream, points):
    bounds = sorted({point % (len(stream) + 1) for point in points})
    edges = [0] + bounds + [len(stream)]
    return [stream[a:b] for a, b in zip(edges, edges[1:]) if b > a]


# ------------------------------------------------------------- WebSocket

data_frames = st.tuples(st.sampled_from([OP_TEXT, OP_BINARY]),
                        st.binary(max_size=300), st.booleans())
control_frames = st.tuples(st.sampled_from([OP_CLOSE, OP_PING, OP_PONG]),
                           st.binary(max_size=125), st.booleans())
messages = st.lists(st.one_of(data_frames, control_frames), max_size=8)

reserved_opcodes = st.sampled_from([0x3, 0x4, 0x5, 0x6, 0x7,
                                    0xB, 0xC, 0xD, 0xE, 0xF])
ws_pieces = st.one_of(
    st.tuples(st.sampled_from([OP_TEXT, OP_BINARY, OP_PING]),
              st.binary(max_size=64), st.booleans()).map(
        lambda m: encode_frame(m[0], m[1], mask=m[2])),          # valid
    st.tuples(reserved_opcodes, st.binary(max_size=16)).map(     # reserved
        lambda m: bytes([0x80 | m[0], len(m[1])]) + m[1]),
    st.integers(126, (1 << 16) - 1).map(                         # big control
        lambda n: bytes([0x80 | OP_PING, 126]) + struct.pack("!H", n)),
    st.integers(MAX_MESSAGE_BYTES + 1, 2 ** 63 - 1).map(         # over-size
        lambda n: bytes([0x80 | OP_BINARY, 127]) + struct.pack("!Q", n)),
    st.binary(max_size=24),                                      # anything
)
ws_streams = st.lists(ws_pieces, max_size=10).map(b"".join)


def _ws_frame_size(buffer):
    """Bytes the frame at the head of ``buffer`` spans (None: header cut)."""
    if len(buffer) < 2:
        return None
    length, offset = buffer[1] & 0x7F, 2
    if length == 126:
        if len(buffer) < 4:
            return None
        (length,), offset = struct.unpack_from("!H", buffer, 2), 4
    elif length == 127:
        if len(buffer) < 10:
            return None
        (length,), offset = struct.unpack_from("!Q", buffer, 2), 10
    return offset + (4 if buffer[1] & 0x80 else 0) + length


def _assert_at_most_one_frame_pending(parser):
    pending = bytes(parser._buffer)
    size = _ws_frame_size(pending)
    assert size is None or len(pending) < size


@settings(max_examples=300, deadline=None)
@given(ws_streams, cuts, st.booleans())
def test_frame_parser_rejects_garbage_cleanly(stream, points, require_masked):
    parser = FrameParser(require_masked=require_masked)
    try:
        for chunk in _cut(stream, points):
            for opcode, payload in parser.feed(chunk):
                assert opcode != OP_CONT
                assert isinstance(payload, bytes)
            _assert_at_most_one_frame_pending(parser)
    except WebSocketProtocolError:
        pass


@settings(max_examples=200, deadline=None)
@given(messages, cuts, st.booleans())
def test_valid_frames_split_anywhere_parse_back(frames, points, mask):
    stream = b"".join(encode_frame(opcode, payload, mask=mask)
                      for opcode, payload, _ in frames)
    parser = FrameParser(require_masked=mask)
    out = []
    for chunk in _cut(stream, points):
        out.extend(parser.feed(chunk))
        _assert_at_most_one_frame_pending(parser)
    assert out == [(opcode, payload) for opcode, payload, _ in frames]
    assert not parser._buffer


@settings(max_examples=100, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=40), min_size=2, max_size=5),
       control_frames, cuts)
def test_fragmented_message_reassembles_around_control(parts, control,
                                                       points):
    opcode, payload, _ = control
    stream = encode_frame(OP_BINARY, parts[0], fin=False)
    stream += encode_frame(opcode, payload)
    for part in parts[1:-1]:
        stream += encode_frame(OP_CONT, part, fin=False)
    stream += encode_frame(OP_CONT, parts[-1])
    out = []
    parser = FrameParser()
    for chunk in _cut(stream, points):
        out.extend(parser.feed(chunk))
    assert out == [(opcode, payload), (OP_BINARY, b"".join(parts))]


@given(reserved_opcodes, st.binary(max_size=16))
def test_reserved_opcode_fails_the_connection(opcode, payload):
    frame = bytes([0x80 | opcode, len(payload)]) + payload
    try:
        FrameParser().feed(frame)
    except WebSocketProtocolError:
        return
    raise AssertionError(f"opcode 0x{opcode:x} was accepted")


@given(st.sampled_from([OP_CLOSE, OP_PING, OP_PONG]),
       st.integers(126, 1000))
def test_oversize_control_frame_fails_before_its_payload(opcode, size):
    header = bytes([0x80 | opcode, 126]) + struct.pack("!H", size)
    try:
        FrameParser().feed(header)  # rejected from the header alone
    except WebSocketProtocolError:
        return
    raise AssertionError(f"{size}-byte control frame was accepted")


# ------------------------------------------------------------------- RPC

@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=0, max_size=12))
def test_decode_header_accepts_or_raises_rpc_error(header):
    try:
        length = decode_header(header)
    except RpcError:
        return
    assert len(header) == HEADER_SIZE and header[0] == RPC_MAGIC
    assert 0 <= length <= MAX_RPC_FRAME


json_objects = st.dictionaries(
    st.text(max_size=8),
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=16)),
    max_size=4)
rpc_pieces = st.one_of(
    json_objects.map(encode_message),                             # valid
    st.binary(min_size=1, max_size=16).map(                       # bad magic
        lambda tail: bytes([RPC_MAGIC ^ 0x5A]) + tail),
    st.integers(MAX_RPC_FRAME + 1, 2 ** 32 - 1).map(              # over-size
        lambda n: struct.pack(">BI", RPC_MAGIC, n)),
    st.binary(max_size=24).map(                                   # bad body
        lambda body: struct.pack(">BI", RPC_MAGIC, len(body)) + body),
    st.binary(max_size=24),                                       # anything
)
rpc_streams = st.lists(rpc_pieces, max_size=8).map(b"".join)


def _receive_all(stream, points):
    """Write ``stream`` in pieces then close; receive until the verdict."""
    left, right = socket.socketpair()
    received = []

    def write():
        try:
            for chunk in _cut(stream, points):
                left.sendall(chunk)
            left.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the reader gave up on a bad frame and closed

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    connection = RpcConnection(right)
    try:
        while True:
            # A hang would surface as TimeoutError, which fails the test.
            received.append(connection.receive(timeout=5.0))
    except RpcError as exc:
        error = exc
    finally:
        right.close()
        writer.join(timeout=5.0)
        left.close()
    return received, error


@settings(max_examples=150, deadline=None)
@given(rpc_streams, cuts)
def test_rpc_receive_rejects_garbage_cleanly(stream, points):
    received, error = _receive_all(stream, points)
    assert all(isinstance(message, dict) for message in received)
    assert isinstance(error, RpcError)


@settings(max_examples=100, deadline=None)
@given(st.lists(json_objects, max_size=6), cuts)
def test_rpc_messages_split_anywhere_arrive_whole(payloads, points):
    stream = b"".join(encode_message(payload) for payload in payloads)
    received, error = _receive_all(stream, points)
    assert received == payloads
    assert isinstance(error, RpcConnectionClosed)  # the clean end, no more


def test_rpc_body_nested_past_the_json_parser_is_an_rpc_error():
    body = b"[" * 100_000
    received, error = _receive_all(struct.pack(">BI", RPC_MAGIC, len(body))
                                   + body, [])
    assert received == []
    assert isinstance(error, RpcError)
    assert "malformed" in str(error)
