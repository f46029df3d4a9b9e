"""Vectored UDP I/O rings (recvmmsg / sendmmsg): reuse, fallback, kill switch."""

import ctypes
import errno
import socket
import time

import pytest

from repro.transport import UdpTransport, encode_datagram
from repro.transport import vectored

needs_recvmmsg = pytest.mark.skipif(
    not vectored.recv_available(),
    reason="recvmmsg not available (or REPRO_UDP_VECTORED=0)")
needs_sendmmsg = pytest.mark.skipif(
    not vectored.available(),
    reason="sendmmsg not available (or REPRO_UDP_VECTORED=0)")


@pytest.fixture
def transport():
    t = UdpTransport()
    yield t
    t.close()


@pytest.fixture
def bound_socket():
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.setblocking(False)
    yield sock
    sock.close()


def _blast(port, payloads):
    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        for payload in payloads:
            sender.sendto(encode_datagram(payload), ("127.0.0.1", port))
    finally:
        sender.close()


def _take_until(receiver, count, timeout=5.0):
    deadline = time.monotonic() + timeout
    got = []
    while len(got) < count and time.monotonic() < deadline:
        got.extend(receiver.take())
        time.sleep(0.01)
    return got


def _failing_syscall(err):
    """A stand-in for ``_recvmmsg``/``_sendmmsg`` that fails with ``err``."""
    def syscall(*_args):
        ctypes.set_errno(err)
        return -1
    return syscall


@needs_recvmmsg
class TestRecvBatch:
    def test_batch_drains_many_datagrams_per_call(self, bound_socket):
        _blast(bound_socket.getsockname()[1],
               [b"m-%03d" % i for i in range(10)])
        time.sleep(0.05)
        ring = vectored.RecvRing(16, 2048)
        lengths, error = ring.recv(bound_socket)
        assert error is None
        assert len(lengths) == 10
        for i, nbytes in enumerate(lengths):
            assert (bytes(ring.buffers[i][:nbytes])
                    == encode_datagram(b"m-%03d" % i))
        # The queue is drained: the next call reports no data, no error.
        assert ring.recv(bound_socket) == ([], None)

    def test_empty_buffer_list_is_a_noop(self, bound_socket):
        _blast(bound_socket.getsockname()[1], [b"left-alone"])
        time.sleep(0.05)
        assert vectored.RecvRing(0, 2048).recv(bound_socket) == ([], None)
        # The datagram is still there for a ring that has a slot for it.
        assert len(vectored.RecvRing(1, 2048).recv(bound_socket)[0]) == 1

    def test_ring_is_reused_and_payloads_survive_when_copied_out(
            self, bound_socket):
        port = bound_socket.getsockname()[1]
        ring = vectored.RecvRing(4, 2048)
        arrays = (ring._headers, ring._iovecs, ring.buffers[0])
        copied = []
        for lap in range(4):  # every lap lands in slots 0.. again
            sent = [b"lap-%d-%d" % (lap, i) for i in range(3)]
            _blast(port, sent)
            time.sleep(0.02)
            lengths, error = ring.recv(bound_socket)
            assert error is None and len(lengths) == 3
            copied.extend(bytes(ring.buffers[i][:n])
                          for i, n in enumerate(lengths))
            assert all(a is b for a, b in zip(
                (ring._headers, ring._iovecs, ring.buffers[0]), arrays))
        assert copied == [encode_datagram(b"lap-%d-%d" % (lap, i))
                          for lap in range(4) for i in range(3)]

    def test_eagain_returns_empty_and_builds_no_ctypes_object(
            self, bound_socket, monkeypatch):
        ring = vectored.RecvRing(8, 2048)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("ctypes object built on the EAGAIN path")

        for name in ("_iovec", "_mmsghdr", "_msghdr", "_header_array"):
            monkeypatch.setattr(vectored, name, forbidden)
        for name in ("cast", "pointer", "byref", "addressof"):
            monkeypatch.setattr(vectored.ctypes, name, forbidden)
        for _ in range(3):
            assert ring.recv(bound_socket) == ([], None)

    def test_other_errnos_are_reported_not_raised(self, bound_socket,
                                                  monkeypatch):
        ring = vectored.RecvRing(2, 2048)
        monkeypatch.setattr(vectored, "_recvmmsg",
                            _failing_syscall(errno.ENOSYS))
        lengths, error = ring.recv(bound_socket)
        assert lengths == [] and error.errno == errno.ENOSYS


class TestReceiverIntegration:
    def test_receiver_drains_batches_end_to_end(self, transport):
        channel = transport.open_channel("vr-chan")
        receiver = channel.join("member", address=("127.0.0.1", 0))
        payloads = [b"payload-%03d" % i for i in range(40)]
        _blast(receiver.address[1], payloads)
        assert _take_until(receiver, len(payloads)) == payloads

    def test_ring_is_built_lazily_and_once(self, transport):
        channel = transport.open_channel("lazy-chan")
        receiver = channel.join("member", address=("127.0.0.1", 0))
        assert receiver._ring is None  # send-only members never pay for it
        receiver.pending()
        ring = receiver._ring
        assert ring is not None
        _blast(receiver.address[1], [b"a", b"b", b"c"])
        assert _take_until(receiver, 3) == [b"a", b"b", b"c"]
        assert receiver._ring is ring

    def test_kill_switch_disables_vectored_receive(self, transport,
                                                   monkeypatch):
        monkeypatch.setenv(vectored.VECTORED_ENV_VAR, "0")
        assert not vectored.recv_available()
        channel = transport.open_channel("kill-chan")
        receiver = channel.join("member", address=("127.0.0.1", 0))
        assert receiver._vectored_recv is False
        monkeypatch.setattr(
            vectored.RecvRing, "recv",
            lambda *_a: pytest.fail("recvmmsg used despite the kill switch"))
        # The scalar path still delivers everything.
        payloads = [b"scalar-%d" % i for i in range(12)]
        _blast(receiver.address[1], payloads)
        assert _take_until(receiver, len(payloads)) == payloads

    def test_disable_errno_falls_back_permanently(self, transport,
                                                  monkeypatch):
        channel = transport.open_channel("fallback-chan")
        receiver = channel.join("member", address=("127.0.0.1", 0))
        if not receiver._vectored_recv:
            pytest.skip("vectored receive not active on this host")
        first = [b"vec-%d" % i for i in range(5)]
        _blast(receiver.address[1], first)
        got = _take_until(receiver, len(first))
        assert receiver._vectored_recv is True

        # Mid-stream, recvmmsg starts failing with a "never works here"
        # errno: the same drain carries on over recvfrom_into.
        attempts = []

        def broken(*args):
            attempts.append(args)
            return _failing_syscall(errno.ENOSYS)()

        monkeypatch.setattr(vectored, "_recvmmsg", broken)
        second = [b"fb-%d" % i for i in range(5)]
        _blast(receiver.address[1], second)
        got += _take_until(receiver, len(second))
        third = [b"after-%d" % i for i in range(5)]
        _blast(receiver.address[1], third)
        got += _take_until(receiver, len(third))
        # Nothing lost, nothing twice, order kept; and the vectored path is
        # switched off permanently — one doomed syscall, not one per drain.
        assert got == first + second + third
        assert receiver._vectored_recv is False
        assert len(attempts) == 1

    def test_framing_errors_still_counted_on_batch_path(self, transport):
        channel = transport.open_channel("err-chan")
        receiver = channel.join("member", address=("127.0.0.1", 0))
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sender.sendto(b"\xffgarbage", ("127.0.0.1", receiver.address[1]))
        sender.sendto(encode_datagram(b"good"), ("127.0.0.1",
                                                 receiver.address[1]))
        sender.close()
        assert _take_until(receiver, 1) == [b"good"]
        assert receiver.framing_errors == 1

    def test_queries_skip_the_syscall_only_when_the_queue_decides(
            self, transport):
        channel = transport.open_channel("exact-chan")
        receiver = channel.join("member", address=("127.0.0.1", 0))
        _blast(receiver.address[1], [b"one", b"two", b"three"])
        time.sleep(0.05)
        assert receiver.pending() == 3          # drain-first
        before = receiver.receive_syscalls
        assert before >= 1
        # Queue non-empty: the answers are decided, no syscall is paid.
        assert receiver.readable() is True
        assert receiver.at_eof() is False
        assert receiver.poll() == b"one"
        assert receiver.receive_syscalls == before
        # pending()/take() report everything received, so they always look.
        _blast(receiver.address[1], [b"four"])
        time.sleep(0.05)
        assert receiver.pending() == 3
        assert receiver.receive_syscalls > before
        assert receiver.take() == [b"two", b"three", b"four"]
        # Queue empty: poll/at_eof/readable must look at the socket again.
        before = receiver.receive_syscalls
        assert receiver.poll() is None
        assert receiver.at_eof() is False
        assert receiver.readable() is False
        assert receiver.receive_syscalls == before + 3

    def test_eof_datagram_behind_queued_payloads(self, transport):
        channel = transport.open_channel("eof-chan")
        receiver = channel.join("member", address=("127.0.0.1", 0))
        channel.send(b"last")
        channel.close()
        time.sleep(0.05)
        assert receiver.readable() is True
        assert receiver.at_eof() is False       # "last" is still unread
        assert receiver.poll() == b"last"
        assert receiver.readable() is True      # EOF counts as readable
        assert receiver.poll() is None
        assert receiver.at_eof() is True


def _drain_frames(sock, count, timeout=5.0):
    deadline = time.monotonic() + timeout
    frames = []
    while len(frames) < count and time.monotonic() < deadline:
        try:
            frames.append(sock.recv(65535))
        except BlockingIOError:
            time.sleep(0.005)
    time.sleep(0.02)  # anything sent twice would have arrived by now
    try:
        while True:
            frames.append(sock.recv(65535))
    except BlockingIOError:
        return frames


def _three_then_enobufs(calls):
    """A ``_sendmmsg`` that really sends 3 frames, then fails transiently."""
    real = vectored._sendmmsg

    def syscall(fd, headers, count, flags):
        calls.append(count)
        if len(calls) == 1:
            return real(fd, headers, 3, flags)
        ctypes.set_errno(errno.ENOBUFS)
        return -1
    return syscall


@needs_sendmmsg
class TestSendPool:
    def test_pool_is_reused_across_calls(self, bound_socket):
        address = bound_socket.getsockname()
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        pool = vectored.SendPool()
        arrays = (pool._headers, pool._iovecs)
        expected = []
        for lap in range(4):
            frames = [b"lap-%d-%d" % (lap, i) for i in range(5)]
            assert pool.send(sender, address, frames) == (5, None)
            expected += frames
            assert all(a is b for a, b in zip(
                (pool._headers, pool._iovecs), arrays))
        assert _drain_frames(bound_socket, len(expected)) == expected
        sender.close()

    def test_send_builds_no_ctypes_object(self, bound_socket, monkeypatch):
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        pool = vectored.SendPool()

        def forbidden(*_args, **_kwargs):
            raise AssertionError("ctypes object built per send")

        for name in ("_iovec", "_mmsghdr", "_msghdr", "_sockaddr_in",
                     "_header_array"):
            monkeypatch.setattr(vectored, name, forbidden)
        for name in ("cast", "pointer", "byref", "addressof", "memmove"):
            monkeypatch.setattr(vectored.ctypes, name, forbidden)
        frames = [b"x" * 100, b"\x00nul\x00inside\x00", b"z"]
        assert pool.send(sender, bound_socket.getsockname(),
                         frames) == (3, None)
        assert _drain_frames(bound_socket, 3) == frames
        sender.close()

    def test_batches_larger_than_the_pool(self, bound_socket):
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        frames = [b"f-%04d" % i for i in range(2 * vectored.MAX_BATCH + 7)]
        pool = vectored.SendPool()
        assert pool.send(sender, bound_socket.getsockname(),
                         frames) == (len(frames), None)
        assert _drain_frames(bound_socket, len(frames)) == frames
        sender.close()

    def test_partial_batch_reports_where_it_stopped(self, bound_socket,
                                                    monkeypatch):
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        calls = []
        monkeypatch.setattr(vectored, "_sendmmsg", _three_then_enobufs(calls))
        frames = [b"p-%d" % i for i in range(8)]
        done, error = vectored.SendPool().send(
            sender, bound_socket.getsockname(), frames)
        assert done == 3 and error.errno == errno.ENOBUFS
        assert calls == [8, 5]  # the retry starts at frame 3, not frame 0
        assert _drain_frames(bound_socket, 3) == frames[:3]
        sender.close()


class TestChannelSendMany:
    def _channel_and_listener(self, transport, bound_socket):
        channel = transport.open_channel("sm-chan")
        channel.add_member("listener", bound_socket.getsockname())
        return channel

    @needs_sendmmsg
    def test_pool_is_built_lazily_and_once(self, transport, bound_socket):
        channel = self._channel_and_listener(transport, bound_socket)
        assert channel._send_pool is None
        channel.send(b"scalar send builds nothing")
        assert channel._send_pool is None
        payloads = []
        pool = None
        for lap in range(3):
            batch = [b"lap-%d-%d" % (lap, i) for i in range(4)]
            assert channel.send_many(batch) == 4
            payloads += batch
            pool = pool or channel._send_pool
            assert channel._send_pool is pool
        assert (_drain_frames(bound_socket, 1 + len(payloads))[1:]
                == [encode_datagram(p) for p in payloads])

    @needs_sendmmsg
    def test_transient_error_resumes_without_resending(self, transport,
                                                       bound_socket,
                                                       monkeypatch):
        channel = self._channel_and_listener(transport, bound_socket)
        monkeypatch.setattr(vectored, "_sendmmsg", _three_then_enobufs([]))
        payloads = [b"r-%d" % i for i in range(8)]
        assert channel.send_many(payloads) == 8
        # The sendto loop took over at frame 3: every frame exactly once,
        # in order — and a transient errno does not disable the pool.
        assert (_drain_frames(bound_socket, 8)
                == [encode_datagram(p) for p in payloads])
        assert channel._vectored is True
        assert channel.packets_sent == 8

    @needs_sendmmsg
    def test_disable_errno_falls_back_permanently(self, transport,
                                                  bound_socket, monkeypatch):
        channel = self._channel_and_listener(transport, bound_socket)
        first = [b"vec-%d" % i for i in range(4)]
        assert channel.send_many(first) == 4
        attempts = []

        def broken(*args):
            attempts.append(args)
            return _failing_syscall(errno.ENOSYS)()

        monkeypatch.setattr(vectored, "_sendmmsg", broken)
        second = [b"fb-%d" % i for i in range(4)]
        third = [b"after-%d" % i for i in range(4)]
        assert channel.send_many(second) == 4
        assert channel.send_many(third) == 4
        assert (_drain_frames(bound_socket, 12)
                == [encode_datagram(p) for p in first + second + third])
        assert channel._vectored is False
        assert len(attempts) == 1  # not retried per batch

    def test_kill_switch_honoured_at_construction(self, transport,
                                                  bound_socket, monkeypatch):
        monkeypatch.setenv(vectored.VECTORED_ENV_VAR, "0")
        assert not vectored.available()
        channel = self._channel_and_listener(transport, bound_socket)
        assert channel._vectored is False
        payloads = [b"scalar-%d" % i for i in range(6)]
        assert channel.send_many(payloads) == 6
        assert channel._send_pool is None
        assert (_drain_frames(bound_socket, 6)
                == [encode_datagram(p) for p in payloads])
