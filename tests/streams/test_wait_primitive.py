"""The buffer's waits: parked callers sleep on the buffer's own lock.

Readers, writers and drainers park on private locks queued on the buffer
(no ``threading.Condition``).  These tests drive every kind of wait at once
on one small buffer — a blocking writer at capacity, a reader with random
timeouts that is also interrupted, a drainer — and end the stream in the
middle, then check what any waiter scheme owes: every byte written arrives
once and in order, no caller stays parked after the end, and every blocked
call returns within a bound of its own timeout.
"""

import random
import sys
import threading
import time

import pytest

from repro.streams import (BrokenStreamError, StreamBuffer, StreamClosedError,
                           StreamTimeoutError)

#: How late a blocked call may return past its own timeout, on a loaded
#: host — generous; a lost wake-up shows as a call that never returns.
SLACK_S = 1.0


def _writer(buffer, written, timings, rng):
    """Numbered units, one by one and in batches, until the buffer ends."""
    seq = 0
    while True:
        count = rng.choice((1, 1, 3, 8))
        units = [b"%06d" % (seq + index) + bytes(rng.randrange(0, 24))
                 for index in range(count)]
        started = time.monotonic()
        try:
            if count == 1:
                buffer.write(units[0])
            else:
                buffer.write_chunks(units)
        except (StreamClosedError, BrokenStreamError):
            timings.append(("write", None, time.monotonic() - started))
            return
        written.extend(units)
        seq += count


def _reader(buffer, received, timings, rng, done):
    while True:
        timeout = rng.choice((0.0005, 0.002, 0.01, None))
        started = time.monotonic()
        try:
            if rng.random() < 0.5:
                chunks = buffer.read_chunks(rng.randrange(8, 400),
                                            timeout=timeout)
            else:
                chunk = buffer.read(rng.randrange(8, 400), timeout=timeout)
                chunks = [chunk] if chunk else []
        except StreamTimeoutError:
            timings.append(("read", timeout, time.monotonic() - started))
            continue
        timings.append(("read", timeout, time.monotonic() - started))
        if not chunks:
            done.set()
            return
        received.extend(bytes(chunk) for chunk in chunks)


def _drainer(buffer, timings, rng, stop):
    while not stop.is_set():
        timeout = rng.choice((0.001, 0.005, 0.02))
        started = time.monotonic()
        buffer.wait_until_empty(timeout)
        timings.append(("drain", timeout, time.monotonic() - started))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("end", ["close_for_writing", "mark_broken"])
def test_every_wait_at_once_conserves_bytes_and_parks_nobody(end, seed):
    rng = random.Random(seed)
    buffer = StreamBuffer(capacity=256)
    written, received, timings = [], [], []
    done, stop = threading.Event(), threading.Event()
    threads = [
        threading.Thread(target=_writer, daemon=True,
                         args=(buffer, written, timings, random.Random(seed))),
        threading.Thread(target=_reader, daemon=True,
                         args=(buffer, received, timings,
                               random.Random(seed + 1), done)),
        threading.Thread(target=_drainer, daemon=True,
                         args=(buffer, timings, random.Random(seed + 2), stop)),
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter over often
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 0.3
        while time.monotonic() < deadline:
            time.sleep(rng.uniform(0.0, 0.004))
            buffer.interrupt_read()
        getattr(buffer, end)()
        stop.set()
        for thread in threads:
            thread.join(5.0)
            assert not thread.is_alive(), f"{thread.name} never returned"
    finally:
        sys.setswitchinterval(interval)
    assert done.is_set(), "the reader never saw the end of the stream"

    # Every unit a write returned for arrives once, in order; nothing else.
    assert b"".join(received) == b"".join(written)
    assert written, "the writer never got going"
    assert not (buffer._readers or buffer._writers or buffer._drainers)
    kinds = {kind for kind, _, _ in timings}
    assert kinds == {"read", "write", "drain"}
    late = [(kind, timeout, took) for kind, timeout, took in timings
            if timeout is not None and took > timeout + SLACK_S]
    assert not late, late


def test_a_wake_after_the_timeout_is_not_lost():
    """Two writers parked; the read that frees room for both wakes one,
    and the chained wake the other — also when one of them times out at
    the same moment."""
    for _ in range(20):
        buffer = StreamBuffer(capacity=8)
        buffer.write(b"x" * 8)
        outcomes = []

        def write(tag, timeout):
            try:
                buffer.write(tag * 4, timeout=timeout)
                outcomes.append(tag)
            except StreamTimeoutError:
                outcomes.append(b"timeout")

        threads = [threading.Thread(target=write, args=(b"a", 5.0)),
                   threading.Thread(target=write, args=(b"b", 0.002))]
        for thread in threads:
            thread.start()
        time.sleep(0.002)
        assert buffer.read(8, timeout=1.0) == b"x" * 8
        for thread in threads:
            thread.join(5.0)
            assert not thread.is_alive()
        assert b"a" in outcomes and len(outcomes) == 2
        assert not buffer._writers
        assert buffer.available() == 4 * sum(tag != b"timeout"
                                             for tag in outcomes)


def test_interrupt_write_ends_a_blocked_write_at_once():
    buffer = StreamBuffer(capacity=8)
    buffer.write(b"x" * 8)
    buffer.interrupt_write()  # nobody is parked: nothing to latch
    outcome = {}

    def write():
        try:
            buffer.write_chunks([b"aaaa", b"bbbb"], timeout=30.0)
        except StreamTimeoutError:
            outcome["interrupted_at"] = time.perf_counter()

    thread = threading.Thread(target=write, daemon=True)
    thread.start()
    deadline = time.monotonic() + 5.0
    while not buffer._writers:
        assert time.monotonic() < deadline, "the writer never parked"
        thread.join(0.001)
    called = time.perf_counter()
    buffer.interrupt_write()
    thread.join(5.0)
    assert not thread.is_alive()
    assert outcome["interrupted_at"] - called < 0.5
    # Nothing of the interrupted batch landed; the buffer is as it was.
    assert buffer.read_chunks(100, timeout=0) == [b"x" * 8]
    assert buffer.bytes_written == 8
    # The next writer is unaffected.
    assert buffer.write_chunks([b"aaaa", b"bbbb"], timeout=1.0) == 8


def test_close_wakes_a_parked_writer():
    buffer = StreamBuffer(capacity=4)
    buffer.write(b"full")
    errors = []

    def write():
        try:
            buffer.write(b"more")
        except StreamClosedError as exc:
            errors.append(exc)

    thread = threading.Thread(target=write, daemon=True)
    thread.start()
    while not buffer._writers:
        thread.join(0.001)
    buffer.close_for_writing()
    thread.join(5.0)
    assert not thread.is_alive() and errors
    assert buffer.read(100, timeout=0) == b"full"
