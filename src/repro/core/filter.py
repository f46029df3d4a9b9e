"""The Filter base classes — the components a proxy composes.

The paper's ``Filter`` class "is meant to be extended by all proxy filters
that are to be run in the proposed framework.  The class contains an
instance of DIS and DOS that are always present.  The ControlThread uses the
DIS and DOS to manipulate the stream connections."  This module provides the
Python equivalents:

* :class:`Filter` — a byte-oriented filter, run by an execution engine.  Data
  read from the filter's DIS is passed to :meth:`Filter.transform`; whatever
  the transform returns is written to the filter's DOS.
* :class:`PacketFilter` — a filter operating on whole packets, one per
  chunk; FEC encoders/decoders and media transcoders subclass this.
* :class:`FilterContainer` — the paper's container used to hold groups of
  filters uploaded into a proxy.

Filters cooperate with the ControlThread's splice protocol: a filter can be
asked to *hold* at the next stream boundary (:meth:`Filter.hold_at_boundary`)
and to *quiesce* (finish processing everything already delivered to it)
before it is removed from a chain.

Execution is pluggable (see :mod:`repro.runtime`), and a filter is
independent of how it is executed: :meth:`Filter.pump` — read input,
transform it, emit the results, honouring boundary holds — is the only step,
on every engine.  A cooperative engine calls it from a scheduler thread
whenever the filter may be ready, and the step never blocks; the threaded
engine's worker (:meth:`Filter._run`, started by ``filter.start()``) calls it
in a loop, and the same step blocks where a cooperative one parks: in the
read, in the delivery and at a boundary hold.
"""

from __future__ import annotations

import threading
from time import monotonic as _monotonic
from time import sleep as _sleep
from typing import Callable, Iterable, List, Optional, Union

from ..streams import (
    DEFAULT_CAPACITY,
    BrokenStreamError,
    DetachableInputStream,
    DetachableOutputStream,
    NotConnectedError,
    StreamClosedError,
    StreamTimeoutError,
    encode_frame,  # noqa: F401 - unused; proxybench's tracer wraps it here
)
from .errors import FilterStateError
from .stats import FilterStats

#: A transform may return nothing, one chunk, or several chunks.
TransformResult = Union[None, bytes, Iterable[bytes]]

#: What a transform may return, or yield, to pass output on by reference.
_BYTES_LIKE = (bytes, bytearray, memoryview)

#: Predicate deciding whether a just-emitted packet ends a stream boundary.
BoundaryPredicate = Callable[[bytes], bool]

#: Default number of input chunks a filter moves per lock/scheduler
#: round-trip.  One read drains up to this many queued chunks, and their
#: outputs are delivered in one batched write, so the per-hop locking and
#: wakeup costs amortize across the batch.  Resolved at construction time
#: (not def-time) so tests can pin the unbatched path.
DEFAULT_PUMP_BUDGET = 64

_name_lock = threading.Lock()
_name_counter = 0


def _auto_name(prefix: str) -> str:
    global _name_counter
    with _name_lock:
        _name_counter += 1
        return f"{prefix}-{_name_counter}"


class Filter:
    """A byte-stream filter with its own DIS, DOS, and worker thread.

    Lifecycle: construct → (ControlThread connects the DIS/DOS) →
    :meth:`start` (or an engine's :meth:`bind_engine`) → :meth:`pump`
    steps, each reading, transforming, writing → end-of-stream or
    :meth:`stop`.

    Subclasses usually override only :meth:`transform` (per input chunk) and
    optionally :meth:`finalize` (to emit trailing output at end-of-stream)
    and :meth:`on_start` / :meth:`on_stop`.
    """

    #: Human-readable type name used by the registry and the ControlManager.
    type_name = "filter"

    #: Whether this element can be pumped cooperatively from a shared
    #: scheduler thread.  Elements that perform blocking external I/O in
    #: their step (source endpoints, socket sinks) set this to False and
    #: always get a dedicated thread, whatever the execution engine.
    cooperative_capable = True

    def __init__(self, name: Optional[str] = None, read_timeout: float = 0.05,
                 chunk_size: int = 8192, propagate_eof: bool = True,
                 pump_budget: Optional[int] = None) -> None:
        if read_timeout <= 0:
            raise ValueError("read_timeout must be positive")
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if pump_budget is None:
            pump_budget = DEFAULT_PUMP_BUDGET
        if pump_budget <= 0:
            raise ValueError("pump_budget must be positive")
        self.name = name or _auto_name(self.type_name)
        self.read_timeout = read_timeout
        self.chunk_size = chunk_size
        self.pump_budget = pump_budget
        self.propagate_eof = propagate_eof
        # Whether a filter *error* closes the downstream side (normal EOF
        # always honours propagate_eof alone).  Stream supervision clears
        # this under restart/bypass policies: a crashed filter about to be
        # spliced out must not hand its successor a premature EOF.
        self.close_output_on_error = True

        # Size the input buffer to hold *two* full pump budgets: one batch
        # being transformed and one the upstream hop deposits meanwhile, so
        # neighbouring hops double-buffer instead of blocking in lock-step
        # on every batch — capped so large-chunk_size filters don't get a
        # backpressure window big enough to hide real latency from the
        # flow control.
        self.dis = DetachableInputStream(
            name=f"{self.name}.dis",
            capacity=max(DEFAULT_CAPACITY,
                         min(2 * chunk_size * pump_budget,
                             16 * DEFAULT_CAPACITY)))
        self.dos = DetachableOutputStream(name=f"{self.name}.dos")
        self.stats = FilterStats()
        self.error: Optional[BaseException] = None

        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._finished = threading.Event()
        self._started = False
        # DIS bytes whose transform *and* emit have completed; see _busy.
        self._input_done = 0

        # Execution state.  Output waits on _pending until it is delivered:
        # parked across a splice or at a boundary hold (cooperative), or
        # for as long as the blocking delivery takes (threaded).
        self._engine = None
        self._cooperative = False
        self._pending: List[bytes] = []
        self._on_start_done = False
        self._finalized = False

        # Scratch counters written by transform_chunks as it consumes input,
        # read by the step only when the transform raises, so a
        # mid-batch error accounts just the chunks the transform saw.
        self._batch_in_bytes = 0
        self._batch_in_chunks = 0

        # Listeners notified after every unit of work (used by
        # ControlThread.wait_idle so completion waits are event-driven).
        self._activity_listeners: List[Callable[[], None]] = []

        # Boundary-hold support (used for boundary-aware insertion).
        self._hold_lock = threading.Lock()
        self._boundary_predicate: Optional[BoundaryPredicate] = None
        self._held = threading.Event()
        self._resume = threading.Event()

    # ------------------------------------------------------------- accessors

    def get_dis(self) -> DetachableInputStream:
        """Paper-style accessor for the filter's input stream."""
        return self.dis

    def get_dos(self) -> DetachableOutputStream:
        """Paper-style accessor for the filter's output stream."""
        return self.dos

    def set_dis(self, dis: DetachableInputStream) -> None:
        """Replace the filter's input stream (only before the filter starts)."""
        if self._started:
            raise FilterStateError(f"{self.name}: cannot replace DIS after start")
        dis.packets = self.dis.packets
        self.dis = dis

    def set_dos(self, dos: DetachableOutputStream) -> None:
        """Replace the filter's output stream (only before the filter starts)."""
        if self._started:
            raise FilterStateError(f"{self.name}: cannot replace DOS after start")
        dos.packets = self.dos.packets
        self.dos = dos

    def get_id(self) -> str:
        """Paper-style accessor for the filter's identity."""
        return self.name

    @property
    def running(self) -> bool:
        """True while the filter is executing (worker thread or engine)."""
        if self._thread is not None:
            return self._thread.is_alive()
        return self._cooperative and not self._finished.is_set()

    @property
    def finished(self) -> bool:
        """True once the filter has completed (EOF, stop, or error)."""
        return self._finished.is_set()

    @property
    def cooperative(self) -> bool:
        """True when the filter is driven by a cooperative engine's pump."""
        return self._cooperative

    @property
    def pending_output(self) -> bool:
        """True while emitted-but-undelivered output awaits a flush."""
        return bool(self._pending)

    @property
    def stop_requested(self) -> bool:
        """True once :meth:`stop` has been called."""
        return self._stop_event.is_set()

    # -------------------------------------------------------------- lifecycle

    def start(self) -> "Filter":
        """Start the worker thread.  A filter can be started only once.

        The thread drives :meth:`pump`, blocking inside each step; a
        cooperative engine (see :mod:`repro.runtime`) may instead take
        ownership of the filter with :meth:`bind_engine` and pump it from
        its scheduler thread.
        """
        if self._started:
            raise FilterStateError(f"{self.name}: already started")
        self._started = True
        self._thread = threading.Thread(target=self._run, name=self.name,
                                        daemon=True)
        self._thread.start()
        return self

    def bind_engine(self, engine) -> "Filter":
        """Hand execution of this filter to a cooperative engine.

        The engine must call :meth:`pump` whenever the filter may be ready;
        the filter's streams are subscribed to the engine's per-element
        notification for exactly that.  Mutually exclusive with
        :meth:`start`.
        """
        if self._started:
            raise FilterStateError(f"{self.name}: already started")
        self._started = True
        self._cooperative = True
        self._engine = engine
        self.dis.subscribe(self._notify_engine)
        self.dos.subscribe(self._notify_engine)
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Ask the filter to finish and wait for it.

        Stopping does *not* close the filter's streams (the ControlThread
        re-splices them); stopping a never-started filter is a no-op.
        """
        self._stop_event.set()
        self._resume.set()  # never leave a held filter stuck
        self._notify_engine()
        if self._thread is not None:
            # A worker parked in its blocking read, or in a write to a full
            # downstream, looks at the stop flag now rather than at its next
            # read_timeout tick or whenever the downstream drains.  An
            # interrupt only ends a call parked when it lands, so it is
            # repeated every read_timeout: a worker that parks just after
            # one is caught by the next.
            deadline = _monotonic() + timeout
            while True:
                self.dis.interrupt_read()
                self.dos.interrupt_write()
                remaining = deadline - _monotonic()
                self._thread.join(min(self.read_timeout, max(remaining, 0)))
                if remaining <= self.read_timeout or not self._thread.is_alive():
                    break
        elif self._cooperative:
            self._finished.wait(timeout=timeout)

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for the filter to finish; True if it did."""
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            return not self._thread.is_alive()
        if self._cooperative:
            return self._finished.wait(timeout=timeout)
        return True

    def wait_finished(self, timeout: Optional[float] = None) -> bool:
        """Wait until the filter has completed."""
        return self._finished.wait(timeout=timeout)

    def abandon(self, error: BaseException) -> None:
        """Declare a wedged filter dead without waiting for its thread.

        The stall watchdog uses this when a filter holds queued input but
        makes no progress: the filter is marked errored and *finished* so
        the ControlThread's dead-filter splice applies, letting supervision
        route around it.  The worker thread (if any) is asked to stop but
        not joined — a transform blocked in C or a long sleep cannot be
        interrupted; once the chain is re-spliced around it, its next write
        hits a detached stream and the thread exits on its own.
        """
        if self.error is None:
            self.error = error
            self.stats.record_error()
        self._stop_event.set()
        self._resume.set()
        self._notify_engine()
        self._finished.set()
        self._notify_activity()

    # ------------------------------------------------------------ hold/quiesce

    def hold_at_boundary(self, predicate: Optional[BoundaryPredicate] = None,
                         timeout: Optional[float] = None) -> bool:
        """Pause this filter's *output* at the next stream boundary.

        The filter keeps processing until it is about to emit a unit for
        which ``predicate`` returns True (with no predicate, the very next
        unit): the batch being emitted is cut there, the units before it go
        out as one batch, and the filter holds *before* the boundary unit —
        parked on a cooperative engine, waiting in its step on the threaded
        one — until :meth:`release_hold` is called.  The downstream side
        therefore ends exactly at the boundary, and the unit that satisfied
        the predicate is the first thing delivered to whatever the stream is
        reconnected to.  Returns True once the hold is in place, False on
        timeout.

        The ControlThread uses this for boundary-aware insertion (e.g. "only
        insert the video FEC filter so that it starts at an I frame").

        On every engine, units in a delivery already in progress when the
        hold is armed still cross (up to one ``pump_budget`` of them), so
        predicates should match *recurring* boundaries — the next I frame,
        the next packet start — rather than one specific unit.  The
        composition protocol already tolerates this: a hold that never
        engages times out here and the caller proceeds with an unaligned
        splice.
        """
        with self._hold_lock:
            self._held.clear()
            self._resume.clear()
            self._boundary_predicate = predicate if predicate is not None else (
                lambda _unit: True)
        return self._held.wait(timeout=timeout)

    def release_hold(self) -> None:
        """Allow a held filter to continue emitting."""
        with self._hold_lock:
            self._boundary_predicate = None
            self._held.clear()
        self._resume.set()
        self._notify_engine()

    @property
    def held(self) -> bool:
        """True while the filter is holding at a boundary."""
        return self._held.is_set() and not self._resume.is_set()

    @property
    def _busy(self) -> bool:
        """True while a batch taken from the DIS is still in the filter.

        The DIS counts bytes out under the same lock that empties it, so
        there is no instant at which a batch has left the DIS and this is
        still False — the ordering :meth:`quiesce` depends on: a splice
        that saw "no input, not busy" between the read and the transform
        would re-splice the chain around a batch still in flight.  (A
        flag raised *before* the read cannot do this for the threaded
        loop: a reader parked in its blocking read would look busy.)
        """
        return self.dis.bytes_delivered != self._input_done

    def is_idle(self) -> bool:
        """True when the filter has no buffered or in-flight input/output."""
        return (self.dis.available() == 0 and not self._busy
                and not self._pending)

    def flush_state(self) -> None:
        """Emit any data the filter is holding internally (without closing).

        The ControlThread calls this when the filter is removed from a live
        chain so that buffered state — for example the partial FEC group an
        encoder is still filling — is pushed downstream rather than lost.
        The upstream side must already be paused and the filter quiescent.
        The write blocks, whatever the engine: the caller is the
        ControlThread, never a scheduler thread.
        """
        units = self._normalize_outputs(self.finalize())
        if units:
            self._record_emit_batch(units, self.dos.write_many(units))

    def quiesce(self, timeout: float = 5.0, poll_interval: float = 0.005) -> bool:
        """Wait until every byte already delivered to the filter has been
        processed and emitted downstream.  Returns True on success.

        The ControlThread calls this (after pausing the upstream DOS) before
        removing the filter, so removal never drops in-flight data.
        """
        deadline = _monotonic() + timeout
        while _monotonic() < deadline:
            if self.is_idle() or self.finished:
                return True
            _sleep(poll_interval)
        return self.is_idle() or self.finished

    # ------------------------------------------------------------- transform

    def transform(self, chunk: bytes) -> TransformResult:
        """Transform one input chunk; the default filter is a passthrough."""
        return chunk

    def transform_chunks(self, chunks: List[bytes], outputs) -> None:
        """Transform one input batch, appending results onto ``outputs``.

        The batched equivalent of calling :meth:`transform` per chunk, and
        the hook a subclass overrides to *fuse* work across the batch (the
        FEC filters run one vectorised encode/decode over every packet in
        the pump budget instead of per-packet calls).  The batch is
        accounted by the caller, from the byte count the DIS already keeps
        — also when the transform raises, unless it bumped
        ``self._batch_in_bytes`` / ``self._batch_in_chunks`` as it consumed
        each chunk: then only the chunks it saw are.  Either way the
        outputs appended so far are still delivered.
        """
        for chunk in chunks:
            self._batch_in_bytes += len(chunk)
            self._batch_in_chunks += 1
            result = self.transform(chunk)
            cls = result.__class__
            if cls is bytes or cls is memoryview or cls is bytearray:
                if len(result):  # dominant case: one chunk out, by reference
                    outputs.append(result)
            elif result is not None:
                outputs.extend(self._normalize_outputs(result))

    def finalize(self) -> TransformResult:
        """Produce trailing output when the input stream ends."""
        return None

    def on_start(self) -> None:
        """Hook invoked before the first step."""

    def on_stop(self) -> None:
        """Hook invoked after the last step."""

    # -------------------------------------------------------------- the step

    def _run(self) -> None:
        """The threaded engine's driver: the step, until the filter is
        finished.  Each step blocks where a cooperative one would park.

        A step of a finished filter returns False, so only a step without
        progress needs another look at the flag.
        """
        pump = self.pump
        finished = self._finished.is_set
        while pump() or not finished():
            pass

    def _record_input(self, nbytes: int, chunks: int) -> None:
        """Account one input batch (or the part of it a transform saw)."""
        self.stats.record_input_batch(nbytes, chunks)
        if chunks >= self.pump_budget:
            self.stats.record_budget_exhausted()

    def _record_failed_input(self, taken: int, chunks: int) -> None:
        """Account a batch whose transform raised: the chunks it tallied,
        or all of them if it takes a batch whole (see transform_chunks)."""
        if self._batch_in_chunks:
            self._record_input(self._batch_in_bytes, self._batch_in_chunks)
        else:
            self._record_input(taken - self._input_done, chunks)

    def pump(self) -> bool:
        """Run one bounded execution step — the only one, on every engine.

        One step: flush any output still parked (at a boundary hold, or by
        a mid-splice detach), then read up to a ``pump_budget`` of input
        chunks, transform them and emit the combined results; at
        end-of-stream, finalize and complete.  Returns True when the step
        made progress.

        ``self._cooperative`` decides how the step waits, and nothing else.
        Pumped by a cooperative engine, the step never blocks — the read
        takes only what is buffered, the delivery is the non-blocking
        ``DOS.try_write_many``, and output parks on a detached DOS or at a
        hold — so any number of filters share one scheduler thread.  Driven
        by its own thread (:meth:`_run`), the read waits up to
        ``read_timeout``, the delivery blocks through back-pressure and
        splices, and a hold waits for its release.

        Errors end the filter on every engine: recorded on :attr:`error`,
        counted in stats, and the filter completes.  :meth:`stop` ending a
        write blocked on a full downstream is no error, and stopping never
        closes a stream.
        """
        if self._finished.is_set():
            return False
        try:
            if not self._on_start_done:
                self._on_start_done = True
                self.on_start()
            progress = self._flush_pending() if self._pending else False
            if self._stop_event.is_set():
                # Stop wins over parked output: the chain around us is
                # being dismantled.
                self._complete()
                return True
            if self._pending:
                return progress  # parked at a boundary or across a splice
            return self._pump_input(progress)
        except (StreamClosedError, BrokenStreamError, NotConnectedError) as exc:
            # The chain was torn down around us; record and exit quietly.
            self.error = exc
            self.stats.record_error()
            self._complete()
            return True
        except Exception as exc:  # noqa: BLE001 - surfaced via self.error
            # A write that stop() interrupted ends the filter, but is no
            # error and closes nothing.
            if not (isinstance(exc, StreamTimeoutError)
                    and self._stop_event.is_set()):
                self.error = exc
                self.stats.record_error()
                try:
                    # Outputs queued by the chunks before the failing one
                    # must still go downstream before the error closes the
                    # stream.
                    self._flush_pending()
                except Exception:  # noqa: BLE001 - keep the original error
                    pass
                self._close_output_after_error()
            self._complete()
            return True
        finally:
            self._notify_activity()

    def _pump_input(self, progress: bool) -> bool:
        """Consume one budget of input — the part of a step that differs
        between filters (read from the DIS) and sources (produce items).

        One read drains up to ``pump_budget`` queued chunks in a single
        buffer lock round-trip, and their outputs go out as one batch, so
        the per-hop locking and wakeup costs amortize across the batch.
        The byte budget is chunk_size * pump_budget, but queued chunks are
        taken *whole* (no max_chunk): transforms are size-agnostic, and
        re-fragmenting a large upstream chunk to the local chunk_size cost
        a per-piece loop at every hop for nothing — it was the E6 64 KiB
        regression.
        """
        try:
            chunks = self.dis.read_chunks(
                self.chunk_size * self.pump_budget,
                timeout=0 if self._cooperative else self.read_timeout)
        except StreamTimeoutError:
            return progress  # no input this step
        pending = self._pending
        if chunks:
            taken = self.dis.bytes_delivered  # sole reader: through this batch
            self._batch_in_bytes = self._batch_in_chunks = 0
            try:
                # Appending straight onto the pending output means a
                # transform failing mid-batch leaves the earlier chunks'
                # outputs parked there, and pump()'s error handler delivers
                # them before closing.
                self.transform_chunks(chunks, pending)
            except Exception:
                self._record_failed_input(taken, len(chunks))
                raise
            else:
                nbytes = taken - self._input_done
                self._record_input(nbytes, len(chunks))
            finally:
                # Outputs are parked on _pending by now, which keeps
                # is_idle() False until they are delivered.
                self._input_done = taken
            if pending:
                # A forwarded batch (the very chunks read, in order) is not
                # measured again downstream: it hands over the total the
                # DIS counted.  (``==`` compares the chunks by identity
                # first; equal values would have equal lengths anyway.)
                self._flush_pending(nbytes if pending == chunks else None)
            return True
        # End of stream: the read raised instead if a byte writer's bad
        # frame ended it.
        if not self._finalized:
            self._finalized = True
            pending.extend(self._normalize_outputs(self.finalize()))
        if pending:
            self._flush_pending()
        if not self._pending:
            if self.propagate_eof:
                self._close_output()
            self._complete()
        return True

    def _close_output_after_error(self) -> None:
        if self.propagate_eof and self.close_output_on_error:
            self._close_output()

    def _flush_pending(self, nbytes: Optional[int] = None) -> bool:
        """Deliver the parked output; True if any of it moved.

        The one place output leaves a filter, on every engine.  A
        cooperative step delivers with the non-blocking
        ``DOS.try_write_many`` and leaves the output parked while the DOS
        is detached mid-splice (retried on the reattach notification); a
        threaded step blocks in ``DOS.write_many`` through back-pressure
        and splices.  ``nbytes`` is the byte total of a forwarded batch
        (see ``DOS.write_many``).

        An armed boundary hold cuts the output before the first unit its
        predicate matches: the units before it go out as one batch, and the
        filter then parks (cooperative) or waits for :meth:`release_hold`
        (threaded), with the boundary unit at the head of its output.
        """
        progress = False
        while self._pending:
            batch = self._pending
            # Read without the hold lock, which only orders the writers:
            # hold_at_boundary clears _resume before it arms a predicate,
            # and release_hold disarms it before it sets _resume and wakes
            # the filter, so a step racing either holds at most until then.
            predicate = self._boundary_predicate
            if predicate is not None and not self._resume.is_set():
                cut = next((index for index, unit in enumerate(batch)
                            if self._unit_matches(predicate, unit)), None)
                if cut == 0:
                    self._held.set()
                    if self._cooperative:
                        return progress
                    self._resume.wait()  # release_hold(), or stop()
                    continue
                if cut is not None:
                    batch, nbytes = batch[:cut], None
            dos = self.dos
            if self._cooperative:
                before = dos.bytes_written
                if not dos.try_write_many(batch, nbytes=nbytes):
                    return progress
                written = dos.bytes_written - before
            else:
                written = dos.write_many(batch, nbytes=nbytes)
            if batch is self._pending:
                self._pending = []
            else:
                del self._pending[:len(batch)]
            self._record_emit_batch(batch, written)
            progress = True
        return progress

    def _record_emit_batch(self, batch: List[bytes], nbytes: int) -> None:
        """Account for a delivered batch with per-batch stats.

        ``nbytes`` is what the DOS counted while delivering it — frames,
        on a hop that frames; the batch is not measured again.  Sources
        override this to keep their per-unit bookkeeping (item counts,
        pacing deadlines) exact.
        """
        self._last_emitted = batch[-1]
        self.stats.record_output_batch(nbytes, len(batch))

    def wants_input_pump(self) -> bool:
        """True when a pump step would have input-side work to do.

        The engine combines this with its own output-side gating (boundary
        holds, parked output, downstream high-water marks).
        """
        return self.dis.available() > 0 or self.dis.at_eof()

    def next_due_s(self) -> Optional[float]:
        """Monotonic deadline of this element's next timed pump, if any.

        Purely event-driven elements return None; paced cooperative sources
        return the instant their next item is due so the scheduler can sleep
        exactly until then (its timer wheel).
        """
        return None

    def _complete(self) -> None:
        """Mark the filter as finished, after on_stop (idempotent)."""
        if self._finished.is_set():
            return
        try:
            if self._on_start_done:
                self.on_stop()
        finally:
            self._finished.set()
            self._notify_activity()

    def _notify_engine(self) -> None:
        engine = self._engine
        if engine is not None:
            engine.notify_element(self)

    # ---------------------------------------------------------- activity hook

    def add_activity_listener(self, listener: Callable[[], None]) -> None:
        """Register a callback fired after each unit of work completes.

        Used by :meth:`repro.core.control_thread.ControlThread.wait_idle` to
        turn completion polling into a condition-variable wait.  Duplicate
        registrations are ignored (by equality, so bound methods dedupe).
        """
        if listener not in self._activity_listeners:
            self._activity_listeners.append(listener)

    def _notify_activity(self) -> None:
        if not self._activity_listeners:
            return
        for listener in list(self._activity_listeners):
            try:
                listener()
            except Exception:  # noqa: BLE001 - listeners must not kill the filter
                pass

    @staticmethod
    def _normalize_outputs(result: TransformResult) -> List[bytes]:
        """Flatten a transform result into a list of non-empty chunks.

        Bytes-like results (and items) pass through by reference — the
        zero-copy contract from :mod:`repro.streams.buffer` extends through
        the transform; anything else is materialised once here.
        """
        if result is None:
            return []
        if isinstance(result, _BYTES_LIKE):
            return [result] if len(result) else []
        # One pass: materialise, then keep the unit only if it is non-empty.
        return [data for item in result
                if len(data := item if item.__class__ is bytes
                       or isinstance(item, _BYTES_LIKE) else bytes(item))]

    #: The most recently emitted unit (kept for diagnostics and tests).
    _last_emitted: Optional[bytes] = None

    def _unit_matches(self, predicate: BoundaryPredicate, unit: bytes) -> bool:
        if not isinstance(unit, bytes):
            # Predicates are written against real ``bytes`` (``startswith``
            # and friends); materialise views on this cold path only.
            unit = bytes(unit)
        try:
            return bool(predicate(unit))
        except Exception:  # noqa: BLE001 - a broken predicate must not kill the filter
            return True

    def _close_output(self) -> None:
        try:
            self.dos.close()
        except Exception:  # noqa: BLE001 - best effort during teardown
            pass

    def describe(self) -> dict:
        """A serialisable description of the filter (for the ControlManager)."""
        return {
            "name": self.name,
            "type": self.type_name,
            "running": self.running,
            "stats": self.stats.snapshot(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} running={self.running}>"


class PacketFilter(Filter):
    """A filter that operates on packets rather than raw bytes.

    Each input chunk is one packet.  A pump step hands its batch of packets
    to :meth:`transform_packets`, whose default gives each to
    :meth:`transform_packet`; every (non-empty) packet returned goes
    downstream as one chunk.  Its DIS and DOS say they carry packets, so
    only a hop to or from a byte element is framed (see
    :mod:`repro.streams.detachable`, "Packet hops") and byte- and
    packet-oriented filters can be mixed freely in one chain.
    """

    type_name = "packet-filter"

    #: Result type for packet transforms: none, one, or many packets.
    PacketResult = Union[None, bytes, Iterable[bytes]]

    def __init__(self, name: Optional[str] = None, read_timeout: float = 0.05,
                 chunk_size: int = 65536, propagate_eof: bool = True,
                 pump_budget: Optional[int] = None) -> None:
        super().__init__(name=name, read_timeout=read_timeout,
                         chunk_size=chunk_size, propagate_eof=propagate_eof,
                         pump_budget=pump_budget)
        self.dis.packets = self.dos.packets = True

    # -- packet-level hooks ----------------------------------------------------

    def transform_packet(self, packet: bytes) -> "PacketFilter.PacketResult":
        """Transform one packet; the default is a passthrough."""
        return packet

    def transform_packets(self, packets: List[bytes],
                          outputs: List[bytes]) -> None:
        """Transform a batch of packets, appending the results to ``outputs``.

        The default is a loop of :meth:`transform_packet`.  A filter that
        can fuse work across the batch (the FEC filters run one vectorised
        encode/decode over it) overrides this instead; it must be
        byte-equivalent to transforming the packets one at a time — what
        the packets before one that raises produced included, which is
        why results are appended rather than returned.
        """
        for packet in packets:
            # Tallied as seen, so a raise accounts only these (see
            # Filter.transform_chunks).
            self._batch_in_bytes += len(packet)
            self._batch_in_chunks += 1
            result = self.transform_packet(packet)
            if isinstance(result, _BYTES_LIKE):
                outputs.append(result)
            elif result is not None:
                outputs.extend(self._normalize_outputs(result))

    def finalize_packets(self) -> "PacketFilter.PacketResult":
        """Produce trailing packets at end-of-stream (e.g. flush FEC groups)."""
        return None

    # -- plumbing ---------------------------------------------------------------

    def transform_chunks(self, chunks: List[bytes], outputs) -> None:
        """Hand the batch's packets to one :meth:`transform_packets` call.

        A pump budget of FEC packets thus hits the numpy backend as one 2D
        array.  Input is accounted as packets too: every packet of the
        batch — or, when the transform tallies them as it goes (the
        default loop), only those it saw before a raise.
        """
        seen = self._batch_in_chunks
        results: List[bytes] = []
        try:
            self.transform_packets(chunks, results)
        finally:
            # Also when a packet mid-batch raised: see Filter.transform_chunks.
            seen = self._batch_in_chunks - seen or len(chunks)
            self.stats.record_input_batch(0, seen, packets=seen)
            outputs.extend(self._packets_out(results))

    def finalize(self) -> TransformResult:
        return self._packets_out(self.finalize_packets())

    def _packets_out(self, result: "PacketFilter.PacketResult") -> List[bytes]:
        """A packet result as output units, accounted once for the whole."""
        packets = self._normalize_outputs(result)
        if packets:
            # Per packet this was record_output(0, packets=1), chunks_out too.
            self.stats.record_output_batch(0, len(packets),
                                           packets=len(packets))
        return packets


class FilterContainer:
    """A named collection of filters, as uploaded into a proxy.

    Mirrors the paper's ``FilterContainer``: it "has methods to obtain the
    number of Filters available and an enumeration method to return a String
    enumeration of the Filter objects names".
    """

    def __init__(self, filters: Optional[Iterable[Filter]] = None,
                 name: str = "container") -> None:
        self.name = name
        self._filters: List[Filter] = list(filters or [])

    def add(self, filter_obj: Filter) -> None:
        self._filters.append(filter_obj)

    def count(self) -> int:
        """Number of filters in the container."""
        return len(self._filters)

    def names(self) -> List[str]:
        """The contained filters' names, in order."""
        return [f.name for f in self._filters]

    def get(self, index: int) -> Filter:
        return self._filters[index]

    def by_name(self, name: str) -> Filter:
        for filter_obj in self._filters:
            if filter_obj.name == name:
                return filter_obj
        raise KeyError(f"no filter named {name!r} in container {self.name!r}")

    def __iter__(self):
        return iter(self._filters)

    def __len__(self) -> int:
        return len(self._filters)
