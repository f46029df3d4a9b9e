"""The Filter base classes — the components a proxy composes.

The paper's ``Filter`` class "is meant to be extended by all proxy filters
that are to be run in the proposed framework.  The class contains an
instance of DIS and DOS that are always present.  The ControlThread uses the
DIS and DOS to manipulate the stream connections."  This module provides the
Python equivalents:

* :class:`Filter` — a byte-oriented filter running in its own thread.  Data
  read from the filter's DIS is passed to :meth:`Filter.transform`; whatever
  the transform returns is written to the filter's DOS.
* :class:`PacketFilter` — a filter operating on framed packets (see
  :mod:`repro.streams.framing`); FEC encoders/decoders and media transcoders
  subclass this.
* :class:`FilterContainer` — the paper's container used to hold groups of
  filters uploaded into a proxy.

Filters cooperate with the ControlThread's splice protocol: a filter can be
asked to *hold* at the next stream boundary (:meth:`Filter.hold_at_boundary`)
and to *quiesce* (finish processing everything already delivered to it)
before it is removed from a chain.

Execution is pluggable (see :mod:`repro.runtime`): the pure pump step —
read available input, transform it, emit the results, honouring boundary
holds — is factored into :meth:`Filter.pump`, which an event-driven engine
invokes from a single scheduler thread whenever the filter's DIS reports
readiness; the classic thread-per-filter worker loop (:meth:`Filter._run`)
remains as the reference execution mode used by ``filter.start()``.
"""

from __future__ import annotations

import threading
from collections import deque
from time import monotonic as _monotonic
from time import sleep as _sleep
from typing import Callable, Deque, Iterable, List, Optional, Union

from ..streams import (
    DEFAULT_CAPACITY,
    HEADER_SIZE,
    BrokenStreamError,
    DetachableInputStream,
    DetachableOutputStream,
    FrameDecoder,
    NotConnectedError,
    StreamClosedError,
    StreamTimeoutError,
    encode_frame,
    encode_frame_batch,
)
from .errors import FilterStateError
from .stats import FilterStats

#: A transform may return nothing, one chunk, or several chunks.
TransformResult = Union[None, bytes, Iterable[bytes]]

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
    :meth:`start` → worker thread loops reading, transforming, writing →
    end-of-stream or :meth:`stop`.

    Subclasses usually override only :meth:`transform` (per input chunk) and
    optionally :meth:`finalize` (to emit trailing output at end-of-stream)
    and :meth:`on_start` / :meth:`on_stop`.
    """

    #: Human-readable type name used by the registry and the ControlManager.
    type_name = "filter"

    #: Whether this element can be pumped cooperatively from a shared
    #: scheduler thread.  Elements that perform blocking external I/O in
    #: their run loop (source endpoints, socket sinks) set this to False and
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

        # Cooperative (event-engine) execution state.
        self._engine = None
        self._cooperative = False
        self._pending: Deque[bytes] = deque()
        self._on_start_done = False
        self._finalized = False

        # Scratch counters written by transform_chunks as it consumes input,
        # read by the run loop / pump only when the transform raises, so a
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
        self.dis = dis

    def set_dos(self, dos: DetachableOutputStream) -> None:
        """Replace the filter's output stream (only before the filter starts)."""
        if self._started:
            raise FilterStateError(f"{self.name}: cannot replace DOS after start")
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
        """True once the run loop has exited (EOF, stop, or error)."""
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

        This is the thread-per-filter reference mode; an execution engine
        (see :mod:`repro.runtime`) may instead take ownership of the filter
        with :meth:`bind_engine` and drive it via :meth:`pump`.
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
        """Ask the run loop to exit and wait for it.

        Stopping does *not* close the filter's streams (the ControlThread
        re-splices them); stopping a never-started filter is a no-op.
        """
        self._stop_event.set()
        self._resume.set()  # never leave a held filter stuck
        self._notify_engine()
        if self._thread is not None:
            # A worker parked in its blocking read looks at the stop flag
            # now rather than at its next read_timeout tick (which remains
            # as the net under a wake-up lost to the race with this call).
            self.dis.interrupt_read()
            self._thread.join(timeout=timeout)
        elif self._cooperative:
            self._finished.wait(timeout=timeout)

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for the filter's run loop to finish; True if it did."""
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            return not self._thread.is_alive()
        if self._cooperative:
            return self._finished.wait(timeout=timeout)
        return True

    def wait_finished(self, timeout: Optional[float] = None) -> bool:
        """Wait until the filter's run loop has completed."""
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

        The worker thread keeps processing until it is about to emit a unit
        for which ``predicate`` returns True (with no predicate, the very
        next unit), then blocks *before* emitting it until
        :meth:`release_hold` is called.  The downstream side therefore ends
        exactly at the boundary, and the unit that satisfied the predicate is
        the first thing delivered to whatever the stream is reconnected to.
        Returns True once the hold is in place, False on timeout.

        The ControlThread uses this for boundary-aware insertion (e.g. "only
        insert the video FEC filter so that it starts at an I frame").

        Units already handed to a batched delivery when the hold is armed
        still cross (up to one ``pump_budget`` of them; previously the
        in-flight window was a single unit), so predicates should match
        *recurring* boundaries — the next I frame, the next packet start —
        rather than one specific unit.  The composition protocol already
        tolerates this: a hold that never engages times out here and the
        caller proceeds with an unaligned splice.
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
        """
        self._emit(self.finalize())

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
        the pump budget instead of per-packet calls).  A batch that is
        transformed whole is accounted by the caller, from the byte count
        the DIS already keeps.  An implementation that can *raise*
        mid-batch must bump ``self._batch_in_bytes`` /
        ``self._batch_in_chunks`` as each input chunk is consumed: those
        are what is accounted then — only the chunks it actually saw — and
        the outputs appended so far are still delivered.
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

    def _deframe_batch(self, decoder: FrameDecoder,
                       chunks: List[bytes]) -> List[bytes]:
        """Decode an input batch in one frame pass, accounting its chunks.

        The decoder's own counters say what it consumed, so a bad frame
        stopping it mid-batch accounts the chunks up to and including that
        one — as feeding and counting chunk by chunk did.
        """
        bytes_before = decoder.bytes_consumed
        chunks_before = decoder.chunks_consumed
        try:
            return decoder.feed_many(chunks)
        finally:
            self._batch_in_bytes += decoder.bytes_consumed - bytes_before
            self._batch_in_chunks += decoder.chunks_consumed - chunks_before

    def finalize(self) -> TransformResult:
        """Produce trailing output when the input stream ends."""
        return None

    def on_start(self) -> None:
        """Hook invoked in the worker thread before the read loop."""

    def on_stop(self) -> None:
        """Hook invoked in the worker thread after the read loop."""

    # -------------------------------------------------------------- main loop

    def _run(self) -> None:
        try:
            self.on_start()
            self._read_loop()
            if not self._stop_event.is_set():
                self._emit(self.finalize())
                if self.propagate_eof:
                    self._close_output()
        except (StreamClosedError, BrokenStreamError, NotConnectedError) as exc:
            # The chain was torn down around us; record and exit quietly.
            self.error = exc
            self.stats.record_error()
        except Exception as exc:  # noqa: BLE001 - surfaced via self.error
            self.error = exc
            self.stats.record_error()
            self._close_output_after_error()
        finally:
            try:
                self.on_stop()
            finally:
                self._finished.set()
                self._notify_activity()

    def _read_loop(self) -> None:
        # The byte budget is chunk_size * pump_budget, but queued chunks are
        # taken *whole* (no max_chunk): transforms are size-agnostic, and
        # re-fragmenting a large upstream chunk to the local chunk_size cost
        # a per-piece loop at every hop for nothing — it was the E6 64 KiB
        # regression.  chunk_size sizes the budget; the writer's own chunk
        # boundaries are the transform units.
        budget_bytes = self.chunk_size * self.pump_budget
        while not self._stop_event.is_set():
            try:
                chunks = self.dis.read_chunks(budget_bytes,
                                              timeout=self.read_timeout)
            except StreamTimeoutError:
                continue
            if not chunks:
                return  # end of stream
            taken = self.dis.bytes_delivered  # sole reader: through this batch
            try:
                outputs: List[bytes] = []
                self._batch_in_bytes = self._batch_in_chunks = 0
                try:
                    self.transform_chunks(chunks, outputs)
                except Exception:
                    self._record_input(self._batch_in_bytes,
                                       self._batch_in_chunks)
                    # A transform failing mid-batch must not discard the
                    # outputs of the chunks before it — the per-chunk loop
                    # delivered those before erroring, and so do we.
                    try:
                        self._emit_units(outputs)
                    except Exception:  # noqa: BLE001 - keep the original error
                        pass
                    raise
                self._record_input(taken - self._input_done, len(chunks))
                self._emit_units(outputs)
            finally:
                self._input_done = taken
                self._notify_activity()

    def _record_input(self, nbytes: int, chunks: int) -> None:
        """Account one input batch (or the part of it a transform saw)."""
        self.stats.record_input_batch(nbytes, chunks)
        if chunks >= self.pump_budget:
            self.stats.record_budget_exhausted()

    # ------------------------------------------------------- cooperative pump

    def pump(self) -> bool:
        """Run one bounded execution step (the event-engine entry point).

        One step: flush any output parked by a boundary hold or a mid-splice
        detach, then drain up to a ``pump_budget`` of available input
        chunks, transform each and emit the combined results; at
        end-of-stream, finalize and complete.  The
        step never blocks — output is delivered with the non-blocking
        ``DOS.try_write`` and input is read only when the DIS reports bytes
        available — so any number of filters can be pumped from a single
        scheduler thread.  Returns True when the step made progress.

        Errors are handled exactly as in the threaded run loop: recorded on
        :attr:`error`, counted in stats, and the filter completes.
        """
        if self._finished.is_set():
            return False
        try:
            if not self._on_start_done:
                self._on_start_done = True
                self.on_start()
            progress = self._flush_pending()
            if self._stop_event.is_set():
                # Stop wins over parked output, as in the threaded teardown
                # path: the chain around us is being dismantled.
                self._complete()
                return True
            if self._pending:
                return progress  # parked at a boundary or across a splice
            return self._pump_input(progress)
        except (StreamClosedError, BrokenStreamError, NotConnectedError) as exc:
            self.error = exc
            self.stats.record_error()
            self._complete()
            return True
        except Exception as exc:  # noqa: BLE001 - surfaced via self.error
            self.error = exc
            self.stats.record_error()
            try:
                # Outputs queued by the chunks before the failing one must
                # still go downstream before the error closes the stream.
                self._flush_pending()
            except Exception:  # noqa: BLE001 - keep the original error
                pass
            self._close_output_after_error()
            self._complete()
            return True
        finally:
            self._notify_activity()

    def _pump_input(self, progress: bool) -> bool:
        """Consume one budget of input — the part of a pump step that differs
        between filters (read from the DIS) and sources (produce items).

        One step drains up to ``pump_budget`` queued chunks in a single
        buffer lock round-trip, transforms each, and flushes the combined
        output — so the scheduler's dirty-set and wakeup overhead
        amortizes across the batch instead of recurring per chunk.
        """
        if self.dis.available() > 0:
            # Whole queued chunks, no re-fragmentation — see _read_loop.
            chunks = self.dis.read_chunks(self.chunk_size * self.pump_budget,
                                          timeout=0)
            if chunks:
                taken = self.dis.bytes_delivered
                self._batch_in_bytes = self._batch_in_chunks = 0
                try:
                    # Appending straight onto the pending deque means a
                    # transform failing mid-batch leaves the earlier chunks'
                    # outputs parked there, and pump()'s error handler
                    # flushes them downstream before closing — the same
                    # partial-delivery contract as the threaded loop.
                    self.transform_chunks(chunks, self._pending)
                except Exception:
                    self._record_input(self._batch_in_bytes,
                                       self._batch_in_chunks)
                    raise
                else:
                    self._record_input(taken - self._input_done, len(chunks))
                finally:
                    # Outputs are parked on _pending by now, which keeps
                    # is_idle() False until they are flushed.
                    self._input_done = taken
                self._flush_pending()
                return True
        if self.dis.at_eof():
            if not self._finalized:
                self._finalized = True
                self._queue_outputs(self.finalize())
            self._flush_pending()
            if not self._pending:
                if self.propagate_eof:
                    self._close_output()
                self._complete()
            return True
        return progress

    def _close_output_after_error(self) -> None:
        if self.propagate_eof and self.close_output_on_error:
            self._close_output()

    def _queue_outputs(self, result: TransformResult) -> None:
        """Normalise a transform result onto the pending-output queue."""
        self._pending.extend(self._normalize_outputs(result))

    def _flush_pending(self) -> bool:
        """Deliver queued output without blocking; True if any byte moved.

        Stops (leaving the remainder queued) when the unit about to be
        emitted satisfies an armed boundary predicate — the cooperative
        equivalent of :meth:`_maybe_hold`'s blocking wait — or when the DOS
        is detached mid-splice (retried on the reattach notification).
        """
        progress = False
        while self._pending:
            with self._hold_lock:
                predicate = self._boundary_predicate
            if predicate is None and len(self._pending) > 1:
                # No hold armed: move the whole parked batch in one
                # non-blocking, all-or-nothing delivery.
                batch = list(self._pending)
                before = self.dos.bytes_written
                if not self.dos.try_write_many(batch):
                    return progress
                if self._held.is_set():
                    self._held.clear()
                self._pending.clear()
                self._record_emit_batch(batch, self.dos.bytes_written - before)
                progress = True
                continue
            data = self._pending[0]
            if (predicate is not None and not self._resume.is_set()
                    and self._unit_matches(predicate, data)):
                self._held.set()
                return progress
            if not self.dos.try_write(data):
                return progress
            if self._held.is_set():
                self._held.clear()
            self._pending.popleft()
            self._record_emit(data)
            progress = True
        return progress

    def _record_emit(self, data: bytes) -> None:
        """Account for one unit successfully delivered downstream."""
        self._last_emitted = data
        self.stats.record_output(len(data))

    def _record_emit_batch(self, batch: List[bytes], nbytes: int) -> None:
        """Account for a whole delivered batch with per-batch stats.

        ``nbytes`` is what the DOS counted while delivering it; the batch
        is not measured again.  Sources override this to keep their
        per-unit bookkeeping (item counts, pacing deadlines) exact.
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
        """Mark a cooperatively executed filter as finished (idempotent)."""
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
        if isinstance(result, (bytes, bytearray, memoryview)):
            outputs: List[bytes] = [result]
        else:
            outputs = [item if isinstance(item, (bytes, bytearray, memoryview))
                       else bytes(item) for item in result]
        return [data for data in outputs if len(data)]

    def _emit(self, result: TransformResult) -> None:
        self._emit_units(self._normalize_outputs(result))

    def _emit_units(self, units: List[bytes]) -> None:
        """Deliver transformed units downstream, batching when possible.

        With no boundary hold armed, the whole batch goes out through one
        ``DOS.write_many`` — a single lock/connectivity round-trip and a
        single batch of stats.  While a hold is armed, units are emitted
        one at a time so :meth:`_maybe_hold` can stop the stream exactly at
        the boundary unit.  A hold armed mid-batch takes effect from the
        next batch, whose size is bounded by the pump budget.
        """
        if not units:
            return
        with self._hold_lock:
            hold_armed = self._boundary_predicate is not None
        if not hold_armed and len(units) > 1:
            self._record_emit_batch(units, self.dos.write_many(units))
            return
        for data in units:
            self._maybe_hold(data)
            self.dos.write(data)
            self._record_emit(data)

    def _maybe_hold(self, unit: bytes) -> None:
        """Honour a pending boundary hold before emitting ``unit``.

        If a hold is armed and the unit about to be emitted satisfies the
        boundary predicate, the worker blocks here until released; the
        downstream side is left cleanly cut at the boundary and ``unit``
        becomes the first thing sent over the new connection.
        """
        with self._hold_lock:
            predicate = self._boundary_predicate
        if predicate is None:
            return
        if not self._unit_matches(predicate, unit):
            return
        self._held.set()
        self._resume.wait()
        self._held.clear()

    #: The most recently emitted unit (kept for diagnostics and tests).
    _last_emitted: Optional[bytes] = None

    def _boundary_unit(self, unit: bytes) -> bytes:
        """The value handed to boundary predicates for ``unit``.

        Byte filters hand over the chunk itself; packet filters strip the
        framing so predicates see the application-level packet.
        """
        return unit

    def _unit_matches(self, predicate: BoundaryPredicate, unit: bytes) -> bool:
        if not isinstance(unit, bytes):
            # Predicates are written against real ``bytes`` (``startswith``
            # and friends); materialise views on this cold path only.
            unit = bytes(unit)
        try:
            return bool(predicate(self._boundary_unit(unit)))
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
    """A filter that operates on framed packets rather than raw bytes.

    Input bytes are fed through a :class:`~repro.streams.framing.FrameDecoder`;
    each complete packet is handed to :meth:`transform_packet`, and every
    packet returned is re-framed onto the output stream.  Byte- and
    packet-oriented filters can therefore be mixed freely in one chain.
    """

    type_name = "packet-filter"

    #: Result type for packet transforms: none, one, or many packets.
    PacketResult = Union[None, bytes, Iterable[bytes]]

    #: When True, :meth:`transform_chunks` hands the whole batch of decoded
    #: packets to one :meth:`transform_packets` call instead of per-packet
    #: :meth:`transform_packet` calls — the hook the FEC filters use to run
    #: a single vectorised encode/decode over the full pump budget.
    fused_packet_batch = False

    def __init__(self, name: Optional[str] = None, read_timeout: float = 0.05,
                 chunk_size: int = 65536, propagate_eof: bool = True,
                 pump_budget: Optional[int] = None) -> None:
        super().__init__(name=name, read_timeout=read_timeout,
                         chunk_size=chunk_size, propagate_eof=propagate_eof,
                         pump_budget=pump_budget)
        self._decoder = FrameDecoder()
        self._last_packet: Optional[bytes] = None

    # -- packet-level hooks ----------------------------------------------------

    def transform_packet(self, packet: bytes) -> "PacketFilter.PacketResult":
        """Transform one packet; the default is a passthrough."""
        return packet

    def transform_packets(self, packets: List[bytes],
                          outputs: List[bytes]) -> None:
        """Transform a whole batch of packets at once (fused mode),
        appending the resulting packets onto ``outputs``.

        Called instead of :meth:`transform_packet` when
        :attr:`fused_packet_batch` is True; implementations must be
        byte-equivalent to transforming the packets one at a time — what
        the packets before one that raises produced included, which is
        why results are appended rather than returned.
        """
        raise NotImplementedError

    def finalize_packets(self) -> "PacketFilter.PacketResult":
        """Produce trailing packets at end-of-stream (e.g. flush FEC groups)."""
        return None

    # -- plumbing ---------------------------------------------------------------

    def transform(self, chunk: bytes) -> TransformResult:
        outputs: List[bytes] = []
        for packet in self._decoder.feed(chunk):
            self.stats.record_input(0, packets=1)
            outputs.extend(self._frame_all(self.transform_packet(packet)))
        return outputs

    def transform_chunks(self, chunks: List[bytes], outputs) -> None:
        """Decode the whole batch to packets, then transform them fused.

        With :attr:`fused_packet_batch` unset this is the per-chunk base
        behaviour.  Fused, every complete packet in the batch reaches
        :meth:`transform_packets` in one call — so a pump budget of FEC
        packets hits the numpy backend as one 2D array — with stats
        identical to the per-packet path.
        """
        if not self.fused_packet_batch:
            super().transform_chunks(chunks, outputs)
            return
        packets = self._deframe_batch(self._decoder, chunks)
        if not packets:
            return
        # Per-packet accounting is record_input(0, packets=1) per packet,
        # which also bumps chunks_in — mirror both in one batched call.
        self.stats.record_input_batch(0, len(packets), packets=len(packets))
        results: List[bytes] = []
        try:
            self.transform_packets(packets, results)
        finally:
            # Also when a packet mid-batch raised: see Filter.transform_chunks.
            outputs.extend(self._frame_all(results))

    def finalize(self) -> TransformResult:
        return self._frame_all(self.finalize_packets())

    def _frame_all(self, result: "PacketFilter.PacketResult") -> List[bytes]:
        """Frame a packet result, accounted once for the whole of it."""
        if result is None:
            return []
        if isinstance(result, (bytes, bytearray, memoryview)):
            packets: List[bytes] = [bytes(result)]
            framed = [encode_frame(packets[0])]
        else:
            packets = [bytes(item) for item in result]
            if not packets:
                return packets
            framed = encode_frame_batch(packets)
        self._last_packet = packets[-1]
        # Per packet this was record_output(0, packets=1), chunks_out too.
        self.stats.record_output_batch(0, len(packets), packets=len(packets))
        return framed

    def is_idle(self) -> bool:
        return (super().is_idle() and not self._decoder.has_partial_frame())

    def _boundary_unit(self, unit: bytes) -> bytes:
        """Strip the frame header so predicates see the packet payload."""
        return unit[HEADER_SIZE:] if len(unit) >= HEADER_SIZE else unit


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
