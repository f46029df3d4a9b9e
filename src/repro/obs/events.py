"""Structured JSONL event log with per-stream correlation ids.

Control-plane state transitions (stream start/stop, filter splice, FEC
policy change, transport error) are appended as one JSON object per line.
Every stream gets a correlation id at start; every event carries it, so a
fleet-wide log can be grepped back into per-stream timelines.

Selection follows the house env-var idiom: ``REPRO_EVENT_LOG`` names a
file to append to (``-`` for stderr); unset means in-memory ring only.

Record schema (all records)::

    {"ts": <float unix seconds>, "event": "<type>",
     "stream": "<stream name>", "cid": "<correlation id>", ...fields}

``stream``/``cid`` are empty strings for process-scoped events (e.g.
transport errors on a shared channel).
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from collections import deque
from typing import Dict, List, Optional, TextIO

EVENT_LOG_ENV_VAR = "REPRO_EVENT_LOG"

#: Event types emitted by the core control plane and rapidware responders.
EVENT_STREAM_START = "stream-start"
EVENT_STREAM_STOP = "stream-stop"
EVENT_SPLICE_INSERT = "splice-insert"
EVENT_SPLICE_REMOVE = "splice-remove"
EVENT_FEC_POLICY_CHANGE = "fec-policy-change"
EVENT_TRANSPORT_ERROR = "transport-error"
#: Cluster worker lifecycle (emitted by the parent's control plane; the
#: same correlation id spans a worker slot's start/exit/restart events).
EVENT_WORKER_START = "worker-start"
EVENT_WORKER_EXIT = "worker-exit"
EVENT_WORKER_RESTART = "worker-restart"
#: A worker that is alive but not answering RPCs within the deadline; the
#: parent terminates it and the normal exit/restart pair follows, so an
#: incident timeline reads unresponsive → exit → restart under one cid.
EVENT_WORKER_UNRESPONSIVE = "worker-unresponsive"
#: Stream supervision (see :mod:`repro.core.supervision`): recovery actions
#: share the stream's correlation id with its start/splice/stop events.
EVENT_STREAM_ERROR = "stream-error"
EVENT_STREAM_STALL = "stream-stall"
EVENT_FILTER_RESTART = "filter-restart"
EVENT_FILTER_BYPASS = "filter-bypass"
#: One injected fault from the chaos plane (:mod:`repro.chaos`); process
#: scoped (empty stream/cid) but deterministic in order for a fixed seed.
EVENT_CHAOS_FAULT = "chaos-fault"

_cid_counter = itertools.count(1)


def new_correlation_id(prefix: str = "s") -> str:
    """A process-unique correlation id (``s-1``, ``s-2``, ...)."""
    return f"{prefix}-{next(_cid_counter)}"


class EventLog:
    """A bounded in-memory ring of events, optionally teed to a JSONL sink."""

    def __init__(
        self,
        capacity: int = 1024,
        stream: Optional[TextIO] = None,
        path: Optional[str] = None,
    ) -> None:
        if path is not None and stream is not None:
            raise ValueError("pass either stream= or path=, not both")
        self._lock = threading.Lock()
        self._ring: "deque[Dict[str, object]]" = deque(maxlen=capacity)
        self._owns_stream = path is not None
        self._stream = open(path, "a", encoding="utf-8") if path else stream
        #: Records evicted from the full ring (the JSONL tee, when one is
        #: configured, still saw them).  Surfaced by the default metrics
        #: registry as ``repro_events_dropped_total`` so a chaos run that
        #: outpaces its ring cannot quietly lose its own evidence.
        self.dropped_total = 0

    def emit(
        self, event: str, stream: str = "", cid: str = "", **fields: object
    ) -> Dict[str, object]:
        """Append one event record; returns the record."""
        record: Dict[str, object] = {
            "ts": time.time(),
            "event": str(event),
            "stream": str(stream),
            "cid": str(cid),
        }
        for key, value in fields.items():
            record[str(key)] = value
        line = ""
        if self._stream is not None:  # only ever lost, so safe to test here
            line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            if self._ring.maxlen is not None and len(self._ring) == self._ring.maxlen:
                self.dropped_total += 1
            self._ring.append(record)
            if self._stream is not None:
                try:
                    self._stream.write(line + "\n")
                    self._stream.flush()
                except (OSError, ValueError):
                    # A dead sink (closed file, full disk) silences the tee
                    # but never the control plane.
                    self._stream = None
        return record

    def records(
        self, event: Optional[str] = None, cid: Optional[str] = None
    ) -> List[Dict[str, object]]:
        """A snapshot of buffered records, optionally filtered."""
        with self._lock:
            records = list(self._ring)
        if event is not None:
            records = [r for r in records if r["event"] == event]
        if cid is not None:
            records = [r for r in records if r["cid"] == cid]
        return records

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    def close(self) -> None:
        with self._lock:
            if self._stream is not None and self._owns_stream:
                try:
                    self._stream.close()
                except OSError:
                    pass
            self._stream = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


_default_log: Optional[EventLog] = None
_default_lock = threading.Lock()


def _build_default() -> EventLog:
    target = os.environ.get(EVENT_LOG_ENV_VAR, "").strip()
    if not target:
        return EventLog()
    if target == "-":
        return EventLog(stream=sys.stderr)
    return EventLog(path=target)


def get_event_log() -> EventLog:
    """The process-wide event log (built from ``REPRO_EVENT_LOG`` once)."""
    global _default_log
    with _default_lock:
        if _default_log is None:
            _default_log = _build_default()
        return _default_log


def configure_event_log(log: Optional[EventLog]) -> EventLog:
    """Replace the process-wide log (pass ``None`` to rebuild from env)."""
    global _default_log
    with _default_lock:
        if _default_log is not None:
            _default_log.close()
        _default_log = log if log is not None else _build_default()
        return _default_log
