"""Process-wide metrics: named counters, gauges and histograms.

The observability plane follows the house registry idiom
(:mod:`repro.fec.backend` / :mod:`repro.runtime` / :mod:`repro.transport`):
a :class:`MetricsRegistry` holds named instruments, a process-wide default
registry is shared by every subsystem, and selection of the export surface
is environment-driven (``REPRO_METRICS_ADDR``, see
:mod:`repro.obs.exporter`).

Two rules keep the data path fast:

* **Instrument writes are lock-free.**  ``Counter.inc`` / ``Gauge.set`` are
  plain-int/float attribute updates — GIL-atomic, exactly like
  :class:`repro.core.stats.FilterStats` — so control-plane components may
  update them from any thread without a lock round-trip.  (Instrument
  *creation* takes a lock; create once, update forever.)
* **Fleet state is collected at scrape time.**  Per-filter/per-stream
  counters already exist on the data path (``FilterStats``); rather than
  mirroring every increment into this registry, *collectors* walk the live
  proxies/engines/channels only when ``/metrics`` is scraped.  The hot path
  therefore pays nothing for observability — the acceptance criterion of
  the E6 perf floor.

Proxies, execution engines and datagram channels register themselves into
module-level weak sets (:func:`register_proxy`, :func:`register_engine`,
:func:`register_channel`); the default registry's built-in collectors turn
whatever is alive at scrape time into Prometheus metric families.
"""

from __future__ import annotations

import re
import threading
import weakref
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

_METRIC_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")

#: Bucket upper bounds used when a histogram is created without explicit
#: buckets (byte-ish sizes: 64 B .. 1 MiB).
DEFAULT_BUCKETS = (64, 256, 1024, 4096, 16384, 65536, 262144, 1048576)


class MetricsError(ValueError):
    """Raised for invalid metric names, labels, or conflicting registration."""


LabelPairs = Tuple[Tuple[str, str], ...]


def _validate_name(name: str) -> str:
    if not _METRIC_NAME_RE.match(name or ""):
        raise MetricsError(f"invalid metric name {name!r}")
    return name


def _validate_label_names(label_names: Sequence[str]) -> Tuple[str, ...]:
    names = tuple(label_names)
    for label in names:
        if not _LABEL_NAME_RE.match(label or "") or label.startswith("__"):
            raise MetricsError(f"invalid label name {label!r}")
    if len(set(names)) != len(names):
        raise MetricsError(f"duplicate label names in {names!r}")
    return names


class MetricFamily:
    """One named family of samples, as rendered into the exposition format."""

    def __init__(self, name: str, kind: str, help_text: str = "") -> None:
        self.name = _validate_name(name)
        self.kind = kind
        self.help_text = help_text
        #: ``(sorted label pairs, value)`` rows, in insertion order.
        self.samples: List[Tuple[LabelPairs, float]] = []

    def add(
        self,
        value: float,
        labels: Optional[Dict[str, str]] = None,
        suffix: str = "",
    ) -> None:
        """Append one sample (``suffix`` is for histogram sub-series)."""
        pairs = tuple(sorted((str(k), str(v)) for k, v in (labels or {}).items()))
        for key, _ in pairs:
            if not _LABEL_NAME_RE.match(key):
                raise MetricsError(f"invalid label name {key!r}")
        if suffix:
            pairs = (("__suffix__", suffix),) + pairs
        self.samples.append((pairs, float(value)))


class Counter:
    """A monotonically increasing counter.

    With ``label_names``, per-label children are created on demand with
    :meth:`labels`; without, :meth:`inc` updates the instrument directly.
    Increments are GIL-atomic ``+=`` — no lock on the update path.
    """

    kind = "counter"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        label_names: Sequence[str] = (),
    ) -> None:
        self.name = _validate_name(name)
        self.help_text = help_text
        self.label_names = _validate_label_names(label_names)
        self._value = 0.0
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], "Counter"] = {}

    def inc(self, amount: float = 1.0) -> None:
        if self.label_names:
            raise MetricsError(
                f"counter {self.name!r} is labelled; use .labels(...) first"
            )
        if amount < 0:
            raise MetricsError(
                f"counter {self.name!r} cannot decrease (inc({amount!r}))"
            )
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def labels(self, **labels: str) -> "Counter":
        """The child counter for one label combination (created on demand)."""
        if set(labels) != set(self.label_names):
            raise MetricsError(
                f"counter {self.name!r} expects labels {self.label_names!r}, "
                f"got {tuple(sorted(labels))!r}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = type(self)(self.name, self.help_text)
                    self._children[key] = child
        return child

    def collect(self) -> MetricFamily:
        family = MetricFamily(self.name, self.kind, self.help_text)
        if self.label_names:
            with self._lock:
                children = list(self._children.items())
            for key, child in children:
                family.add(child._value, dict(zip(self.label_names, key)))
        else:
            family.add(self._value)
        return family


class Gauge(Counter):
    """A value that can go up and down, or be computed at scrape time."""

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        label_names: Sequence[str] = (),
    ) -> None:
        super().__init__(name, help_text, label_names)
        self._function: Optional[Callable[[], float]] = None

    def inc(self, amount: float = 1.0) -> None:
        if self.label_names:
            raise MetricsError(
                f"gauge {self.name!r} is labelled; use .labels(...) first"
            )
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set(self, value: float) -> None:
        if self.label_names:
            raise MetricsError(
                f"gauge {self.name!r} is labelled; use .labels(...) first"
            )
        self._value = float(value)

    def set_function(self, function: Callable[[], float]) -> None:
        """Evaluate ``function`` at scrape time instead of storing a value."""
        if self.label_names:
            raise MetricsError(
                f"gauge {self.name!r} is labelled; set functions on children"
            )
        self._function = function

    def collect(self) -> MetricFamily:
        if self._function is None and not self.label_names:
            return super().collect()
        family = MetricFamily(self.name, self.kind, self.help_text)
        if self.label_names:
            with self._lock:
                children = list(self._children.items())
            for key, child in children:
                function = child._function
                value = function() if function is not None else child._value
                family.add(value, dict(zip(self.label_names, key)))
        else:
            try:
                family.add(self._function())
            except Exception:  # noqa: BLE001 - a dead callback must not kill scrape
                family.add(self._value)
        return family


class Histogram:
    """A cumulative histogram (Prometheus ``_bucket``/``_sum``/``_count``).

    ``observe`` takes a small lock: histograms are for control-plane sizes
    and latencies, never for per-chunk data-path accounting.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = _validate_name(name)
        self.help_text = help_text
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise MetricsError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise MetricsError("histogram bucket bounds must be distinct")
        self.label_names: Tuple[str, ...] = ()
        self.bounds = bounds
        self._lock = threading.Lock()
        self._bucket_counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._bucket_counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def collect(self) -> MetricFamily:
        family = MetricFamily(self.name, self.kind, self.help_text)
        with self._lock:
            counts = list(self._bucket_counts)
            total, total_sum = self._count, self._sum
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, counts):
            cumulative += bucket_count
            label = repr(bound) if bound != int(bound) else str(int(bound))
            family.add(cumulative, {"le": label}, suffix="_bucket")
        family.add(total, {"le": "+Inf"}, suffix="_bucket")
        family.add(total_sum, suffix="_sum")
        family.add(total, suffix="_count")
        return family


#: A collector: a zero-argument callable returning metric families, run at
#: scrape time.  This is how fleet state (proxies, engines, channels) is
#: exported without touching the data path.
Collector = Callable[[], Iterable[MetricFamily]]


class MetricsRegistry:
    """A named set of instruments plus scrape-time collectors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, object] = {}
        self._collectors: List[Collector] = []

    # ------------------------------------------------------------ instruments

    def register(self, instrument):
        """Add an instrument; re-registering an identical name returns the
        existing instrument (concurrent registration is first-wins), a
        conflicting one raises."""
        with self._lock:
            existing = self._instruments.get(instrument.name)
            if existing is not None:
                same_type = type(existing) is type(instrument)
                if same_type and existing.label_names == instrument.label_names:
                    return existing
                raise MetricsError(
                    f"metric {instrument.name!r} already registered "
                    f"as a {type(existing).__name__}"
                )
            self._instruments[instrument.name] = instrument
            return instrument

    def unregister(self, name: str) -> None:
        with self._lock:
            self._instruments.pop(name, None)

    def counter(
        self,
        name: str,
        help_text: str = "",
        label_names: Sequence[str] = (),
    ) -> Counter:
        """Get or create the named counter."""
        return self.register(Counter(name, help_text, label_names))

    def gauge(
        self,
        name: str,
        help_text: str = "",
        label_names: Sequence[str] = (),
    ) -> Gauge:
        """Get or create the named gauge."""
        return self.register(Gauge(name, help_text, label_names))

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create the named histogram."""
        return self.register(Histogram(name, help_text, buckets))

    def get(self, name: str):
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    # ------------------------------------------------------------- collectors

    def register_collector(self, collector: Collector) -> Collector:
        with self._lock:
            if collector not in self._collectors:
                self._collectors.append(collector)
        return collector

    def unregister_collector(self, collector: Collector) -> None:
        with self._lock:
            self._collectors = [c for c in self._collectors if c != collector]

    # ----------------------------------------------------------------- scrape

    def collect(self) -> List[MetricFamily]:
        """Every family from every instrument and collector, sorted by name.

        Families with the same name are merged (first kind/help wins) so a
        collector may extend an instrument's family with fleet samples.
        """
        with self._lock:
            instruments = list(self._instruments.values())
            collectors = list(self._collectors)
        merged: Dict[str, MetricFamily] = {}
        for instrument in instruments:
            family = instrument.collect()
            merged[family.name] = family
        for collector in collectors:
            try:
                families = list(collector())
            except Exception:  # noqa: BLE001 - a broken collector must not kill scrape
                continue
            for family in families:
                existing = merged.get(family.name)
                if existing is None:
                    merged[family.name] = family
                else:
                    existing.samples.extend(family.samples)
        return [merged[name] for name in sorted(merged)]


# ---------------------------------------------------------------------------
# Fleet registration: live proxies / engines / channels, collected at scrape
# ---------------------------------------------------------------------------

_proxies: "weakref.WeakSet" = weakref.WeakSet()
_engines: "weakref.WeakSet" = weakref.WeakSet()
_channels: "weakref.WeakSet" = weakref.WeakSet()
_clusters: "weakref.WeakSet" = weakref.WeakSet()


def register_proxy(proxy) -> None:
    """Track a live Proxy for scrape-time collection (weakly referenced)."""
    _proxies.add(proxy)


def register_cluster(cluster) -> None:
    """Track a live ProxyCluster for scrape-time collection.

    Duck-typed (anything with ``collect_metric_families()``) so this
    module never imports :mod:`repro.cluster` — the dependency points the
    other way, matching proxies/engines/channels.
    """
    _clusters.add(cluster)


def register_engine(engine) -> None:
    """Track a live ExecutionEngine for scrape-time collection."""
    _engines.add(engine)


def register_channel(channel) -> None:
    """Track a live DatagramChannel for scrape-time collection."""
    _channels.add(channel)


def live_proxies() -> List[object]:
    return list(_proxies)


def live_engines() -> List[object]:
    return list(_engines)


def live_channels() -> List[object]:
    return list(_channels)


def live_clusters() -> List[object]:
    return list(_clusters)


def collect_clusters() -> List[MetricFamily]:
    """Fleet metrics from every live cluster's aggregated worker scrapes.

    Each cluster returns families whose samples already carry the
    ``worker`` label; a cluster that cannot be scraped (shutting down,
    workers mid-restart) contributes nothing rather than failing the
    whole scrape.
    """
    families: List[MetricFamily] = []
    for cluster in list(_clusters):
        try:
            families.extend(cluster.collect_metric_families())
        except Exception:  # noqa: BLE001 - a dead cluster must not kill scrape
            continue
    return families


_STREAM_STAT_FAMILIES = (
    # metric suffix, FilterStats key pairs collapsed under a direction label
    ("chunks", "chunks_in", "chunks_out"),
    ("bytes", "bytes_in", "bytes_out"),
    ("packets", "packets_in", "packets_out"),
)


def collect_proxies() -> List[MetricFamily]:
    """Per-stream / per-element metrics from every live proxy's snapshots.

    Reads the same lock-free ``FilterStats`` counters the control plane
    displays; the walk happens here, at scrape time, never on the data path.
    """
    streams = MetricFamily(
        "repro_proxy_streams", "gauge", "Streams hosted by the proxy"
    )
    running = MetricFamily(
        "repro_stream_running", "gauge", "1 while the stream's endpoints are alive"
    )
    filters = MetricFamily(
        "repro_stream_filters", "gauge", "Filters currently composed into the stream"
    )
    wakeups = MetricFamily(
        "repro_stream_idle_wakeups_total",
        "counter",
        "Idle-waiter wakeups delivered on this stream",
    )
    directional = {}
    for suffix, _, _ in _STREAM_STAT_FAMILIES:
        directional[suffix] = MetricFamily(
            f"repro_stream_{suffix}_total",
            "counter",
            f"Stream {suffix} moved, by element and direction",
        )
    errors = MetricFamily(
        "repro_stream_errors_total", "counter", "Element errors recorded on the stream"
    )
    exhausted = MetricFamily(
        "repro_stream_pump_budget_exhausted_total",
        "counter",
        "Pump steps that drained a full input budget (backlog signal)",
    )

    for proxy in live_proxies():
        try:
            controls = proxy.streams
        except Exception:  # noqa: BLE001 - a proxy mid-shutdown must not kill scrape
            continue
        streams.add(len(controls), {"proxy": proxy.name})
        for stream_name, control in controls.items():
            try:
                snap = control.snapshot()
            except Exception:  # noqa: BLE001 - as above
                continue
            base = {"proxy": proxy.name, "stream": stream_name}
            running.add(1.0 if snap.running else 0.0, base)
            filters.add(len(snap.filter_names), base)
            wakeups.add(getattr(control, "idle_wakeups", 0), base)
            elements = [("source", snap.source_stats)]
            elements += list(zip(snap.filter_names, snap.filter_stats))
            elements.append(("sink", snap.sink_stats))
            for element_name, stats in elements:
                labels = dict(base, element=element_name)
                for suffix, in_key, out_key in _STREAM_STAT_FAMILIES:
                    directional[suffix].add(
                        stats.get(in_key, 0), dict(labels, direction="in")
                    )
                    directional[suffix].add(
                        stats.get(out_key, 0), dict(labels, direction="out")
                    )
                errors.add(stats.get("errors", 0), labels)
                exhausted.add(stats.get("budget_exhausted", 0), labels)
    families = [streams, running, filters, wakeups]
    families.extend(directional.values())
    families.extend([errors, exhausted])
    return families


def collect_engines() -> List[MetricFamily]:
    """Scheduler metrics from every live execution engine.

    Engines expose ``metrics_snapshot() -> {"counters": {...},
    "gauges": {...}}`` of plain scheduler-thread-private ints; reading them
    here may lag an in-flight increment by one round, which dashboards
    tolerate by design.
    """
    families: Dict[str, MetricFamily] = {}
    for engine in live_engines():
        snapshot_fn = getattr(engine, "metrics_snapshot", None)
        if snapshot_fn is None:
            continue
        try:
            snapshot = snapshot_fn()
        except Exception:  # noqa: BLE001 - an engine mid-shutdown must not kill scrape
            continue
        labels = {"engine": engine.name, "instance": f"{id(engine):x}"}
        for kind, key_suffix in (("counters", "_total"), ("gauges", "")):
            for key, value in snapshot.get(kind, {}).items():
                name = f"repro_engine_{key}{key_suffix}"
                family = families.get(name)
                if family is None:
                    family = MetricFamily(
                        name,
                        "counter" if kind == "counters" else "gauge",
                        f"Engine scheduler {key.replace('_', ' ')}",
                    )
                    families[name] = family
                family.add(value, labels)
    return list(families.values())


def collect_event_log() -> List[MetricFamily]:
    """Drop accounting for the process-wide event log's bounded ring.

    The ring evicts oldest-first when full; without this counter a chaos
    run that emits faster than anyone reads would lose its own evidence
    silently.  Imported lazily — events never imports metrics, so the
    dependency stays one-way.
    """
    from .events import get_event_log

    dropped = MetricFamily(
        "repro_events_dropped_total",
        "counter",
        "Event records evicted from the in-memory ring (tee unaffected)",
    )
    dropped.add(get_event_log().dropped_total)
    return [dropped]


def collect_channels() -> List[MetricFamily]:
    """Datagram-channel metrics from every live transport channel."""
    sent = MetricFamily(
        "repro_transport_datagrams_sent_total",
        "counter",
        "Datagrams sent on the channel",
    )
    sent_bytes = MetricFamily(
        "repro_transport_bytes_sent_total",
        "counter",
        "Payload bytes sent on the channel",
    )
    send_errors = MetricFamily(
        "repro_transport_send_errors_total",
        "counter",
        "Datagram send attempts that failed",
    )
    received = MetricFamily(
        "repro_transport_datagrams_received_total",
        "counter",
        "Datagrams delivered to a local channel member",
    )
    receive_syscalls = MetricFamily(
        "repro_transport_receive_syscalls_total",
        "counter",
        "Receive syscalls a local member attempted (data or EAGAIN); over "
        "datagrams_received it is the syscalls paid per datagram",
    )
    framing_errors = MetricFamily(
        "repro_transport_framing_errors_total",
        "counter",
        "Malformed datagrams detected and dropped by a local member",
    )
    for channel in live_channels():
        labels = {"transport": type(channel).__name__, "channel": channel.name}
        sent.add(getattr(channel, "packets_sent", 0), labels)
        sent_bytes.add(getattr(channel, "bytes_sent", 0), labels)
        send_errors.add(getattr(channel, "send_errors", 0), labels)
        try:
            receivers = channel.local_receivers()
        except Exception:  # noqa: BLE001 - a channel mid-close must not kill scrape
            receivers = []
        for receiver in receivers:
            member_labels = dict(labels, member=receiver.name)
            received.add(getattr(receiver, "packets_received", 0), member_labels)
            receive_syscalls.add(
                getattr(receiver, "receive_syscalls", 0), member_labels
            )
            framing_errors.add(getattr(receiver, "framing_errors", 0), member_labels)
    return [
        sent,
        sent_bytes,
        send_errors,
        received,
        receive_syscalls,
        framing_errors,
    ]


# ---------------------------------------------------------------------------
# Process-wide default registry (house idiom: lazily built, lock-guarded)
# ---------------------------------------------------------------------------

_default_registry: Optional[MetricsRegistry] = None
_default_lock = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The process-wide registry, pre-wired with the fleet collectors."""
    global _default_registry
    with _default_lock:
        if _default_registry is None:
            registry = MetricsRegistry()
            registry.register_collector(collect_proxies)
            registry.register_collector(collect_engines)
            registry.register_collector(collect_channels)
            registry.register_collector(collect_clusters)
            registry.register_collector(collect_event_log)
            _default_registry = registry
        return _default_registry
