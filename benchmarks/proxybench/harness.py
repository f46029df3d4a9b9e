"""The harness process: plans repetitions, drives children, derives metrics.

One *invocation* measures one or more workloads.  Each workload gets a few
fresh child processes (repetitions), every child pinned to one CPU and
measuring short windows, each bracketed by readings of the calibration
kernel.  Only windows whose two readings agree count
(:func:`stats.undisturbed`), and each one's timings are brought to reference
machine speed by those readings (:func:`stats.machine_factor`); a metric's
value is the median over the kept windows (percentiles are taken over their
pooled samples).  When too few windows pass, one more repetition is run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import livefeed, metrics, stats, tracing
from .workloads import LIVE_INTERVAL_S, LIVE_PACKET_BYTES, LIVE_STREAMS

RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
CHILD_TIMEOUT_S = 120.0
MIB = 1024.0 * 1024.0

#: Live windows skip the ticks right after a mark, while the child spins.
LIVE_GUARD_TICKS = 2
#: Ticks sent before the first window: the first half second of a live
#: proxy always holds a burst of 7-15 ms packets (lazy set-up).
LIVE_LEAD_TICKS = 36


class Plan(NamedTuple):
    """How one workload's measuring time is cut up."""

    children: int        # fresh processes that measure
    windows: int         # per child
    window_s: float
    settle_s: float
    setup_only: int = 0  # children that only set up, for more set-up samples
    max_extra: int = 0   # more children when too few windows pass the gate

    @property
    def wanted(self) -> int:
        """Gated windows below which another child is worth its time."""
        return max(2, self.children * self.windows // 4)


def plan_for(seconds: float, quick: bool = False) -> Plan:
    """Cut ``seconds`` of measuring into children and half-second windows."""
    if quick:
        return Plan(children=1, windows=2, window_s=0.25, settle_s=0.05)
    children = 2 if seconds >= 8 else 1
    return Plan(children, windows=max(2, round(seconds / children / 0.5)),
                window_s=0.5, settle_s=0.05, setup_only=3, max_extra=1)


def pick_cpus() -> Tuple[Optional[int], Optional[int]]:
    """(harness CPU, child CPU): the first and last CPUs we may run on."""
    if not hasattr(os, "sched_getaffinity"):
        return None, None
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[-1]


def _child_env() -> Dict[str, str]:
    """The child's environment: no REPRO_* switches, fixed hash seed."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(spec: Dict[str, Any], interactive: bool = False):
    """Start a child for ``spec``; returns ``(process, spawn instant ns)``."""
    spawned_ns = time.perf_counter_ns()
    process = subprocess.Popen(
        [sys.executable, RUN_PY, "--child", json.dumps(spec)],
        stdin=subprocess.PIPE if interactive else subprocess.DEVNULL,
        stdout=subprocess.PIPE, env=_child_env(), text=True)
    return process, spawned_ns


def collect(process) -> Dict[str, Any]:
    """Wait for a child and parse the JSON object on its last output line."""
    try:
        out, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise RuntimeError("child process timed out")
    lines = [line for line in out.splitlines() if line.strip()]
    if process.returncode != 0 or not lines:
        raise RuntimeError(f"child process failed (exit {process.returncode})")
    return json.loads(lines[-1])


def _setup_fields(result: Dict[str, Any], spawned_ns: int) -> Dict[str, Any]:
    return {
        "setup_s": ((result["started_ns"] - spawned_ns) / 1e9
                    - result["first_spin_seconds"]),
        "setup_bracket": (result["first_spin"], result["spin_after_setup"]),
        "peak_rss_mib": result["peak_rss_mib"],
        "threads": result["threads"],
        "trace": result.get("trace"),
    }


# ------------------------------------------------------------- repetitions


def closed_loop_repetition(workload: str, seed: int, plan: Plan, cpu,
                           out_dir: str, trace: bool) -> Dict[str, Any]:
    """One child of a closed-loop workload."""
    spec = {"mode": "closed", "workload": workload, "seed": seed, "cpu": cpu,
            "windows": plan.windows, "window_s": plan.window_s,
            "settle_s": plan.settle_s, "trace": trace, "out_dir": out_dir}
    process, spawned_ns = spawn(spec)
    result = collect(process)
    child = _setup_fields(result, spawned_ns)
    child.update(windows=result["windows"], attempted=result["attempted"],
                 failures=result["failures"])
    return child


def start_idle_filler(cpu) -> subprocess.Popen:
    """Keep ``cpu`` from idling with a lowest-priority spinner.

    The live proxy is idle two thirds of the time.  On a virtual CPU an
    idle stretch ends with a wake-up whose cost belongs to the hypervisor,
    not the proxy, and a calibration spin taken after one measures that
    wake-up instead of the machine's state.  The filler runs at nice 19 on
    the proxy's CPU: every packet preempts it at once, and between packets
    the CPU stays awake — as it would on a host with anything else to do.
    """
    return subprocess.Popen(
        [sys.executable, os.path.join(os.path.dirname(RUN_PY), "spin.py"),
         "--idle-filler", str(-1 if cpu is None else cpu)],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)


def live_windows(marks: List[Dict[str, Any]],
                 arrivals: List[livefeed.Arrival],
                 generator: livefeed.Generator, window_count: int,
                 window_ticks: int) -> List[Dict[str, Any]]:
    """Cut one live child's arrivals into windows between the child's marks.

    A packet belongs to the window its *due* tick falls in; the ticks right
    after a mark, while the child runs its calibration, belong to none.
    """
    by_window: List[List[livefeed.Arrival]] = [[] for _ in range(window_count)]
    for arrival in arrivals:
        index, offset = divmod(arrival.seq - LIVE_LEAD_TICKS, window_ticks)
        if 0 <= index < window_count and offset >= LIVE_GUARD_TICKS:
            by_window[index].append(arrival)
    windows = []
    for index in range(min(window_count, len(marks) - 1)):
        arrived = by_window[index]
        cpu_ns = (marks[index + 1]["cpu_before_ns"]
                  - marks[index]["cpu_after_ns"])
        # The window's packets, in send order, and when each really left.
        first_tick = LIVE_LEAD_TICKS + index * window_ticks + LIVE_GUARD_TICKS
        last_tick = LIVE_LEAD_TICKS + (index + 1) * window_ticks
        sent = generator.sent_ns[first_tick * LIVE_STREAMS:
                                 last_tick * LIVE_STREAMS]
        lag = [sent_ns - generator.due_ns(first_tick + position // LIVE_STREAMS,
                                          position % LIVE_STREAMS)
               for position, sent_ns in enumerate(sent)]
        # Delivered rate as measured: what arrived of this window's packets,
        # over the time the generator really took to offer them (n packets
        # on a regular schedule span n - 1 gaps).
        span_s = (sent[-1] - sent[0]) / 1e9 * len(sent) / (len(sent) - 1)
        windows.append({
            "spin_before": marks[index]["spin"],
            "spin_after": marks[index + 1]["spin"],
            "seconds": span_s,
            # CPU is over the whole mark-to-mark interval, so is its divisor.
            "cpu_s": cpu_ns / 1e9,
            "cpu_units": window_ticks * LIVE_STREAMS,
            "units": len(arrived),
            "bytes": len(arrived) * LIVE_PACKET_BYTES,
            "source_units": len(arrived),
            "latency_ns": [a.arrived_ns - a.due_ns for a in arrived
                           if a.completes_group],
            "held_latency_ns": [a.arrived_ns - a.due_ns for a in arrived],
            "generator_lag_ns": lag,
            "engine_wakeups": (
                marks[index + 1]["engine"].get("elements_pumped", 0)
                - marks[index]["engine"].get("elements_pumped", 0)),
        })
    return windows


def live_repetition(seed: int, plan: Plan, cpu, out_dir: str, trace: bool,
                    engine: str = "event") -> Dict[str, Any]:
    """One child of ``live_udp_fanin``, driven from this process."""
    window_count = plan.windows
    window_ticks = max(4, round(plan.window_s / LIVE_INTERVAL_S / 4) * 4)
    mark_ticks = {LIVE_LEAD_TICKS + index * window_ticks
                  for index in range(window_count + 1)}
    ticks = LIVE_LEAD_TICKS + window_count * window_ticks + 4

    sockets = livefeed.open_receive_sockets(LIVE_STREAMS)
    filler = start_idle_filler(cpu)
    try:
        spec = {"mode": "live", "cpu": cpu, "engine": engine, "trace": trace,
                "out_dir": out_dir,
                "egress": [list(sock.getsockname()) for sock in sockets]}
        process, spawned_ns = spawn(spec, interactive=True)
        try:
            ready = json.loads(process.stdout.readline())

            def on_tick(tick: int) -> None:
                if tick in mark_ticks:
                    process.stdin.write("mark\n")
                    process.stdin.flush()

            receiver = livefeed.Receiver(sockets)
            generator = livefeed.Generator(seed, ready["ready"], ticks,
                                           on_tick)
            receiver.start()
            generator.start()
            generator.join()
            process.stdin.write("finish\n")
            process.stdin.flush()
            receiver.finish_by(time.monotonic() + 3.0)
            receiver.join()
            result = collect(process)
        except BaseException:
            process.kill()
            process.wait()
            raise
    finally:
        filler.terminate()
        filler.wait()
        for sock in sockets:
            sock.close()

    windows = live_windows(result["marks"], receiver.arrivals, generator,
                           window_count, window_ticks)
    failures = livefeed.failures(receiver, ticks)
    if not result["completed"] or receiver.streams_ended < LIVE_STREAMS:
        failures["timed_out"] = 1
    child = _setup_fields(result, spawned_ns)
    child["threads"] = max([mark["threads"] for mark in result["marks"]]
                           or [child["threads"]])
    child.update(windows=windows, attempted=ticks * LIVE_STREAMS,
                 failures=failures)
    return child


def repetition(workload: str, seed: int, plan: Plan, cpu, out_dir: str,
               trace: bool = False) -> Dict[str, Any]:
    """Run one child of ``workload``."""
    if loop_kind(workload) == "open":
        return live_repetition(seed, plan, cpu, out_dir, trace)
    return closed_loop_repetition(workload, seed, plan, cpu, out_dir, trace)


# ----------------------------------------------------------------- deriving


#: Per-window sample lists; percentiles are taken over the kept windows'
#: samples pooled (one stalled window is then 1/n of the samples, not a
#: whole vote).
SERIES = (("latency", "latency_ns"),
          ("held_latency", "held_latency_ns"),
          ("generator_lag", "generator_lag_ns"),
          ("splice_add", "splice_add_ns"),
          ("splice_remove", "splice_remove_ns"))
#: Series that measure the harness or a wall-clock schedule, not the proxy's
#: CPU: reported as timed, never scaled by the machine factor.
WALL_CLOCK_SERIES = ("held_latency", "generator_lag", "splice_remove")
PERCENTILES = (("p50", 0.50), ("p90", 0.90), ("p95", 0.95), ("p99", 0.99))


def brackets(windows: Sequence[Dict[str, Any]]) -> List[Tuple[float, float]]:
    """Each window's pair of bracketing calibration readings."""
    return [(w["spin_before"], w["spin_after"]) for w in windows]


def loop_kind(workload: str) -> str:
    """"closed" or "open", from the catalogue."""
    return next(w.loop for w in metrics.WORKLOADS if w.name == workload)


def factor_of(bracket: Sequence[float], kind: str) -> float:
    """The machine factor for one bracketed measurement of a ``kind`` loop."""
    return stats.machine_factor(bracket[0], bracket[1],
                                metrics.CALIBRATION_REFERENCE_NS,
                                metrics.SENSITIVITY[kind])


def window_values(window: Dict[str, Any], kind: str) -> Dict[str, float]:
    """The rate and cost metrics of one window, at reference machine speed.

    An open loop's rates are set by the generator's schedule, not by the
    CPU, so they are reported as timed.
    """
    seconds = window["seconds"]
    cpu_units = window.get("cpu_units", window["source_units"])
    factor = factor_of((window["spin_before"], window["spin_after"]), kind)
    rate_factor = factor if kind == "closed" else 1.0
    values = {"machine_factor": factor}
    if seconds and cpu_units:
        values["throughput_mib_s"] = (window["bytes"] / MIB / seconds
                                      * rate_factor)
        values["packets_per_s"] = (window["source_units"] / seconds
                                   * rate_factor)
        values["cpu_us_per_unit"] = (window["cpu_s"] * 1e6 / cpu_units
                                     / factor)
    if window.get("engine_wakeups"):
        values["wakeups_per_packet"] = window["engine_wakeups"] / cpu_units
    return values


def derive(children: List[Dict[str, Any]], kind: str) -> Dict[str, Any]:
    """Derive every workload metric from the windows of ``children``.

    Only windows whose bracketing calibrations agree count (all of them
    when none does, which ``windows_kept == 0`` then flags).  Timings are
    brought to reference machine speed window by window.  Rates and costs
    are the median over the kept windows; percentiles are taken over the
    kept windows' pooled samples and marked supported when those leave at
    least ten samples beyond.
    """
    windows = [w for child in children for w in child["windows"]]
    passed = stats.select_undisturbed(brackets(windows))
    kept = [windows[i] for i in passed] if passed else windows
    steady = [c for c in children if stats.undisturbed(*c["setup_bracket"])]
    setups = [c["setup_s"] / factor_of(c["setup_bracket"], "closed")
              for c in (steady if len(steady) >= 3 else children)]

    per_window = [window_values(w, kind) for w in kept]
    names = sorted({name for values in per_window for name in values})
    summaries = {name: stats.summarize(values[name] for values in per_window
                                       if name in values) for name in names}
    summaries["setup_s"] = stats.summarize(setups)
    summaries["peak_rss_mib"] = stats.summarize(
        c["peak_rss_mib"] for c in children if c["windows"])
    summaries["calibration_ns"] = stats.summarize(
        (w["spin_before"] + w["spin_after"]) / 2 for w in kept)

    support: Dict[str, bool] = {}
    for prefix, key in SERIES:
        samples = sorted(
            sample / (1.0 if prefix in WALL_CLOCK_SERIES else
                      values["machine_factor"])
            for w, values in zip(kept, per_window) for sample in w.get(key, ()))
        if not samples:
            continue
        for label, q in PERCENTILES:
            name = f"{prefix}_ms_{label}"
            support[name] = stats.percentile_supported(len(samples), q)
            value = stats.percentile(samples, q) / 1e6
            summaries[name] = {"median": value, "q1": value, "q3": value,
                               "n": len(samples)}

    failures: Dict[str, int] = {}
    for child in children:
        for key, count in child["failures"].items():
            failures[key] = failures.get(key, 0) + count
    return {
        "values": {name: summary["median"]
                   for name, summary in summaries.items()},
        "summaries": summaries,
        "supported": support,
        "windows_total": len(windows),
        "windows_kept": len(passed),
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(failures.values()),
        "failures": failures,
    }


class Measurement:
    """The children of one workload in one invocation, and what they add up to."""

    def __init__(self, workload: str, seed: int, plan: Plan, cpu,
                 out_dir: str, trace: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.plan = plan
        self.cpu = cpu
        self.out_dir = out_dir
        self.trace = trace
        self.children: List[Dict[str, Any]] = []
        self.measuring = 0

    def run_child(self, setup_only: bool = False):
        """Run one more child; returns ``(its windows, those that passed)``."""
        plan = self.plan._replace(windows=0) if setup_only else self.plan
        child = repetition(self.workload,
                           self.seed * 1009 + len(self.children), plan,
                           self.cpu, self.out_dir,
                           self.trace and not setup_only)
        self.children.append(child)
        self.measuring += 0 if setup_only else 1
        passed = stats.select_undisturbed(brackets(child["windows"]))
        child["disturbed"] = bool(child["windows"]) and not passed
        return child["windows"], passed

    def finish(self) -> Dict[str, Any]:
        """Run the set-up-only children, then derive the metrics."""
        for _ in range(self.plan.setup_only):
            self.run_child(setup_only=True)
        derived = derive(self.children, loop_kind(self.workload))
        derived["disturbed_reps"] = sum(c["disturbed"] for c in self.children)
        derived["repetitions"] = self.measuring
        traces = [c["trace"] for c in self.children if c.get("trace")]
        if traces:
            derived["trace"] = traces[-1]
        return derived


def measure(workload: str, seed: int, plan: Plan, cpu, out_dir: str,
            trace: bool = False) -> Dict[str, Any]:
    """All repetitions of one workload (with bounded re-runs), derived."""
    measurement = Measurement(workload, seed, plan, cpu, out_dir, trace)
    stats.run_with_retries(measurement.run_child, plan.wanted, plan.children,
                           plan.max_extra)
    return measurement.finish()


# ------------------------------------------------------------------ probes


def run_probe_child(seed: int, cpu, quick: bool) -> Dict[str, float]:
    """The in-process layer probes, in one pinned child."""
    process, _ = spawn({"mode": "probes", "seed": seed, "cpu": cpu,
                        "quick": quick})
    return collect(process)["metrics"]


def live_probes(seed: int, cpu, out_dir: str, quick: bool) -> Dict[str, float]:
    """A short live run per engine: per-packet cost, wake-ups, thread count.

    The event engine's run also supplies the ``live.*`` latency tails and
    the generator's lateness.
    """
    plan = Plan(children=1, windows=1 if quick else 5,
                window_s=0.25 if quick else 0.5, settle_s=0.0)
    out: Dict[str, float] = {}
    for engine in metrics.ENGINES:
        child = live_repetition(seed, plan, cpu, out_dir, False, engine)
        values = derive([child], "open")["values"]
        prefix = f"runtime.{engine}"
        out[f"{prefix}.live_us_per_packet"] = values["cpu_us_per_unit"]
        out[f"{prefix}.wakeups_per_packet"] = values.get(
            "wakeups_per_packet", 0.0)
        out[f"{prefix}.threads"] = child["threads"]
        if engine == "event":
            out["live.latency_ms_p99"] = values["latency_ms_p99"]
            out["live.held_latency_ms_p95"] = values["held_latency_ms_p95"]
            out["live.held_latency_ms_p99"] = values["held_latency_ms_p99"]
            out["harness.generator_lag_ms_p95"] = values[
                "generator_lag_ms_p95"]
    return out


# -------------------------------------------------------------- invocation


def end_to_end_metrics(derived: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The manifest's end-to-end metrics from one workload's derivation."""
    return {m.name: {"value": derived["values"][m.name], "unit": m.unit}
            for m in metrics.END_TO_END}


def trace_overhead(workload: str, untraced: Dict[str, Any],
                   traced: Dict[str, Any]) -> float:
    """How much slower the traced run was (1.0 = no overhead)."""
    if loop_kind(workload) == "open":  # the delivered rate cannot move
        return (traced["values"]["cpu_us_per_unit"]
                / untraced["values"]["cpu_us_per_unit"])
    return (untraced["values"]["throughput_mib_s"]
            / traced["values"]["throughput_mib_s"])


def layer_probes(seed: int, cpu, out_dir: str, quick: bool) -> Dict[str, float]:
    """Every probe-based per-layer metric (no workload involved)."""
    values = run_probe_child(seed, cpu, quick)
    values.update(live_probes(seed, cpu, out_dir, quick))
    return values


def traced_run(workload: str, seed: int, plan: Plan, cpu, out_dir: str,
               untraced: Dict[str, Any]) -> Tuple[Dict[str, float], Dict]:
    """Repeat ``workload`` traced; shares and overhead against ``untraced``.

    Returns ``(per-layer values, the traced derivation)``.
    """
    traced = measure(workload, seed, plan._replace(setup_only=0), cpu,
                     out_dir, trace=True)
    shares = tracing.layer_shares(traced["trace"])
    values = {f"trace.{layer}_share": shares[layer]
              for layer in metrics.LAYERS}
    values["harness.trace_overhead_ratio"] = trace_overhead(
        workload, untraced, traced)
    return values, traced


def harness_health(*derivations: Dict[str, Any]) -> Dict[str, float]:
    """The harness's own per-layer rows, over the given derivations."""
    return {
        "harness.disturbed_reps": sum(d["disturbed_reps"]
                                      for d in derivations),
        "harness.undisturbed_windows": sum(d["windows_kept"]
                                           for d in derivations),
        "calib.spin_ns_per_iter": statistics.median(
            d["values"]["calibration_ns"] for d in derivations),
    }


def print_table(title: str, rows: Sequence[Tuple[str, Any, str, str]]) -> None:
    """name / value / unit / note, aligned."""
    print(f"\n== {title}")
    width = max((len(row[0]) for row in rows), default=0)
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<{width}}  {shown:>12} {unit:<6} {note}".rstrip())


def workload_rows(derived: Dict[str, Any]) -> List[Tuple[str, Any, str, str]]:
    """Table rows for one workload: bounded metrics, then what else it has."""
    rows = []
    values = derived["values"]
    for metric in metrics.END_TO_END:
        summary = derived["summaries"][metric.name]
        note = (f"over {summary['n']} samples"
                if metric.name.startswith("latency_") else
                f"q1 {summary['q1']:.5g}  q3 {summary['q3']:.5g}  "
                f"n {summary['n']}")
        rows.append((metric.name, values[metric.name], metric.unit, note))
    named = {m.name for m in metrics.END_TO_END}
    for name in sorted(values):
        if name in named:
            continue
        unit = ("ms" if "_ms_" in name else "ns" if name.endswith("_ns")
                else "x" if name == "machine_factor" else "count")
        note = "" if derived["supported"].get(name, True) else (
            "(fewer than 10 samples beyond)")
        rows.append((name, values[name], unit, note))
    rows.append(("failed / attempted",
                 f"{derived['failed']} / {derived['attempted']}", "",
                 json.dumps(derived["failures"]) if derived["failed"] else ""))
    rows.append(("undisturbed windows",
                 f"{derived['windows_kept']} / {derived['windows_total']}",
                 "", f"disturbed reps {derived['disturbed_reps']}"))
    return rows


def write_results(out_dir: str, name: str, payload: Dict[str, Any]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def git_sha(root: str) -> str:
    try:
        return subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workloads(names: Sequence[str], seed: int, seconds: float, cpu,
                  out_dir: str, quick: bool) -> Dict[str, Dict[str, Any]]:
    """Measure ``names`` untraced.

    Several workloads are interleaved A B C D A B C D ..., one child of
    each in turn, so each sees every stretch of the session.
    """
    plan = plan_for(seconds, quick)
    if len(names) == 1:
        return {names[0]: measure(names[0], seed, plan, cpu, out_dir)}
    running = {name: Measurement(name, seed, plan, cpu, out_dir)
               for name in names}
    for name in stats.interleave(names, plan.children):
        running[name].run_child()
    return {name: running[name].finish() for name in names}


def traced_invocation(names: Sequence[str], seed: int, seconds: float, cpu,
                      out_dir: str, quick: bool):
    """The driver's ``--trace 1`` form: one workload's per-layer metrics.

    A quarter of the time untraced, a quarter traced (the overhead is the
    ratio of the two), then the probes.
    """
    name, = names
    plan = plan_for(seconds / 4.0, quick)
    untraced = measure(name, seed, plan._replace(setup_only=0), cpu, out_dir)
    layer_values, traced = traced_run(name, seed, plan, cpu, out_dir, untraced)
    layer_values.update(layer_probes(seed, cpu, out_dir, quick))
    layer_values.update(harness_health(untraced, traced))
    untraced["failed"] += traced["failed"]
    untraced["attempted"] += traced["attempted"]
    return {name: untraced}, layer_values


def full_invocation(names: Sequence[str], seed: int, seconds: float, cpu,
                    out_dir: str, quick: bool, trace: bool):
    """Every workload interleaved, the probes once, and (``trace``) one
    traced repetition per workload, its rows keyed by the workload:
    ``trace.<workload>.<layer>_share``, ``harness.trace_overhead_ratio.<workload>``.
    """
    derived = run_workloads(names, seed, seconds, cpu, out_dir, quick)
    layer_values = layer_probes(seed, cpu, out_dir, quick)
    layer_values.update(harness_health(*derived.values()))
    if trace:
        plan = plan_for(seconds / 4.0, quick)
        for name in names:
            values, _ = traced_run(name, seed, plan, cpu, out_dir,
                                   derived[name])
            for key, value in values.items():
                head, _, tail = key.partition(".")
                layer_values[f"trace.{name}.{tail}" if head == "trace"
                             else f"{key}.{name}"] = value
    return derived, layer_values


def selfcheck(names: Sequence[str], seed: int, seconds: float, cpu,
              out_dir: str, quick: bool) -> int:
    """Two sets of runs of the same code must agree within the bounds."""
    first = run_workloads(names, seed, seconds, cpu, out_dir, quick)
    second = run_workloads(names, seed + 1, seconds, cpu, out_dir, quick)
    rows = []
    disagreements = 0
    for name in names:
        for metric in metrics.END_TO_END:
            a = first[name]["values"][metric.name]
            b = second[name]["values"][metric.name]
            worse = max(stats.worsening(a, b, metric.better),
                        stats.worsening(b, a, metric.better))
            agreed = worse <= metric.bound
            disagreements += 0 if agreed else 1
            rows.append((f"{name}.{metric.name}", f"{a:.5g} | {b:.5g}",
                         metric.unit,
                         f"differ {worse:.1%} of bound {metric.bound:.0%}"
                         + ("" if agreed else "  DISAGREE")))
    print_table("selfcheck: two sets of runs of the same code", rows)
    failed = sum(d["failed"] for d in (*first.values(), *second.values()))
    disturbed = sum(d["disturbed_reps"]
                    for d in (*first.values(), *second.values()))
    print(f"\nharness.disturbed_reps {disturbed}; failed units {failed}; "
          f"disagreements {disagreements}")
    write_results(out_dir, "selfcheck.json",
                  {"first": first, "second": second})
    return 1 if disagreements or failed else 0


def main(argv: Sequence[str], out_dir: str) -> int:
    parser = argparse.ArgumentParser(prog="proxybench", description=__doc__)
    parser.add_argument("--workload", choices=metrics.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS,
                        help="seconds of measuring per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also run traced and report per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: one short repetition of everything")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two sets and fail if they disagree")
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from metrics.py")
    args = parser.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.dirname(RUN_PY)))
    if args.write_manifest:
        with open(os.path.join(root, "BENCHMARK.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(metrics.manifest(), handle, indent=2)
            handle.write("\n")
        return 0

    harness_cpu, child_cpu = pick_cpus()
    if harness_cpu is not None:
        os.sched_setaffinity(0, {harness_cpu})
    names = [args.workload] if args.workload else list(metrics.WORKLOAD_NAMES)
    if args.selfcheck:
        return selfcheck(names, args.seed, args.seconds, child_cpu, out_dir,
                         args.quick)

    started = time.time()
    units = {m.name: m.unit for m in metrics.PER_LAYER}
    layer_values: Dict[str, float] = {}
    run = (names, args.seed, args.seconds, child_cpu, out_dir, args.quick)
    if args.workload and args.trace:
        derived, layer_values = traced_invocation(*run)
    elif args.workload:
        derived = run_workloads(*run)
    else:
        derived, layer_values = full_invocation(*run, trace=bool(args.trace))
        units.update({key: "ratio" for key in layer_values
                      if key not in units})

    for name in names:
        print_table(f"{name} (seed {args.seed})", workload_rows(derived[name]))
    if layer_values:
        print_table("per-layer", [(key, value, units[key], "")
                                  for key, value in layer_values.items()])

    attempted = sum(d["attempted"] for d in derived.values())
    failed = sum(d["failed"] for d in derived.values())
    write_results(out_dir, "results.json", {
        "git_sha": git_sha(root), "seed": args.seed,
        "seconds": args.seconds, "quick": args.quick,
        "elapsed_s": time.time() - started,
        "cpus": {"harness": harness_cpu, "child": child_cpu},
        "workloads": derived, "per_layer": layer_values,
    })

    if args.workload and args.trace:
        line_values = {m.name: {"value": layer_values[m.name], "unit": m.unit}
                       for m in metrics.PER_LAYER}
    elif args.workload:
        line_values = end_to_end_metrics(derived[args.workload])
    else:
        line_values = {f"{name}.{key}": value for name in names
                       for key, value in
                       end_to_end_metrics(derived[name]).items()}
    print()
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": line_values}))
    return 0 if failed == 0 else 1
