"""The pinned child process: one repetition of one workload (or the probes).

``run.py --child <spec>`` lands here after it has pinned itself and taken
the first calibration spin — both before ``repro`` is imported, so set-up
time is measured on a process already on its CPU.  The child prints one
JSON object on its last line of standard output; the harness process reads
nothing else from it.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from . import tracing
from .spin import spin_ns_per_iter
from .workloads import CLOSED_LOOP, LiveProxy, peak_rss_mib


def _start_tracer(spec: Dict[str, Any]) -> Optional[tracing.Tracer]:
    """An installed tracer when the spec asks for a traced repetition."""
    if not spec.get("trace"):
        return None
    tracer = tracing.Tracer()
    tracer.install()
    return tracer


def _finish_tracer(tracer: Optional[tracing.Tracer], spec: Dict[str, Any],
                   workload: str, result: Dict[str, Any]) -> None:
    """Uninstall, add the summary to ``result`` and write the trace file."""
    if tracer is None:
        return
    tracer.uninstall()
    result["trace"] = tracer.summary()
    tracer.dump(os.path.join(spec["out_dir"], f"trace_{workload}.json"),
                workload)


def run_closed_loop(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Set up one closed-loop workload, measure its windows, verify it."""
    tracer = _start_tracer(spec)
    gate = threading.Event()
    run = CLOSED_LOOP[spec["workload"]](spec["seed"], gate)
    started_ns = time.perf_counter_ns()
    sink = run.sink

    spins = [spin_ns_per_iter()]
    windows: List[Dict[str, Any]] = []
    for _ in range(spec["windows"]):
        gate.set()
        time.sleep(spec["settle_s"])
        if tracer:
            tracer.start_window()
        sink.recording = True
        before = run.snapshot()
        time.sleep(spec["window_s"])
        after = run.snapshot()
        sink.recording = False
        if tracer:
            tracer.end_window()
        gate.clear()
        run.quiesce()
        spins.append(spin_ns_per_iter())
        window = {
            "spin_before": spins[-2],
            "spin_after": spins[-1],
            "seconds": (after[0] - before[0]) / 1e9,
            "cpu_s": (after[1] - before[1]) / 1e9,
            "units": after[2] - before[2],
            "bytes": after[3] - before[3],
            "source_units": after[4] - before[4],
        }
        window["latency_ns"] = sink.take_samples()
        window.update(run.window_extras())
        windows.append(window)

    threads = threading.active_count()
    outcome = run.finish()
    result = {
        "started_ns": started_ns,
        "spin_after_setup": spins[0],
        "windows": windows,
        "attempted": outcome["attempted"],
        "failures": outcome["failures"],
        "peak_rss_mib": sink.rss_mib or peak_rss_mib(),
        "threads": threads,
    }
    _finish_tracer(tracer, spec, spec["workload"], result)
    return result


def run_live(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Host the live proxy; the harness process drives it over UDP.

    Protocol on stdin/stdout: this side prints ``{"ready": ...}`` once the
    streams are started, answers each ``mark`` line by recording clocks and
    a calibration spin, and on ``finish`` waits for every stream's
    end-of-stream before printing the result.
    """
    tracer = _start_tracer(spec)
    proxy = LiveProxy(spec["egress"], spec.get("engine", "event"))
    started_ns = time.perf_counter_ns()
    spin_after_setup = spin_ns_per_iter()
    print(json.dumps({"ready": proxy.ingest_addresses}), flush=True)

    marks: List[Dict[str, Any]] = []
    for line in sys.stdin:
        command = line.strip()
        if command == "mark":
            if tracer:
                tracer.end_window()
            cpu_before = time.process_time_ns()
            spin = spin_ns_per_iter()
            marks.append({
                "cpu_before_ns": cpu_before,
                "cpu_after_ns": time.process_time_ns(),
                "spin": spin,
                "threads": threading.active_count(),
                "engine": proxy.engine_counters(),
            })
            if tracer:
                tracer.start_window()
        elif command == "finish":
            break
    if tracer:
        tracer.end_window()
    completed = proxy.wait_complete(10.0)
    threads = threading.active_count()
    proxy.shutdown()
    result = {
        "started_ns": started_ns,
        "spin_after_setup": spin_after_setup,
        "marks": marks,
        "completed": completed,
        "peak_rss_mib": peak_rss_mib(),
        "threads": threads,
    }
    _finish_tracer(tracer, spec, "live_udp_fanin", result)
    return result


def run_probes(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run the per-layer probes (imported late: they pull in every layer)."""
    from . import probes

    return probes.run_all(spec)


MODES = {"closed": run_closed_loop, "live": run_live, "probes": run_probes}


def main(spec: Dict[str, Any], first_spin: float, spin_seconds: float) -> int:
    """Run the mode the spec names and print its result as one JSON line."""
    result = MODES[spec["mode"]](spec)
    result["first_spin"] = first_spin
    result["first_spin_seconds"] = spin_seconds
    print(json.dumps(result))
    return 0
