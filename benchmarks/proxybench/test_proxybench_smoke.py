"""Smoke test: the whole benchmark runs quickly, cleanly and to contract."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

from . import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_PY = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _tree(path: str) -> dict:
    """relative path -> mtime for every file under ``path`` we must not touch."""
    found = {}
    for folder, dirs, files in os.walk(path):
        dirs[:] = [d for d in dirs if d not in ("out", "__pycache__",
                                                ".pytest_cache")]
        for name in files:
            full = os.path.join(folder, name)
            found[os.path.relpath(full, path)] = os.stat(full).st_mtime_ns
    return found


def test_quick_run_covers_everything_and_writes_only_under_out():
    before = _tree(os.path.join(ROOT, "benchmarks"))
    started = time.monotonic()
    done = subprocess.run([sys.executable, RUN_PY, "--quick", "--seed", "5"],
                          capture_output=True, text=True, timeout=120,
                          cwd=ROOT)
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert elapsed < 20.0, f"--quick took {elapsed:.1f} s"

    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    for workload in metrics.WORKLOAD_NAMES:
        for metric in metrics.END_TO_END:
            value = result["metrics"][f"{workload}.{metric.name}"]
            assert value["unit"] == metric.unit
            assert value["value"] > 0, (workload, metric.name)
    # Every metric is printed by name with its unit, the layer probes too.
    for metric in metrics.PER_LAYER:
        if not metric.name.startswith(("trace.", "harness.trace_")):
            assert re.search(rf"^\s+{re.escape(metric.name)}\s", done.stdout,
                             re.MULTILINE), metric.name

    assert _tree(os.path.join(ROOT, "benchmarks")) == before
    assert os.path.isfile(os.path.join(HERE, "out", "results.json"))
    with open(os.path.join(HERE, ".gitignore"), encoding="utf-8") as handle:
        assert "out/" in handle.read().split()


def test_manifest_is_the_catalogue_and_within_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert manifest == metrics.manifest()
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/proxybench"]
    assert manifest["command"][1].startswith(manifest["paths"][0] + "/")
    assert 1 <= manifest["run_seconds"] <= 60

    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = ([w["name"] for w in manifest["workloads"]]
             + [m["name"] for m in manifest["end_to_end"]]
             + [m["name"] for m in manifest["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in (
            "lower", "higher")
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in manifest["end_to_end"])


def test_every_layer_metric_names_the_end_to_end_metric_it_should_move():
    end_to_end = {m.name for m in metrics.END_TO_END}
    no_target_allowed = ("calib.", "harness.", "trace.", "cluster.")
    for metric in metrics.PER_LAYER:
        if metric.target is None:
            assert (metric.name.startswith(no_target_allowed)
                    or metric.name.endswith((".lost_chunks", ".threads",
                                             "udp_kernel_drops"))), metric.name
            continue
        target_metric, target_workload = metric.target
        assert target_metric in end_to_end, metric.name
        assert target_workload in metrics.WORKLOAD_NAMES, metric.name


def test_without_the_program_the_benchmark_refuses_to_report(tmp_path):
    """In a directory holding only the benchmark there is nothing to measure."""
    import shutil

    target = tmp_path / "benchmarks" / "proxybench"
    shutil.copytree(HERE, target, ignore=shutil.ignore_patterns(
        "out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, str(target / "run.py"), "--workload", "bulk_chain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
