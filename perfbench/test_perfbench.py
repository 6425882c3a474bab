"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402

run.pin_blas_threads()

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from shallowid import net_core  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _fingerprint(value):
    """Comparable form of an op's inputs (networks, arrays, numbers)."""

    if isinstance(value, net_core.ShallowNet):
        return json.dumps(net_core.net_to_json_obj(value), sort_keys=True)
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, dict):
        return {k: _fingerprint(v) for k, v in value.items()}
    return value


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_generation_is_deterministic_for_a_seed(name):
    wl = workloads.WORKLOADS[name]
    first = workloads.make_cycle(wl, 7, 1, 0)
    again = workloads.make_cycle(wl, 7, 1, 0)
    other = workloads.make_cycle(wl, 8, 1, 0)
    assert [op.props for op in first] == [op.props for op in again]
    assert [_fingerprint(op.inputs) for op in first] == \
        [_fingerprint(op.inputs) for op in again]
    assert [_fingerprint(op.inputs) for op in first] != \
        [_fingerprint(op.inputs) for op in other]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_cycle_has_the_same_shapes(name):
    wl = workloads.WORKLOADS[name]
    shapes = lambda ops: [op.props for op in ops]  # noqa: E731
    assert shapes(workloads.make_cycle(wl, 7, 0, 0)) == \
        shapes(workloads.make_cycle(wl, 7, 1, 0)) == shapes(workloads.make_cycle(wl, 8, 5, 0))


def test_tiny_budget_fails_the_op_in_process():
    wl = dataclasses.replace(workloads.WORKLOADS["relu_id_highd"], budget_s=1e-3)
    op = workloads.make_cycle(wl, 3, 0, 0)[2]   # a (4, 6) op: far above 1 ms
    threads = threading.active_count()
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        record = run._normalised(run._run_op(wl, op, Tracer(), None, 1.0), wl, 1.0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert record["outcome"] == "budget"
    assert record["counted_ms"] == 1.0
    assert threading.active_count() == threads
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_failed_check_marks_the_op_wrong():
    wl = dataclasses.replace(workloads.WORKLOADS["relu_decide"],
                             check=lambda inputs, result: "forced mismatch")
    op = workloads.make_cycle(wl, 3, 0, 0)[0]
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        record = run._normalised(run._run_op(wl, op, Tracer(), None, 1.0), wl, 2.0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert record["outcome"] == "wrong" and record["detail"] == "forced mismatch"
    assert record["norm_ms"] == record["latency_ms"] / 2.0
    assert record["counted_ms"] == wl.budget_s * 1000.0


def test_budget_scales_with_host_slowness():
    wl = dataclasses.replace(workloads.WORKLOADS["relu_decide"], budget_s=0.05)
    op = workloads.make_cycle(wl, 3, 0, 0)[6]   # a ("k1_2", 10) op: about 1 s
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        fast = run._run_op(wl, op, Tracer(), None, 1.0)
        slow = run._run_op(wl, op, Tracer(), None, 100.0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert fast["outcome"] == "budget" and slow["outcome"] == "ok"


def test_library_error_fails_the_op():
    seconds, outcome, result, detail = run.timed_call(
        lambda: workloads.si.reconstruct(None), 5.0)
    assert outcome == "AttributeError" and result is None


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_smoke_run_nests_spans_inside_their_op(name):
    result = run.run_workload(name, seed=5, seconds=0, trace=True, max_ops=2)
    assert result["summary"] == {"correct": True, "attempted": 2, "failed": 0}
    assert set(result["per_layer"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    spans = result["spans"]
    ops = {s["op"]: s for s in spans if s["name"] == "op"}
    assert sorted(ops) == [0, 1]
    for s in spans:
        assert s["end"] is not None and s["start"] <= s["end"]
        if s["name"] == "op":
            assert s["parent"] is None
            continue
        op = ops[s["op"]]
        assert spans[s["parent"]] is op
        assert op["start"] <= s["start"] and s["end"] <= op["end"]
    assert len(spans) > len(ops)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_untraced_smoke_run_reports_every_end_to_end_metric(name):
    result = run.run_workload(name, seed=6, seconds=0, trace=False, max_ops=2)
    assert result["summary"]["correct"] and result["summary"]["attempted"] == 2
    assert result["spans"] is None and result["per_layer"] is None
    metrics = result["end_to_end"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for m in BENCHMARK["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0
    assert [r["op"] for r in result["records"]] == [0, 1]
    assert all(r["outcome"] == "ok" for r in result["records"])
    assert all(r["counted_ms"] == r["norm_ms"] == r["latency_ms"] / r["host_slowness"]
               for r in result["records"])
    assert len(result["setup_samples_s"]) == run.SETUP_REPEATS
    env = result["environment"]
    assert env["seed"] == 6 and env["budget_s"] == workloads.WORKLOADS[name].budget_s
    assert all(int(v) <= env["nproc"] for v in env["blas_threads"].values())


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "relu_decide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
