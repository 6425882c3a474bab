"""Benchmark runner for shallowid: one workload per process, one client in a
closed loop (the next op starts when the previous one returns).

    python3 perfbench/run.py --workload relu_id_lowd --seed 1 --seconds 25 --trace 0

Run it from the repository root; it imports the package from ``src/`` of the
same tree and never patches it.  An op fails when it raises, runs past the
workload's budget or gives a wrong answer; failed ops are counted, never
skipped or redrawn, and count at the budget in the latency figures.  Output
checks run outside the timed interval.

Times are host-speed normalised.  The speed of a shared virtual host can
swing by half within seconds, and for minutes at a time, which no run length
averages out.  So a fixed reference kernel (``REFERENCE_KERNELS``) is timed
between every two ops, and an op's wall time is divided by the host's
slowness around it: the mean of the kernel's times just before and after the
op, over the kernel's nominal time.  Slow phases slow interpreter-bound code
more than array-bound code, so each workload names the kernel whose kind of
work its ops do.  The kernels never call the library, so a change to the
library moves the normalised times in full.  The budget (in the same
normalised seconds) is scaled by the slowness measured just before the op and
enforced by a one-shot interval timer in this process.

``--trace 0`` reports the end-to-end metrics:

    ops_per_s        ops attempted / the normalised time inside the timed ops
    latency_p50_ms   median normalised op latency, failed ops at the budget
    latency_tail_ms  the workload's tail percentile (``Workload.tail_pct``)
    setup_s          median over SETUP_REPEATS fresh processes of the
                     normalised time from process start to the first timed
                     op: imports, generating the first cycle, one warm-up op
    peak_rss_mb      peak resident memory of this process

``--trace 1`` reports the per-layer metrics (raw wall seconds) from spans the
benchmark records around its own calls into the library.  The last line of
stdout is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
``correct`` is false when any op returned a wrong answer.  The environment,
one record per op and (when traced) every span are written to ``.bench_out/``
in the repository root.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up is timed from here, before numpy is imported

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("relu_id_lowd", "relu_id_highd", "relu_decide", "cli_session")

CLI_ANALYTIC = {"plan-analytic": "analytic_id.build_analytic_plan",
                "verify-analytic": "analytic_id.verify_identification",
                "expsum": "analytic_id.exp_sum_expansion"}


class BudgetExceeded(BaseException):
    """Raised by the interval timer; a BaseException so that no library
    handler for ordinary errors can swallow it."""


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def timed_call(fn, budget_s: float):
    """Run ``fn()`` under a wall-clock budget.

    Returns (seconds, outcome, result, detail); outcome is None on a normal
    return, ``"budget"`` when the timer fired, else the exception type name.
    """

    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget_s)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        return time.perf_counter() - start, "budget", None, ""
    except Exception as exc:  # noqa: BLE001 - any library error fails the op
        return time.perf_counter() - start, type(exc).__name__, None, str(exc)[:300]
    return time.perf_counter() - start, None, result, ""


def _interpreter_kernel(np) -> None:
    """Interpreter arithmetic, small dense numpy products and
    factorisations, and small containers: the reducibility search and the
    CLI spend their time on work like this."""

    acc = 0
    for i in range(15_000):
        acc += i * i % 7
    a = np.ones((6, 6))
    rng = np.random.default_rng(0)
    for i in range(150):
        a = np.abs(a @ a) * 0.01 + 1.0
        q, r = np.linalg.qr(rng.normal(size=(4, 3)))
        acc += len({"i": i, "shapes": [q.shape, r.shape]})


def _array_kernel(np) -> None:
    """Distances from a fixed 400-point cloud to the lines through 2048 of
    its point pairs, with several-megabyte temporaries: relu identification
    spends its time on array work like this (the sample plan's collinearity
    check)."""

    rng = np.random.default_rng(0)
    pts = rng.uniform(-3.0, 3.0, size=(400, 3))
    pairs = rng.integers(0, 400, size=(2048, 2))
    anchors = pts[pairs[:, 0]]
    unit = pts[pairs[:, 1]] - anchors
    unit /= np.linalg.norm(unit, axis=1, keepdims=True) + 1.0
    dist2 = (np.einsum("nd,nd->n", pts, pts)[:, None] - 2.0 * (pts @ anchors.T)
             + np.einsum("bd,bd->b", anchors, anchors)[None, :])
    along = pts @ unit.T
    np.sum(np.maximum(dist2 - along * along, 0.0) <= 1e-3)


# name -> (kernel, nominal seconds).  The nominal time is about the kernel's
# time on a 2-vCPU Xeon (Sapphire Rapids) KVM guest when the host runs at its
# fastest; it sets only the scale of the reported times.
REFERENCE_KERNELS = {"interpreter": (_interpreter_kernel, 0.005),
                     "array": (_array_kernel, 0.017)}


def host_slowness(kernel: str) -> float:
    """How much slower than nominal the host runs ``kernel`` right now
    (1 = nominal).  The kernels never call the library."""

    import numpy as np

    fn, nominal_s = REFERENCE_KERNELS[kernel]
    start = time.perf_counter()
    fn(np)
    return (time.perf_counter() - start) / nominal_s


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_blas_threads() -> None:
    """Default every BLAS thread variable to 1 and cap it at nproc; must run
    before numpy is imported."""

    cap = _nproc()
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, "1"))
        except ValueError:
            wanted = 1
        os.environ[var] = str(max(1, min(wanted, cap)))


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(seed: int, budget_s: float) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "nproc": _nproc(), "machine": platform.machine(),
            "git_commit": _git_commit(), "seed": seed, "budget_s": budget_s}


def set_up(name: str, seed: int, workdir: str):
    """Import the package, generate the first cycle and run its first op
    once, untimed.  Returns the workload and the first cycle's ops."""

    import workloads
    from tracer import NullTracer

    wl = workloads.WORKLOADS[name]
    ops = workloads.make_cycle(wl, seed, 0, 0)
    warm = ops[0]
    if wl.prepare:
        wl.prepare(warm.inputs, workdir)
    timed_call(lambda: wl.run(warm.inputs, NullTracer()), wl.budget_s)
    return wl, ops


def _setup_seconds_here(name: str, seed: int) -> float:
    """Normalised time from this process's start to the end of ``set_up``;
    meant for a fresh process (``--setup-only``)."""

    signal.signal(signal.SIGALRM, _on_alarm)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"setup-{name}-", dir=OUT_DIR)
    try:
        wl, _ = set_up(name, seed, workdir)
        elapsed = time.perf_counter() - START
    finally:
        _remove_dir(workdir)
    return elapsed / host_slowness(wl.kernel)


def _setup_seconds_fresh(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed",
         str(seed), "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout.split()[-1])


def _remove_dir(path: str) -> None:
    for leftover in os.listdir(path):
        os.unlink(os.path.join(path, leftover))
    os.rmdir(path)


def _percentile(values, pct: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), pct))


def layer_metrics(tracer) -> dict:
    """Every per-layer metric, zero for layers the workload does not reach."""

    from workloads import CLI_SUBCOMMANDS

    totals = tracer.totals()
    seconds = lambda name: totals.get(name, (0.0, 0))[0]  # noqa: E731
    calls = lambda name: totals.get(name, (0.0, 0))[1]  # noqa: E731
    c = tracer.counters
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    put("relu_sampling.build_sample_plan.s", seconds("relu_sampling.build_sample_plan"), "s")
    put("relu_sampling.build_sample_plan.calls", calls("relu_sampling.build_sample_plan"),
        "count")
    put("relu_sampling.build_sample_plan.points",
        int(c.get("relu_sampling.build_sample_plan.points", 0)), "count")
    for name in ("build_feasible_lines", "reconstruct", "extract_breakpoints",
                 "recover_hyperplanes", "sample_values"):
        put(f"relu_sampling.{name}.s", seconds(f"relu_sampling.{name}"), "s")
    put("relu_sampling.reconstruct.orientation_s",
        c.get("relu_sampling.reconstruct.orientation_s", 0.0), "s")
    put("net_core.group.s", seconds("net_core.group"), "s")
    put("relu_structure.test_reducible.s", seconds("relu_structure.test_reducible"), "s")
    tests = calls("relu_structure.test_reducible")
    put("relu_structure.test_reducible.witness_ratio",
        c.get("relu_structure.test_reducible.witnesses", 0) / tests if tests else 0.0, "1")
    put("relu_structure.reduce_fully.s", seconds("relu_structure.reduce_fully"), "s")
    put("relu_structure.reduce_fully.neurons_removed",
        int(c.get("relu_structure.reduce_fully.neurons_removed", 0)), "count")
    put("relu_structure.test_equivalent.s", seconds("relu_structure.test_equivalent"), "s")
    put("relu_adversary.build_pair.s", seconds("relu_adversary.build_pair"), "s")
    for sub in CLI_SUBCOMMANDS:
        put(f"cli.{sub}.s", seconds(f"cli.{sub}"), "s")
    for sub, lib in CLI_ANALYTIC.items():
        put(f"cli.{sub}.self_s", seconds(f"cli.{sub}") - seconds(lib), "s")
    put("cli.bytes_written", int(c.get("cli.bytes_written", 0)), "B")
    for lib in CLI_ANALYTIC.values():
        put(f"{lib}.s", seconds(lib), "s")
    return out


def end_to_end_metrics(wl, records: list[dict], setups: list[float]) -> dict:
    latencies = [r["counted_ms"] for r in records]
    busy_s = sum(r["norm_ms"] for r in records) / 1000.0
    return {
        "ops_per_s": {"value": len(records) / busy_s, "unit": "ops/s"},
        "latency_p50_ms": {"value": _percentile(latencies, 50), "unit": "ms"},
        "latency_tail_ms": {"value": _percentile(latencies, wl.tail_pct), "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 max_ops: int | None = None) -> dict:
    """Set up, then run whole cycles of ``name`` until ``seconds`` have
    passed (or ``max_ops`` ops have run).  Returns the full result."""

    import workloads
    from tracer import NullTracer, Tracer

    # set-up is an end-to-end metric, so the traced run skips measuring it
    setups = [] if trace else [_setup_seconds_fresh(name, seed)
                               for _ in range(SETUP_REPEATS)]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        wl, ops = set_up(name, seed, workdir)
        tracer = Tracer() if trace else NullTracer()
        records = []
        slowness = host_slowness(wl.kernel)
        began = time.perf_counter()
        cycle = 0
        # whole cycles only, so every run measures the stated mix: the last
        # cycle starts before ``seconds`` have passed and runs to its end
        while True:
            for op in ops:
                if max_ops is not None and len(records) >= max_ops:
                    break
                record = _run_op(wl, op, tracer, workdir, slowness)
                after = host_slowness(wl.kernel)
                records.append(_normalised(record, wl, (slowness + after) / 2.0))
                slowness = after
            cycle += 1
            if time.perf_counter() - began >= seconds or (
                    max_ops is not None and len(records) >= max_ops):
                break
            ops = workloads.make_cycle(wl, seed, cycle, len(records))
    finally:
        signal.signal(signal.SIGALRM, previous)
        _remove_dir(workdir)

    failed = sum(r["outcome"] != "ok" for r in records)
    result = {
        "workload": name, "trace": bool(trace), "cycles": cycle,
        "tail_percentile": wl.tail_pct, "fail_ratio": failed / len(records),
        "setup_samples_s": setups,
        "host_slowness_median": statistics.median(r["host_slowness"] for r in records),
        "environment": environment(seed, wl.budget_s),
        "end_to_end": None if trace else end_to_end_metrics(wl, records, setups),
        "per_layer": layer_metrics(tracer) if trace else None,
        "records": records,
        "spans": tracer.to_json_obj() if trace else None,
        "summary": {"correct": not any(r["outcome"] == "wrong" for r in records),
                    "attempted": len(records), "failed": failed},
    }
    return result


def _run_op(wl, op, tracer, workdir, slowness: float) -> dict:
    """Run one op with its budget scaled by the host's current ``slowness``,
    then check its answer.  ``latency_ms`` is raw wall time."""

    if wl.prepare:
        wl.prepare(op.inputs, workdir)
    tracer.op_id = op.index
    with tracer.span("op"):
        elapsed, outcome, result, detail = timed_call(
            lambda: wl.run(op.inputs, tracer), wl.budget_s * slowness)
        if outcome is None and tracer.enabled:
            wl.retrace(op.inputs, result, tracer)
    tracer.op_id = None
    if outcome is None:
        try:
            detail = wl.check(op.inputs, result) or ""
        except Exception as exc:  # noqa: BLE001 - a check that cannot run fails the op
            detail = f"check raised {type(exc).__name__}: {exc}"
        outcome = "wrong" if detail else "ok"
    return {"op": op.index, "cycle": op.cycle, **op.props,
            "latency_ms": elapsed * 1000.0, "outcome": outcome, "detail": detail}


def _normalised(record: dict, wl, slowness: float) -> dict:
    """Add the op's normalised time and the time it counts at in the latency
    figures: a failed op counts at the budget."""

    record["host_slowness"] = slowness
    record["norm_ms"] = record["latency_ms"] / slowness
    record["counted_ms"] = (record["norm_ms"] if record["outcome"] == "ok"
                            else wl.budget_s * 1000.0)
    return record


def _report(result: dict, seed: int) -> None:
    name = result["workload"]
    path = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(result['trace'])}.json")
    if result["trace"]:
        untraced = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace0.json")
        if os.path.exists(untraced):
            with open(untraced, encoding="utf-8") as handle:
                base = json.load(handle)["records"]
            # the same seed gives the same ops; compare the ones both runs reached
            n = min(len(base), len(result["records"]))
            total = lambda recs: sum(r["norm_ms"] for r in recs[:n])  # noqa: E731
            result["trace_overhead"] = total(result["records"]) / total(base) - 1.0
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)

    print("environment " + json.dumps(result["environment"], sort_keys=True))
    metrics = result["per_layer"] if result["trace"] else result["end_to_end"]
    for key, m in metrics.items():
        print(f"{key:48s} {m['value']:.6g} {m['unit']}")
    summary = result["summary"]
    print(f"ops {summary['attempted']} in {result['cycles']} cycles, failed "
          f"{summary['failed']} (fail_ratio {result['fail_ratio']:.4f}), tail = "
          f"p{result['tail_percentile']}, correct {summary['correct']}, host slowness "
          f"{result['host_slowness_median']:.3f}")
    by_reason = collections.Counter(
        f"{r['outcome']} [" + ",".join(f"{k}={r[k]}" for k in ("d", "m", "kind") if k in r)
        + "]" for r in result["records"] if r["outcome"] != "ok")
    for reason, n in sorted(by_reason.items()):
        print(f"failed: {n} x {reason}")
    if "trace_overhead" in result:
        print(f"tracing overhead vs the untraced run: {100 * result['trace_overhead']:+.1f}%")
    print(f"records written to {os.path.relpath(path, ROOT)}")
    print(json.dumps({**summary, "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this fresh process, print it and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "shallowid", "__init__.py")):
        print(f"shallowid sources not found under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path[:0] = [SRC, HERE]
    if args.setup_only:
        print(_setup_seconds_here(args.workload, args.seed))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _report(result, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
