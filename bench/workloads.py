"""Workloads, correctness checks and metrics of the fput2d benchmark.

Each workload is a closed loop with one client in one process: the next
operation (one `run_single` or one `run_sweep`, plus serialising its output)
starts when the previous one finishes.  `run.py` is the command-line entry.
"""

from __future__ import annotations

import contextlib
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from fput2d import harness
from fput2d.harness import ExperimentPlan

from spans import LAYERS, Tracer, dump_spans, self_times

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH_DIR / "reference.json"
DEFAULT_SEED = 2026
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "single" (one run_single) or "sweep" (one run_sweep)
    plan: dict
    eps: float | None = None


WORKLOADS = {
    w.name: w for w in (
        # envelope solve and ansatz sampling dominate; lattice ~27 %
        Workload("strain_eps0.2", "single", {"variant": "strain"}, eps=0.2),
        # the only workload through the process pool and the order fit
        Workload("sweep_displacement", "sweep",
                 {"variant": "displacement", "eps_list": (0.25, 0.2, 0.16)}),
    )
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "nls.evolve_s": "s",
    "nls.steps": "count",
    "nls.step_ms": "ms",
    "nls.self_s": "s",
    "ansatz.initial_data_s": "s",
    "ansatz.sample_s": "s",
    "ansatz.sample_calls": "count",
    "ansatz.sample_ms": "ms",
    "ansatz.residual_s": "s",
    "ansatz.residual_calls": "count",
    "ansatz.self_s": "s",
    "lattice.integrate_self_s": "s",
    "lattice.steps": "count",
    "lattice.force_evals": "count",
    "lattice.force_s": "s",
    "lattice.step_us": "us",
    "lattice.site_updates_per_s": "1/s",
    "lattice.diag_s": "s",
    "lattice.self_s": "s",
    "harness.call_s": "s",
    "harness.worker_busy_s": "s",
    "harness.pool_idle_frac": "ratio",
    "harness.report_bytes": "bytes",
    "harness.self_s": "s",
    "dispersion.coeffs_ms": "ms",
    "dispersion.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def build_plan(workload: Workload, seed: int) -> ExperimentPlan:
    """The plan of one operation; the benchmark seed becomes plan.seed."""
    return ExperimentPlan(**plan_kwargs(workload, seed))


def plan_kwargs(workload: Workload, seed: int) -> dict:
    return {**workload.plan, "seed": seed, "workers": 2}


def load_reference(path: Path = REFERENCE_FILE) -> dict:
    return json.loads(path.read_text())


# --------------------------------------------------------------- operations

def run_operation(workload: Workload, plan: ExperimentPlan):
    """One operation through the public API; returns (output, records, bytes).

    Calls go through the module attribute so that the tracer's wrappers apply.
    """
    if workload.kind == "single":
        out = harness.run_single(plan, workload.eps)
        records = [out]
    else:
        out = harness.run_sweep(plan)
        records = out["per_eps"]
    return out, records, len(harness.report_to_json(out).encode())


def non_finite(value, path="$"):
    """Paths of every NaN or infinite number inside a JSON-like value."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from non_finite(v, f"{path}.{k}")
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield from non_finite(v, f"{path}[{i}]")
    elif isinstance(value, (float, np.floating)) and not math.isfinite(value):
        yield path


def check(workload: Workload, plan: ExperimentPlan, out, records, reference) -> list[str]:
    """Reasons to reject one operation's output; empty when it is correct."""
    problems = [f"non-finite value at {p}" for p in non_finite(out)]
    for r in records:
        if not r["error_over_eps2"] <= plan.error_over_eps2_bound:
            problems.append(f"eps={r['eps']}: error/eps^2 = {r['error_over_eps2']} "
                            f"exceeds {plan.error_over_eps2_bound}")
    if workload.kind == "sweep":
        order = out["fitted_order"]
        if not (out["pass"] and order is not None and order >= plan.pass_threshold):
            problems.append(f"sweep failed: pass={out['pass']} fitted_order={order}")
    # plan.seed feeds only the perturbed force law, which no workload uses,
    # so the reference holds at every seed
    expected = reference["max_sup_error"][workload.name]
    tol = reference["rel_tol"]
    for r in records:
        want = expected[repr(float(r["eps"]))]
        if not abs(r["max_sup_error"] - want) <= tol * abs(want):
            problems.append(f"eps={r['eps']}: max_sup_error {r['max_sup_error']!r} "
                            f"differs from reference {want!r} by more than {tol:.0%}")
    return problems


# ------------------------------------------------------------ measurements

def _vm_hwm_kb(pid: int) -> int:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


@contextlib.contextmanager
def pool_peaks(sink: list):
    """Append, per sweep, the summed peak RSS (kB) of the pool's workers.

    Workers are read just before the pool shuts them down, when each has
    reached its peak.  Shared copy-on-write pages count in every worker.
    """

    class RecordingPool(ProcessPoolExecutor):
        def shutdown(self, *args, **kwargs):
            sink.append(sum(_vm_hwm_kb(p.pid) for p in multiprocessing.active_children()))
            super().shutdown(*args, **kwargs)

    original = harness.ProcessPoolExecutor
    harness.ProcessPoolExecutor = RecordingPool
    try:
        yield
    finally:
        harness.ProcessPoolExecutor = original


SETUP_CODE = (
    "import json, sys\n"
    "import fput2d.cli\n"
    "from fput2d.harness import ExperimentPlan\n"
    "kw = json.loads(sys.argv[1])\n"
    "ExperimentPlan(**{k: tuple(v) if isinstance(v, list) else v for k, v in kw.items()})\n"
)


def measure_setup(kwargs: dict, src: Path, repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall seconds from a fresh interpreter to fput2d.cli imported and the plan built."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", SETUP_CODE, json.dumps(kwargs)]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=src.parent, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def envelope_steps(plan: ExperimentPlan) -> int:
    """Split steps of one envelope solve, counted as `nls.evolve` takes them."""
    t, steps = 0.0, 0
    for target in np.linspace(0.0, plan.t0, plan.sample_count):
        span = float(target) - t
        if span > 1e-14:
            steps += max(1, int(np.ceil(span / plan.dt_slow - 1e-12)))
            t = float(target)
    return steps


def lattice_steps(record: dict) -> int:
    """Verlet steps of one run, from its dt and sample times as `integrate` takes them."""
    t, steps = 0.0, 0
    for target in record["times"]:
        span = target - t
        if span > 1e-12:
            steps += max(1, int(np.ceil(span / record["dt"] - 1e-12)))
        t = target
    return steps


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, workload: Workload, plan: ExperimentPlan, records,
                  report_bytes: int) -> dict:
    """Per-layer figures of one traced operation."""
    incl, calls, layer_self = defaultdict(float), defaultdict(int), defaultdict(float)
    selfs = self_times(spans)
    for sid, _parent, _op, name, start, end, _pid in spans:
        incl[name] += (end - start) * 1e-9
        calls[name] += 1
        layer_self[name.split(".")[0]] += selfs[sid]

    nls_steps = calls["nls.evolve"] * envelope_steps(plan)
    lat_steps = sum(lattice_steps(r) for r in records)
    site_updates = sum(lattice_steps(r) * r["n_side"] ** 2 for r in records)
    integrate_self = incl["lattice.integrate"] - incl["harness.observe"]
    width = plan.workers if workload.kind == "sweep" else 1
    call_s = incl["harness.run_sweep" if workload.kind == "sweep" else "harness.run_single"]
    busy = sum(r["wall_time_s"] for r in records)
    m = {
        "nls.evolve_s": incl["nls.evolve"],
        "nls.steps": nls_steps,
        "nls.step_ms": 1e3 * _ratio(incl["nls.evolve"], nls_steps),
        "ansatz.initial_data_s": incl["ansatz.build_initial_data"],
        "ansatz.sample_s": incl["ansatz.sample_ansatz"],
        "ansatz.sample_calls": calls["ansatz.sample_ansatz"],
        "ansatz.sample_ms": 1e3 * _ratio(incl["ansatz.sample_ansatz"],
                                         calls["ansatz.sample_ansatz"]),
        "ansatz.residual_s": incl["ansatz.residual_norm"],
        "ansatz.residual_calls": calls["ansatz.residual_norm"],
        "lattice.integrate_self_s": integrate_self,
        "lattice.steps": lat_steps,
        "lattice.force_evals": calls["lattice.rhs_strain"]
        + calls["lattice.rhs_displacement"],
        "lattice.force_s": incl["lattice.rhs_strain"] + incl["lattice.rhs_displacement"],
        "lattice.step_us": 1e6 * _ratio(integrate_self, lat_steps),
        "lattice.site_updates_per_s": _ratio(site_updates, integrate_self),
        "lattice.diag_s": incl["lattice.energy"] + incl["lattice.compatibility_defect"],
        "harness.call_s": call_s,
        "harness.worker_busy_s": busy,
        "harness.pool_idle_frac": 1.0 - _ratio(busy, width * call_s),
        "harness.report_bytes": report_bytes,
        "dispersion.coeffs_ms": 1e3 * _ratio(incl["dispersion.nls_coefficients"],
                                             calls["dispersion.nls_coefficients"]),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


# ---------------------------------------------------------------- the run

def _operation(workload: Workload, plan: ExperimentPlan, reference: dict, recording):
    """Run and check one operation: (wall seconds, records, report bytes, problems)."""
    records, report_bytes = [], 0
    t0 = time.perf_counter()
    try:
        with recording:
            out, records, report_bytes = run_operation(workload, plan)
        wall = time.perf_counter() - t0
        problems = check(workload, plan, out, records, reference)
    except Exception as exc:  # an operation that raises counts as failed
        wall = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        problems = [f"raised {type(exc).__name__}: {exc}"]
    return wall, records, report_bytes, problems


def run(workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path,
        src: Path, reference: dict | None = None) -> dict:
    """Measure one workload for `seconds` and return the result summary.

    A new operation starts only if it is expected, at the median operation
    time so far, to end within `seconds`; at least one runs, so a run lasts
    about max(seconds, one operation).  With `trace`, operations alternate
    untraced and traced, and at least one of each runs.  Every operation must reproduce the first one's
    errors exactly: a plan fixes every array the program draws.
    """
    reference = reference if reference is not None else load_reference()
    plan = build_plan(workload, seed)
    tracer = Tracer(out_dir / "spans") if trace else None
    setup = [] if trace else measure_setup(plan_kwargs(workload, seed), src)
    child_peaks: list[int] = []
    ops, traced_spans = [], []
    t_start = time.perf_counter()
    with pool_peaks(child_peaks):
        while (not ops or (trace and len(ops) < 2)
               or time.perf_counter() - t_start
               + statistics.median(o["wall_s"] for o in ops) <= seconds):
            op = len(ops)
            traced = trace and op % 2 == 1
            recording = tracer.recording(op) if traced else contextlib.nullcontext()
            wall, records, report_bytes, problems = _operation(workload, plan, reference,
                                                               recording)
            errors = [r["max_sup_error"] for r in records]
            first = next((o["max_sup_error"] for o in ops if o["max_sup_error"]), None)
            if records and first is not None and errors != first:
                problems.append(f"max_sup_error {errors} not reproduced "
                                f"(first operation: {first})")
            entry = {"wall_s": wall, "traced": traced, "problems": problems,
                     "max_sup_error": errors}
            if traced:
                spans = tracer.collect(op)
                traced_spans.extend(spans)
                if records:
                    entry["layers"] = layer_metrics(spans, workload, plan, records,
                                                    report_bytes)
            ops.append(entry)
            for p in problems:
                print(f"operation {op} rejected: {p}", file=sys.stderr)

    failed = sum(1 for o in ops if o["problems"])
    untraced = [o["wall_s"] for o in ops if not o["traced"]]
    if trace:
        per_op = [o["layers"] for o in ops if "layers" in o]
        metrics = {name: statistics.median(m[name] for m in per_op) for name in PER_LAYER
                   if name != "trace.overhead_s"} if per_op else {}
        traced_walls = [o["wall_s"] for o in ops if o["traced"]]
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced)
        units = PER_LAYER
        dump_spans(out_dir / f"trace-{workload.name}-seed{seed}.json", traced_spans)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + max(child_peaks, default=0)
        metrics = {
            "wall_s": statistics.median(untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss_kb / 1024,
        }
        units = END_TO_END
    summary = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "setup_s_samples": setup,
        "pool_peak_rss_kb": child_peaks,
        "operations": ops,
        "failure_rate": failed / len(ops),
        "result": {
            "correct": failed == 0,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }
    return summary
