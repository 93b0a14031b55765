"""Coupled experiment driver: envelope evolution, ansatz, lattice, error fits.

A run at one eps evolves the envelope to the slow-time horizon, builds
compatible lattice initial data from the ansatz at t = 0, integrates the
lattice to T0/eps^2 in displacement form (a strain run is observed through
the forward differences of its displacements), and records the worst-site
deviation

    sup_m,n ( |u - s.u| + |v - s.v| + |ut - s.ut| + |vt - s.vt| )

against the leading-order ansatz s, sampled as a lattice state, at ~20
sample times (the displacement form sums |q - s.q| + |w - s.w|).  A run
holds one set of lattice arrays: its ansatz workspace
(ansatz.AnsatzWorkspace), whose live initial state integrate copies into
the only lattice state the run steps, the integrator's work arrays, and a
strain run's strain view.  Its energy and compatibility diagnostics borrow
workspace arrays the deviation has just freed.  A sweep
runs several eps values, fits the log-log slope of the max-in-time error, and
reports pass/fail against the expected quadratic order.

Deterministic by construction: a plan plus seed fixes every array ever drawn.
The envelope depends on eps only through its box eps*N, so within one sweep
the eps values whose boxes are the same float share one envelope solve and
get bit-identical records to separate runs.

Every run_single and run_sweep call runs on one thread pool, plan.workers
threads wide (FPUT2D_THREADS, the CPU count when unset, caps it and stands in
for workers = 0).  Each group of eps runs that share a box is one task per
lattice run after the envelope solve's, submitted in order: the solve, which
hands each sample over as it is captured, then the runs, smallest eps first,
each waiting only for a sample it needs that is not in yet.  A sample is
dropped once every run of its group has read it.  The pool takes tasks first
in, first out, so a run never waits on a solve that has not started; with
one thread each solve runs to the end before its runs start.  numpy releases
the GIL inside its array loops and FFTs, so the threads share the cores, but
their many short numpy calls still contend for it.  A sweep queues its
groups smallest eps first, so its costliest run starts first, and a thread
that ends a solve takes the next queued run, of any group.  The records are
bit-identical at every width.  The first task to fail cancels every task not
yet started, and the call raises the first failure in submission order: a
failing envelope takes precedence over its failing runs, as when the solve
runs first.  Every thread is joined before the call returns or raises.
"""

from __future__ import annotations

import functools
import json
import math
import threading
import time
# ProcessPoolExecutor runs nothing here; bench/workloads.py:pool_peaks patches the name
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor  # noqa: F401
from dataclasses import asdict

import numpy as np

from . import __version__
from .ansatz import AnsatzWorkspace, build_initial_data, residual_norm, sample_ansatz
from .config import ExperimentPlan, thread_cap
from .dispersion import DispersionData, nls_coefficients
from .lattice import (
    ForceLaw,
    compatibility_defect,
    energy,
    integrate,
    perturbed_force,
    strain_from_displacement,
)
from .nls import (
    TAIL_BOUND,
    EnvelopeField,
    NlsProblem,
    edge_mass_fraction,
    evolve,
    gaussian_field,
    mass,
)

DEFAULT_ERROR_FLOOR = 1e-10
# the largest spectral tail a solve on the grid_side rule's grid may reach: a
# grid the plan names is held only to nls.TAIL_BOUND.  At amplitude 1.5 the
# default envelope reaches 7e-12 on 128 points, and its final sample differs
# from a 256-point solve's by 2e-9 of its peak; at amplitude 2, 7e-8 and 7e-7
RULE_TAIL = 1e-10


class DegenerateFit(RuntimeError):
    """Errors sit at the measurement floor; a power-law fit is meaningless."""


class NonResonantCarrierRequired(ValueError):
    """The plan's carrier is one no run can take: it violates non-resonance,
    or it has k0 = 0 in the strain form, whose u field then vanishes, so
    amplitude cannot set its envelope."""


class NonFiniteReport(ValueError):
    """A report holds NaN or infinity, which strict JSON cannot carry."""


def checked_dispersion(plan: ExperimentPlan) -> DispersionData:
    """The carrier's dispersion data; raises NonResonantCarrierRequired for a
    carrier no run can take, before any work starts.  A carrier that passes
    non-resonance at the plan's margin also passes the correction solve at
    it (see dispersion.nonresonance_check)."""
    disp = nls_coefficients(plan.carrier, plan.delta_res)
    where = f"carrier ({plan.carrier.k}, {plan.carrier.l})"
    if not disp.nonresonant:
        raise NonResonantCarrierRequired(f"{where} violates non-resonance")
    if plan.variant == "strain" and disp.axis_degenerate_k:
        raise NonResonantCarrierRequired(
            f"{where} has k0 = 0: the strain form's u field vanishes there")
    return disp


def _force_for(plan: ExperimentPlan, eps: float, n_side: int) -> ForceLaw:
    if plan.force_kind == "perturbed":
        return perturbed_force(n_side, eps, plan.coeff_bound, plan.seed)
    return ForceLaw(kind=plan.force_kind, eps=eps)


def envelope_box(plan: ExperimentPlan, eps: float) -> float:
    """Side of the envelope torus at eps: the lattice footprint eps*N.

    Commensurate tori: the moving envelope window wraps exactly.
    """
    return eps * plan.n_side_for(eps)


def _initial_envelope(plan: ExperimentPlan, eps: float) -> EnvelopeField:
    """The T = 0 displacement envelope Q on the torus that matches the lattice
    at eps.  plan.amplitude is the peak of Q in the displacement form and of
    the strain envelope (e^{ik0} - 1) Q in the strain form."""
    box, m = envelope_box(plan, eps), plan.resolved_grid_side()
    if plan.envelope_kind == "gaussian":
        env = gaussian_field(box, m, plan.amplitude, plan.sigma)
    elif plan.envelope_kind == "constant":
        # spatially uniform envelope: the ansatz reduces to a plane wave
        env = EnvelopeField(box, np.full((m, m), plan.amplitude, dtype=complex))
    else:
        raise ValueError(f"unknown envelope kind {plan.envelope_kind!r}")
    if plan.variant == "strain":
        env.a /= np.exp(1j * plan.carrier.k) - 1.0
    return env


def _by_box(plan: ExperimentPlan, eps_values) -> list[list[float]]:
    """eps values grouped by their exact envelope box, in order of first appearance.

    The envelope solve sees eps only through the box; every other input is
    plan-wide, so the eps values of one group share one solve bit for bit.
    """
    groups: dict[float, list[float]] = {}
    for eps in eps_values:
        groups.setdefault(envelope_box(plan, eps), []).append(eps)
    return list(groups.values())


def _solve_envelope(plan: ExperimentPlan, disp, env0: EnvelopeField,
                    sample_times, on_sample=None) -> list[EnvelopeField]:
    """The envelope equation solved from env0, captured at sample_times
    (handed to on_sample as they are captured, when given).  On the grid the
    grid_side rule chose, a spectral tail above RULE_TAIL stops it with
    nls.EnvelopeUnresolved: the rule reads only the grid spacing, so a
    narrower or stronger envelope than it suits must name its grid_side."""
    prob = NlsProblem(disp.hessian, disp.gamma_q, plan.dt_slow)
    return evolve(env0, prob, plan.t0, sample_times=sample_times,
                  blowup_guard=plan.blowup_guard, on_sample=on_sample,
                  tail_bound=RULE_TAIL if plan.grid_side == 0 else TAIL_BOUND)


def _sample_times(plan: ExperimentPlan) -> np.ndarray:
    """The slow times at which a run compares the lattice with the ansatz."""
    return np.linspace(0.0, plan.t0, plan.sample_count)


class _EnvelopeSamples:
    """Envelope samples handed over, as the solve captures them, to the
    lattice runs that observe them.

    The solve calls put; an observer's get blocks only until its own sample
    is in.  Each sample but the final one is dropped once all `readers`
    runs of the group have read it.  Each sample's envelope_diag row (T,
    mass, H^4 proxy, max |Q|, spectral tail) is taken at capture, with the
    H^4 proxy and the tail the solve's guards read.
    """

    def __init__(self, count: int, readers: int):
        self.diag: list[list[float]] = []
        self._last = count - 1
        self._readers = readers
        self._reads: list[int] = []
        self._error: Exception | None = None
        self._fields: list[EnvelopeField | None] = []
        self._finished = False
        self._changed = threading.Condition()
        self.started: float | None = None  # wall clock at the start of the solve

    def put(self, field: EnvelopeField, h4: float, tail: float) -> None:
        row = [field.slow_time, mass(field), h4, float(np.max(np.abs(field.a))), tail]
        with self._changed:
            self._fields.append(field)
            self._reads.append(0)
            self.diag.append(row)
            self._changed.notify_all()

    def get(self, i: int) -> EnvelopeField:
        """Sample i once it is captured; raises the solve's error if the solve
        failed first.  The read counts toward dropping sample i."""
        with self._changed:
            self._changed.wait_for(lambda: len(self._fields) > i or self._finished)
            if len(self._fields) <= i:
                raise self._error
            field = self._fields[i]
            self._reads[i] += 1
            if self._reads[i] == self._readers and i < self._last:
                self._fields[i] = None
        return field

    def produce(self, solve) -> None:
        """Run solve(put) to fill the hand-off.  Its error is raised here and,
        in get, to an observer waiting for a sample the solve never captured."""
        self.started = time.time()
        try:
            solve(self.put)
        except Exception as exc:
            with self._changed:
                self._error = exc
            raise
        finally:
            with self._changed:
                self._finished = True
                self._changed.notify_all()


def _run_lattice(plan: ExperimentPlan, disp, eps: float, env0: EnvelopeField,
                 samples: _EnvelopeSamples, keep_state_indices) -> dict:
    """The lattice run at eps against the envelope samples; its record has no
    wall time.

    The initial state is the workspace's live state: integrate copies it
    before the first observation overwrites it, and the energy at t = 0,
    the first observation's, is the reference of the energy drift.  The
    run's ansatz workspace and strain view are built once and rewritten at
    every observation; the energy and the compatibility defect work in the
    sample's arrays, free once the deviation is taken, and the real view of
    the workspace's spare array.  So an observation after the first
    allocates no lattice-sized array.
    """
    n = plan.n_side_for(eps)
    dt = plan.dt_for(eps)
    work = AnsatzWorkspace(env0, disp, eps, n, plan.variant)
    state, proj_diag = build_initial_data(work, env0, plan.corrections)
    force = _force_for(plan, eps, n)

    residual_at = {
        int(round(f * (plan.sample_count - 1))) for f in plan.residual_fractions
    }
    kept_states = {}
    times, sup_errors, residuals = [], [], []
    lattice_diag = []  # rows: t, energy, compat_defect (strain only), max_amp
    strain = plan.variant == "strain"
    strain_view = strain_from_displacement(state) if strain else None
    idx = [0]

    def observe(st):
        i = idx[0]
        idx[0] += 1
        env_i = samples.get(i)
        # the run steps (q, w); a strain run is observed through its differences
        view = strain_from_displacement(st, out=strain_view) if strain else st
        s = sample_ansatz(work, env_i, st.time)
        # the sample is the workspace's live state: its arrays take |view - s|,
        # summed into the first in the order of the arrays
        deviations = [np.abs(np.subtract(a, b, out=b), out=b)
                      for a, b in zip(view.arrays(), s.arrays())]
        for d in deviations[1:]:
            deviations[0] += d
        err = float(np.max(deviations[0]))
        times.append(float(st.time))
        sup_errors.append(err)
        scratch = (*s.arrays(), work.real_scratch())[:3]
        lattice_diag.append([float(st.time), energy(st, force, scratch),
                             compatibility_defect(view, scratch) if strain else None,
                             view.max_amplitude()])
        if i in keep_state_indices:
            kept_states[i] = view.copy()
        if i in residual_at:
            residuals.append(
                [float(st.time), residual_norm(work, env_i, st.time, plan.corrections)])

    # the lattice is observed at the envelope's sample times, taken from the
    # plan so that the run starts before the solve has captured them all
    integrate(state, force, dt, _sample_times(plan) / eps**2, observe)
    env_final = samples.get(plan.sample_count - 1)

    max_err = max(sup_errors)
    e0 = lattice_diag[0][1]
    record = {
        "eps": eps,
        "n_side": n,
        "box_length": env0.box_length,
        "dt": dt,
        "times": times,
        "sup_errors": sup_errors,
        "max_sup_error": max_err,
        "error_over_eps2": max_err / eps**2,
        "residual_norms": residuals,
        "lattice_diag": lattice_diag,
        "envelope_diag": [list(row) for row in samples.diag],
        "energy_drift": (max(abs(row[1] - e0) for row in lattice_diag) / abs(e0)
                         if abs(e0) > 0 else None),
        "compat_defect_max": max(row[2] for row in lattice_diag) if strain else None,
        "envelope_edge_mass": edge_mass_fraction(env_final),
        "degenerate_modes": proj_diag["degenerate_modes"],
        "projection_displacement": proj_diag["max_projection_displacement"],
    }
    if kept_states:
        record["_states"] = kept_states
        record["_env_final"] = env_final
    return record


def _group_tasks(plan: ExperimentPlan, disp, eps_values, keep_state_indices) -> list:
    """The tasks of eps runs that share one envelope box: the solve, which
    returns no records, then one task per lattice run, in the order of
    eps_values, each returning its record in a list.  A sample is dropped
    once every run has read it.  Each record's wall_time_s runs from the
    start of the solve to the end of its own run."""
    env0 = _initial_envelope(plan, eps_values[0])
    samples = _EnvelopeSamples(plan.sample_count, len(eps_values))

    def solve():
        samples.produce(
            lambda put: _solve_envelope(plan, disp, env0, _sample_times(plan), put))
        return []

    def run(eps):
        record = _run_lattice(plan, disp, eps, env0, samples, keep_state_indices)
        # the solve has started by the time a run observes its first sample
        record["wall_time_s"] = time.time() - samples.started
        return [record]

    return [solve, *(functools.partial(run, eps) for eps in eps_values)]


def _run_tasks(width: int, tasks) -> list:
    """The tasks' results, run in submission order on a pool `width` threads wide.

    The first task to fail cancels every task not yet started; once the
    started ones have ended, the first failure in submission order is raised.
    """
    submitting = threading.Lock()  # a failure cancels only once all are queued
    with ThreadPoolExecutor(max_workers=width, thread_name_prefix="fput2d") as pool:
        def guarded(task):
            try:
                return task()
            except Exception:
                with submitting:
                    pool.shutdown(wait=False, cancel_futures=True)
                raise

        with submitting:
            futures = [pool.submit(guarded, task) for task in tasks]
    for future in futures:
        if not future.cancelled() and future.exception() is not None:
            raise future.exception()
    return [future.result() for future in futures]


def _run_groups(plan: ExperimentPlan, groups, width: int, keep_state_indices=()) -> list[dict]:
    """Records of the eps groups, in group order, each group on one envelope
    solve, all on one pool `width` threads wide (see the module docstring)."""
    disp = checked_dispersion(plan)
    tasks = [task for group in groups
             for task in _group_tasks(plan, disp, group, keep_state_indices)]
    return [record for records in _run_tasks(width, tasks) for record in records]


def run_single(plan: ExperimentPlan, eps: float, keep_state_indices=()) -> dict:
    """One eps run; returns a JSON-ready record.

    keep_state_indices requests lattice states at those sample indices; they
    come back under the non-JSON key "_states" (the sweep never asks).
    """
    return _run_groups(plan, [[eps]], _pool_width(plan), keep_state_indices)[0]


def _t_quantile(df: int, p: float) -> float:
    """The Student t quantile at probability p in (1/2, 1) with df, a positive
    integer, degrees of freedom: the t > 0 with I_x(df/2, 1/2) = 2(1 - p) at
    x = df/(df + t^2).

    Newton steps on t climb from the normal quantile, which lies below the
    root, since the two-sided tail I_x decreases and is convex in t.  I_x is
    front = x^a (1-x)^(1/2) / B(a, 1/2) times Lentz's continued fraction over
    a, and dI_x/dt = -2 front / t.  B(a, 1/2) comes from B(1/2, 1/2) = pi or
    B(1, 1/2) = 2 by B(a + 1, 1/2) = B(a, 1/2) a / (a + 1/2): a difference of
    math.lgamma values near 2600 at df 1000 would cost 1e-12 of it.  The
    iteration stops at a step below 1e-12 t, which leaves an error of order
    its square; evaluating I_x is noisy at about 1e-14 of t, so a tighter
    stop could cycle.
    """
    from statistics import NormalDist  # only an order fit needs it

    a, tail = df / 2, 2 * (1 - p)
    a0 = 0.5 if df % 2 else 1.0
    beta = (math.pi if df % 2 else 2.0) * math.prod(
        (a0 + i) / (a0 + i + 0.5) for i in range((df - 1) // 2))
    t = NormalDist().inv_cdf(p)
    for _ in range(100):
        r = t * t / df
        x = 1 / (1 + r)
        front = math.exp(0.5 * math.log(r * x) - a * math.log1p(r)) / beta
        c, d = 1.0, 1 / (1 - (a + 0.5) * x / (a + 1))
        cf = d
        for m in range(1, 1000):
            for num in (m * (0.5 - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                        -(a + m) * (a + 0.5 + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
                d = 1 / (1 + num * d)
                c = 1 + num / c
                cf *= c * d
            if abs(c * d - 1) < 1e-16:
                break
        step = (front * cf / a - tail) * t / (2 * front)
        t += step
        if abs(step) <= 1e-12 * t:
            return t
    raise ArithmeticError(f"t quantile at df={df}, p={p} did not converge")


def fit_order(eps_values, max_errors):
    """Least-squares slope of log(error) against log(eps).

    Returns (slope, (lo95, hi95), fit_residual): the slope, its standard
    error and the intercept follow scipy.stats.linregress formula for
    formula, and the interval uses the Student t quantile at n - 2 degrees
    of freedom, solved by _t_quantile with the standard library alone, so a
    fit loads no scipy module.  The quantile agrees with
    scipy.special.stdtrit(df, 0.975) to 3e-16 relative for df 1-5 (the
    3- to 7-point sweeps) and to 3e-14 up to df 1000.  Raises DegenerateFit
    when the errors sit at the measurement floor or carry no eps dependence,
    and ValueError when an error is not finite or every eps is the same.
    """
    eps_values = np.asarray(eps_values, dtype=float)
    max_errors = np.asarray(max_errors, dtype=float)
    if len(eps_values) < 3:
        raise ValueError("order fitting needs at least 3 eps points")
    if np.amax(eps_values) == np.amin(eps_values):
        raise ValueError("order fitting needs at least 2 distinct eps values")
    if not np.all(np.isfinite(max_errors)):
        raise ValueError(f"order fitting needs finite errors, got {max_errors.tolist()}")
    if np.any(max_errors <= DEFAULT_ERROR_FLOOR):
        raise DegenerateFit("errors at or below the measurement floor")
    x, y = np.log(eps_values), np.log(max_errors)
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    slope = ssxym / ssxm
    if abs(slope) < 0.1:
        raise DegenerateFit("errors carry no eps dependence")
    r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    df = len(x) - 2
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / df)
    t95 = _t_quantile(df, 0.975)
    ci = (slope - t95 * stderr, slope + t95 * stderr)
    fit_vals = slope * x + (np.mean(y) - slope * np.mean(x))
    fit_residual = float(np.sqrt(np.mean((y - fit_vals) ** 2)))
    return float(slope), (float(ci[0]), float(ci[1])), fit_residual


def residual_sweep(plan: ExperimentPlan) -> list[dict]:
    """Residual norms over the eps sweep, with and without corrections.

    At each eps the envelope is evolved to the slow times
    plan.residual_fractions * T0 and ansatz.residual_norm is taken at the
    matching lattice times; each row carries the per-time values and their
    maxima.  eps values that share an envelope box share one solve.
    """
    disp = checked_dispersion(plan)
    rows = {}
    for group in _by_box(plan, plan.eps_list):
        envs = _solve_envelope(plan, disp, _initial_envelope(plan, group[0]),
                               [f * plan.t0 for f in plan.residual_fractions])
        for eps in group:
            n = plan.n_side_for(eps)
            work = AnsatzWorkspace(envs[0], disp, eps, n, plan.variant)
            per_time = {
                label: [residual_norm(work, env, env.slow_time / eps**2, flag)
                        for env in envs]
                for label, flag in (("with", True), ("without", False))
            }
            rows[eps] = {
                "eps": eps,
                "with_corrections": max(per_time["with"]),
                "without_corrections": max(per_time["without"]),
                "per_time": per_time,
            }
    return [rows[eps] for eps in plan.eps_list]


def _pool_width(plan: ExperimentPlan) -> int:
    """Threads of a call's pool: plan.workers, capped by thread_cap(), which
    is also the width when workers is 0."""
    cap = thread_cap()
    return min(plan.workers or cap, cap)


def _schedule(plan: ExperimentPlan) -> list[list[float]]:
    """The sweep's eps groups, each on one envelope box, smallest eps first:
    the costliest run starts first."""
    return _by_box(plan, sorted(plan.eps_list))


def run_sweep(plan: ExperimentPlan) -> dict:
    """Run every eps, fit the order, and assemble the report.

    eps values that share an envelope box share one envelope solve.  Records
    come back in eps_list order.  A record's wall_time_s runs from the start
    of its group's solve to the end of its own run, so the runs of one group
    each count the solve and their wall times overlap.
    """
    if len(plan.eps_list) < 3:
        raise ValueError("a sweep needs at least 3 eps values to fit an order")
    t_wall = time.time()
    by_eps = {rec["eps"]: rec for rec in _run_groups(plan, _schedule(plan), _pool_width(plan))}
    records = [by_eps[eps] for eps in plan.eps_list]

    report = {
        "plan": asdict(plan),
        "per_eps": records,
        "fitted_order": None,
        "fit_interval_95": None,
        "fit_residual": None,
        "degenerate_fit": False,
        "pass": False,
        "metadata": {
            "config_hash": plan.hash(),
            "package_version": __version__,
            "numpy_version": np.__version__,
            "wall_time_s": time.time() - t_wall,
        },
    }
    errors = [r["max_sup_error"] for r in records]
    within_bound = all(r["error_over_eps2"] <= plan.error_over_eps2_bound for r in records)
    try:
        slope, ci, fit_res = fit_order(plan.eps_list, errors)
        report["fitted_order"] = slope
        report["fit_interval_95"] = list(ci)
        report["fit_residual"] = fit_res
        report["pass"] = bool(slope >= plan.pass_threshold and within_bound)
    except DegenerateFit:
        report["degenerate_fit"] = True
        # a run pinned at the floor everywhere is a trivial pass (nothing to fit)
        report["pass"] = bool(all(e <= DEFAULT_ERROR_FLOOR for e in errors) and within_bound)
    return report


def _non_finite_path(value, path: str = "$") -> str | None:
    """JSON path of the first NaN or infinite number inside value, else None."""
    if isinstance(value, dict):
        children = [(f"{path}.{k}", v) for k, v in value.items()]
    elif isinstance(value, (list, tuple)):
        children = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
    elif isinstance(value, (float, np.floating)) and not np.isfinite(value):
        return path
    else:
        return None
    for child_path, child in children:
        found = _non_finite_path(child, child_path)
        if found is not None:
            return found
    return None


def report_to_json(report: dict) -> str:
    """Strict JSON text of a report; raises NonFiniteReport on NaN or infinity."""
    try:
        return json.dumps(report, indent=2, default=float, allow_nan=False)
    except ValueError:
        path = _non_finite_path(report)
        if path is None:
            raise
        raise NonFiniteReport(f"report value at {path} is not finite") from None
