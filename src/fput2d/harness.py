"""Coupled experiment driver: envelope evolution, ansatz, lattice, error fits.

A run at one eps evolves the envelope to the slow-time horizon, builds
compatible lattice initial data from the ansatz at t = 0, integrates the
lattice to T0/eps^2, and records the worst-site deviation

    sup_m,n ( |u - psi_u| + |v - psi_v| + |du/dt - dpsi_u/dt| + ... )

against the leading-order ansatz at ~20 sample times (the displacement
variant uses the q-analogue).  A sweep runs several eps values, fits the
log-log slope of the max-in-time error, and reports pass/fail against the
expected quadratic order.

Deterministic by construction: a plan plus seed fixes every array ever drawn.
eps runs are independent and can execute in a process pool (FPUT2D_THREADS
caps the width).
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict

import numpy as np
from scipy import stats

from . import __version__
from .ansatz import build_initial_data, nls_problem_for, residual_norm, sample_ansatz
from .config import ExperimentPlan, thread_cap
from .dispersion import nls_coefficients
from .lattice import (
    ForceLaw,
    compatibility_defect,
    energy,
    integrate,
    perturbed_force,
)
from .nls import EnvelopeField, edge_mass_fraction, evolve, gaussian_field, h4_proxy, mass

DEFAULT_ERROR_FLOOR = 1e-10


class DegenerateFit(RuntimeError):
    """Errors sit at the measurement floor; a power-law fit is meaningless."""


class NonResonantCarrierRequired(ValueError):
    """The sweep refuses carriers violating the non-resonance condition."""


def _force_for(plan: ExperimentPlan, eps: float, n_side: int) -> ForceLaw:
    if plan.force_kind == "perturbed":
        return perturbed_force(n_side, eps, plan.coeff_bound, plan.seed)
    return ForceLaw(kind=plan.force_kind, eps=eps)


def _initial_envelope(plan: ExperimentPlan, eps: float) -> tuple[int, EnvelopeField]:
    """Lattice side at eps and the T = 0 envelope on the matching torus."""
    n = plan.n_side_for(eps)
    box = eps * n  # commensurate tori: the moving envelope window wraps exactly
    env_variant = "displacement" if plan.variant == "displacement" else "strain_u"
    if plan.envelope_kind == "gaussian":
        env0 = gaussian_field(box, plan.grid_side, plan.amplitude, plan.sigma,
                              variant=env_variant)
    elif plan.envelope_kind == "constant":
        # spatially uniform envelope: the ansatz reduces to a plane wave
        arr = np.full((plan.grid_side, plan.grid_side), plan.amplitude, dtype=complex)
        env0 = EnvelopeField(box, arr, variant=env_variant)
    else:
        raise ValueError(f"unknown envelope kind {plan.envelope_kind!r}")
    return n, env0


def run_single(plan: ExperimentPlan, eps: float, keep_state_indices=()) -> dict:
    """One eps run; returns a JSON-ready record.

    keep_state_indices requests lattice states at those sample indices; they
    come back under the non-JSON key "_states" (the sweep never asks).
    """
    t_wall = time.time()
    disp = nls_coefficients(plan.carrier, plan.delta_res)
    if not disp.nonresonant:
        raise NonResonantCarrierRequired(
            f"carrier ({plan.carrier.k}, {plan.carrier.l}) violates non-resonance"
        )
    n, env0 = _initial_envelope(plan, eps)
    dt = plan.dt_for(eps)
    prob = nls_problem_for(disp, env0.variant, plan.dt_slow)
    slow_times = np.linspace(0.0, plan.t0, plan.sample_count)
    envs = evolve(env0, prob, plan.t0, sample_times=slow_times,
                  blowup_guard=plan.blowup_guard)

    state, proj_diag = build_initial_data(
        env0, disp, eps, n, plan.variant, corrections=plan.corrections,
        projection=plan.projection,
    )
    force = _force_for(plan, eps, n)

    residual_at = {
        int(round(f * (plan.sample_count - 1))) for f in plan.residual_fractions
    }
    kept_states = {}
    times, sup_errors, residuals = [], [], []
    lattice_diag = []  # rows: t, energy (displacement only), compat_defect, max_amp
    energy_drift = []
    compat_max = []
    e0 = energy(state, force) if plan.variant == "displacement" else None
    idx = [0]

    def observe(st):
        i = idx[0]
        idx[0] += 1
        env_i = envs[i]
        s = sample_ansatz(env_i, disp, eps, st.time, n, plan.variant, depth=1,
                          corrections=False)
        if plan.variant == "displacement":
            err = float(np.max(np.abs(st.q - s.psi_q) + np.abs(st.w - s.psi_qt)))
            e_now = energy(st, force)
            defect = None
            if abs(e0) > 0:
                energy_drift.append(abs(e_now - e0) / abs(e0))
        else:
            err = float(np.max(
                np.abs(st.u - s.psi_u) + np.abs(st.v - s.psi_v)
                + np.abs(st.ut - s.psi_ut) + np.abs(st.vt - s.psi_vt)
            ))
            e_now = None
            defect = compatibility_defect(st)
            compat_max.append(defect)
        times.append(float(st.time))
        sup_errors.append(err)
        lattice_diag.append([float(st.time), e_now, defect, st.max_amplitude()])
        if i in keep_state_indices:
            kept_states[i] = st.copy()
        if i in residual_at:
            residuals.append(
                [float(st.time),
                 residual_norm(env_i, disp, eps, st.time, n, plan.variant,
                               plan.corrections)]
            )

    integrate(state, force, dt, slow_times / eps**2, observe)

    envelope_diag = [
        [e.slow_time, mass(e), h4_proxy(e), float(np.max(np.abs(e.a)))]
        for e in envs
    ]

    max_err = max(sup_errors)
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
        "envelope_diag": envelope_diag,
        "energy_drift": max(energy_drift) if energy_drift else None,
        "compat_defect_max": max(compat_max) if compat_max else None,
        "envelope_edge_mass": edge_mass_fraction(envs[-1]),
        "degenerate_modes": proj_diag["degenerate_modes"],
        "projection_displacement": proj_diag["max_projection_displacement"],
        "wall_time_s": time.time() - t_wall,
    }
    if kept_states:
        record["_states"] = kept_states
        record["_env_final"] = envs[-1]
    return record


def fit_order(eps_values, max_errors):
    """Least-squares slope of log(error) against log(eps).

    Returns (slope, (lo95, hi95), fit_residual).  Raises DegenerateFit when
    the errors sit at the measurement floor or carry no eps dependence, and
    ValueError when an error is not finite.
    """
    eps_values = np.asarray(eps_values, dtype=float)
    max_errors = np.asarray(max_errors, dtype=float)
    if len(eps_values) < 3:
        raise ValueError("order fitting needs at least 3 eps points")
    if not np.all(np.isfinite(max_errors)):
        raise ValueError(f"order fitting needs finite errors, got {max_errors.tolist()}")
    if np.any(max_errors <= DEFAULT_ERROR_FLOOR):
        raise DegenerateFit("errors at or below the measurement floor")
    res = stats.linregress(np.log(eps_values), np.log(max_errors))
    if abs(res.slope) < 0.1:
        raise DegenerateFit("errors carry no eps dependence")
    t95 = stats.t.ppf(0.975, len(eps_values) - 2)
    ci = (res.slope - t95 * res.stderr, res.slope + t95 * res.stderr)
    fit_vals = res.slope * np.log(eps_values) + res.intercept
    fit_residual = float(np.sqrt(np.mean((np.log(max_errors) - fit_vals) ** 2)))
    return float(res.slope), (float(ci[0]), float(ci[1])), fit_residual


def residual_sweep(plan: ExperimentPlan) -> list[dict]:
    """Residual norms over the eps sweep, with and without corrections.

    At each eps the envelope is evolved to the slow times
    plan.residual_fractions * T0 and ansatz.residual_norm is taken at the
    matching lattice times; each row carries the per-time values and their
    maxima.
    """
    disp = nls_coefficients(plan.carrier, plan.delta_res)
    rows = []
    for eps in plan.eps_list:
        n, env0 = _initial_envelope(plan, eps)
        envs = evolve(env0, nls_problem_for(disp, env0.variant, plan.dt_slow),
                      plan.t0, sample_times=[f * plan.t0 for f in plan.residual_fractions],
                      blowup_guard=plan.blowup_guard)
        per_time = {
            label: [residual_norm(env, disp, eps, env.slow_time / eps**2, n,
                                  plan.variant, flag) for env in envs]
            for label, flag in (("with", True), ("without", False))
        }
        rows.append({
            "eps": eps,
            "with_corrections": max(per_time["with"]),
            "without_corrections": max(per_time["without"]),
            "per_time": per_time,
        })
    return rows


def _worker(args):
    plan_dict, eps = args
    return run_single(ExperimentPlan(**plan_dict), eps)


def _pool_width(plan: ExperimentPlan) -> int:
    cap = thread_cap()
    want = plan.workers if plan.workers > 0 else min(len(plan.eps_list), cap)
    return max(1, min(want, cap))


def run_sweep(plan: ExperimentPlan) -> dict:
    """Run every eps, fit the order, and assemble the report."""
    if len(plan.eps_list) < 3:
        raise ValueError("a sweep needs at least 3 eps values to fit an order")
    t_wall = time.time()
    width = _pool_width(plan)
    if width > 1 and len(plan.eps_list) > 1:
        # dispatch the smallest eps (most expensive run) first
        order = sorted(range(len(plan.eps_list)), key=lambda i: plan.eps_list[i])
        with ProcessPoolExecutor(max_workers=width) as pool:
            done = list(pool.map(_worker,
                                 [(asdict(plan), plan.eps_list[i]) for i in order]))
        records = [None] * len(plan.eps_list)
        for slot, rec in zip(order, done):
            records[slot] = rec
    else:
        records = [run_single(plan, e) for e in plan.eps_list]

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


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, default=float)
