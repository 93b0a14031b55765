"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines as they complete.  The desk-scale sweeps (criteria 7-9) dominate the
runtime; their reports are shared through module-level caches.
"""

import numpy as np
import pytest

from conftest import initial_data, measure_mode_frequencies, smooth_random_field, work_arrays
from test_ansatz import run_projection
from test_lattice import reference_verlet, reverse, step
from fput2d.dispersion import DEFAULT_RESONANCE_MARGIN, WaveVector, nls_coefficients, omega
from fput2d.harness import ExperimentPlan, fit_order, residual_sweep, run_sweep
from fput2d.lattice import (
    ForceLaw,
    LatticeState,
    compatibility_defect,
    energy,
    integrate,
    strain_from_displacement,
)
from fput2d.nls import (
    DEFAULT_BLOWUP_GUARD,
    TAIL_BOUND,
    EnvelopeField,
    NlsProblem,
    evolve,
    gaussian_field,
    mass,
)

PIH = np.pi / 2
KV = WaveVector(PIH, PIH)
EPS_SWEEP = (0.2, 0.14, 0.1)

_cache: dict = {}


def _report(name: str):
    if name in _cache:
        return _cache[name]
    if name == "strain":
        plan = ExperimentPlan(variant="strain", eps_list=EPS_SWEEP, workers=2)
    elif name == "displacement":
        plan = ExperimentPlan(variant="displacement", eps_list=EPS_SWEEP, workers=2)
    elif name == "perturbed":
        plan = ExperimentPlan(variant="displacement", eps_list=EPS_SWEEP,
                              force_kind="perturbed", coeff_bound=1.0,
                              seed=2026, workers=2)
    else:
        raise KeyError(name)
    _cache[name] = run_sweep(plan)
    return _cache[name]


def _line(num: int, ok: bool, text: str):
    status = "PASS" if ok else "FAIL"
    print(f"\n{status} criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_coefficient_goldens():
    data = nls_coefficients(KV, DEFAULT_RESONANCE_MARGIN)
    # independent evaluation of the closed forms
    w0 = np.sqrt(4 - 2 * np.cos(PIH) - 2 * np.cos(PIH))
    wx2 = 2 - 2 * np.cos(PIH)
    gamma_a = 3 * wx2 / (8j * w0) + 3 * wx2**2 / (8j * wx2 * w0)
    gamma_q = -3j * (wx2**2 + wx2**2) / (2 * w0)
    # the strain envelope (e^{ik0} - 1) Q carries gamma_q / (4 |e^{ik0} - 1|^2)
    data_gamma_a = data.gamma_q / (4 * wx2)
    checks = [
        abs(data.omega0 - 2.0) < 1e-12,
        abs(data.group_velocity[0] - 0.5) < 1e-12,
        abs(data.group_velocity[1] - 0.5) < 1e-12,
        np.max(np.abs(data.hessian - (-0.125) * np.ones((2, 2)))) < 1e-12,
        abs(data_gamma_a - gamma_a) < 1e-12,
        abs(data_gamma_a + 0.75j) < 1e-12,
        abs(data.gamma_q - gamma_q) < 1e-12,
        abs(data.gamma_q + 6.0j) < 1e-12,
    ]
    _line(1, all(checks), "coefficient goldens at (pi/2, pi/2) to 1e-12")


def test_criterion_02_linear_dispersion():
    rng = np.random.default_rng(42)
    n = 32
    modes = set()
    while len(modes) < 10:
        j = tuple(int(v) for v in rng.integers(-8, 9, size=2))
        if j != (0, 0):
            modes.add(j)
    measured, expected = measure_mode_frequencies(
        ForceLaw(), n, sorted(modes), dt=1e-2, n_steps=2500
    )
    rel = np.max(np.abs(measured - expected) / expected)
    _line(2, rel <= 1e-4,
          f"linearized plane waves at 10 carriers: max rel freq error {rel:.2e} <= 1e-4")


def test_criterion_03_compatibility_invariance():
    # a strain run steps (q, w) and is observed through its forward
    # differences; the strain-form flow (the second-difference oracle with
    # unmerged kicks) keeps the constraint, and the strain run follows it
    rng = np.random.default_rng(7)
    n = 64
    force = ForceLaw()
    disp = LatticeState("displacement", q=smooth_random_field(n, rng, 0.2),
                        w=smooth_random_field(n, rng, 0.2))
    ref = strain_from_displacement(disp)
    scale = max(np.max(np.abs(ref.u)), np.max(np.abs(ref.v)))
    defects, oracle_defects, gaps = [], [], []
    buffers = work_arrays(n)

    def observe(st):
        nonlocal ref
        if st.time > ref.time:
            ref = LatticeState.from_arrays("strain", st.time,
                                           reference_verlet(ref, force, 1e-2, 100))
        view = strain_from_displacement(st)
        defects.append(compatibility_defect(view, buffers))
        oracle_defects.append(compatibility_defect(ref, buffers))
        gaps.append(max(np.max(np.abs(a - b)) for a, b in zip(view.arrays(), ref.arrays())))

    integrate(disp, force, 1e-2, np.linspace(0, 50, 51), observe)
    rel, oracle_rel, gap = (max(x) / scale for x in (defects, oracle_defects, gaps))
    _line(3, rel <= 1e-14 and oracle_rel <= 1e-9 and gap <= 1e-9,
          f"over t in [0, 50] the strain run's compatibility defect is {rel:.1e} "
          f"relative (<= 1e-14), the strain-form flow's {oracle_rel:.1e} (<= 1e-9), "
          f"and the two differ by {gap:.1e} (<= 1e-9)")


def test_criterion_04_symplectic_diagnostics():
    rng = np.random.default_rng(3)
    n = 16
    q = smooth_random_field(n, rng, 0.2)
    w = smooth_random_field(n, rng, 0.2)
    force = ForceLaw()
    buffers = work_arrays(n)

    def max_drift(dt):
        s = LatticeState("displacement", q=q.copy(), w=w.copy())
        e0 = energy(s, force, buffers)
        drifts = []
        integrate(s, force, dt, np.linspace(0, 20, 201),
                  lambda st: drifts.append(abs(energy(st, force, buffers) - e0)))
        return max(drifts)

    ratio = max_drift(0.1) / max_drift(0.05)
    # step, negate w, step, negate w: back to the start
    s0 = LatticeState("displacement", q=q.copy(), w=w.copy())
    s2 = reverse(step(reverse(step(s0, force, 0.1)), force, 0.1))
    rev = max(np.max(np.abs(s2.q - q)), np.max(np.abs(s2.w - w)))
    ok = 3.0 <= ratio <= 5.0 and rev < 1e-12
    _line(4, ok,
          f"energy drift ratio dt vs dt/2 = {ratio:.2f} (in 4 +- 25%), "
          f"reversibility {rev:.1e} < 1e-12")


def test_criterion_05_nls_solver():
    h = nls_coefficients(KV, DEFAULT_RESONANCE_MARGIN).hessian
    # mass conservation over 1000 steps
    f = gaussian_field(40.0, 128, 1.0, 4.0)
    m0 = mass(f)
    f_end = evolve(f, NlsProblem(h, -3j, dT=1e-3), 1.0, sample_times=[1.0],
                   blowup_guard=DEFAULT_BLOWUP_GUARD, tail_bound=TAIL_BOUND)[-1]
    mass_drift = abs(mass(f_end) - m0) / m0

    # linear Gaussian flow against the closed-form anisotropic evolution
    sigma, amp = 4.0, 1.0
    f0 = gaussian_field(40.0, 256, amp, sigma)
    lin = evolve(f0, NlsProblem(h, 0j, dT=1e-2), 1.0, sample_times=[1.0],
                 blowup_guard=DEFAULT_BLOWUP_GUARD, tail_bound=TAIL_BOUND)[-1]
    evals, evecs = np.linalg.eigh(h)
    x = f0.coords_1d()
    xx, yy = np.meshgrid(x, x, indexing="ij")
    oracle = amp * np.ones_like(xx, dtype=complex)
    for col, lam in enumerate(evals):
        xi = evecs[0, col] * xx + evecs[1, col] * yy
        p = sigma**2 / 4 - 0.5j * lam * 1.0
        oracle = oracle * np.sqrt((sigma**2 / 4) / p) * np.exp(-(xi**2) / (4 * p))
    gauss_err = np.max(np.abs(lin.a - oracle))

    # Strang self-convergence against a dT/16 reference
    f1 = gaussian_field(40.0, 128, amplitude=0.8, sigma=4.0)
    base = 4e-3

    def run(dt):
        return evolve(f1, NlsProblem(h, -3j, dT=dt), 0.5, sample_times=[0.5],
                      blowup_guard=DEFAULT_BLOWUP_GUARD, tail_bound=TAIL_BOUND)[-1].a

    ref = run(base / 16)
    order = np.log2(np.max(np.abs(run(base) - ref)) / np.max(np.abs(run(base / 2) - ref)))

    ok = mass_drift < 1e-12 and gauss_err < 1e-6 and 1.9 <= order <= 2.1
    _line(5, ok,
          f"mass drift {mass_drift:.1e} < 1e-12, Gaussian free-flow error "
          f"{gauss_err:.1e} < 1e-6, Strang order {order:.3f} in 2.0 +- 0.1")


def test_criterion_06_residual_orders():
    rows = residual_sweep(ExperimentPlan(eps_list=EPS_SWEEP))
    order_with, _, _ = fit_order(EPS_SWEEP, [r["with_corrections"] for r in rows])
    order_without, _, _ = fit_order(EPS_SWEEP, [r["without_corrections"] for r in rows])
    ok = order_with >= 3.6 and order_without >= 2.7
    _line(6, ok,
          f"residual orders: with corrections {order_with:.2f} >= 3.6, "
          f"without {order_without:.2f} >= 2.7")


def test_criterion_07_strain_desk_scale():
    report = _report("strain")
    order = report["fitted_order"]
    bound = max(r["error_over_eps2"] for r in report["per_eps"])
    ok = order is not None and order >= 1.8 and bound <= 50.0
    _line(7, ok,
          f"strain sweep fitted order {order:.3f} >= 1.8 "
          f"(max sup_error/eps^2 = {bound:.1f} <= 50)")


def test_criterion_08_displacement_desk_scale():
    report = _report("displacement")
    order = report["fitted_order"]
    ok = order is not None and order >= 1.8
    _line(8, ok, f"displacement sweep fitted order {order:.3f} >= 1.8")


def test_criterion_09_perturbed_force():
    base = _report("displacement")
    pert = _report("perturbed")
    order = pert["fitted_order"]
    ratios = [
        p["max_sup_error"] / b["max_sup_error"]
        for p, b in zip(pert["per_eps"], base["per_eps"])
    ]
    ok = order is not None and order >= 1.8 and all(0.5 <= r <= 2.0 for r in ratios)
    _line(9, ok,
          f"perturbed-force order {order:.3f} >= 1.8, error ratios vs baseline "
          f"{[round(r, 2) for r in ratios]} within 2x")


def test_criterion_10_projection_contract():
    rng = np.random.default_rng(11)
    n = 64
    # the projection build_initial_data makes: the lift, then its differences
    spectra = [np.fft.fft2(rng.normal(size=(n, n))) for _ in range(4)]
    once = run_projection(*spectra)
    twice = run_projection(*once)
    scale = max(np.max(np.abs(a)) for a in once)
    idem = max(np.max(np.abs(a - b)) for a, b in zip(once, twice)) / scale

    disp = nls_coefficients(KV, DEFAULT_RESONANCE_MARGIN)
    env = gaussian_field(40.0, 256, 1.0, 4.0)
    moved = []
    eps_values = (0.2, 0.1, 0.05)
    for eps in eps_values:
        n_side = int(np.ceil(40.0 / eps / 4) * 4)
        _, diag = initial_data(env, disp, eps, n_side, "strain")
        moved.append(diag["max_projection_displacement"])
    slope, _, _ = fit_order(eps_values, moved)
    ok = idem < 1e-12 and slope >= 1.8
    _line(10, ok,
          f"projection idempotent to {idem:.1e} < 1e-12, projected-minus-raw "
          f"slope {slope:.2f} >= 1.8")
