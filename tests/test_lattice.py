"""Tests for the FPUT lattice right-hand sides, integrator, and diagnostics."""

import re

import numpy as np
import pytest

from conftest import measure_mode_frequencies, smooth_random_field
from fput2d import lattice
from fput2d.dispersion import WaveVector, omega
from fput2d.lattice import (
    ForceLaw,
    FormMismatch,
    LatticeState,
    UnstableStep,
    compatibility_defect,
    energy,
    integrate,
    perturbed_force,
    rhs_displacement,
    rhs_strain,
    strain_from_displacement,
    verlet_step,
)

BASE = ForceLaw()


def displacement_state(n=16, q=None, w=None, time=0.0):
    q = np.zeros((n, n)) if q is None else q
    w = np.zeros((n, n)) if w is None else w
    return LatticeState("displacement", time, q=q, w=w)


def smooth_strain_state(n, seed, amplitude):
    rng = np.random.default_rng(seed)
    return strain_from_displacement(displacement_state(
        n, q=smooth_random_field(n, rng, amplitude), w=smooth_random_field(n, rng, amplitude)))


def second_difference_rhs_strain(u, v, force):
    """The strain accelerations written out as second differences of the bond
    forces (the reference for the shared divergence stencil)."""
    fu = force.w_prime(u, "x")
    fv = force.w_prime(v, "y")
    d2u = (
        np.roll(fu, -1, axis=0) - 2.0 * fu + np.roll(fu, 1, axis=0)
        + np.roll(fv, -1, axis=0) - np.roll(fv, (-1, 1), axis=(0, 1))
        - fv + np.roll(fv, 1, axis=1)
    )
    d2v = (
        np.roll(fv, -1, axis=1) - 2.0 * fv + np.roll(fv, 1, axis=1)
        + np.roll(fu, -1, axis=1) - np.roll(fu, (1, -1), axis=(0, 1))
        - fu + np.roll(fu, 1, axis=0)
    )
    return d2u, d2v


def reference_verlet(state, force, dt, n_steps):
    """Plain velocity Verlet on the strain form, two force evaluations a step."""
    u, v, ut, vt = (a.copy() for a in state.arrays())
    for _ in range(n_steps):
        au, av = second_difference_rhs_strain(u, v, force)
        ut = ut + 0.5 * dt * au
        vt = vt + 0.5 * dt * av
        u = u + dt * ut
        v = v + dt * vt
        au, av = second_difference_rhs_strain(u, v, force)
        ut = ut + 0.5 * dt * au
        vt = vt + 0.5 * dt * av
    return u, v, ut, vt


FORCE_LAWS = {
    "cubic": lambda n: BASE,
    "linear": lambda n: ForceLaw(kind="linear"),
    "perturbed": lambda n: perturbed_force(n, 0.2, 1.0, seed=11),
}


class TestRhsDisplacement:
    def test_zero(self):
        assert np.all(rhs_displacement(displacement_state(), BASE) == 0.0)

    def test_single_site_bump(self):
        # hand evaluation of the four-bond balance with W'(+-d) = +-d -+ d^3
        d = 0.1
        q = np.zeros((16, 16))
        q[0, 0] = d
        a = rhs_displacement(displacement_state(q=q), BASE)
        assert a[0, 0] == pytest.approx(-4 * d + 4 * d**3, abs=1e-15)
        assert a[0, 0] == pytest.approx(-0.396, abs=1e-12)
        for site in ((1, 0), (15, 0), (0, 1), (0, 15)):
            assert a[site] == pytest.approx(d - d**3, abs=1e-15)
        assert a[1, 0] == pytest.approx(0.099, abs=1e-12)

    def test_uniform_constant(self):
        a = rhs_displacement(displacement_state(q=2.7 * np.ones((16, 16))), BASE)
        assert np.all(a == 0.0)

    def test_form_mismatch(self):
        s = LatticeState("strain", u=np.zeros((8, 8)), v=np.zeros((8, 8)),
                         ut=np.zeros((8, 8)), vt=np.zeros((8, 8)))
        with pytest.raises(FormMismatch):
            rhs_displacement(s, BASE)


class TestRhsStrain:
    def test_zero(self):
        s = LatticeState("strain", u=np.zeros((8, 8)), v=np.zeros((8, 8)),
                         ut=np.zeros((8, 8)), vt=np.zeros((8, 8)))
        d2u, d2v = rhs_strain(s, BASE)
        assert np.all(d2u == 0.0) and np.all(d2v == 0.0)

    def test_consistent_with_differenced_displacement(self):
        # oracle: difference the displacement accelerations (the two systems
        # are algebraically equivalent)
        rng = np.random.default_rng(0)
        for amp in (0.3, 0.05):
            q = smooth_random_field(24, rng, amplitude=amp)
            w = smooth_random_field(24, rng, amplitude=amp)
            disp = displacement_state(24, q=q, w=w)
            strain = strain_from_displacement(disp)
            a = rhs_displacement(disp, BASE)
            d2u, d2v = rhs_strain(strain, BASE)
            assert np.allclose(d2u, np.roll(a, -1, axis=0) - a, atol=1e-13)
            assert np.allclose(d2v, np.roll(a, -1, axis=1) - a, atol=1e-13)

    def test_single_bump_differenced(self):
        q = np.zeros((16, 16))
        q[3, 5] = 0.1
        disp = displacement_state(q=q)
        a = rhs_displacement(disp, BASE)
        d2u, d2v = rhs_strain(strain_from_displacement(disp), BASE)
        assert np.allclose(d2u, np.roll(a, -1, axis=0) - a, atol=1e-15)
        assert np.allclose(d2v, np.roll(a, -1, axis=1) - a, atol=1e-15)

    @pytest.mark.parametrize("law", sorted(FORCE_LAWS))
    def test_shared_stencil_matches_second_differences(self, law):
        n = 24
        force = FORCE_LAWS[law](n)
        s = smooth_strain_state(n, 12, 0.3)
        got = rhs_strain(s, force)
        want = second_difference_rhs_strain(s.u, s.v, force)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))

    def test_out_buffers_receive_the_result(self):
        s = smooth_strain_state(16, 13, 0.2)
        out = tuple(np.full((16, 16), np.nan) for _ in range(3))
        d2u, d2v = rhs_strain(s, BASE, out=out)
        assert d2u is out[0] and d2v is out[1]
        fresh = rhs_strain(s, BASE)
        assert np.array_equal(d2u, fresh[0]) and np.array_equal(d2v, fresh[1])

    def test_plane_wave_linear_part(self):
        # small-amplitude compatible plane wave: d2u ~ -omega^2 u + O(amp^3)
        n, jx, jy = 16, 2, 2
        k, l = 2 * np.pi * jx / n, 2 * np.pi * jy / n
        w0 = omega(WaveVector(k, l))
        m = np.arange(n)
        x, y = np.meshgrid(m, m, indexing="ij")
        c = 0.005
        ratio = (np.exp(1j * l) - 1) / (np.exp(1j * k) - 1)
        u = 2 * c * np.cos(k * x + l * y)
        v = 2 * np.real(ratio * c * np.exp(1j * (k * x + l * y)))
        s = LatticeState("strain", u=u, v=v, ut=np.zeros((n, n)), vt=np.zeros((n, n)))
        d2u, d2v = rhs_strain(s, BASE)
        assert np.allclose(d2u, -w0**2 * u, atol=60 * c**3)
        assert np.allclose(d2v, -w0**2 * v, atol=60 * c**3)


class TestVerlet:
    def test_zero_state(self):
        s = verlet_step(displacement_state(), BASE, 0.1)
        assert s.time == pytest.approx(0.1)
        assert np.all(s.q == 0.0) and np.all(s.w == 0.0)

    def test_reversibility(self):
        rng = np.random.default_rng(1)
        s0 = displacement_state(
            16, q=smooth_random_field(16, rng, 0.1), w=smooth_random_field(16, rng, 0.1)
        )
        s1 = verlet_step(s0, BASE, 0.1)
        s2 = verlet_step(s1, BASE, -0.1)
        assert np.max(np.abs(s2.q - s0.q)) < 1e-12
        assert np.max(np.abs(s2.w - s0.w)) < 1e-12
        assert s2.time == pytest.approx(0.0, abs=1e-15)

    def test_returns_new_state_and_leaves_input(self):
        s0 = smooth_strain_state(16, 14, 0.2)
        before = [a.copy() for a in s0.arrays()]
        s1 = verlet_step(s0, BASE, 0.1)
        assert s1 is not s0 and s0.time == 0.0 and s1.time == pytest.approx(0.1)
        assert all(np.array_equal(a, b) for a, b in zip(s0.arrays(), before))
        assert not any(np.shares_memory(a, b) for a, b in zip(s0.arrays(), s1.arrays()))
        s2 = verlet_step(s1, BASE, -0.1)
        for a, b in zip(s2.arrays(), before):
            assert np.max(np.abs(a - b)) < 1e-12

    def test_dt_cap(self):
        with pytest.raises(ValueError):
            verlet_step(displacement_state(), BASE, 0.7)

    def test_overflow_guard(self):
        q = np.full((8, 8), 2e6)
        with pytest.raises(UnstableStep):
            verlet_step(displacement_state(8, q=q), BASE, 0.1)

    def test_nan_state_trips_guard(self):
        vt = np.zeros((8, 8))
        vt[2, 3] = np.nan
        state = LatticeState("strain", u=np.zeros((8, 8)), v=np.zeros((8, 8)),
                             ut=np.zeros((8, 8)), vt=vt)
        assert np.isnan(state.max_amplitude())  # NaN in the last array counts too
        with pytest.raises(UnstableStep):
            verlet_step(state, BASE, 0.1)

    @pytest.mark.parametrize("form, name", [
        ("displacement", "q"), ("displacement", "w"),
        ("strain", "u"), ("strain", "v"), ("strain", "ut"), ("strain", "vt"),
    ])
    def test_guard_names_array_and_site(self, form, name):
        s = smooth_strain_state(16, 15, 0.1)
        if form == "displacement":
            s = displacement_state(16, q=s.u, w=s.ut, time=1.5)
        getattr(s, name)[5, 7] = np.nan
        with pytest.raises(UnstableStep, match=re.escape(f"{name} = nan at site (m, n) = (5, 7)")):
            lattice._check_amplitude(s)

    def test_nan_planted_mid_run_is_reported_where_and_when(self):
        # the observer holds the live state: a NaN put into u at t = 1 is in
        # u at (5, 7) alone after the next drift, so the step ending at
        # t = 1.1 trips the guard there
        def plant(st):
            if st.time == 1.0:
                st.u[5, 7] = np.nan

        with pytest.raises(UnstableStep) as info:
            integrate(smooth_strain_state(16, 16, 0.1), BASE, 0.1,
                      np.linspace(0, 2, 3), plant)
        message = str(info.value)
        assert "u = nan at site (m, n) = (5, 7)" in message
        assert float(re.search(r"t = ([\d.]+)", message).group(1)) == pytest.approx(1.1)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(2)
        q = smooth_random_field(16, rng, 0.2)
        w = smooth_random_field(16, rng, 0.2)
        stepped = verlet_step(displacement_state(16, q=q, w=w), BASE, 0.1)
        rolled = verlet_step(
            displacement_state(16, q=np.roll(q, 1, axis=0), w=np.roll(w, 1, axis=0)),
            BASE,
            0.1,
        )
        assert np.array_equal(np.roll(stepped.q, 1, axis=0), rolled.q)
        assert np.array_equal(np.roll(stepped.w, 1, axis=0), rolled.w)

    def test_zero_crossing_frequency(self):
        # standing wave cos(k.x) cos(omega t) at tiny amplitude; zero-crossing
        # fit of the site signal over ~30 periods
        n, jx, jy = 16, 2, 2
        k, l = 2 * np.pi * jx / n, 2 * np.pi * jy / n
        w0 = omega(WaveVector(k, l))
        m = np.arange(n)
        x, y = np.meshgrid(m, m, indexing="ij")
        q = 1e-9 * np.cos(k * x + l * y)
        dt = 1e-2
        n_steps = int(30 * (2 * np.pi / w0) / dt)
        sig, times = [], []

        def observe(s):
            sig.append(s.q[0, 0])
            times.append(s.time)

        integrate(displacement_state(n, q=q), BASE, dt,
                  np.arange(n_steps + 1) * dt, observe)
        sig = np.array(sig)
        times = np.array(times)
        idx = np.nonzero(np.sign(sig[1:]) != np.sign(sig[:-1]))[0]
        crossings = times[idx] - sig[idx] * dt / (sig[idx + 1] - sig[idx])
        half_period = np.mean(np.diff(crossings))
        measured = np.pi / half_period
        assert abs(measured - w0) / w0 <= 10 * dt**2 * w0**2 / 12

    @pytest.mark.parametrize("form", ["displacement", "strain"])
    def test_one_force_evaluation_per_step(self, form, monkeypatch):
        calls = []
        for name in ("rhs_displacement", "rhs_strain"):
            original = getattr(lattice, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(lattice, name, counted)
        s = smooth_strain_state(16, 17, 0.1)
        if form == "displacement":
            s = displacement_state(16, q=s.u, w=s.ut)
        # 3 + 4 + 5 steps over three sample segments, plus the sample at t0
        final = integrate(s, BASE, 0.1, [0.0, 0.3, 0.7, 1.2], lambda st: None)
        assert final.time == pytest.approx(1.2)
        assert len(calls) == 12 + 1

    def test_matches_reference_verlet_500_steps(self):
        s = smooth_strain_state(24, 18, 0.3)
        dt = 0.05
        final = integrate(s, BASE, dt, [500 * dt], lambda st: None)
        want = reference_verlet(s, BASE, (500 * dt) / 500, 500)
        for got, ref in zip(final.arrays(), want):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_phase_slope_frequencies(self):
        measured, expected = measure_mode_frequencies(
            BASE, 16, [(1, 0), (2, 2), (3, 1)], dt=1e-2, n_steps=2000
        )
        assert np.all(np.abs(measured - expected) / expected < 1e-4)


class TestEnergy:
    def test_zero(self):
        assert energy(displacement_state(), BASE) == 0.0

    def test_single_site_four_bonds(self):
        q = np.zeros((16, 16))
        q[0, 0] = 0.1
        # four bonds at |strain| 0.1, each worth 0.1^2/2 - 0.1^4/4
        assert energy(displacement_state(q=q), BASE) == pytest.approx(
            4 * 0.0049750, abs=1e-12
        )

    def test_drift_ratio_dt_squared(self):
        rng = np.random.default_rng(3)
        q = smooth_random_field(16, rng, 0.2)
        w = smooth_random_field(16, rng, 0.2)

        def max_drift(dt):
            drifts = []
            e0 = energy(displacement_state(16, q=q, w=w), BASE)
            integrate(
                displacement_state(16, q=q, w=w),
                BASE,
                dt,
                np.linspace(0, 20, 201),
                lambda s: drifts.append(abs(energy(s, BASE) - e0)),
            )
            return max(drifts)

        ratio = max_drift(0.1) / max_drift(0.05)
        assert 3.0 <= ratio <= 5.0

    def test_form_mismatch(self):
        s = strain_from_displacement(displacement_state())
        with pytest.raises(FormMismatch):
            energy(s, BASE)


class TestCompatibility:
    def test_strain_of_displacement_is_compatible(self):
        rng = np.random.default_rng(4)
        disp = displacement_state(
            16, q=smooth_random_field(16, rng, 0.3), w=smooth_random_field(16, rng, 0.3)
        )
        assert compatibility_defect(strain_from_displacement(disp)) < 1e-14

    def test_incompatible_detected(self):
        rng = np.random.default_rng(5)
        u = smooth_random_field(16, rng, 0.3)
        z = np.zeros((16, 16))
        s = LatticeState("strain", u=u, v=z, ut=z, vt=z)
        expected = np.max(np.abs(np.roll(u, -1, axis=1) - u))
        assert compatibility_defect(s) == pytest.approx(expected, abs=1e-15)
        assert compatibility_defect(s) > 0

    def test_defect_invariant_short_run(self):
        rng = np.random.default_rng(6)
        disp = displacement_state(
            16, q=smooth_random_field(16, rng, 0.2), w=smooth_random_field(16, rng, 0.2)
        )
        s = strain_from_displacement(disp)
        defects = []
        integrate(s, BASE, 1e-2, np.linspace(0, 5, 26),
                  lambda st: defects.append(compatibility_defect(st)))
        scale = np.max(np.abs(s.u))
        assert max(defects) / scale < 1e-11


class TestStencil:
    """The slice-based stencils against their np.roll formulas, bit for bit."""

    @pytest.mark.parametrize("n", [8, 9, 32])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_forward_diff_matches_roll(self, n, axis):
        f = np.random.default_rng(n + axis).normal(size=(n, n))
        expected = np.roll(f, -1, axis=axis) - f
        assert np.array_equal(lattice._forward_diff(f, axis), expected)
        out = np.full_like(f, np.nan)
        assert lattice._forward_diff(f, axis, out=out) is out
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("n", [8, 9, 32])
    def test_divergence_matches_roll(self, n):
        rng = np.random.default_rng(n)
        fx, fy = rng.normal(size=(2, n, n))
        expected = fx - np.roll(fx, 1, axis=0) + fy - np.roll(fy, 1, axis=1)
        out = np.full_like(fx, np.nan)
        assert lattice._divergence(fx, fy, out) is out
        assert np.array_equal(out, expected)


class TestPerturbedForce:
    def test_polynomial_matches_expanded_form(self):
        eps = 0.2
        f = perturbed_force(16, eps, 1.0, seed=3)
        u = np.random.default_rng(4).uniform(-0.8, 0.8, size=(16, 16))
        for d in "xy":
            a, b, g = (getattr(f, f"{name}_{d}") for name in ("alpha", "beta", "gamma"))
            force = u + a * eps**3 * u + b * eps**2 * u**2 - u**3 + g * eps * u**3
            potential = (u**2 / 2 + a * eps**3 * u**2 / 2 + b * eps**2 * u**3 / 3
                         - u**4 / 4 + g * eps * u**4 / 4)
            np.testing.assert_allclose(f.w_prime(u, d), force, rtol=1e-12, atol=0)
            np.testing.assert_allclose(f.w_potential(u, d), potential, rtol=1e-12, atol=0)

    def test_zero_coefficients_bitwise_baseline(self):
        n = 16
        z = np.zeros((n, n))
        pert = ForceLaw(kind="perturbed", eps=0.1, alpha_x=z, beta_x=z, gamma_x=z,
                        alpha_y=z, beta_y=z, gamma_y=z)
        rng = np.random.default_rng(7)
        q = smooth_random_field(n, rng, 0.3)
        s = displacement_state(n, q=q)
        assert np.array_equal(rhs_displacement(s, pert), rhs_displacement(s, BASE))

    def test_bound_enforced(self):
        n = 8
        big = np.full((n, n), 2.0)
        z = np.zeros((n, n))
        with pytest.raises(ValueError):
            ForceLaw(kind="perturbed", eps=0.1, alpha_x=big, beta_x=z, gamma_x=z,
                     alpha_y=z, beta_y=z, gamma_y=z, coeff_bound=1.0)

    def test_seeded_sampling_deterministic(self):
        f1 = perturbed_force(8, 0.1, 1.0, seed=42)
        f2 = perturbed_force(8, 0.1, 1.0, seed=42)
        assert np.array_equal(f1.alpha_x, f2.alpha_x)
        assert np.max(np.abs(f1.gamma_y)) <= 1.0

    def test_perturbed_energy_consistent(self):
        # d/dt E = 0 for the continuous flow; check the drift is integrator-small
        n = 16
        f = perturbed_force(n, 0.2, 1.0, seed=8)
        rng = np.random.default_rng(9)
        q = smooth_random_field(n, rng, 0.2)
        w = smooth_random_field(n, rng, 0.2)
        s = displacement_state(n, q=q, w=w)
        e0 = energy(s, f)
        drifts = []
        integrate(s, f, 0.02, np.linspace(0, 10, 51),
                  lambda st: drifts.append(abs(energy(st, f) - e0)))
        assert max(drifts) / abs(e0) < 1e-3


class TestStateValidation:
    def test_too_small(self):
        with pytest.raises(ValueError):
            LatticeState("displacement", q=np.zeros((4, 4)), w=np.zeros((4, 4)))

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError):
            LatticeState("displacement", q=np.zeros((8, 8)), w=np.zeros((16, 16)))

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            LatticeState("velocity", q=np.zeros((8, 8)), w=np.zeros((8, 8)))

    def test_from_arrays_rejects_wrong_count(self):
        z = np.zeros((8, 8))
        state = LatticeState.from_arrays("strain", 0.5, [z, z + 1, z + 2, z + 3])
        assert state.time == 0.5 and np.all(state.ut == 2)
        for form, count in (("displacement", 3), ("strain", 2), ("strain", 5)):
            with pytest.raises(ValueError):
                LatticeState.from_arrays(form, 0.0, [z] * count)
