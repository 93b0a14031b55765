"""Tests for the FPUT lattice right-hand sides, integrator, and diagnostics."""

import numpy as np
import pytest

from conftest import measure_mode_frequencies, smooth_random_field
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


class TestPerturbedForce:
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
