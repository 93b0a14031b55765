"""Tests for the FPUT lattice force, integrator, and diagnostics."""

import re
import tracemalloc

import numpy as np
import pytest

from conftest import measure_mode_frequencies, smooth_random_field, work_arrays
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
    max_amplitude,
    peak,
    perturbed_force,
    strain_from_displacement,
    strains,
)

BASE = ForceLaw()


def step(state, force, dt):
    """The state integrate reaches from state in one step of dt (a copy)."""
    return integrate(state, force, dt, [state.time + dt], lambda st: None)


def reverse(state):
    """The state with its velocity negated: stepping it by dt runs time back."""
    return displacement_state(state.n_side, q=state.q, w=-state.w, time=state.time)


def displacement_state(n=16, q=None, w=None, time=0.0):
    q = np.zeros((n, n)) if q is None else q
    w = np.zeros((n, n)) if w is None else w
    return LatticeState("displacement", time, q=q, w=w)


def smooth_displacement_state(n, seed, amplitude):
    rng = np.random.default_rng(seed)
    return displacement_state(
        n, q=smooth_random_field(n, rng, amplitude), w=smooth_random_field(n, rng, amplitude))


def smooth_strain_state(n, seed, amplitude):
    return strain_from_displacement(smooth_displacement_state(n, seed, amplitude))


def acceleration(state, force):
    """The force a march evaluates, at step h = 1, where it is the
    displacement form's acceleration: into work arrays built for this call."""
    work = lattice._Work(state.n_side, force)
    lattice._force_into_b(lattice._views(state.q), work, work.laws(force, 1.0)[1])
    return work.b


def bond_force(force, u, direction):
    """W'(u) written out: the oracle of the march's bond law (cubes as
    products: u**3 of an array is a slow scalar pow loop)."""
    u3 = u * u * u
    if force.kind == "cubic_baseline":
        return u - u3
    a, b, g = (getattr(force, f"{name}_{direction}") for name in ("alpha", "beta", "gamma"))
    e = force.eps
    return u + a * e**3 * u + b * e**2 * u * u - u3 + g * e * u3


def forward_diff(f, axis):
    """lattice._forward_diff into a new array."""
    return lattice._forward_diff(f, axis, np.empty(f.shape))


def strain_accelerations(state, force):
    """(d2u/dt2, d2v/dt2) of the strain view of a displacement state: the
    forward differences of the displacement acceleration."""
    a = acceleration(state, force)
    return forward_diff(a, 0), forward_diff(a, 1)


def second_difference_rhs_strain(u, v, force):
    """The strain accelerations written out as second differences of the bond
    forces (the oracle for the differenced displacement acceleration)."""
    fu = bond_force(force, u, "x")
    fv = bond_force(force, v, "y")
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
    """Plain velocity Verlet on the strain form, two force evaluations a step;
    returns the strain arrays (u, v, ut, vt)."""
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
    "perturbed": lambda n: perturbed_force(n, 0.2, 1.0, seed=11),
}


class TestRhsDisplacement:
    def test_zero(self):
        assert np.all(acceleration(displacement_state(), BASE) == 0.0)

    def test_single_site_bump(self):
        # hand evaluation of the four-bond balance with W'(+-d) = +-d -+ d^3
        d = 0.1
        q = np.zeros((16, 16))
        q[0, 0] = d
        a = acceleration(displacement_state(q=q), BASE)
        assert a[0, 0] == pytest.approx(-4 * d + 4 * d**3, abs=1e-15)
        assert a[0, 0] == pytest.approx(-0.396, abs=1e-12)
        for site in ((1, 0), (15, 0), (0, 1), (0, 15)):
            assert a[site] == pytest.approx(d - d**3, abs=1e-15)
        assert a[1, 0] == pytest.approx(0.099, abs=1e-12)

    def test_uniform_constant(self):
        a = acceleration(displacement_state(q=2.7 * np.ones((16, 16))), BASE)
        assert np.all(a == 0.0)

    def test_form_mismatch(self, monkeypatch):
        # the force is the displacement form's: integrate refuses a strain
        # state before it evaluates one
        calls = []
        monkeypatch.setattr(lattice, "_add_force", lambda *args: calls.append(1))
        s = LatticeState("strain", u=np.zeros((8, 8)), v=np.zeros((8, 8)),
                         ut=np.zeros((8, 8)), vt=np.zeros((8, 8)))
        with pytest.raises(FormMismatch):
            integrate(s, BASE, 0.1, [0.5], lambda st: None)
        assert calls == []


class TestRhsStrain:
    """The strain flow is the forward difference of the displacement flow:
    its accelerations, the differences of the march's force at h = 1,
    against the second-difference oracle."""

    def test_zero(self):
        d2u, d2v = strain_accelerations(displacement_state(8), BASE)
        assert np.all(d2u == 0.0) and np.all(d2v == 0.0)

    def test_consistent_with_differenced_displacement(self):
        # oracle: the second-difference strain stencil on the differenced
        # state (the two systems are algebraically equivalent)
        rng = np.random.default_rng(0)
        for amp in (0.3, 0.05):
            q = smooth_random_field(24, rng, amplitude=amp)
            w = smooth_random_field(24, rng, amplitude=amp)
            disp = displacement_state(24, q=q, w=w)
            strain = strain_from_displacement(disp)
            a = acceleration(disp, BASE)
            d2u, d2v = second_difference_rhs_strain(strain.u, strain.v, BASE)
            assert np.allclose(d2u, np.roll(a, -1, axis=0) - a, atol=1e-13)
            assert np.allclose(d2v, np.roll(a, -1, axis=1) - a, atol=1e-13)

    def test_single_bump_differenced(self):
        q = np.zeros((16, 16))
        q[3, 5] = 0.1
        disp = displacement_state(q=q)
        a = acceleration(disp, BASE)
        strain = strain_from_displacement(disp)
        d2u, d2v = second_difference_rhs_strain(strain.u, strain.v, BASE)
        assert np.allclose(d2u, np.roll(a, -1, axis=0) - a, atol=1e-15)
        assert np.allclose(d2v, np.roll(a, -1, axis=1) - a, atol=1e-15)

    @pytest.mark.parametrize("law", sorted(FORCE_LAWS))
    def test_shared_stencil_matches_second_differences(self, law):
        n = 24
        force = FORCE_LAWS[law](n)
        disp = smooth_displacement_state(n, 12, 0.3)
        s = strain_from_displacement(disp)
        got = strain_accelerations(disp, force)
        want = second_difference_rhs_strain(s.u, s.v, force)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))

    def test_out_buffers_receive_the_result(self):
        # the force lands in work.b and does not depend on what the work
        # arrays held before
        s = smooth_displacement_state(16, 13, 0.2)
        for make in FORCE_LAWS.values():
            force = make(16)
            work = lattice._Work(16, force)
            for a in (work.a, work.b, work.rows, work.col):
                a.fill(np.nan)
            lattice._force_into_b(lattice._views(s.q), work, work.laws(force, 1.0)[1])
            assert np.array_equal(work.b, acceleration(s, force))

    def test_plane_wave_linear_part(self):
        # small-amplitude plane wave: d2u ~ -omega^2 u + O(amp^3)
        n, jx, jy = 16, 2, 2
        k, l = 2 * np.pi * jx / n, 2 * np.pi * jy / n
        w0 = omega(WaveVector(k, l))
        m = np.arange(n)
        x, y = np.meshgrid(m, m, indexing="ij")
        c = 0.005
        disp = displacement_state(n, q=2 * c * np.cos(k * x + l * y))
        s = strain_from_displacement(disp)
        d2u, d2v = strain_accelerations(disp, BASE)
        assert np.allclose(d2u, -w0**2 * s.u, atol=60 * c**3)
        assert np.allclose(d2v, -w0**2 * s.v, atol=60 * c**3)


class TestVerlet:
    def test_zero_state(self):
        s = step(displacement_state(), BASE, 0.1)
        assert s.time == pytest.approx(0.1)
        assert np.all(s.q == 0.0) and np.all(s.w == 0.0)

    def test_reversibility(self):
        rng = np.random.default_rng(1)
        s0 = displacement_state(
            16, q=smooth_random_field(16, rng, 0.1), w=smooth_random_field(16, rng, 0.1)
        )
        # step, negate w, step, negate w: Verlet is time reversible
        s2 = reverse(step(reverse(step(s0, BASE, 0.1)), BASE, 0.1))
        assert np.max(np.abs(s2.q - s0.q)) < 1e-12
        assert np.max(np.abs(s2.w - s0.w)) < 1e-12

    def test_returns_new_state_and_leaves_input(self):
        s0 = smooth_displacement_state(16, 14, 0.2)
        before = [a.copy() for a in s0.arrays()]
        s1 = step(s0, BASE, 0.1)
        assert s1 is not s0 and s0.time == 0.0 and s1.time == pytest.approx(0.1)
        assert all(np.array_equal(a, b) for a, b in zip(s0.arrays(), before))
        assert not any(np.shares_memory(a, b) for a, b in zip(s0.arrays(), s1.arrays()))
        s2 = reverse(step(reverse(s1), BASE, 0.1))
        for a, b in zip(s2.arrays(), before):
            assert np.max(np.abs(a - b)) < 1e-12

    def test_dt_cap(self):
        with pytest.raises(ValueError, match="exceeds dt_max"):
            integrate(displacement_state(), BASE, 0.7, [0.7], lambda st: None)

    def test_overflow_guard(self):
        q = np.full((8, 8), 2e6)
        with pytest.raises(UnstableStep):
            step(displacement_state(8, q=q), BASE, 0.1)

    def test_max_amplitude(self):
        q = np.zeros((8, 8))
        q[1, 2] = -0.75
        w = np.full((8, 8), 0.5)
        assert max_amplitude([peak(q), peak(w)]) == 0.75
        # an all-zero state reads 0.0, never -0.0
        for zero in (0.0, -0.0):
            z = np.full((8, 8), zero)
            assert str(max_amplitude([peak(z), peak(z)])) == "0.0"
        q[3, 3] = np.nan
        assert np.isnan(max_amplitude([peak(q), peak(w)]))

    def test_nan_state_trips_guard(self):
        w = np.zeros((8, 8))
        w[2, 3] = np.nan
        state = displacement_state(8, w=w)
        # NaN in the last array counts too
        assert np.isnan(max_amplitude([peak(a) for a in state.arrays()]))
        with pytest.raises(UnstableStep):
            step(state, BASE, 0.1)

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
        # the observer holds the live state: a NaN put into q at (15, 15) at
        # t = 1 spreads by at most one site a step, and the guard, checked
        # every CHECK_EVERY steps inside a segment three times that long,
        # reports it in q within CHECK_EVERY steps
        dt, k = 0.1, lattice.CHECK_EVERY

        def plant(st):
            if st.time == 1.0:
                st.q[15, 15] = np.nan

        with pytest.raises(UnstableStep) as info:
            integrate(smooth_displacement_state(32, 16, 0.1), BASE, dt,
                      [0.0, 1.0, 1.0 + 3 * k * dt], plant)
        found = re.search(r"q = nan at site \(m, n\) = \((\d+), (\d+)\), t = ([\d.]+)",
                          str(info.value))
        assert found is not None, str(info.value)
        m, n, t = int(found[1]), int(found[2]), float(found[3])
        assert abs(m - 15) + abs(n - 15) <= k
        assert 1.0 < t <= 1.0 + k * dt + 1e-12

    def test_translation_equivariance(self):
        rng = np.random.default_rng(2)
        q = smooth_random_field(16, rng, 0.2)
        w = smooth_random_field(16, rng, 0.2)
        stepped = step(displacement_state(16, q=q, w=w), BASE, 0.1)
        rolled = step(
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
        # a strain run steps (q, w) too and is observed through the differences
        calls = []
        original = lattice._add_force

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(lattice, "_add_force", counted)
        seen = []
        view = strain_from_displacement if form == "strain" else LatticeState.copy
        # 3 + 4 + 5 steps over three sample segments, plus the force at t0
        final = integrate(smooth_displacement_state(16, 17, 0.1), BASE, 0.1,
                          [0.0, 0.3, 0.7, 1.2], lambda st: seen.append(view(st)))
        assert final.time == pytest.approx(1.2)
        assert len(calls) == 12 + 1
        assert [st.form for st in seen] == [form] * 4

    @pytest.mark.parametrize("law", sorted(FORCE_LAWS))
    def test_march_allocates_no_lattice_array(self, law):
        # a march works in the state, its two work arrays and the block of
        # rows; a flat pass through a ravel() copy, or any N x N temporary,
        # would show as a peak of at least one N x N float64 array
        n = 64
        state = smooth_displacement_state(n, 19, 0.1)
        force = FORCE_LAWS[law](n)
        work = lattice._Work(n, force)
        lattice._force_into_b(lattice._views(state.q), work, work.laws(force, 1.0)[1])
        lattice._march(state, force, 0.1, 1, work)  # warm-up
        tracemalloc.start()
        try:
            lattice._march(state, force, 0.1, 50, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8

    def test_work_arrays_are_two_and_aligned(self):
        # two N x N work arrays and a block of at most N/2 rows, each starting
        # on a cache line, as the march's copy of the state does
        n = 200
        work = lattice._Work(n, perturbed_force(n, 0.2, 1.0, seed=1))
        arrays = [a for a in vars(work).values()
                  if isinstance(a, np.ndarray) and a.shape == (n, n)]
        assert len(arrays) == 2 and work.rows.shape[0] <= n // 2
        assert all(a.ctypes.data % 64 == 0 for a in (*arrays, work.rows))

    @pytest.mark.parametrize("layout", ["fortran", "complex_real", "padded_rows"])
    def test_state_of_any_layout_steps_alike(self, layout):
        # integrate steps an aligned C-ordered copy, whatever the input layout
        same_values = {"fortran": np.asfortranarray, "complex_real": lambda a: (a + 1j).real,
                       "padded_rows": lambda a: np.pad(a, ((0, 0), (0, 3)))[:, :a.shape[1]]}
        s = smooth_displacement_state(16, 20, 0.3)
        other = displacement_state(16, q=same_values[layout](s.q), w=same_values[layout](s.w))
        assert not other.q.flags.c_contiguous
        got, want = (integrate(st, BASE, 0.05, [1.0], lambda st: None) for st in (other, s))
        for g, w in zip(got.arrays(), want.arrays(), strict=True):
            assert np.array_equal(g, w)

    def test_overflow_in_a_march_names_a_python_float(self):
        # one site at 50 on a zero state overflows q inside the march, at a
        # guard check between observations; sample times from an array, as
        # a run's are, make the march's step a numpy float, and the message
        # gives the value as a Python float, not in numpy's repr
        q = np.zeros((16, 16))
        q[8, 8] = 50.0
        with pytest.raises(UnstableStep) as info:
            integrate(displacement_state(16, q=q), BASE, 0.1, np.array([5.0]), lambda st: None)
        message = str(info.value)
        assert re.match(r"q = (-?inf|nan) at site \(m, n\) = \(\d+, \d+\), t = 0\.99", message), \
            message
        assert "np." not in message

    def test_finite_overflow_is_reported_in_the_state_units(self):
        # 2e6 planted in q at (15, 15) at t = 10 dt: with dt = 1e-10 its force
        # drives w there past the guard at once but moves q by less than 20 in
        # CHECK_EVERY steps.  The march holds r = dt q and p = dt^2 w, where
        # that q reads 2e-4; the guard, checked every CHECK_EVERY steps, still
        # reports q, the first array, in its own units, at the planted site
        dt, k = 1e-10, lattice.CHECK_EVERY

        def plant(st):
            if st.time > 0.0:
                st.q[15, 15] = 2e6

        with pytest.raises(UnstableStep) as info:
            integrate(smooth_displacement_state(32, 16, 0.1), BASE, dt,
                      [0.0, k * dt, 4 * k * dt], plant)
        found = re.search(r"^q = (\S+) at site \(m, n\) = \((\d+), (\d+)\), t = (\S+):",
                          str(info.value))
        assert found is not None, str(info.value)
        value, site, t = float(found[1]), (int(found[2]), int(found[3])), float(found[4])
        assert site == (15, 15)
        assert abs(value - 2e6) < 100
        assert k * dt < t <= 2 * k * dt * (1 + 1e-9)

    def test_integrate_takes_displacement_form_only(self):
        with pytest.raises(FormMismatch):
            integrate(smooth_strain_state(16, 17, 0.1), BASE, 0.1, [0.5], lambda st: None)

    def test_matches_reference_verlet_500_steps(self):
        # the differenced displacement run against velocity Verlet on the
        # strain form (unmerged kicks, the second-difference oracle)
        disp = smooth_displacement_state(24, 18, 0.3)
        dt = 0.05
        final = integrate(disp, BASE, dt, [500 * dt], lambda st: None)
        want = reference_verlet(strain_from_displacement(disp), BASE, (500 * dt) / 500, 500)
        for got, ref in zip(strain_from_displacement(final).arrays(), want):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("law", sorted(FORCE_LAWS))
    def test_integrate_matches_chained_verlet_steps(self, law):
        # the merged kicks of one march against S one-step integrate calls,
        # each with its own opening and closing half-kick
        n, dt, steps = 16, 0.05, 3 * lattice.CHECK_EVERY + 7
        force = FORCE_LAWS[law](n)
        chained = smooth_displacement_state(n, 19, 0.3)
        final = integrate(chained, force, dt, [steps * dt], lambda st: None)
        for _ in range(steps):
            chained = step(chained, force, dt)
        assert final.time == pytest.approx(chained.time)
        for got, ref in zip(final.arrays(), chained.arrays()):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_phase_slope_frequencies(self):
        measured, expected = measure_mode_frequencies(
            BASE, 16, [(1, 0), (2, 2), (3, 1)], dt=1e-2, n_steps=2000
        )
        assert np.all(np.abs(measured - expected) / expected < 1e-4)


class TestEnergy:
    def test_zero(self):
        assert energy(displacement_state(), BASE, work_arrays(16)) == 0.0

    def test_single_site_four_bonds(self):
        q = np.zeros((16, 16))
        q[0, 0] = 0.1
        # four bonds at |strain| 0.1, each worth 0.1^2/2 - 0.1^4/4
        assert energy(displacement_state(q=q), BASE, work_arrays(16)) == pytest.approx(
            4 * 0.0049750, abs=1e-12
        )

    def test_drift_ratio_dt_squared(self):
        rng = np.random.default_rng(3)
        q = smooth_random_field(16, rng, 0.2)
        w = smooth_random_field(16, rng, 0.2)

        buffers = work_arrays(16)

        def max_drift(dt):
            drifts = []
            e0 = energy(displacement_state(16, q=q, w=w), BASE, buffers)
            integrate(
                displacement_state(16, q=q, w=w),
                BASE,
                dt,
                np.linspace(0, 20, 201),
                lambda s: drifts.append(abs(energy(s, BASE, buffers) - e0)),
            )
            return max(drifts)

        ratio = max_drift(0.1) / max_drift(0.05)
        assert 3.0 <= ratio <= 5.0

    def test_form_mismatch(self):
        s = strain_from_displacement(displacement_state())
        with pytest.raises(FormMismatch):
            energy(s, BASE, work_arrays(16))

    @pytest.mark.parametrize("law", sorted(FORCE_LAWS))
    def test_buffered_matches_the_formula(self, law):
        # the in-place evaluation keeps every operation of the expression
        # form, so energies and potentials agree bit for bit
        n = 32
        state = smooth_displacement_state(n, 23, 0.4)
        force = FORCE_LAWS[law](n)
        for axis, d in ((0, "x"), (1, "y")):
            u = np.roll(state.q, -1, axis=axis) - state.q
            u2 = u * u
            if force.kind == "cubic_baseline":
                want = 0.5 * u2 - 0.25 * u2 * u2
            else:
                c1, c2, c3 = force._poly[d]
                want = u2 * (0.5 + 0.5 * c1 + u * (c2 / 3.0 + 0.25 * c3 * u))
            assert np.array_equal(force.w_potential(u, d, work_arrays(n)[:2]), want)
        want = float(0.5 * np.sum(state.w**2)
                     + sum(np.sum(force.w_potential(np.roll(state.q, -1, axis) - state.q, d,
                                                    work_arrays(n)[:2]))
                           for axis, d in ((0, "x"), (1, "y"))))
        assert energy(state, force, work_arrays(n)) == want


class TestCompatibility:
    def test_strain_of_displacement_is_compatible(self):
        rng = np.random.default_rng(4)
        disp = displacement_state(
            16, q=smooth_random_field(16, rng, 0.3), w=smooth_random_field(16, rng, 0.3)
        )
        assert compatibility_defect(strain_from_displacement(disp), work_arrays(16)) < 1e-14

    def test_incompatible_detected(self):
        rng = np.random.default_rng(5)
        u = smooth_random_field(16, rng, 0.3)
        z = np.zeros((16, 16))
        s = LatticeState("strain", u=u, v=z, ut=z, vt=z)
        expected = np.max(np.abs(np.roll(u, -1, axis=1) - u))
        assert compatibility_defect(s, work_arrays(16)) == pytest.approx(expected, abs=1e-15)
        assert compatibility_defect(s, work_arrays(16)) > 0

    def test_buffered_matches_the_formula(self):
        rng = np.random.default_rng(11)
        s = LatticeState.from_arrays("strain", 0.0, [smooth_random_field(16, rng, 0.3)
                                                     for _ in range(4)])
        want = float(np.max(np.abs((np.roll(s.u, -1, 1) - s.u) - (np.roll(s.v, -1, 0) - s.v)))
                     + np.max(np.abs((np.roll(s.ut, -1, 1) - s.ut)
                                     - (np.roll(s.vt, -1, 0) - s.vt))))
        assert compatibility_defect(s, work_arrays(16)) == want

    def test_displacement_state_matches_its_strain_view(self):
        # the defect of a displacement state's strains, formed one at a time
        # in the third buffer, is the one of its strain view, bit for bit
        disp = smooth_displacement_state(16, 13, 0.3)
        want = compatibility_defect(strain_from_displacement(disp), work_arrays(16))
        assert compatibility_defect(disp, work_arrays(16)) == want > 0

    def test_defect_invariant_short_run(self):
        # the strain-form oracle flow keeps the constraint, and the strain
        # run, the differenced displacement run, follows it
        rng = np.random.default_rng(6)
        disp = displacement_state(
            16, q=smooth_random_field(16, rng, 0.2), w=smooth_random_field(16, rng, 0.2)
        )
        ref = strain_from_displacement(disp)
        scale = np.max(np.abs(ref.u))
        defects, gaps = [], []

        def observe(st):
            nonlocal ref
            if st.time > ref.time:
                ref = LatticeState.from_arrays(
                    "strain", st.time, reference_verlet(ref, BASE, 1e-2, 20))
            defects.append(compatibility_defect(ref, work_arrays(16)))
            gaps.append(max(np.max(np.abs(a - b)) for a, b in
                            zip(strain_from_displacement(st).arrays(), ref.arrays())))

        integrate(disp, BASE, 1e-2, np.linspace(0, 5, 26), observe)
        assert max(defects) / scale < 1e-11
        assert max(gaps) / scale < 1e-11


# the C-ordered input and three that are not C-contiguous: ravel() of one of
# those is a copy, so a flat pass into such an out would fill a copy and drop it
LAYOUTS = {
    "c": lambda a: a,
    "fortran": np.asfortranarray,
    "transposed": lambda a: a.T,
    "complex_real": lambda a: (a + 1j).real,  # a strided view
}


def real_half(a):
    """a copied into the first half of a complex array's memory, a
    C-contiguous real array, as the residual's scratch is."""
    half = np.empty(a.shape, complex).view(np.float64).reshape(2, *a.shape)[0]
    half[...] = a
    return half


# the C-contiguous layouts the divergence-add's callers pass
DIVERGENCE_LAYOUTS = {"c": lambda a: a, "aligned": lattice._aligned_copy, "real_half": real_half}


def add_divergence(fx, fy, out):
    """out += fx - S-x fx + fy - S-y fy through lattice._add_divergence."""
    col = np.empty(out.shape[0])
    for axis, f in enumerate((fx, fy)):
        lattice._add_divergence(lattice._views(out), lattice._views(f), axis, col)
    return out


class TestStencil:
    """The slice-based stencils against their np.roll formulas, bit for bit,
    on each input layout."""

    @pytest.mark.parametrize("n", [8, 9, 32])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_forward_diff_matches_roll(self, n, axis):
        base = np.random.default_rng(n + axis).normal(size=(n, n))
        for layout, view in LAYOUTS.items():
            f = view(base)
            expected = np.roll(f, -1, axis=axis) - f
            out = np.full((n, n), np.nan)
            assert lattice._forward_diff(f, axis, out=out) is out
            assert np.array_equal(out, expected), layout

    def test_strains_written_into_out(self):
        # strains forms u, v, ut, vt one at a time in out;
        # strain_from_displacement gives the same four in new arrays
        disp = smooth_displacement_state(16, 12, 0.3)
        disp.time = 1.5
        want = [np.roll(f, -1, axis) - f for f in (disp.q, disp.w) for axis in (0, 1)]
        out = np.full((16, 16), np.nan)
        got = []
        for x in strains(disp, out):
            assert x is out
            got.append(x.copy())
        view = strain_from_displacement(disp)
        assert view.form == "strain" and view.time == 1.5
        for g, v, w in zip(got, view.arrays(), want, strict=True):
            assert np.array_equal(g, w) and np.array_equal(v, w)
        with pytest.raises(FormMismatch):
            next(strains(view, out))

    @pytest.mark.parametrize("n", [8, 9, 32])
    def test_divergence_matches_roll(self, n):
        # the one divergence-add, both directions into a zeroed target, on
        # the layouts its callers pass: plain C arrays, the march's aligned
        # ones and the residual's real half of a complex array
        fields = np.random.default_rng(n).normal(size=(2, n, n))
        for layout, view in DIVERGENCE_LAYOUTS.items():
            fx, fy = view(fields[0]), view(fields[1])
            expected = fx - np.roll(fx, 1, axis=0) + fy - np.roll(fy, 1, axis=1)
            out = view(np.zeros((n, n)))
            assert np.array_equal(add_divergence(fx, fy, out), expected), layout

    def test_force_at_h0_is_the_cubic_divergence(self):
        # the residual's cubic term: the march's force kernel at h = 0, where
        # the cubic law is -b^3, into a zeroed target
        n = 32
        q = np.random.default_rng(5).normal(size=(n, n))
        fx, fy = (-(b * b * b) for b in (np.roll(q, -1, 0) - q, np.roll(q, -1, 1) - q))
        expected = fx - np.roll(fx, 1, axis=0) + fy - np.roll(fy, 1, axis=1)
        t, bonds, temp = np.zeros((n, n)), np.empty((n, n)), np.empty((n, n))
        laws = [[(bonds, temp, k)] for k in BASE.scaled_coefficients(0.0, None)]
        lattice._add_force(lattice._views(t), lattice._views(q), lattice._views(bonds), laws,
                           np.empty(n))
        assert np.array_equal(t, expected)

    @pytest.mark.parametrize("layout", ["fortran", "transposed", "complex_real"])
    def test_out_that_is_not_c_contiguous_raises(self, layout):
        f = np.random.default_rng(3).normal(size=(16, 16))
        out = LAYOUTS[layout](np.zeros((16, 16)))
        for axis in (0, 1):
            with pytest.raises(ValueError, match="C-contiguous"):
                lattice._forward_diff(f, axis, out=out)
        # the divergence-add's target, through the views it takes
        with pytest.raises(ValueError, match="C-contiguous"):
            lattice._views(out)

    def test_strain_stencil_fourier_symbols(self):
        # the strain form's cubic residual term: forward differences of the
        # divergence act on (fx, fy) by -wx2, rho_u along x and rho_v, -wy2
        # along y, rho_u = (e^{ik}-1)(1-e^{-il}), rho_v = (e^{il}-1)(1-e^{-ik})
        n = 16
        fx, fy = np.random.default_rng(1).normal(size=(2, n, n))
        k = 2 * np.pi * np.fft.fftfreq(n)
        ex, ey = np.exp(1j * k)[:, None], np.exp(1j * k)[None, :]
        wx2, wy2 = 2 - 2 * np.cos(k)[:, None], 2 - 2 * np.cos(k)[None, :]
        rho_u = (ex - 1) * (1 - 1 / ey)
        rho_v = (ey - 1) * (1 - 1 / ex)
        fx_hat, fy_hat = np.fft.fft2(fx), np.fft.fft2(fy)
        div = add_divergence(fx, fy, np.zeros((n, n)))
        for axis, (sx, sy) in enumerate([(-wx2, rho_u), (rho_v, -wy2)]):
            got = np.fft.fft2(forward_diff(div, axis))
            want = sx * fx_hat + sy * fy_hat
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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
            for h in (1.0, 0.05):
                # the march's law on the scaled strains h u is h^3 W'(u)
                beta = h * u
                work = lattice._Work(16, f)
                k = f.scaled_coefficients(h, work.k)["xy".index(d)]
                ForceLaw._bond_law([(beta, np.empty_like(u), k)])
                np.testing.assert_allclose(beta, h**3 * force, rtol=1e-12, atol=0)
            np.testing.assert_allclose(f.w_potential(u, d, work_arrays(16)[:2]), potential,
                                       rtol=1e-12, atol=0)

    def test_zero_coefficients_bitwise_baseline(self):
        n = 16
        z = np.zeros((n, n))
        pert = ForceLaw(kind="perturbed", eps=0.1, alpha_x=z, beta_x=z, gamma_x=z,
                        alpha_y=z, beta_y=z, gamma_y=z)
        rng = np.random.default_rng(7)
        q = smooth_random_field(n, rng, 0.3)
        s = displacement_state(n, q=q)
        assert np.array_equal(acceleration(s, pert), acceleration(s, BASE))

    @pytest.mark.parametrize("h", [1.0, 0.05, 0.0123])
    def test_scaled_zero_coefficients_bitwise_cubic(self, h):
        # the Horner form at (h^2 (1 + 0), h 0, 0 eps - 1) rounds as the cubic
        # law's beta (h^2 - beta^2), bit for bit, and so do whole runs
        n = 16
        z = np.zeros((n, n))
        pert = ForceLaw(kind="perturbed", eps=0.1, alpha_x=z, beta_x=z, gamma_x=z,
                        alpha_y=z, beta_y=z, gamma_y=z)
        beta = np.random.default_rng(8).uniform(-0.5, 0.5, size=(n, n)) * h
        laws = []
        for force in (BASE, pert):
            work = lattice._Work(n, force)
            for k in force.scaled_coefficients(h, work.k):
                out = beta.copy()
                ForceLaw._bond_law([(out, np.empty((n, n)), k)])
                laws.append(out)
        assert np.array_equal(laws[0], laws[2]) and np.array_equal(laws[1], laws[3])
        s = smooth_displacement_state(n, 21, 0.3)
        runs = [integrate(s, force, 0.05, [0.0, 0.5, 1.2], lambda st: None)
                for force in (BASE, pert)]
        for a, b in zip(runs[0].arrays(), runs[1].arrays()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("alpha, bound", [(2.0, 1.0), (np.nan, 1.0), (0.5, np.nan)],
                             ids=["too_large", "nan_coefficient", "nan_bound"])
    def test_bound_enforced(self, alpha, bound):
        # a NaN coefficient or bound fails the check as a too large one does
        n = 8
        a = np.zeros((n, n))
        a[3, 4] = alpha
        z = np.zeros((n, n))
        with pytest.raises(ValueError, match="bound"):
            ForceLaw(kind="perturbed", eps=0.1, alpha_x=a, beta_x=z, gamma_x=z,
                     alpha_y=z, beta_y=z, gamma_y=z, coeff_bound=bound)

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
        buffers = work_arrays(n)
        e0 = energy(s, f, buffers)
        drifts = []
        integrate(s, f, 0.02, np.linspace(0, 10, 51),
                  lambda st: drifts.append(abs(energy(st, f, buffers) - e0)))
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
