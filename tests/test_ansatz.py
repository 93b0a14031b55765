"""Tests for the wave-packet ansatz assembly, projection, and residual.

The exact-derivative claims are checked against centered finite differences in
lattice time (with the envelope advanced to the matching slow times), and the
projection example against direct complex arithmetic.
"""

import numpy as np
import pytest

import tracemalloc

from fput2d.ansatz import (
    CORRECTIONS,
    AnsatzWorkspace,
    FootprintExceeded,
    _add_i_times,
    _correction_products,
    _difference_symbol,
    _frequency,
    _i_times,
    _inverse_8w,
    _lift,
    _resample_map,
    _respec,
    _weights,
    build_initial_data,
    l1_dft_norm,
    residual_norm,
    sample_ansatz,
)
from fput2d.dispersion import WaveVector, nls_coefficients
from fput2d.lattice import LatticeState, compatibility_defect, strain_from_displacement
from fput2d.nls import (
    DEFAULT_BLOWUP_GUARD,
    TAIL_BOUND,
    EnvelopeField,
    NlsProblem,
    _fft2,
    _ifft2,
    evolve,
    gaussian_field,
    linear_symbol,
)
from conftest import initial_data, residual, sample, work_arrays
from test_dispersion import ratio_b_over_a, strain_correction_oracle

PIH = np.pi / 2
KV = WaveVector(PIH, PIH)
DISP = nls_coefficients(KV)
A_KV = np.exp(1j * KV.k) - 1  # the strain envelope of u is A_KV Q
KV_R = WaveVector(PIH, np.pi / 3)  # B/A ratio r != 1


def periodic_gaussian(box, x, y, sigma=4.0):
    """exp(-(X^2 + Y^2)/sigma^2) summed over its nearest periodic images."""
    xx, yy = np.meshgrid(x, y, indexing="ij")
    return sum(np.exp(-((xx + i * box) ** 2 + (yy + j * box) ** 2) / sigma**2)
               for i in (-1, 0, 1) for j in (-1, 0, 1))


def constant_env(value, box, m=8):
    return EnvelopeField(box, np.full((m, m), value, dtype=complex))


def run_projection(u_hat, v_hat, ut_hat, vt_hat):
    """The projection build_initial_data makes, on spectra of real fields in
    LatticeState.arrays() order: each strain pair lifted to a displacement
    spectrum, then the spectra of the lifted state's forward differences.
    The lift writes over its inputs, so it is given copies."""
    e, keep = _difference_symbol(u_hat.shape[0])
    q, w = (np.fft.ifft2(_lift(f.copy(), g.copy(), e, keep)).real
            for f, g in ((u_hat, v_hat), (ut_hat, vt_hat)))
    lifted = LatticeState("displacement", q=q, w=w)
    return [np.fft.fft2(f) for f in strain_from_displacement(lifted).arrays()]


def eval_envelope(spectra, env, eps, t, n):
    """The resampling a sample runs, without the carrier's roll: each
    envelope-grid DFT times the workspace's moving-frame factors at time t
    (DISP's group velocity), its central modes moved to the lattice's modes,
    then inverse transformed."""
    work = AnsatzWorkspace(env, DISP, eps, n, "displacement")
    fx, fy = work._frame(work._k, t, work._scale)
    blocks = _resample_map(env.grid_side, n)[0]
    return [_ifft2(_respec(s * fx[:, None] * fy[None, :], np.zeros((n, n), dtype=complex),
                           blocks, blocks))
            for s in spectra]


def evolved_copy(env, disp, dT_target):
    """Advance a copy of the envelope by dT_target (possibly negative)."""
    if dT_target == 0.0:
        return EnvelopeField(env.box_length, env.a.copy(), env.slow_time)
    prob = NlsProblem(disp.hessian, disp.gamma_q, dT=abs(dT_target) / 2)
    if dT_target > 0:
        return evolve(env, prob, env.slow_time + dT_target,
                      sample_times=[env.slow_time + dT_target],
                      blowup_guard=DEFAULT_BLOWUP_GUARD, tail_bound=TAIL_BOUND)[-1]
    # step backwards: Q(T0 - s) solves the equation with negated Hessian and
    # conjugated cubic coefficient, integrated forward by |dT|
    prob_b = NlsProblem(-prob.hessian, np.conj(prob.nonlin_coeff), prob.dT)
    start = EnvelopeField(env.box_length, env.a.copy(), 0.0)
    out = evolve(start, prob_b, -dT_target, sample_times=[-dT_target],
                 blowup_guard=DEFAULT_BLOWUP_GUARD, tail_bound=TAIL_BOUND)[-1]
    out.slow_time = env.slow_time + dT_target
    return out


class TestSampling:
    def test_zero_envelope(self):
        env = constant_env(0.0, 1.6)
        s = sample(env, DISP, 0.1, 0.0, 16, "strain")
        for f in s.arrays():
            assert np.all(f == 0.0)

    def test_constant_envelope_plane_wave(self):
        eps, n = 0.01, 16
        env = constant_env(1.0 / A_KV, eps * n)  # the strain envelope A_KV Q is 1
        s = sample(env, DISP, eps, 0.0, n, "strain")
        m = np.arange(n) - n // 2
        mm, nn = np.meshgrid(m, m, indexing="ij")
        expected = 0.02 * np.cos(PIH * (mm + nn))
        assert np.allclose(s.u, expected, atol=1e-12)
        # symmetric carrier: B = A so v matches
        assert np.allclose(s.v, expected, atol=1e-12)

    def test_fields_real_and_finite(self):
        env = gaussian_field(40.0, 128, 1.0, 4.0)
        s = sample(env, DISP, 0.2, 3.7, 200, "strain", corrections=True)
        assert (s.form, s.time) == ("strain", 3.7)
        for f in s.arrays():
            assert f.dtype == np.float64
            assert np.all(np.isfinite(f))

    def test_amplitude_budget(self):
        eps = 0.1
        env = gaussian_field(40.0, 128, 1.0, 4.0)
        s = sample(env, DISP, eps, 0.0, 400, "strain", corrections=True)
        assert np.max(np.abs(s.u)) <= 2 * eps * np.max(np.abs(A_KV * env.a)) + 30 * eps**3

    def test_footprint_guard(self):
        env = gaussian_field(40.0, 128, 1.0, 4.0)
        with pytest.raises(FootprintExceeded):
            sample(env, DISP, 0.2, 0.0, 256, "strain")

    def test_degenerate_axis_l_no_v(self):
        disp = nls_coefficients(WaveVector(PIH, 0.0))
        env = gaussian_field(40.0, 128, 1.0, 4.0)
        s = sample(env, disp, 0.2, 0.0, 200, "strain", corrections=True)
        assert np.all(s.v == 0.0)
        assert np.max(np.abs(s.u)) > 0.1

    def test_conjugation_closure_at_t0(self):
        # negating the carrier and conjugating the envelope reproduces the
        # identical field at t = 0 (corrections included)
        env = gaussian_field(40.0, 128, amplitude=0.8, sigma=4.0)
        env.a = env.a * np.exp(0.4j)  # give the envelope a nontrivial phase
        s1 = sample(env, DISP, 0.2, 0.0, 200, "strain", corrections=True)
        disp_neg = nls_coefficients(KV.negated())
        env_c = EnvelopeField(env.box_length, np.conj(env.a))
        s2 = sample(env_c, disp_neg, 0.2, 0.0, 200, "strain", corrections=True)
        assert np.allclose(s1.u, s2.u, atol=1e-13)
        assert np.allclose(s1.v, s2.v, atol=1e-13)


class TestExactDerivatives:
    @pytest.mark.parametrize("corrections", [False, True])
    @pytest.mark.parametrize("variant", ["strain", "displacement"])
    def test_psi_t_centered_difference(self, variant, corrections):
        eps, n, t0 = 0.2, 200, 1.3
        env0 = gaussian_field(40.0, 128, amplitude=0.8, sigma=4.0)
        env = evolve(env0, NlsProblem(DISP.hessian, DISP.gamma_q, 1e-3), eps**2 * t0,
                     sample_times=[eps**2 * t0], blowup_guard=DEFAULT_BLOWUP_GUARD,
                     tail_bound=TAIL_BOUND)[-1]
        h = 1e-4
        env_p = evolved_copy(env, DISP, eps**2 * h)
        env_m = evolved_copy(env, DISP, -(eps**2) * h)
        s = sample(env, DISP, eps, t0, n, variant, corrections)
        sp = sample(env_p, DISP, eps, t0 + h, n, variant, corrections)
        sm = sample(env_m, DISP, eps, t0 - h, n, variant, corrections)
        # positions first, then their velocities
        arrays, plus, minus = s.arrays(), sp.arrays(), sm.arrays()
        half = len(arrays) // 2
        for i in range(half):
            fd = (plus[i] - minus[i]) / (2 * h)
            assert np.max(np.abs(fd - arrays[half + i])) < 1e-6


class TestEnvelopeEvaluation:
    @staticmethod
    def periodic_env(box, m):
        env = gaussian_field(box, m, 1.0, 4.0)
        x = env.coords_1d()
        env.a = periodic_gaussian(box, x, x).astype(complex)
        return env

    @staticmethod
    def exact_at_lattice(box, eps, t, n, velocity):
        # the wrapped moving-frame points of the lattice sites
        m = np.arange(n) - n // 2
        x = (eps * (m + velocity[0] * t) + box / 2) % box - box / 2
        y = (eps * (m + velocity[1] * t) + box / 2) % box - box / 2
        return periodic_gaussian(box, x, y)

    def test_matches_closed_form_gaussian(self):
        env = self.periodic_env(40.0, 256)
        eps, n, t = 0.2, 200, 7.7
        phase = np.exp(1j * 0.3)
        spec = np.fft.fft2(env.a)
        out = eval_envelope([spec, spec * phase], env, eps, t, n)
        exact = self.exact_at_lattice(40.0, eps, t, n, DISP.group_velocity)
        assert np.max(np.abs(out[0] - exact)) < 1e-12
        assert np.max(np.abs(out[1] - phase * exact)) < 1e-12

    def test_fft_exact_on_grid_points(self):
        # at t = 0 with N = M the maps are the identity modulo origins
        m = 128
        env = gaussian_field(25.6, m, 1.0, 4.0)
        out = eval_envelope([np.fft.fft2(env.a)], env, 0.2, 0.0, m)[0]
        assert np.max(np.abs(out - env.a)) < 1e-12

    @pytest.mark.parametrize("m, n_out", [(16, 10), (16, 9), (16, 16), (16, 24), (16, 25),
                                          (9, 4), (9, 9), (9, 16)])
    def test_respec_matches_shift_formula(self, m, n_out):
        # the fftshift / pad-or-crop / ifftshift formula, then np.roll of the
        # rows and columns by the carrier's modes, bit for bit; the blocks
        # write every mode but the pad modes, which stay as they were
        coeffs = np.random.default_rng(m * n_out).normal(size=(m, m, 2)) @ [1, 1j]
        cs = np.fft.fftshift(coeffs)
        if n_out >= m:
            want = np.zeros((n_out, n_out), dtype=complex)
            lo = (n_out - m) // 2
            want[lo:lo + m, lo:lo + m] = cs
        else:
            lo = (m - n_out) // 2
            want = cs[lo:lo + n_out, lo:lo + n_out]
        for roll_x, roll_y in ((0, 0), (3, -5), (-n_out // 2, 1)):
            (rows, row_pads), (cols, col_pads) = (_resample_map(m, n_out, r)
                                                  for r in (roll_x, roll_y))
            assert len(rows) <= 3 and len(cols) <= 3 and len(row_pads) <= 2
            assert (not row_pads) == (not col_pads) == (n_out <= m)
            got = _respec(coeffs, np.full((n_out, n_out), np.nan + 0j), rows, cols)
            unreached = np.zeros((n_out, n_out), dtype=bool)
            for pad in row_pads:
                unreached[pad] = True
            for pad in col_pads:
                unreached[:, pad] = True
            assert np.all(np.isnan(got[unreached])) and not np.any(np.isnan(got[~unreached]))
            got[unreached] = 0.0
            assert np.array_equal(got, np.roll(np.fft.ifftshift(want), (roll_x, roll_y),
                                               axis=(0, 1)))

    def test_fft_requires_commensurate(self):
        env = gaussian_field(40.0, 128, 1.0, 4.0)
        with pytest.raises(FootprintExceeded):
            eval_envelope([np.fft.fft2(env.a)], env, 0.21, 0.0, 100)

    def test_wraparound_periodicity(self):
        # moving-frame offsets that wrap the torus match the periodic closed form
        env = self.periodic_env(25.6, 128)
        eps, n = 0.2, 128
        t = 180.0  # eps*cx*t = 18 > L/2: the window has wrapped
        out = eval_envelope([np.fft.fft2(env.a)], env, eps, t, n)[0]
        exact = self.exact_at_lattice(25.6, eps, t, n, DISP.group_velocity)
        assert np.max(np.abs(out - exact)) < 1e-12


class TestCompatProjection:
    """The projection a strain run's initial data make (run_projection)."""

    def _random_spectra(self, n, rng):
        f = lambda: np.fft.fft2(rng.normal(size=(n, n)))
        return f(), f(), f(), f()

    @staticmethod
    def _symbols(n):
        e = np.exp(2j * np.pi * np.fft.fftfreq(n)) - 1
        return e[:, None] * np.ones(n), np.ones(n)[:, None] * e[None, :]

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        spectra = self._random_spectra(32, rng)
        once = run_projection(*spectra)
        twice = run_projection(*once)
        for x, y in zip(once, twice):
            assert np.max(np.abs(x - y)) < 1e-12

    def test_output_compatible(self):
        # the constraint a*V = b*U holds on every mode, the degenerate ones too
        rng = np.random.default_rng(1)
        pu, pv, put, pvt = run_projection(*self._random_spectra(32, rng))
        a, b = self._symbols(32)
        assert np.max(np.abs(a * pv - b * pu)) < 1e-10
        assert np.max(np.abs(a * pvt - b * put)) < 1e-10

    def test_compatible_input_fixed(self):
        n = 32
        rng = np.random.default_rng(2)
        a, b = self._symbols(n)
        s = np.fft.fft2(rng.normal(size=(n, n)))
        u, v = a * s, b * s  # manifestly compatible: aV - bU = 0
        pu, pv, put, pvt = run_projection(u, v, u, v)
        assert np.max(np.abs(pu - u)) < 1e-10 * np.max(np.abs(u))
        assert np.max(np.abs(pv - v)) < 1e-10 * np.max(np.abs(v))

    def test_single_mode_arithmetic(self):
        # mode (k, l) = (pi/2, pi): a = i - 1, b = -2, input (U, V) = (1, 0)
        # gives U' = -2i/(4 - 2i) = 0.2 - 0.4i, V' = 0.6 - 0.2i; the real
        # field cos(k m + l n) puts U = n^2/2 on that mode and its conjugate
        n = 8
        m = np.arange(n)
        u = np.fft.fft2(np.cos(np.pi / 2 * m[:, None] + np.pi * m[None, :]))
        v = np.zeros((n, n), dtype=complex)
        pu, pv, put, pvt = run_projection(u, v, u, v)
        mode = (2, 4)  # fftfreq index 2 -> k = pi/2, index 4 -> l = pi
        assert u[mode] == pytest.approx(n * n / 2, abs=1e-12)
        a = np.exp(1j * np.pi / 2) - 1
        b = np.exp(1j * np.pi) - 1
        expected_u = a * (a * 1.0) / (a * a + b * b)
        expected_v = b * (a * 1.0) / (a * a + b * b)
        assert pu[mode] / u[mode] == pytest.approx(expected_u, abs=1e-14)
        assert pv[mode] / u[mode] == pytest.approx(expected_v, abs=1e-14)
        assert pu[mode] / u[mode] == pytest.approx(0.2 - 0.4j, abs=1e-12)
        assert pv[mode] / u[mode] == pytest.approx(0.6 - 0.2j, abs=1e-12)
        assert a * pv[mode] == pytest.approx(b * pu[mode], abs=1e-12)

    def test_real_fields_stay_real(self):
        # the lift of real fields' spectra is a real displacement, so the
        # real part build_initial_data takes of its inverse FFT drops nothing
        rng = np.random.default_rng(3)
        u, v, ut, vt = self._random_spectra(32, rng)
        e, keep = _difference_symbol(32)
        for f, g in ((u, v), (ut, vt)):
            assert np.max(np.abs(np.fft.ifft2(_lift(f, g, e, keep)).imag)) < 1e-12

    def test_lift_differences_are_the_projection(self):
        # on kept modes the differences of the lifted q are the oblique
        # projection (a, b) (a U + b V)/(a^2 + b^2); on the two lone degenerate
        # modes u = a q alone fixes q, so U stays and V becomes (b/a) U; the
        # mean is 0
        n = 32
        u, v = self._random_spectra(n, np.random.default_rng(4))[:2]
        _, keep = _difference_symbol(n)
        a, b = self._symbols(n)
        pu, pv, _, _ = run_projection(u, v, u, v)
        s = (a * u + b * v) / np.where(keep, a * a + b * b, 1.0)
        scale = np.max(np.abs(u))
        assert np.max(np.abs((pu - a * s)[keep])) < 1e-12 * scale
        assert np.max(np.abs((pv - b * s)[keep])) < 1e-12 * scale
        lone = ~keep
        lone[0, 0] = False
        assert np.count_nonzero(lone) == 2  # (pi/2, -pi/2) and (-pi/2, pi/2)
        assert np.max(np.abs((pu - u)[lone])) < 1e-12 * scale
        assert np.max(np.abs((pv - b / np.where(lone, a, 1.0) * u)[lone])) < 1e-12 * scale
        assert abs(pu[0, 0]) < 1e-12 * scale and abs(pv[0, 0]) < 1e-12 * scale

    def test_degenerate_mode_count(self):
        # (0, 0) always; the two lone modes (pi/2, -pi/2), (-pi/2, pi/2) when 4 | N
        # (at N = 18, a carrier the 18-point lattice fits)
        for n_side, count, kv in ((16, 3, KV), (18, 1, WaveVector(np.pi / 3, np.pi / 3))):
            env = constant_env(0.0, 0.2 * n_side)
            _, diag = initial_data(env, nls_coefficients(kv), 0.2, n_side, "strain")
            assert diag["degenerate_modes"] == count


class TestInitialData:
    def test_zero_envelope(self):
        env = constant_env(0.0, 3.2)
        state, diag = initial_data(env, DISP, 0.2, 16, "strain")
        assert state.form == "displacement"
        assert np.all(state.q == 0) and np.all(state.w == 0)
        assert diag["max_projection_displacement"] == 0.0

    def test_projected_state_compatible(self):
        # a strain run starts from displacements, so its strain state is
        # compatible up to the round-off of the differences
        env = gaussian_field(40.0, 256, 1.0, 4.0)
        state, _ = initial_data(env, DISP, 0.2, 200, "strain")
        assert compatibility_defect(strain_from_displacement(state), work_arrays(200)) <= 1e-15

    @pytest.mark.parametrize("corrections", [False, True])
    def test_lift_reproduces_projected_strain(self, corrections):
        # the differences of the lifted (q, w) are the projection of the
        # sampled strain state, with the means of all four arrays at 0
        env = gaussian_field(40.0, 256, 1.0, 4.0)
        state, diag = initial_data(env, DISP, 0.2, 200, "strain", corrections)
        raw = sample(env, DISP, 0.2, 0.0, 200, "strain", corrections)
        projected = run_projection(*[np.fft.fft2(f) for f in raw.arrays()])
        lifted = strain_from_displacement(state).arrays()
        assert diag["degenerate_modes"] == 3
        for got, want in zip(lifted, projected):
            assert np.max(np.abs(got - np.fft.ifft2(want).real)) <= 1e-14
            assert abs(np.mean(got)) <= 1e-17

    def test_projection_displacement_eps2(self):
        env = gaussian_field(40.0, 128, 1.0, 4.0)
        moved = {}
        for eps in (0.2, 0.1):
            n = int(round(40.0 / eps))
            _, diag = initial_data(env, DISP, eps, n, "strain")
            moved[eps] = diag["max_projection_displacement"]
        ratio = moved[0.2] / moved[0.1]
        assert 2.5 <= ratio <= 6.5  # eps^2 scaling gives 4

    def test_displacement_form_direct(self):
        env = gaussian_field(40.0, 128, 1.0, 4.0)
        disp_dd = nls_coefficients(KV)
        state, diag = initial_data(env, disp_dd, 0.2, 200, "displacement")
        s = sample(env, disp_dd, 0.2, 0.0, 200, "displacement")
        assert np.array_equal(state.q, s.q)
        assert np.array_equal(state.w, s.w)
        assert diag["max_projection_displacement"] == 0.0

    def test_raw_ansatz_defect_eps2(self):
        # before projection the strain pair violates compatibility at O(eps^2)
        env = gaussian_field(40.0, 128, 1.0, 4.0)
        defects = {}
        for eps in (0.2, 0.1):
            n = int(round(40.0 / eps))
            defects[eps] = compatibility_defect(sample(env, DISP, eps, 0.0, n, "strain"),
                                                work_arrays(n))
        ratio = defects[0.2] / defects[0.1]
        assert 2.5 <= ratio <= 6.5


def _manual_correction(kv, kv_coeffs, ratio, c, eps, n):
    """eps^3 Re[C_-1 e^{-i theta} + C_3 e^{3 i theta} + C_-3 e^{-3 i theta}]
    at t = 0 for the constant field envelope P = ratio * c, with the strain
    closed-form coefficients of the carrier kv_coeffs (kv for u, kv swapped
    for v)."""
    c_1m1, c_13, c_1m3 = strain_correction_oracle(kv_coeffs)
    p = ratio * c
    a_1m1 = 8 * c_1m1 * p * np.conj(p) ** 2
    a_13 = 8 * c_13 * p**3
    a_1m3 = 8 * c_1m3 * np.conj(p) ** 3
    m = np.arange(n) - n // 2
    mm, nn = np.meshgrid(m, m, indexing="ij")
    th = kv.k * mm + kv.l * nn
    return eps**3 * (
        np.real(a_1m1 * np.exp(-1j * th))
        + np.real((a_13 + np.conj(a_1m3)) * np.exp(3j * th))
    )


class TestCorrectionSet:
    def test_products_match_coefficients(self):
        # every term is a per-field weight times a harmonic basis field of Q;
        # the strain form's closed form is written in the strain envelopes
        # A = a Q, a = e^{ik0} - 1, and B = r A, with the coefficients of the
        # carrier with its axes swapped for v
        env = gaussian_field(32.0, 64, amplitude=0.7, sigma=4.0)
        env.a = env.a * np.exp(0.2j)
        for kv in (KV, KV_R):
            disp = nls_coefficients(kv)
            # the basis fields of the harmonics 1, -1, 3, -3 on the envelope grid
            basis = {1: env.a, **{j: _correction_products(j, env.a, None)[0] for j in CORRECTIONS}}
            weights = _weights(disp, "strain", True)
            for name, kv_coeffs, ratio in (("u", kv, 1.0),
                                           ("v", WaveVector(kv.l, kv.k), ratio_b_over_a(kv))):
                c_1m1, c_13, c_1m3 = strain_correction_oracle(kv_coeffs)
                p = ratio * (np.exp(1j * kv.k) - 1) * env.a
                want = {1: 2 * p, -1: 8 * c_1m1 * p * np.conj(p) ** 2,
                        3: 8 * c_13 * p**3, -3: 8 * c_1m3 * np.conj(p) ** 3}
                assert set(weights[name]) == set(want)
                for j, term in want.items():
                    assert np.allclose(weights[name][j] * basis[j], term, atol=1e-14)

    def test_sampled_difference_matches_manual(self):
        # with a constant envelope the correction contribution has a closed form
        eps, n = 0.05, 16
        c = 0.6 + 0.2j
        env = constant_env(c / A_KV, eps * n)  # the strain envelope A_KV Q is c
        s0 = sample(env, DISP, eps, 0.0, n, "strain")
        s1 = sample(env, DISP, eps, 0.0, n, "strain", corrections=True)
        manual = _manual_correction(KV, KV, 1.0, c, eps, n)
        assert np.allclose(s1.u - s0.u, manual, atol=1e-14)

    def test_sampled_v_difference_matches_manual(self):
        # at (pi/2, pi/3) the strain-v envelope is B = r A with r != 1, so
        # the closed form checks the r-weights of the v corrections
        eps, n = 0.05, 24  # N a multiple of l0's lattice period 6
        c = 0.6 + 0.2j
        disp = nls_coefficients(KV_R)
        r = ratio_b_over_a(KV_R)
        assert abs(r - 1) > 0.1
        env = constant_env(c / (np.exp(1j * KV_R.k) - 1), eps * n)
        s0 = sample(env, disp, eps, 0.0, n, "strain")
        s1 = sample(env, disp, eps, 0.0, n, "strain", corrections=True)
        manual = _manual_correction(KV_R, WaveVector(KV_R.l, KV_R.k), r, c, eps, n)
        assert np.max(np.abs(manual)) > 1e-5
        assert np.allclose(s1.v - s0.v, manual, atol=1e-14)


class TestResidual:
    def test_zero_envelope(self):
        env = constant_env(0.0, 3.2)
        assert residual(env, DISP, 0.2, 0.0, 16, "strain", False) == 0.0

    def test_corrections_reduce_residual(self):
        eps = 0.2
        n = 200
        env0 = gaussian_field(40.0, 256, 1.0, 4.0)
        t = 2.0
        env = evolve(env0, NlsProblem(DISP.hessian, DISP.gamma_q, 1e-3), eps**2 * t,
                     sample_times=[eps**2 * t], blowup_guard=DEFAULT_BLOWUP_GUARD,
                     tail_bound=TAIL_BOUND)[-1]
        r_without = residual(env, DISP, eps, t, n, "strain", False)
        r_with = residual(env, DISP, eps, t, n, "strain", True)
        assert r_with < 0.5 * r_without

    def test_displacement_residual_finite(self):
        eps, n = 0.2, 200
        env = gaussian_field(40.0, 256, 1.0, 4.0)
        r = residual(env, DISP, eps, 0.0, n, "displacement", True)
        assert 0 < r < 1.0


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def fft2(x, dtype=complex):
    """The package's 2D DFT of a copy of x cast to complex; for another
    dtype, numpy's in that dtype."""
    if dtype is complex:
        return _fft2(np.array(x, dtype=complex))
    return np.fft.fft2(np.asarray(x, dtype=dtype))


def ifft2(x, dtype=complex):
    """The package's inverse 2D DFT of a copy of x cast to complex; for
    another dtype, numpy's in that dtype."""
    if dtype is complex:
        return _ifft2(np.array(x, dtype=complex))
    return np.fft.ifft2(np.asarray(x, dtype=dtype))


def reference_products(a, a_t):
    """The correction harmonics' basis fields B_j, Q conj(Q)^2, Q^3 and
    conj(Q)^3, and dB_j/dT, from Q and dQ/dT, by their formulas."""
    ac, ac_t = np.conj(a), np.conj(a_t)
    return {-1: (a * ac**2, a_t * ac**2 + 2 * a * ac * ac_t),
            3: (a**3, 3 * a * a * a_t),
            -3: (ac**3, 3 * ac * ac * ac_t)}


def reference_branches(env, disp, eps, t, n, form, corrections, dtype=complex):
    """Per position array, the complex branch sum and its time derivative in
    the expression form on the envelope grid: every harmonic's spectra
    shifted to the moving frame, gathered to the lattice grid by np.take and
    inverse transformed, times the carrier phase as a field, weighted and
    summed.  The workspace assembles the same sums on the lattice's modes,
    with the carrier as a roll of the modes, so they agree to rounding.  It
    transforms with the package's FFT, so it checks that assembly, not the
    FFT library; tests/test_nls.py checks the FFT against scipy.fft.  With
    dtype np.clongdouble it runs in long double from the float64 envelope
    and coefficients."""
    prob = NlsProblem(disp.hessian, disp.gamma_q)
    a = env.a.astype(dtype)
    a_hat = fft2(a, dtype)
    # dQ/dT's DFT as test_nls.envelope_rhs_spectrum gives it, with the cubic
    # term's DFT taken by the package's FFT
    a_t_hat = (1j * linear_symbol(env, prob) * a_hat
               + fft2(prob.nonlin_coeff * np.abs(a) ** 2 * a, dtype))
    m = env.grid_side
    basis = {1: (m, a_hat, a_t_hat)}
    if corrections:
        # Q and dQ/dT on the grid zero-padded to 2M points, and each
        # product's DFT on it
        def padded(spectrum):
            return ifft2(np.fft.ifftshift(np.pad(np.fft.fftshift(spectrum), m // 2)), dtype) * 4

        basis.update({j: (2 * m, fft2(b, dtype), fft2(b_t, dtype)) for j, (b, b_t) in
                      reference_products(padded(a_hat), padded(a_t_hat)).items()})
    (cx, cy), kv, w0 = disp.group_velocity, disp.carrier, disp.omega0

    def resample(spectrum, g, k):
        """The g-point spectrum shifted to the moving frame, gathered to the
        lattice's modes and inverse transformed."""
        c = min(g, n)
        r = np.arange(c)
        dst = (r + (n - c) // 2 - n // 2) % n
        src = np.zeros(n, dtype=int)
        src[dst] = (r + (g - c) // 2 - g // 2) % g
        pad = np.ones(n, dtype=bool)
        pad[dst] = False
        shift = np.outer(n**2 / g**2 * np.exp(1j * eps * cx * t * k),
                         np.exp(1j * eps * cy * t * k))
        out = (spectrum * shift).take(src, axis=0).take(src, axis=1)
        out[pad] = out[:, pad] = 0.0
        return ifft2(out, dtype)

    mvals = (np.arange(n) - n // 2).astype(np.real(np.zeros(1, dtype)).dtype)
    terms = {}
    for j, (g, b_hat, b_t_hat) in basis.items():
        k = EnvelopeField(env.box_length, np.zeros((g, g))).wavenumbers_1d()
        i_mu = 1j * (cx * k[:, None] + cy * k[None, :])
        phase = np.outer(np.exp(1j * j * (kv.k * mvals + w0 * t)), np.exp(1j * j * kv.l * mvals))
        terms[j] = [resample(b_hat, g, k) * phase,
                    resample((1j * j * w0 + eps * i_mu) * b_hat + eps**2 * b_t_hat, g, k) * phase]
    return {name: [sum(eps ** (1 if j == 1 else 3) * wj * terms[j][d] for j, wj in w.items())
                   for d in range(2)]
            for name, w in _weights(disp, form, corrections).items()}


def reference_residual(env, disp, eps, t, n, form, corrections, dtype=complex):
    """residual_norm in the expression form, on reference_branches."""
    acc = reference_branches(env, disp, eps, t, n, form, corrections, dtype)
    wk2 = 2.0 - 2.0 * np.cos(2 * np.pi * np.fft.fftfreq(n))
    w = np.sqrt(wk2[:, None] + wk2[None, :])
    inv_8iw = np.zeros((n, n), dtype=complex)
    inv_8iw[w > 0] = 1.0 / (8j * w[w > 0])
    fields = [2 * psi1.real for psi1, _ in acc.values()]
    bonds = ([np.roll(fields[0], -1, axis) - fields[0] for axis in (0, 1)]
             if form == "displacement" else fields)
    fx, fy = (-b * (b * b) for b in bonds)  # -b^3 as residual_norm rounds it
    div = fx - np.roll(fx, 1, axis=0) + fy - np.roll(fy, 1, axis=1)
    cubic = [div] if form == "displacement" else [np.roll(div, -1, axis) - div for axis in (0, 1)]
    return 2 * sum(l1_dft_norm(-fft2(dpsi1, dtype) + 1j * w * fft2(psi1, dtype)
                               + inv_8iw * fft2(n_cubic, dtype), np.empty((n, n)))
                   for (psi1, dpsi1), n_cubic in zip(acc.values(), cubic))


def reference_initial_data(env, disp, eps, n, form, corrections):
    """build_initial_data on reference_branches at t = 0: the sample, and in
    strain form the lift of each pair of its spectra."""
    sampled = [f(psi).real for f in (lambda p: p[0], lambda p: p[1])
               for psi in reference_branches(env, disp, eps, 0.0, n, form,
                                             corrections).values()]
    if form == "displacement":
        return sampled
    e, keep = _difference_symbol(n)
    return [ifft2(_lift(fft2(u), fft2(v), e, keep)).real
            for u, v in (sampled[:2], sampled[2:])]


def assert_close(got, want, rel=1e-13):
    """got within rel of want's sup norm."""
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


class TestWorkspace:
    """One workspace serves every sample and residual of a run."""

    @pytest.mark.parametrize("grid_side", [128, 64])  # N = 80 truncates, then pads
    @pytest.mark.parametrize("variant", ["strain", "displacement"])
    def test_reused_workspace_matches_fresh_calls(self, variant, grid_side):
        # the states and residuals of a workspace reused over a sequence of
        # calls, with and without corrections, equal bit for bit those of a
        # fresh workspace per call: each call re-zeroes the pad modes the
        # previous inverse FFT filled, and rewrites every buffer it reads
        eps, n = 0.25, 80
        env0 = gaussian_field(eps * n, grid_side, amplitude=0.8, sigma=4.0)
        env0.a = env0.a * np.exp(0.3j)
        envs = evolve(env0, NlsProblem(DISP.hessian, DISP.gamma_q), 0.1,
                      sample_times=[0.0, 0.05, 0.1], blowup_guard=DEFAULT_BLOWUP_GUARD,
                      tail_bound=TAIL_BOUND)
        work = AnsatzWorkspace(env0, DISP, eps, n, variant)
        for env in envs:
            t = env.slow_time / eps**2
            for corrections in (False, True, False):
                got = sample_ansatz(work, env, t, corrections)
                assert all(a is b for a, b in zip(got.arrays(), work.arrays))
                want = sample(env, DISP, eps, t, n, variant, corrections)
                assert (got.form, got.time) == (want.form, want.time)
                for g, w in zip(got.arrays(), want.arrays()):
                    assert np.array_equal(_bits(g), _bits(w))
                r_got = residual_norm(work, env, t, corrections)
                r_want = residual(env, DISP, eps, t, n, variant, corrections)
                assert r_got.hex() == r_want.hex()

    @pytest.mark.parametrize("corrections", [False, True])
    @pytest.mark.parametrize("grid_side", [128, 64])  # N = 96 truncates, then pads
    @pytest.mark.parametrize("variant", ["strain", "displacement"])
    def test_matches_the_expression_form(self, variant, grid_side, corrections):
        # samples, initial data and residuals at the default carrier, one
        # whose v envelope is not its u envelope, an elliptic and a hyperbolic
        # one agree with the oracle to 1e-13 of each array's sup (N = 96 is a
        # multiple of every carrier's lattice period)
        eps, n, t = 0.25, 96, 7.3
        env = gaussian_field(eps * n, grid_side, amplitude=0.8, sigma=4.0)
        env.a = env.a * np.exp(0.3j)
        for kv in (KV, KV_R, WaveVector(3 * np.pi / 4, 3 * np.pi / 4),
                   WaveVector(np.pi / 4, np.pi / 4)):
            disp = nls_coefficients(kv)
            work = AnsatzWorkspace(env, disp, eps, n, variant)
            want = reference_branches(env, disp, eps, t, n, variant, corrections)
            r_want = reference_residual(env, disp, eps, t, n, variant, corrections)
            for _ in range(2):  # a fresh workspace, then a used one
                got = sample_ansatz(work, env, t, corrections).arrays()
                half = len(got) // 2
                for i, (psi1, dpsi1) in enumerate(want.values()):
                    assert_close(got[i], psi1.real)
                    assert_close(got[half + i], dpsi1.real)
                assert abs(residual_norm(work, env, t, corrections) - r_want) <= 1e-13 * r_want
            state, _ = build_initial_data(work, env, corrections)
            for got, want_0 in zip(state.arrays(),
                                   reference_initial_data(env, disp, eps, n, variant,
                                                          corrections)):
                assert_close(got, want_0)

    def test_state_is_live(self):
        env = gaussian_field(20.0, 64, 1.0, 4.0)
        work = AnsatzWorkspace(env, DISP, 0.25, 80, "strain")
        first = sample_ansatz(work, env, 0.0)
        kept = first.copy()
        sample_ansatz(work, env, 30.0)
        assert not np.array_equal(first.u, kept.u)  # overwritten by the next call

    @pytest.mark.parametrize("variant", ["strain", "displacement"])
    def test_initial_state_is_live(self, variant):
        # the initial state's arrays are the workspace's, as a sample's are
        # (integrate steps a copy), and the next call on it overwrites them
        env = gaussian_field(20.0, 64, 1.0, 4.0)
        work = AnsatzWorkspace(env, DISP, 0.25, 80, variant)
        state, _ = build_initial_data(work, env, False)
        assert [a is b for a, b in zip(state.arrays(), work.arrays)] == [True, True]
        kept = state.copy()
        sample_ansatz(work, env, 30.0)
        for a, b in zip(state.arrays(), kept.arrays()):
            assert not np.array_equal(a, b)

    # envelopes of other runs: two finer grids, another box, a box one ulp
    # off, and another grid and box
    @pytest.mark.parametrize("other", [
        dict(grid_side=128), dict(grid_side=256), dict(box=25.0),
        dict(box=np.nextafter(20.0, 21.0)), dict(grid_side=128, box=25.0)])
    def test_workspace_of_another_run_rejected(self, other):
        # the workspace fixes the carrier, eps, lattice side and form; the
        # envelope each call brings must have its grid side and box
        work = AnsatzWorkspace(gaussian_field(20.0, 64, 1.0, 4.0), DISP, 0.25, 80, "strain")
        env = gaussian_field(other.get("box", 20.0), other.get("grid_side", 64), 1.0, 4.0)
        for call in (lambda: sample_ansatz(work, env, 0.0),
                     lambda: residual_norm(work, env, 0.0, True),
                     lambda: build_initial_data(work, env, False)):
            with pytest.raises(ValueError, match="grid side or box differs"):
                call()


    @pytest.mark.parametrize("variant", ["strain", "displacement"])
    def test_residual_matches_a_long_double_oracle(self, variant):
        # with corrections the residual at eps 0.1 is about eps^3 of the
        # terms it sums, so their rounding shows 1e3 larger in it; assembled
        # on the lattice's modes it is 1.6e-13 (strain 2.8e-13) from the
        # expression form in long double; forward DFTs of the assembled fields
        # put it 9e-12 off
        eps, n = 0.1, 400
        env = gaussian_field(eps * n, 128, 1.0, 4.0)
        work = AnsatzWorkspace(env, DISP, eps, n, variant)
        want = reference_residual(env, DISP, eps, 0.0, n, variant, True, np.clongdouble)
        assert abs(residual_norm(work, env, 0.0, True) - want) <= 1e-12 * want

    @pytest.mark.parametrize("n", [80, 100])
    def test_carrier_off_the_lattice_rejected(self, n):
        # the roll needs j k0 and j l0 to be lattice wavenumbers: l0 = pi/3
        # is one only when 6 divides N
        env = gaussian_field(0.25 * n, 64, 1.0, 4.0)
        with pytest.raises(ValueError, match=rf"carrier \(.*\) does not fit the N = {n} lattice"):
            AnsatzWorkspace(env, nls_coefficients(KV_R), 0.25, n, "strain")

    @pytest.mark.parametrize("variant", ["strain", "displacement"])
    def test_two_complex_lattice_arrays(self, variant):
        # the workspace's lattice-sized arrays are its two complex spectra and
        # the state's arrays, and after the first call a sample or a residual
        # allocates no array of one real N x N array's size
        env = gaussian_field(40.0, 128, 1.0, 4.0)
        n = 200
        work = AnsatzWorkspace(env, DISP, 0.2, n, variant)
        held = [a for v in vars(work).values() for a in (v if isinstance(v, tuple) else (v,))
                if isinstance(a, np.ndarray) and a.size >= n * n]
        assert sorted(a.dtype.str for a in held) == ["<c16"] * 2 + ["<f8"] * len(work.arrays)
        assert all(a.shape == (n, n) for a in held)
        sample_ansatz(work, env, 1.0)
        residual_norm(work, env, 1.0, False)
        tracemalloc.start()
        try:
            for call in (lambda: sample_ansatz(work, env, 2.0),
                         lambda: residual_norm(work, env, 2.0, False)):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                call()
                assert tracemalloc.get_traced_memory()[1] - before < n * n * 8
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("variant", ["strain", "displacement"])
    def test_corrected_call_allocates_no_lattice_spectra(self, variant):
        # a corrected sample or residual forms Q, dQ/dT and one correction
        # harmonic's products at a time on the 2M = 256 grid, and adds each
        # harmonic onto the workspace's two spectra in the mode copy: no
        # N x N spectrum of its own (six of them took a call to 12.5 MB)
        env = gaussian_field(40.0, 128, 1.0, 4.0)
        work = AnsatzWorkspace(env, DISP, 0.2, 200, variant)
        sample_ansatz(work, env, 1.0, True)
        tracemalloc.start()
        try:
            for call in (lambda: sample_ansatz(work, env, 2.0, True),
                         lambda: residual_norm(work, env, 2.0, True)):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                call()
                assert tracemalloc.get_traced_memory()[1] - before <= 8.7e6
        finally:
            tracemalloc.stop()

def _hex(z):
    """Float hex of each real and imaginary part, with -0.0 read as 0.0."""
    return [v.hex() for v in (np.asarray(z).view(np.float64) + 0.0).ravel().tolist()]


class TestImaginaryMultipliers:
    """The workspace applies each purely imaginary multiplier i s as the
    real products of s with the spectrum's parts, by real arithmetic or after
    the exact rotation of the spectrum by i or -i; on random spectra every
    product equals, float hex for float hex, the one the complex constant of
    the formula forms, the modes where s is 0 included."""

    eps, n = 0.2, 120  # eps not a power of 2, so eps times a product rounds

    @staticmethod
    def spectra(seed, m):
        return np.random.default_rng(seed).normal(size=(m, m, 2)) @ [1, 1j]

    def test_symbol_term(self):
        # harmonic 1's velocity spectrum eps^2 C + (i S) Q on the envelope
        # grid (M = 64), S = eps c . K + omega0 + eps^2 sigma
        env = gaussian_field(self.eps * self.n, 64, 0.8, 4.0)
        disp = nls_coefficients(KV_R)
        work = AnsatzWorkspace(env, disp, self.eps, self.n, "displacement")
        (cx, cy), k = disp.group_velocity, env.wavenumbers_1d()
        sigma = linear_symbol(env, NlsProblem(disp.hessian, disp.gamma_q))
        symbol = ((cx * k[:, None] + cy * k[None, :]) * self.eps + disp.omega0
                  + self.eps**2 * sigma)
        assert np.array_equal(work._symbol, symbol)
        q, c = self.spectra(1, 64), self.spectra(2, 64)
        got = c.copy()
        _add_i_times(work._symbol, q, got, np.empty((64, 64)))
        assert _hex(got) == _hex(c + (1j * symbol) * q)

    @pytest.mark.parametrize("j", [1, -1, 3, -3])
    def test_group_velocity_term(self, j):
        # eps^2 dB/dT + (i j omega0 + eps i c . K) B on the 2M-point grid, as
        # the correction harmonics form it; c . K = 0 at K = 0
        env = gaussian_field(self.eps * self.n, 64, 0.8, 4.0)
        disp = nls_coefficients(KV_R)
        work = AnsatzWorkspace(env, disp, self.eps, self.n, "strain")
        b_hat, b_t_hat = self.spectra(20 + j, 128), self.spectra(30 + j, 128)
        (cx, cy), k = disp.group_velocity, work._k2
        i_mu = 1j * (cx * k[:, None] + cy * k[None, :])
        want = np.multiply(self.eps**2, b_t_hat)
        want += (np.multiply(self.eps, i_mu) + 1j * j * disp.omega0) * b_hat
        got = np.multiply(self.eps**2, b_t_hat)
        got += _i_times(work._velocity_symbol(k, j), b_hat, out=b_hat)
        assert _hex(got) == _hex(want)

    def test_residual_multipliers(self):
        # (i omega) Psi_1 and (1/(8 i omega)) N, the latter 0 at omega = 0
        n = self.n
        wk2 = 2.0 - 2.0 * np.cos(2 * np.pi * np.fft.fftfreq(n))
        w = np.sqrt(wk2[:, None] + wk2[None, :])
        inv_8iw = np.zeros((n, n), dtype=complex)
        inv_8iw[w > 0] = 1.0 / (8j * w[w > 0])
        work = AnsatzWorkspace(gaussian_field(self.eps * n, 64, 0.8, 4.0), DISP,
                               self.eps, n, "displacement")
        omega = _frequency(work._wk2, out=np.empty((n, n)))
        assert np.array_equal(omega, w) and np.count_nonzero(omega == 0) == 1
        x = self.spectra(3, n)
        assert _hex(_i_times(omega, x, out=np.empty_like(x))) == _hex((1j * w) * x)
        inverse = _inverse_8w(omega, out=np.empty((n, n)))
        assert inverse[0, 0] == 0.0
        assert (_hex(_i_times(inverse, x, out=x.copy(), turn=-1j))
                == _hex(inv_8iw * x))


class TestL1Bridge:
    def test_sup_bounded_by_l1_dft(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            f = rng.normal(size=(32, 32))
            assert np.max(np.abs(f)) <= l1_dft_norm(np.fft.fft2(f), np.empty(f.shape)) + 1e-12

