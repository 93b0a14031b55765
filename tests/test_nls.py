"""Tests for the split-step envelope solver.

Oracles: the closed-form anisotropic free evolution of a Gaussian (each
principal axis of the Hessian evolves as a 1D Gaussian with complex width),
and a brute-force RK4 integration of the Fourier-truncated semidiscrete
system at a tiny step.
"""

import re

import numpy as np
import pytest
from scipy import fft as scipy_fft

from fput2d.dispersion import WaveVector, hessian, nls_coefficients
from fput2d import nls
from fput2d.nls import (
    DEFAULT_BLOWUP_GUARD,
    TAIL_BOUND,
    EnvelopeBlowup,
    EnvelopeField,
    EnvelopeUnresolved,
    NlsProblem,
    _fft2,
    _ifft2,
    edge_mass_fraction,
    evolve,
    gaussian_field,
    linear_symbol,
    mass,
)

H_CENTER = hessian(WaveVector(np.pi / 2, np.pi / 2))
H_ZERO = np.zeros((2, 2))


def h4_proxy(field: EnvelopeField) -> float:
    """The oracle of evolve's H^4 guard, from the field's own samples: the
    Fourier-weighted norm sqrt(sum ((1 + |K|^2)^2 |a_hat(K)|)^2 dK^2), with
    a_hat the DFT scaled to the continuous transform's normalisation."""
    k = 2 * np.pi * np.fft.fftfreq(field.grid_side, d=field.spacing)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    a_hat = np.abs(np.fft.fft2(field.a)) * field.spacing**2 / (2 * np.pi) ** 2
    dk = 2 * np.pi / field.box_length
    return float(np.sqrt(np.sum(((1 + kx**2 + ky**2) ** 2 * a_hat) ** 2) * dk**2))


def envelope_rhs_spectrum(a: np.ndarray, a_hat: np.ndarray, symbol: np.ndarray,
                          gamma: complex) -> np.ndarray:
    """The oracle of dQ/dT's DFT, i sigma F(Q) + F(gamma |Q|^2 Q), from Q on
    the grid, its DFT a_hat and the linear symbol."""
    return 1j * symbol * a_hat + scipy_fft.fft2(gamma * np.abs(a) ** 2 * a)


def spectral_tail(field: EnvelopeField) -> float:
    """The oracle of evolve's tail guard, from the field's own samples: the
    share of sum |a_hat|^2 in the modes with |index| >= 3M/8 on either axis."""
    power = np.abs(np.fft.fft2(field.a)) ** 2
    m = field.grid_side
    outer = np.abs(np.fft.fftfreq(m) * m) >= 3 * m / 8
    outer = outer[:, None] | outer[None, :]
    return float(power[outer].sum() / power.sum())


def flow(field: EnvelopeField, prob: NlsProblem, span: float) -> EnvelopeField:
    """The field after evolve marches it by span from its current slow time.

    The smooth-norm and tail guards are off: white-noise fields exceed both
    at once.
    """
    t_end = field.slow_time + span
    return evolve(field, prob, t_end, sample_times=[t_end], blowup_guard=np.inf,
                  tail_bound=np.inf)[-1]


def gaussian_free_oracle(field0: EnvelopeField, hess: np.ndarray, sigma: float,
                         amplitude: float, t: float) -> np.ndarray:
    """Closed form for the purely linear flow of a * exp(-(X^2+Y^2)/sigma^2).

    Diagonalize H = R diag(l1, l2) R^T; along each principal axis the factor
    exp(-xi^2 / (4 p)) evolves with p(t) = sigma^2/4 - i l t / 2 and picks up
    sqrt(p0/p).
    """
    evals, evecs = np.linalg.eigh(hess)
    x = field0.coords_1d()
    xx, yy = np.meshgrid(x, x, indexing="ij")
    xi1 = evecs[0, 0] * xx + evecs[1, 0] * yy
    xi2 = evecs[0, 1] * xx + evecs[1, 1] * yy
    p0 = sigma**2 / 4
    out = amplitude * np.ones_like(xx, dtype=complex)
    for lam, xi in ((evals[0], xi1), (evals[1], xi2)):
        p = p0 - 0.5j * lam * t
        out = out * np.sqrt(p0 / p) * np.exp(-(xi**2) / (4 * p))
    return out


def rk4_oracle(field0: EnvelopeField, prob: NlsProblem, t_final: float, dt: float):
    """Classical RK4 on dA/dT = i sigma(K) A + gamma |A|^2 A (semidiscrete)."""
    symbol = linear_symbol(field0, prob)
    g = prob.nonlin_coeff
    a = field0.a.copy()
    n = int(round(t_final / dt))
    f = lambda y: np.fft.ifft2(envelope_rhs_spectrum(y, np.fft.fft2(y), symbol, g))
    for _ in range(n):
        k1 = f(a)
        k2 = f(a + 0.5 * dt * k1)
        k3 = f(a + 0.5 * dt * k2)
        k4 = f(a + dt * k3)
        a = a + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return a


class TestTransforms:
    """_fft2 and _ifft2 against scipy.fft, an independent implementation: the
    in-place passes, one per axis, must give the 2D transform at the sides
    the runs use, for complex data and for real data cast to complex."""

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("side", [64, 128, 160, 200, 252, 256])
    def test_match_scipy_in_place(self, side, real):
        rng = np.random.default_rng(side)
        x = rng.normal(size=(side, side))
        if not real:
            x = x + 1j * rng.normal(size=(side, side))
        for ours, theirs in ((_fft2, scipy_fft.fft2), (_ifft2, scipy_fft.ifft2)):
            a = x.astype(complex)
            want = theirs(x)
            got = ours(a)
            assert got is a
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("bad", [np.zeros((8, 8)), np.zeros((8, 8), dtype=np.complex64),
                                     np.zeros((8, 16), dtype=complex)[:, ::2]])
    def test_only_c_contiguous_complex128(self, bad):
        for transform in (_fft2, _ifft2):
            with pytest.raises(TypeError, match="C-contiguous complex128"):
                transform(bad)


class TestLinearHalfstep:
    # gamma = 0 leaves only the exact linear flow in evolve's Strang sweep
    def test_constant_unchanged(self):
        f = EnvelopeField(32.0, np.full((64, 64), 2.5 + 1j))
        prob = NlsProblem(H_CENTER, 0j, dT=0.01)
        out = flow(f, prob, prob.dT / 2)
        assert np.allclose(out.a, f.a, atol=1e-13)

    def test_single_mode_phase(self):
        m, L = 64, 32.0
        f0 = EnvelopeField(L, np.zeros((m, m), dtype=complex))
        x = f0.coords_1d()
        xx, yy = np.meshgrid(x, x, indexing="ij")
        kvec = 2 * np.pi * np.array([3, -5]) / L
        prob = NlsProblem(H_CENTER, 0j, dT=0.02)
        f0.a = np.exp(1j * (kvec[0] * xx + kvec[1] * yy))
        out = flow(f0, prob, prob.dT / 2)
        sigma = 0.5 * kvec @ H_CENTER @ kvec
        expected = np.exp(1j * (prob.dT / 2) * sigma) * f0.a
        assert np.allclose(out.a, expected, atol=1e-12)
        assert np.allclose(np.abs(out.a), 1.0, atol=1e-12)

    def test_gaussian_against_closed_form(self):
        sigma, amp = 4.0, 1.0
        f = gaussian_field(40.0, 256, amp, sigma)
        prob = NlsProblem(H_CENTER, 0j, dT=0.01)
        traj = evolve(f, prob, 1.0, sample_times=[1.0], blowup_guard=DEFAULT_BLOWUP_GUARD,
                      tail_bound=TAIL_BOUND)
        oracle = gaussian_free_oracle(f, H_CENTER, sigma, amp, 1.0)
        assert np.max(np.abs(traj[-1].a - oracle)) < 1e-6

    def test_gaussian_closed_form_generic_hessian(self):
        # non-degenerate anisotropic case
        h = hessian(WaveVector(1.0, 2.2))
        sigma, amp = 3.0, 0.7
        f = gaussian_field(40.0, 256, amp, sigma)
        prob = NlsProblem(h, 0j, dT=0.01)
        traj = evolve(f, prob, 1.0, sample_times=[1.0], blowup_guard=DEFAULT_BLOWUP_GUARD,
                      tail_bound=TAIL_BOUND)
        oracle = gaussian_free_oracle(f, h, sigma, amp, 1.0)
        assert np.max(np.abs(traj[-1].a - oracle)) < 1e-6


class TestNonlinearStep:
    # a zero Hessian (or a constant field) leaves only the pointwise rotation
    def test_zero(self):
        f = EnvelopeField(16.0, np.zeros((32, 32), dtype=complex))
        out = flow(f, NlsProblem(H_ZERO, -3j, dT=0.5), 0.5)
        assert np.all(out.a == 0)

    def test_modulus_invariant(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        f = EnvelopeField(12.0, a)
        out = flow(f, NlsProblem(H_ZERO, -3j, dT=0.3), 0.3)
        assert np.allclose(np.abs(out.a), np.abs(a), atol=1e-14)

    def test_constant_exact_rotation(self):
        f = EnvelopeField(16.0, np.ones((32, 32), dtype=complex))
        out = flow(f, NlsProblem(H_CENTER, -3j, dT=0.1), 0.1)
        assert np.allclose(out.a, np.exp(-0.3j), atol=1e-14)

    def test_real_coefficient_rejected(self):
        with pytest.raises(ValueError):
            NlsProblem(H_CENTER, 1.0 - 3j)


class TestStrang:
    def test_mass_conserved_1000_steps(self):
        f = gaussian_field(40.0, 128, 1.0, 4.0)
        prob = NlsProblem(H_CENTER, -3j, dT=1e-3)
        m0 = mass(f)
        out = flow(f, prob, 1000 * prob.dT)
        assert abs(mass(out) - m0) / m0 < 1e-12

    def test_self_convergence_order(self):
        # errors at dT and dT/2 against a dT/16 reference
        f0 = gaussian_field(40.0, 128, amplitude=0.8, sigma=4.0)
        base = 4e-3

        def run(dt):
            prob = NlsProblem(H_CENTER, -3j, dT=dt)
            return evolve(f0, prob, 0.5, sample_times=[0.5],
                          blowup_guard=DEFAULT_BLOWUP_GUARD, tail_bound=TAIL_BOUND)[-1].a

        ref = run(base / 16)
        e1 = np.max(np.abs(run(base) - ref))
        e2 = np.max(np.abs(run(base / 2) - ref))
        order = np.log2(e1 / e2)
        assert 1.9 <= order <= 2.1

    def test_against_rk4(self):
        f0 = gaussian_field(32.0, 64, amplitude=0.5, sigma=4.0)
        prob = NlsProblem(H_CENTER, -3j, dT=1e-4)
        got = evolve(f0, prob, 0.5, sample_times=[0.5], blowup_guard=DEFAULT_BLOWUP_GUARD,
                     tail_bound=TAIL_BOUND)[-1].a
        oracle = rk4_oracle(f0, NlsProblem(H_CENTER, -3j, dT=1e-3), 0.5, 1e-3)
        assert np.max(np.abs(got - oracle)) < 1e-8


class TestEvolve:
    def test_zero_data(self):
        f = EnvelopeField(32.0, np.zeros((64, 64), dtype=complex))
        traj = evolve(f, NlsProblem(H_CENTER, -3j), 1.0, sample_times=[0.5, 1.0],
                      blowup_guard=DEFAULT_BLOWUP_GUARD, tail_bound=TAIL_BOUND)
        assert all(np.all(s.a == 0) for s in traj)
        assert [s.slow_time for s in traj] == [0.5, 1.0]

    def test_sample_times_must_ascend(self):
        f = EnvelopeField(32.0, np.zeros((64, 64), dtype=complex))
        with pytest.raises(ValueError, match="ascending"):
            evolve(f, NlsProblem(H_CENTER, -3j), 1.0, sample_times=[1.0, 0.5],
                   blowup_guard=DEFAULT_BLOWUP_GUARD, tail_bound=TAIL_BOUND)

    def test_plane_wave_modulus_constant(self):
        m, L = 64, 32.0
        f = EnvelopeField(L, np.zeros((m, m), dtype=complex))
        x = f.coords_1d()
        xx, yy = np.meshgrid(x, x, indexing="ij")
        f.a = 0.5 * np.exp(1j * 2 * np.pi * (2 * xx - yy) / L)
        traj = evolve(f, NlsProblem(H_CENTER, -3j, dT=1e-3), 1.0, sample_times=[1.0],
                      blowup_guard=DEFAULT_BLOWUP_GUARD, tail_bound=TAIL_BOUND)
        assert np.max(np.abs(np.abs(traj[-1].a) - 0.5)) < 1e-10

    def test_small_gaussian_bounded(self):
        f = gaussian_field(40.0, 128, 1.0, 4.0)
        traj = evolve(f, NlsProblem(H_CENTER, -3j, dT=1e-3), 1.0, sample_times=[1.0],
                      blowup_guard=DEFAULT_BLOWUP_GUARD, tail_bound=TAIL_BOUND)
        assert h4_proxy(traj[-1]) < 100 * h4_proxy(f)

    def test_phase_rotation_equivariance(self):
        f0 = gaussian_field(32.0, 64, amplitude=0.6, sigma=4.0)
        prob = NlsProblem(H_CENTER, -3j, dT=2e-3)
        theta = 0.7
        rotated = EnvelopeField(f0.box_length, np.exp(1j * theta) * f0.a)
        a1 = evolve(rotated, prob, 0.2, sample_times=[0.2], blowup_guard=DEFAULT_BLOWUP_GUARD,
                    tail_bound=TAIL_BOUND)[-1].a
        a2 = np.exp(1j * theta) * evolve(f0, prob, 0.2, sample_times=[0.2],
                                         blowup_guard=DEFAULT_BLOWUP_GUARD,
                                         tail_bound=TAIL_BOUND)[-1].a
        assert np.max(np.abs(a1 - a2)) < 1e-13

    def test_translation_equivariance(self):
        f0 = gaussian_field(32.0, 64, amplitude=0.6, sigma=4.0)
        prob = NlsProblem(H_CENTER, -3j, dT=2e-3)
        shifted = EnvelopeField(f0.box_length, np.roll(f0.a, (1, 0), axis=(0, 1)))
        a1 = evolve(shifted, prob, 0.2, sample_times=[0.2], blowup_guard=DEFAULT_BLOWUP_GUARD,
                    tail_bound=TAIL_BOUND)[-1].a
        a2 = np.roll(evolve(f0, prob, 0.2, sample_times=[0.2],
                            blowup_guard=DEFAULT_BLOWUP_GUARD,
                            tail_bound=TAIL_BOUND)[-1].a, (1, 0), axis=(0, 1))
        assert np.max(np.abs(a1 - a2)) < 1e-13

    def test_blowup_guard_trips(self):
        f = gaussian_field(40.0, 128, amplitude=40.0, sigma=4.0)
        with pytest.raises(EnvelopeBlowup):
            evolve(f, NlsProblem(H_CENTER, -3j, dT=1e-3), 1.0, sample_times=[1.0],
                   blowup_guard=DEFAULT_BLOWUP_GUARD, tail_bound=TAIL_BOUND)

    def test_blowup_reports_time_of_trip(self):
        # the guard sits just above the initial proxy, so the t = 0 check
        # passes and a later in-sweep check trips it
        f = gaussian_field(40.0, 128, amplitude=4.0, sigma=4.0)
        guard = 1.01 * h4_proxy(f)
        with pytest.raises(EnvelopeBlowup) as info:
            evolve(f, NlsProblem(H_CENTER, -3j, dT=1e-3), 1.0, sample_times=[1.0],
                   blowup_guard=guard, tail_bound=TAIL_BOUND)
        reported = float(re.search(r"T = ([-\d.]+)", str(info.value)).group(1))
        assert 0.0 < reported < 1.0

    def test_guard_checks_on_slow_time_cadence(self):
        # a step ten times coarser still checks inside the segment about every
        # CHECK_INTERVAL of slow time, not every fixed number of steps
        f = gaussian_field(40.0, 128, amplitude=4.0, sigma=4.0)
        guard = 1.01 * h4_proxy(f)

        def trip_time(dT):
            with pytest.raises(EnvelopeBlowup) as info:
                evolve(f, NlsProblem(H_CENTER, -3j, dT=dT), 1.0, sample_times=[1.0],
                       blowup_guard=guard, tail_bound=TAIL_BOUND)
            return float(re.search(r"T = ([-\d.]+)", str(info.value)).group(1))

        assert trip_time(1e-2) <= trip_time(1e-3) + nls.CHECK_INTERVAL + 1e-2

    def test_nan_envelope_trips_guard(self):
        a = gaussian_field(40.0, 128, 1.0, 4.0).a
        a[3, 5] = np.nan
        with pytest.raises(EnvelopeBlowup):
            evolve(EnvelopeField(40.0, a), NlsProblem(H_CENTER, -3j, dT=1e-3), 0.1, [0.1],
                   DEFAULT_BLOWUP_GUARD, TAIL_BOUND)

    def test_on_sample_streams_the_captured_fields(self):
        # the streamed fields are the listed ones bit for bit, each with the
        # H^4 proxy and the spectral tail of its spectrum, and the solve
        # keeps no list of its own; a Gaussian this narrow on this grid keeps
        # about 1e-7 of its power in the outer band
        f = gaussian_field(32.0, 64, amplitude=0.8, sigma=1.2)
        prob = NlsProblem(H_CENTER, -3j, dT=1e-2)
        times = [0.0, 0.05, 0.1]
        listed = evolve(f, prob, 0.1, sample_times=times, blowup_guard=DEFAULT_BLOWUP_GUARD,
                        tail_bound=TAIL_BOUND)
        streamed = []
        assert evolve(f, prob, 0.1, sample_times=times,
                      on_sample=lambda g, h4, tail: streamed.append((g, h4, tail)),
                      blowup_guard=DEFAULT_BLOWUP_GUARD, tail_bound=TAIL_BOUND) == []
        assert [g.slow_time for g, _, _ in streamed] == times
        for want, (got, h4, tail) in zip(listed, streamed, strict=True):
            assert np.array_equal(got.a, want.a)
            assert abs(h4 - h4_proxy(want)) <= 1e-12 * h4_proxy(want)
            assert tail > 1e-8 and abs(tail - spectral_tail(want)) <= 1e-12

    def test_unresolved_envelope_trips_the_tail_guard(self):
        # a checkerboard at the Nyquist modes holds about 1 % of the power:
        # the H^4 proxy stays under its guard, the tail does not
        f = gaussian_field(40.0, 128, amplitude=1.0, sigma=4.0)
        f.a += 0.02 * (-1.0) ** np.add.outer(np.arange(128), np.arange(128))
        assert spectral_tail(f) > TAIL_BOUND and h4_proxy(f) < DEFAULT_BLOWUP_GUARD
        with pytest.raises(EnvelopeUnresolved, match=r"spectral tail .* at T = 0\.000000"):
            evolve(f, NlsProblem(H_CENTER, -3j), 0.1, [0.1], DEFAULT_BLOWUP_GUARD, TAIL_BOUND)

    @pytest.mark.parametrize("k_pi, l_pi", [(1 / 2, 1 / 2), (1 / 2, 1 / 4), (3 / 4, 3 / 4),
                                            (1 / 4, 1 / 4), (1 / 2, 1 / 3)])
    def test_strain_envelope_is_a_times_q(self, k_pi, l_pi):
        # the strain envelope A = a Q, a = e^{ik0} - 1, solves the Q equation
        # with the cubic coefficient gamma_q / |a|^2, so every run solves Q:
        # evolving A0 and Q0 = A0 / a gives A = a Q to round-off
        data = nls_coefficients(WaveVector(k_pi * np.pi, l_pi * np.pi))
        a = np.exp(1j * k_pi * np.pi) - 1
        a0 = gaussian_field(40.0, 128, 1.0, 4.0)
        q0 = EnvelopeField(a0.box_length, a0.a / a)
        a_t = evolve(a0, NlsProblem(data.hessian, data.gamma_q / abs(a) ** 2), 1.0, [1.0],
                     DEFAULT_BLOWUP_GUARD, TAIL_BOUND)[-1].a
        q_t = evolve(q0, NlsProblem(data.hessian, data.gamma_q), 1.0, [1.0],
                     DEFAULT_BLOWUP_GUARD, TAIL_BOUND)[-1].a
        assert np.max(np.abs(a_t - a * q_t)) <= 1e-13 * np.max(np.abs(a_t))


class TestDiagnostics:
    def test_mass_value(self):
        # sum |A|^2 h^2 for a constant field is |c|^2 L^2
        f = EnvelopeField(16.0, np.full((64, 64), 0.5 + 0j))
        assert mass(f) == pytest.approx(0.25 * 16.0**2, rel=1e-12)

    def test_spectral_h4_matches_h4_proxy(self):
        # evolve reads the proxy off its spectrum, which carries a pending
        # unimodular half-step factor; the oracle h4_proxy transforms the
        # field itself
        rng = np.random.default_rng(3)
        f = gaussian_field(32.0, 64, amplitude=0.7, sigma=4.0)
        k = 2 * np.pi * np.fft.fftfreq(64, d=f.spacing)
        kx, ky = np.meshgrid(k, k, indexing="ij")
        spectrum = np.fft.fft2(f.a) * (1 + 0.3 * rng.normal(size=(64, 64)))
        spectrum *= np.exp(1j * rng.uniform(0, 2 * np.pi, size=(64, 64)))
        field = EnvelopeField(f.box_length, np.fft.ifft2(spectrum))
        want = h4_proxy(field)
        for phase in (0.0, 0.37 * (kx**2 + ky**2)):
            got, tail = nls._spectral_norms(spectrum * np.exp(1j * phase), nls._h4_weight(field),
                                            nls._outer_band(field), field)
            assert abs(got - want) <= 1e-12 * want
            assert abs(tail - spectral_tail(field)) <= 1e-12

    def test_edge_mass_small_for_gaussian(self):
        f = gaussian_field(40.0, 128, 1.0, 4.0)
        assert edge_mass_fraction(f) < 1e-8

    def test_edge_mass_detects_wide_field(self):
        f = EnvelopeField(40.0, np.ones((128, 128), dtype=complex))
        assert edge_mass_fraction(f) > 0.1

    def test_envelope_rhs_matches_limit(self):
        # finite-difference check of the rhs via one tiny Strang step of evolve
        f = gaussian_field(32.0, 64, amplitude=0.5, sigma=4.0)
        prob = NlsProblem(H_CENTER, -3j, dT=1e-6)
        stepped = flow(f, prob, prob.dT)
        fd = (stepped.a - f.a) / prob.dT
        rhs = np.fft.ifft2(envelope_rhs_spectrum(f.a, np.fft.fft2(f.a), linear_symbol(f, prob),
                                                 prob.nonlin_coeff))
        assert np.max(np.abs(fd - rhs)) < 1e-6

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            EnvelopeField(40.0, np.zeros((48, 48), dtype=complex))  # not power of two
        with pytest.raises(ValueError):
            EnvelopeField(40.0, np.zeros((64, 64), dtype=complex))  # spacing too coarse
