"""Tests for the carrier-local spectral algebra.

Derived expectations are computed here by independent oracles: central finite
differences of omega for the derivatives, literal evaluation of the
coefficient formulas, direct complex arithmetic for the amplitude ratios, and
the strain form's own closed-form correction solve for the strain weights the
ansatz derives from the displacement solve.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import sample
from fput2d.ansatz import _weights
from fput2d.cli import cmd_coeffs
from fput2d import dispersion
from fput2d.config import ExperimentPlan
from fput2d.dispersion import (
    DEFAULT_RESONANCE_MARGIN,
    Resonant,
    WaveVector,
    ZeroFrequency,
    correction_coefficients,
    group_velocity,
    hessian,
    kernel_D,
    kernel_n,
    nls_coefficients,
    nonresonance_check,
    omega,
    wrap_angle,
)
from fput2d.nls import EnvelopeField

PIH = np.pi / 2
NAMED_CARRIERS = [WaveVector(PIH, PIH), WaveVector(PIH, np.pi / 3), WaveVector(PIH, np.pi / 4),
                  WaveVector(np.pi / 4, np.pi / 4), WaveVector(3 * np.pi / 4, 3 * np.pi / 4),
                  WaveVector(PIH, np.pi)]


def resolvent_denominators(kv):
    """(denom_m1, denom_3, denom_m3): the resolvent denominators
    i m omega0 - i omega(m k0) that correction_coefficients divides by."""
    return dispersion._check_denominators(kv, DEFAULT_RESONANCE_MARGIN)[2:]


def ratio_b_over_a(kv):
    """(e^{il0}-1)/(e^{ik0}-1): the strain v envelope over the u envelope."""
    return (np.exp(1j * kv.l) - 1) / (np.exp(1j * kv.k) - 1)


def strain_correction_oracle(kv):
    """(c_1m1, c_13, c_1m3) of the strain u field in closed form.

    Solved in the strain form itself: the own term omega_x^2(m k0) and the
    cross term rho(m k0, m l0) r^{n+} conj(r)^{n-}, rho(k, l) = (e^{ik}-1)(1-e^{-il}),
    folding the v field's products in through r = b/a, over 8 i omega and the
    resolvent denominator i m omega0 - i omega(m k0).  The v field's
    coefficients are those of the carrier with its axes swapped.
    """
    w0 = omega_raw(kv.k, kv.l)
    w3 = omega_raw(3 * kv.k, 3 * kv.l)
    own = lambda m: 2.0 - 2.0 * np.cos(m * kv.k)
    rho = lambda m: (np.exp(1j * m * kv.k) - 1.0) * (1.0 - np.exp(-1j * m * kv.l))
    r = ratio_b_over_a(kv)
    num_m1 = 3.0 * (own(1) - rho(-1) * r * np.conj(r) ** 2) / (8j * w0)
    num_3 = (own(3) - rho(3) * r**3) / (8j * w3)
    num_m3 = (own(3) - rho(-3) * np.conj(r) ** 3) / (8j * w3)
    return num_m1 / (-2j * w0), num_3 / (1j * (3 * w0 - w3)), num_m3 / (-1j * (3 * w0 + w3))


# (powers of the envelope, powers of its conjugate) in the basis field of harmonic j
BASIS_POWERS = {1: (1, 0), -1: (1, 2), 3: (3, 0), -3: (0, 3)}


def strain_weights_oracle(kv):
    """Per strain field, the weight of each harmonic basis field of Q.

    The closed form is written in the strain envelopes A = a Q, a = e^{ik0} - 1,
    and B = r A: B's products weigh A's by powers of r, and an A-basis field
    with n+ factors A and n- factors conj(A) is the Q-basis one times
    a^{n+} conj(a)^{n-}.  At l0 = 0, r = 0 and B vanishes.
    """
    a = np.exp(1j * kv.k) - 1
    out = {}
    for name, kv_field, r in (("u", kv, 1.0), ("v", WaveVector(kv.l, kv.k), ratio_b_over_a(kv))):
        if r == 0:
            out[name] = dict.fromkeys((1, -1, 3, -3), 0.0)
            continue
        c_1m1, c_13, c_1m3 = strain_correction_oracle(kv_field)
        rc = np.conj(r)
        in_a = {1: 2 * r, -1: 8 * c_1m1 * r * rc**2, 3: 8 * c_13 * r**3, -3: 8 * c_1m3 * rc**3}
        out[name] = {j: w * a ** BASIS_POWERS[j][0] * np.conj(a) ** BASIS_POWERS[j][1]
                     for j, w in in_a.items()}
    return out


def printed_coeffs(capsys, k_pi, l_pi):
    """The JSON that `fput2d coeffs` prints at the carrier (k_pi, l_pi) pi."""
    cmd_coeffs(ExperimentPlan(carrier_k_pi=k_pi, carrier_l_pi=l_pi))
    return json.loads(capsys.readouterr().out)


def omega_raw(k, l):
    # independent scalar evaluation used by the finite-difference oracles
    return np.sqrt((2.0 - 2.0 * np.cos(k)) + (2.0 - 2.0 * np.cos(l)))


def fd_gradient(k, l, h=1e-5):
    gk = (omega_raw(k + h, l) - omega_raw(k - h, l)) / (2 * h)
    gl = (omega_raw(k, l + h) - omega_raw(k, l - h)) / (2 * h)
    return gk, gl


def fd_hessian_of_omega(k, l, h=1e-4):
    # second differences of omega itself; h chosen so truncation and roundoff
    # both sit well below the 1e-6 tolerance
    hkk = (omega_raw(k + h, l) - 2 * omega_raw(k, l) + omega_raw(k - h, l)) / h**2
    hll = (omega_raw(k, l + h) - 2 * omega_raw(k, l) + omega_raw(k, l - h)) / h**2
    hkl = (
        omega_raw(k + h, l + h)
        - omega_raw(k + h, l - h)
        - omega_raw(k - h, l + h)
        + omega_raw(k - h, l - h)
    ) / (4 * h**2)
    return np.array([[hkk, hkl], [hkl, hll]])


def random_carriers(n, rng, min_norm=0.1):
    out = []
    while len(out) < n:
        k, l = rng.uniform(-np.pi, np.pi, size=2)
        if np.hypot(k, l) >= min_norm:
            out.append(WaveVector(k, l))
    return out


class TestOmega:
    def test_zero(self):
        assert omega(WaveVector(0.0, 0.0)) == 0.0

    def test_corner(self):
        assert omega(WaveVector(np.pi, np.pi)) == pytest.approx(2 * np.sqrt(2), abs=1e-14)

    def test_center(self):
        assert omega(WaveVector(PIH, PIH)) == pytest.approx(2.0, abs=1e-14)

    def test_range(self):
        rng = np.random.default_rng(0)
        for kv in random_carriers(200, rng, min_norm=0.0):
            assert 0.0 <= omega(kv) <= 2 * np.sqrt(2) + 1e-12

    @given(
        st.floats(-np.pi, np.pi, allow_nan=False),
        st.floats(-np.pi, np.pi, allow_nan=False),
    )
    def test_even(self, k, l):
        assert omega(WaveVector(-k, -l)) == pytest.approx(omega(WaveVector(k, l)), abs=1e-14)

    def test_wrap_angle_range(self):
        ks = np.linspace(-10, 10, 1001)
        w = wrap_angle(ks)
        assert np.all(w > -np.pi) and np.all(w <= np.pi)
        assert np.allclose(np.cos(w), np.cos(ks), atol=1e-12)
        assert wrap_angle(np.pi) == np.pi
        assert wrap_angle(-np.pi) == np.pi


class TestDerivatives:
    def test_group_velocity_center(self):
        gv = group_velocity(WaveVector(PIH, PIH))
        assert gv == pytest.approx((0.5, 0.5), abs=1e-12)
        assert gv == pytest.approx(fd_gradient(PIH, PIH), abs=1e-8)

    def test_group_velocity_corner(self):
        assert group_velocity(WaveVector(np.pi, np.pi)) == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_group_velocity_mixed(self):
        gv = group_velocity(WaveVector(PIH, np.pi))
        assert gv == pytest.approx((1 / np.sqrt(6), 0.0), abs=1e-12)
        assert gv[0] == pytest.approx(0.4082483, abs=1e-7)

    def test_group_velocity_zero_frequency(self):
        with pytest.raises(ZeroFrequency):
            group_velocity(WaveVector(0.0, 0.0))

    def test_hessian_center(self):
        h = hessian(WaveVector(PIH, PIH))
        assert np.allclose(h, -0.125 * np.ones((2, 2)), atol=1e-12)
        assert np.allclose(h, fd_hessian_of_omega(PIH, PIH), atol=1e-6)

    def test_hessian_corner(self):
        h = hessian(WaveVector(np.pi, np.pi))
        expect = np.array([[-1 / (2 * np.sqrt(2)), 0.0], [0.0, -1 / (2 * np.sqrt(2))]])
        assert np.allclose(h, expect, atol=1e-12)

    def test_hessian_zero_frequency(self):
        with pytest.raises(ZeroFrequency):
            hessian(WaveVector(0.0, 0.0))

    def test_hessian_symmetry_random(self):
        rng = np.random.default_rng(1)
        for kv in random_carriers(100, rng):
            h = hessian(kv)
            assert h[0, 1] == h[1, 0]

    def test_derivatives_match_finite_differences(self):
        # 1000 carriers bounded away from the origin by 0.1; the hessian oracle
        # differences the exact gradient (second differences of omega itself
        # would hit the fp roundoff floor above the 1e-6 tolerance at h=1e-5)
        rng = np.random.default_rng(2)
        h = 1e-5
        for kv in random_carriers(1000, rng):
            assert group_velocity(kv) == pytest.approx(fd_gradient(kv.k, kv.l, h), abs=1e-6)
            gk_p = group_velocity(WaveVector(kv.k + h, kv.l))
            gk_m = group_velocity(WaveVector(kv.k - h, kv.l))
            gl_p = group_velocity(WaveVector(kv.k, kv.l + h))
            gl_m = group_velocity(WaveVector(kv.k, kv.l - h))
            fd = np.array(
                [
                    [(gk_p[0] - gk_m[0]) / (2 * h), (gl_p[0] - gl_m[0]) / (2 * h)],
                    [(gk_p[1] - gk_m[1]) / (2 * h), (gl_p[1] - gl_m[1]) / (2 * h)],
                ]
            )
            assert np.allclose(hessian(kv), fd, atol=1e-6)


class TestNlsCoefficients:
    def test_gamma_a_center(self, capsys):
        # literal evaluation of the two-term coefficient formula of the strain
        # envelope (e^{ik0} - 1) Q, against gamma_q / (4 wx^2) and coeffs
        w0 = omega_raw(PIH, PIH)
        wx2 = 2.0 - 2.0 * np.cos(PIH)
        wy2 = 2.0 - 2.0 * np.cos(PIH)
        expected = 3 * wx2 / (8j * w0) + 3 * wy2**2 / (8j * wx2 * w0)
        gamma_a = nls_coefficients(WaveVector(PIH, PIH)).gamma_q / (4 * wx2)
        assert gamma_a == pytest.approx(expected, abs=1e-15)
        assert gamma_a == pytest.approx(-0.75j, abs=1e-14)
        assert printed_coeffs(capsys, 0.5, 0.5)["gamma_a_im"] == pytest.approx(-0.75, abs=1e-14)

    def test_gamma_q_center(self):
        data = nls_coefficients(WaveVector(PIH, PIH))
        # -3i (wx^4 + wy^4) / (2 w0) with wx^4 = wy^4 = 4, w0 = 2
        assert data.gamma_q == pytest.approx(-6.0j, abs=1e-14)

    def test_gamma_b_symmetric_carrier(self, capsys):
        out = printed_coeffs(capsys, 0.5, 0.5)
        assert out["gamma_b_im"] == out["gamma_a_im"]

    def test_gammas_purely_imaginary(self):
        rng = np.random.default_rng(3)
        for kv in random_carriers(300, rng):
            assert nls_coefficients(kv).gamma_q.real == 0.0

    def test_gamma_cross_relation(self, capsys):
        # coeffs prints Im(gamma_q) / (4 wx^2) and Im(gamma_q) / (4 wy^2), so
        # gamma_b * wy^2 = gamma_a * wx^2 = gamma_q / 4 whenever both are printed
        for k_pi in np.arange(-7, 9) / 8:
            for l_pi in (0.25, 1 / 3, 0.5, 0.75, 1.0):
                out = printed_coeffs(capsys, k_pi, l_pi)
                if out["gamma_a_im"] is None:
                    assert k_pi == 0.0
                    continue
                wx2 = 2.0 - 2.0 * np.cos(k_pi * np.pi)
                wy2 = 2.0 - 2.0 * np.cos(l_pi * np.pi)
                assert out["gamma_b_im"] * wy2 == pytest.approx(out["gamma_a_im"] * wx2, rel=1e-12)
                assert out["gamma_a_im"] * wx2 == pytest.approx(out["gamma_q_im"] / 4, rel=1e-12)

    def test_axis_degenerate_flags(self):
        data = nls_coefficients(WaveVector(PIH, 0.0))
        assert data.axis_degenerate_l and not data.axis_degenerate_k
        data = nls_coefficients(WaveVector(0.0, PIH))
        assert data.axis_degenerate_k and not data.axis_degenerate_l

    def test_zero_carrier_rejected(self):
        with pytest.raises(ZeroFrequency):
            nls_coefficients(WaveVector(0.0, 0.0))
        # 2 - 2 cos k rounds to 0 below |k| ~ 1e-8: refused, not divided by
        with pytest.raises(ZeroFrequency):
            nls_coefficients(WaveVector(1e-9, -1e-9))

    def test_omega0_positive(self):
        rng = np.random.default_rng(5)
        for kv in random_carriers(100, rng):
            assert nls_coefficients(kv).omega0 > 0


class TestNonresonance:
    def test_center_true(self):
        # 3*k0 wraps to (-pi/2, -pi/2): omega = 2 > 0 and 3*omega(k0) = 6 != 2
        assert nonresonance_check(WaveVector(PIH, PIH), DEFAULT_RESONANCE_MARGIN) is True

    def test_origin_false(self):
        assert nonresonance_check(WaveVector(0.0, 0.0), DEFAULT_RESONANCE_MARGIN) is False

    def test_small_axis_carrier(self):
        kv = WaveVector(0.1, 0.0)
        gap = abs(3 * omega_raw(0.1, 0.0) - omega_raw(0.3, 0.0))
        assert gap > 1e-8
        assert nonresonance_check(kv, DEFAULT_RESONANCE_MARGIN) is True

    def test_third_harmonic_zero(self):
        # 3 * (2pi/3) wraps to 0 in both components
        assert nonresonance_check(WaveVector(2 * np.pi / 3, 2 * np.pi / 3),
                                  DEFAULT_RESONANCE_MARGIN) is False

    @given(
        st.floats(-np.pi, np.pi, allow_nan=False),
        st.floats(-np.pi, np.pi, allow_nan=False),
    )
    def test_correction_solve_takes_every_admitted_carrier(self, k, l):
        # one margin serves both checks, so the harness needs no separate
        # solve: at the tightest margin the check still passes, the solve
        # must not raise Resonant (omega(k0) = 0 is refused before either)
        kv = WaveVector(k, l)
        w0, w3 = omega(kv), omega(kv.scaled(3))
        margin = float(np.nextafter(min(w3, abs(3.0 * w0 - w3)), 0.0))
        assume(w0 > 0.0 and margin > 0.0)
        assert nls_coefficients(kv, margin).nonresonant is True
        correction_coefficients(kv, margin)


def first_harmonic_ratio(kv):
    """The v field's first-harmonic weight over the u field's."""
    w = _weights(nls_coefficients(kv), "strain", False)
    return w["v"][1] / w["u"][1]


class TestAmplitudeRatio:
    def test_equal_components(self):
        assert first_harmonic_ratio(WaveVector(PIH, PIH)) == pytest.approx(1.0)

    def test_degenerate_l(self):
        assert first_harmonic_ratio(WaveVector(PIH, 0.0)) == 0.0

    def test_mixed(self):
        # (e^{i pi}-1)/(e^{i pi/2}-1) = -2/(i-1) = 1+i by direct arithmetic
        got = first_harmonic_ratio(WaveVector(PIH, np.pi))
        assert got == pytest.approx(ratio_b_over_a(WaveVector(PIH, np.pi)), abs=1e-15)
        assert got == pytest.approx(1 + 1j, abs=1e-12)

    def test_degenerate_k_zero_u(self):
        # at k0 = 0 every u weight e^{ij0} - 1 is 0: u and ut vanish exactly
        env = EnvelopeField(1.6, np.ones((8, 8), dtype=complex))
        s = sample(env, nls_coefficients(WaveVector(0.0, PIH)), 0.1, 0.0, 16, "strain")
        assert np.all(s.u == 0.0) and np.all(s.ut == 0.0)
        assert np.max(np.abs(s.v)) > 0.1


class TestCorrectionCoefficients:
    def test_denominators_center(self):
        denom_m1, denom_3, denom_m3 = resolvent_denominators(WaveVector(PIH, PIH))
        assert denom_m1 == pytest.approx(-4j, abs=1e-12)
        assert denom_3 == pytest.approx(4j, abs=1e-12)
        assert denom_m3 == pytest.approx(-8j, abs=1e-12)

    def test_first_harmonic_matches_gamma(self):
        # the m=-1 solve collapses to gamma / (-2 i omega0), field by field;
        # gamma_a = gamma_q / (4 wx^2) and gamma_b weigh the A-basis field
        # A conj(A)^2, which is a conj(a)^2 times the Q-basis one
        rng = np.random.default_rng(6)
        for kv in random_carriers(50, rng):
            if not nonresonance_check(kv, DEFAULT_RESONANCE_MARGIN):
                continue
            data = nls_coefficients(kv)
            if data.axis_degenerate_k or data.axis_degenerate_l:
                continue
            co = correction_coefficients(kv, DEFAULT_RESONANCE_MARGIN)
            assert co.c_1m1 == pytest.approx(data.gamma_q / 4 / (-2j * data.omega0), rel=1e-12)
            w = _weights(data, "strain", True)
            a = np.exp(1j * kv.k) - 1
            to_q = a * np.conj(a) ** 2
            gamma_a = data.gamma_q / (4 * (2.0 - 2.0 * np.cos(kv.k)))
            gamma_b = data.gamma_q / (4 * (2.0 - 2.0 * np.cos(kv.l)))
            want_u = 8 * gamma_a / (-2j * data.omega0) * to_q
            assert w["u"][-1] == pytest.approx(want_u, rel=1e-12)
            r = ratio_b_over_a(kv)
            want_v = 8 * gamma_b * r * np.conj(r) ** 2 / (-2j * data.omega0) * to_q
            assert w["v"][-1] == pytest.approx(want_v, rel=1e-12)

    def test_displacement_first_harmonic(self):
        kv = WaveVector(PIH, PIH)
        co = correction_coefficients(kv, DEFAULT_RESONANCE_MARGIN)
        d = kernel_D(kv, kv.negated(), kv.negated())
        expected = (-3.0 * d / (8j * 2.0)) / (-4j)
        assert co.c_1m1 == pytest.approx(expected, rel=1e-12)

    def test_resonant_carrier_rejected(self):
        with pytest.raises(Resonant):
            correction_coefficients(WaveVector(2 * np.pi / 3, 2 * np.pi / 3),
                                    DEFAULT_RESONANCE_MARGIN)

    def test_weights_solve_at_the_dispersion_margin(self):
        # near the zero carrier 3 omega(k0) - omega(3 k0) is about k^3 = 1e-9:
        # resonant at the default margin 1e-8, non-resonant at 1e-10, and the
        # correction weights must be solved at the margin that admitted it
        kv = WaveVector(1e-3, 0.0)
        assert not nls_coefficients(kv).nonresonant
        data = nls_coefficients(kv, 1e-10)
        assert data.nonresonant and data.delta_res == 1e-10
        with pytest.raises(Resonant):
            correction_coefficients(kv, DEFAULT_RESONANCE_MARGIN)
        co = correction_coefficients(kv, 1e-10)
        got = _weights(data, "displacement", True)["q"]
        assert got == {1: 2.0, -1: 8 * co.c_1m1, 3: 8 * co.c_13, -3: 8 * co.c_1m3}

    def test_denominator_carrier_evenness(self):
        # denominators depend on the carrier only through omega, which is even
        rng = np.random.default_rng(7)
        for kv in random_carriers(50, rng):
            if not nonresonance_check(kv, DEFAULT_RESONANCE_MARGIN):
                continue
            try:
                a = resolvent_denominators(kv)
                b = resolvent_denominators(kv.negated())
            except Resonant:
                continue
            for d_a, d_b in zip(a, b):
                assert d_a == pytest.approx(d_b, abs=1e-13)
                assert d_a.real == 0.0  # conj(d) = -d


class TestStrainWeights:
    """The strain weights, derived from the one displacement solve through the
    difference symbols, against the strain form's own closed-form solve."""

    def test_match_strain_closed_form(self):
        rng = np.random.default_rng(13)
        carriers = list(NAMED_CARRIERS)
        checked = 0
        while checked < 300 + len(NAMED_CARRIERS):
            kv = carriers.pop(0) if carriers else random_carriers(1, rng)[0]
            data = nls_coefficients(kv)
            if not data.nonresonant or data.axis_degenerate_k or data.axis_degenerate_l:
                continue
            try:
                got = _weights(data, "strain", True)
            except Resonant:
                continue
            want = strain_weights_oracle(kv)
            for name in ("u", "v"):
                assert set(got[name]) == set(want[name])
                for j, wj in want[name].items():
                    assert abs(got[name][j] - wj) <= 1e-12 * abs(wj), (kv, name, j)
            checked += 1

    def test_v_weights_vanish_at_l0_zero(self):
        kv = WaveVector(PIH, 0.0)
        got = _weights(nls_coefficients(kv), "strain", True)
        want = strain_weights_oracle(kv)
        assert got["v"] == want["v"]  # every weight exactly 0
        for j, wj in want["u"].items():
            assert abs(got["u"][j] - wj) <= 1e-12 * abs(wj)


class TestKernels:
    def test_zero_argument(self):
        assert kernel_n(0.0, 0.7, -1.3) == pytest.approx(0.0, abs=1e-15)

    def test_pi_triple(self):
        assert kernel_n(np.pi, np.pi, np.pi) == pytest.approx(-16.0, abs=1e-12)

    def test_closed_form(self):
        # 2(cos s - 1)(1 - cos k1 - cos k2 - cos k3) - 2 sin s (sin k1 + sin k2 + sin k3)
        def closed(k1, k2, k3):
            s = k1 + k2 + k3
            return 2 * (np.cos(s) - 1) * (1 - np.cos(k1) - np.cos(k2) - np.cos(k3)) - 2 * np.sin(
                s
            ) * (np.sin(k1) + np.sin(k2) + np.sin(k3))

        # the sum 0.3+0.5-0.8 vanishes, so this value is 0 through the kernel
        # bound even though no single factor vanishes
        assert kernel_n(0.3, 0.5, -0.8) == pytest.approx(closed(0.3, 0.5, -0.8), abs=1e-12)
        assert abs(kernel_n(0.3, 0.5, -0.7)) > 1e-3
        rng = np.random.default_rng(8)
        for _ in range(200):
            k1, k2, k3 = rng.uniform(-np.pi, np.pi, size=3)
            assert kernel_n(k1, k2, k3) == pytest.approx(closed(k1, k2, k3), abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        triples = rng.uniform(-np.pi, np.pi, size=(1000, 3))
        base = [kernel_n(*t) for t in triples]
        from itertools import permutations

        for p in permutations(range(3)):
            perm = [kernel_n(*t[list(p)]) for t in triples]
            assert np.allclose(perm, base, atol=1e-13)

    def test_kernel_bound(self):
        rng = np.random.default_rng(10)
        triples = rng.uniform(-np.pi, np.pi, size=(100_000, 3))
        vals = np.array([kernel_n(*t) for t in triples])
        s = wrap_angle(triples.sum(axis=1))
        assert np.all(np.abs(vals) <= 14.0 * np.abs(s) + 1e-12)

    def test_kernel_d_identity(self):
        # D(k0, k0, -k0) = -(wx^4 + wy^4)
        rng = np.random.default_rng(11)
        for kv in random_carriers(100, rng, min_norm=0.0):
            wx2 = 2.0 - 2.0 * np.cos(kv.k)
            wy2 = 2.0 - 2.0 * np.cos(kv.l)
            got = kernel_D(kv, kv, kv.negated())
            assert got == pytest.approx(-(wx2**2 + wy2**2), abs=1e-12)
        assert kernel_D(
            WaveVector(PIH, PIH), WaveVector(PIH, PIH), WaveVector(-PIH, -PIH)
        ) == pytest.approx(-8.0, abs=1e-12)

    def test_kernel_d_zero_components(self):
        assert kernel_D(WaveVector(0, 0), WaveVector(0, 0.4), WaveVector(0.9, 0)) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_kernel_d_permutations(self):
        rng = np.random.default_rng(12)
        from itertools import permutations

        for _ in range(10):
            kvs = [WaveVector(*rng.uniform(-np.pi, np.pi, 2)) for _ in range(3)]
            base = kernel_D(*kvs)
            for p in permutations(range(3)):
                assert kernel_D(kvs[p[0]], kvs[p[1]], kvs[p[2]]) == pytest.approx(base, abs=1e-13)


@settings(max_examples=50)
@given(st.floats(-40, 40, allow_nan=False), st.floats(-40, 40, allow_nan=False))
def test_wavevector_wraps(k, l):
    kv = WaveVector(k, l)
    assert -np.pi < kv.k <= np.pi
    assert -np.pi < kv.l <= np.pi
