"""Spectral algebra at a carrier wave vector of the 2D square lattice.

The scalar lattice with nearest-neighbor coupling has the dispersion relation

    omega_x^2(k) = 2 - 2 cos k,   omega_y^2(l) = 2 - 2 cos l,
    omega(k, l)  = sqrt(omega_x^2(k) + omega_y^2(l)),

on the torus (-pi, pi]^2.  This module evaluates omega and its exact first and
second derivatives, the cubic envelope (NLS) coefficient of the displacement
q, the third-harmonic correction-amplitude solve, the non-resonance check
3*omega(k0) != omega(3*k0), and the cubic interaction kernels

    n(k1, k2, k3) = (e^{ik1}-1)(e^{ik2}-1)(e^{ik3}-1) + c.c.
    D(kv1, kv2, kv3) = n(k1, k2, k3) + n(l1, l2, l3).

The strain fields u = q_{m+1,n} - q_{m,n} and v = q_{m,n+1} - q_{m,n} are
forward differences of q, so their envelopes are q's envelope Q times the
difference symbols a = e^{ik0} - 1 and b = e^{il0} - 1, and their
corrections are the displacement ones seen through e^{ijk} - 1 (the ansatz
builds them).  Both forms therefore need one envelope equation, Q's, with
cubic coefficient gamma_q, and one correction solve, the displacement one.

Everything here is a pure function of value inputs; there is no shared state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_RESONANCE_MARGIN = 1e-8


class ZeroFrequency(ValueError):
    """Operation requires omega(kv) > 0 but the carrier sits on a zero."""


class Resonant(ValueError):
    """A correction-amplitude denominator is below the resonance margin."""


def wrap_angle(k):
    """Reduce an angle (or array of angles) modulo 2*pi into (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(k), 2.0 * np.pi)


@dataclass(frozen=True)
class WaveVector:
    """A point (k, l) on the torus (-pi, pi]^2, reduced by the constructor."""

    k: float
    l: float

    def __post_init__(self):
        object.__setattr__(self, "k", float(wrap_angle(self.k)))
        object.__setattr__(self, "l", float(wrap_angle(self.l)))

    def scaled(self, m: int) -> "WaveVector":
        return WaveVector(m * self.k, m * self.l)

    def negated(self) -> "WaveVector":
        return WaveVector(-self.k, -self.l)


@dataclass(frozen=True)
class DispersionData:
    """Carrier-local dispersion data and the envelope-equation coefficients.

    gamma_q is the cubic coefficient of the displacement envelope equation,
    the one envelope equation of both lattice forms.  axis_degenerate_k/l
    flag a vanishing carrier component, where the strain field along that
    axis has no first harmonic.  delta_res is the resonance margin of the
    non-resonance check, which the correction solve uses too.
    """

    carrier: WaveVector
    omega0: float
    group_velocity: tuple[float, float]
    hessian: np.ndarray
    gamma_q: complex
    nonresonant: bool
    axis_degenerate_k: bool
    axis_degenerate_l: bool
    delta_res: float


@dataclass(frozen=True)
class CorrectionAmplitudeCoefficients:
    """Scalar factors mapping envelope triple products to the correction fields.

    With Q the physical displacement envelope, the correction amplitudes of q
    are

        A_{1,-1} = c_1m1 * (2Q) (2 conj Q)^2
        A_{1,3}  = c_13  * (2Q)^3
        A_{1,-3} = c_1m3 * (2 conj Q)^3

    The strain fields' amplitudes are these times e^{ijk} - 1 at harmonic j,
    k = k0 for u and l0 for v.
    """

    c_1m1: complex
    c_13: complex
    c_1m3: complex


def omega_x_sq(k):
    return 2.0 - 2.0 * np.cos(k)


def omega(kv: WaveVector) -> float:
    """Dispersion relation; value in [0, 2*sqrt(2)]."""
    w2 = omega_x_sq(kv.k) + omega_x_sq(kv.l)
    return float(np.sqrt(max(w2, 0.0)))


def group_velocity(kv: WaveVector) -> tuple[float, float]:
    """Exact gradient of omega, (sin k / omega, sin l / omega)."""
    w = omega(kv)
    if w == 0.0:
        raise ZeroFrequency("group velocity is singular at omega = 0")
    return (float(np.sin(kv.k) / w), float(np.sin(kv.l) / w))


def hessian(kv: WaveVector) -> np.ndarray:
    """Exact 2x2 Hessian of omega at kv."""
    w = omega(kv)
    if w == 0.0:
        raise ZeroFrequency("hessian is singular at omega = 0")
    sk, sl = np.sin(kv.k), np.sin(kv.l)
    ck, cl = np.cos(kv.k), np.cos(kv.l)
    w3 = w**3
    hkk = ck / w - sk * sk / w3
    hll = cl / w - sl * sl / w3
    hkl = -sk * sl / w3
    return np.array([[hkk, hkl], [hkl, hll]])


def nonresonance_check(kv: WaveVector, delta_res: float) -> bool:
    """True iff omega(3*kv) > 0 and |3*omega(kv) - omega(3*kv)| exceeds the margin.

    Then correction_coefficients at the same margin takes the carrier: its
    denominators are 2 omega(kv), 3 omega(kv) - omega(3*kv) and
    3 omega(kv) + omega(3*kv), and omega(3*kv) <= 3 omega(kv) on the whole
    torus (|sin 3x| <= 3 |sin x|), so 3 omega(kv) > omega(3*kv) + margin >
    2 margin.
    """
    w3 = omega(kv.scaled(3))
    if w3 <= delta_res:
        return False
    return bool(abs(3.0 * omega(kv) - w3) > delta_res)


def nls_coefficients(kv: WaveVector, delta_res: float) -> DispersionData:
    """Assemble the full DispersionData record at a carrier wave vector."""
    w0 = omega(kv)
    if w0 == 0.0:
        raise ZeroFrequency(f"carrier ({kv.k}, {kv.l}) has omega = 0")
    wx2 = float(omega_x_sq(kv.k))
    wy2 = float(omega_x_sq(kv.l))
    gamma_q = -1j * 3.0 * (wx2**2 + wy2**2) / (2.0 * w0)
    return DispersionData(
        carrier=kv,
        omega0=w0,
        group_velocity=group_velocity(kv),
        hessian=hessian(kv),
        gamma_q=gamma_q,
        nonresonant=nonresonance_check(kv, delta_res),
        axis_degenerate_k=wx2 == 0.0,
        axis_degenerate_l=wy2 == 0.0,
        delta_res=delta_res,
    )


def _check_denominators(kv: WaveVector, delta_res: float):
    w0 = omega(kv)
    w3 = omega(kv.scaled(3))
    denom_m1 = -2j * w0
    denom_3 = 1j * (3.0 * w0 - w3)
    denom_m3 = -1j * (3.0 * w0 + w3)
    if w3 <= delta_res:
        raise Resonant("omega(3*k0) vanishes; third-harmonic solve needs omega(3*k0) > 0")
    for d in (denom_m1, denom_3, denom_m3):
        if abs(d) < delta_res:
            raise Resonant(f"correction denominator {d} below margin {delta_res}")
    return w0, w3, denom_m1, denom_3, denom_m3


def correction_coefficients(kv: WaveVector, delta_res: float) -> CorrectionAmplitudeCoefficients:
    """Solve the three linear correction-amplitude equations of the
    displacement envelope at the carrier; raises Resonant for a denominator
    below the resonance margin delta_res."""
    w0, w3, denom_m1, denom_3, denom_m3 = _check_denominators(kv, delta_res)
    d_m1 = kernel_D(kv, kv.negated(), kv.negated())
    d_3 = kernel_D(kv, kv, kv)
    num_m1 = -3.0 * d_m1 / (8j * w0)
    num_3 = -d_3 / (8j * w3)
    num_m3 = -d_3 / (8j * w3)

    return CorrectionAmplitudeCoefficients(
        c_1m1=complex(num_m1 / denom_m1),
        c_13=complex(num_3 / denom_3),
        c_1m3=complex(num_m3 / denom_m3),
    )


def kernel_n(k1: float, k2: float, k3: float) -> float:
    """Cubic interaction kernel 2*Re[(e^{ik1}-1)(e^{ik2}-1)(e^{ik3}-1)].

    Fully symmetric in its arguments and bounded by C*|wrap(k1+k2+k3)|.
    """
    p = (np.exp(1j * k1) - 1.0) * (np.exp(1j * k2) - 1.0) * (np.exp(1j * k3) - 1.0)
    return float(2.0 * p.real)


def kernel_D(kv1: WaveVector, kv2: WaveVector, kv3: WaveVector) -> float:
    """Sum of the scalar kernels over the two lattice directions."""
    return float(kernel_n(kv1.k, kv2.k, kv3.k) + kernel_n(kv1.l, kv2.l, kv3.l))
