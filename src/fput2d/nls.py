"""Split-step Fourier solver for the 2D envelope equation.

The envelope Q(X, Y, T) of the lattice displacement q lives on a periodic box
of side L sampled on an M x M grid and evolves in slow time by

    dQ/dT = -(i/2) (dX, dY) H (dX, dY)^T Q + gamma |Q|^2 Q,

with H the 2x2 dispersion Hessian at the carrier and gamma purely imaginary.
Both forms of the lattice solve this one equation: the strain envelope
(e^{ik0} - 1) Q is a constant multiple of Q.  In Fourier space the linear
part is the diagonal multiplier exp(i dT sigma(K)) with sigma = K^T H K / 2,
integrated exactly; the nonlinear part is an exact pointwise phase rotation
Q -> Q exp(i Im(gamma) |Q|^2 dT) since |Q| is invariant, built from the real
phase Re(Q)^2 + Im(Q)^2.  Strang composition of the two exact sub-flows is
second-order accurate and conserves the discrete mass exactly up to
roundoff.  evolve keeps the envelope in Fourier space between steps: each
step is one in-place inverse/forward FFT pair around the rotation, and
consecutive linear half-steps merge.  Every 2D transform of the package is
_fft2 or _ifft2: numpy's pocketfft, one in-place 1D pass per axis.
The default DEFAULT_DT_SLOW = 1e-2 moves the lattice runs' max sup error, an
O(eps^2) ~ 1e-2 quantity, by <= 6.7e-6 relative against dT = 1e-3 (Strang is
second order for cubic NLS: Lubich, Math. Comp. 77, 2008).

A Fourier-weighted norm with weight (1 + |K|^2)^2 serves as an H^4 proxy: the
wave-packet error bound presumes the envelope stays
bounded in a smooth norm, which is monitored here rather than assumed (the 2D
cubic equation can focus for the right coefficient signs).  Only the modulus
of the spectrum enters it, so evolve reads it off the spectrum in hand, about
every CHECK_INTERVAL of slow time whatever the step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_DT_SLOW = 1e-2
DEFAULT_BLOWUP_GUARD = 1e4
CHECK_INTERVAL = 0.025  # slow time between H^4 guard checks inside a segment


def _fft2(a: np.ndarray) -> np.ndarray:
    """The unnormalised 2D DFT of a, written over a and returned.

    a must be a C-contiguous complex128 array; a caller that keeps its input
    passes a copy, and real data is first copied into a complex array.  One
    in-place 1D pass per axis costs what scipy.fft's overwrite_x transform
    does; numpy's fft2, which allocates its result, costs about twice that.
    numpy.fft takes out= from numpy 2.0 on, the floor pyproject.toml sets.
    """
    _check_in_place(a)
    np.fft.fft(a, axis=1, out=a)
    return np.fft.fft(a, axis=0, out=a)


def _ifft2(a: np.ndarray) -> np.ndarray:
    """The inverse 2D DFT of a (1/size normalised), written over a and
    returned; a as for _fft2."""
    _check_in_place(a)
    np.fft.ifft(a, axis=1, out=a)
    return np.fft.ifft(a, axis=0, out=a)


def _check_in_place(a: np.ndarray) -> None:
    if a.dtype != np.complex128 or not a.flags.c_contiguous:
        raise TypeError(f"in-place FFT needs a C-contiguous complex128 array, got {a.dtype}")


class EnvelopeBlowup(RuntimeError):
    """The smooth-norm monitor exceeded the guard; the run is not a valid
    bounded-envelope instance."""


@dataclass
class EnvelopeField:
    """Complex envelope samples on the periodic X-Y box [-L/2, L/2)^2."""

    box_length: float
    a: np.ndarray
    slow_time: float = 0.0

    def __post_init__(self):
        m = self.a.shape[0]
        if self.a.ndim != 2 or self.a.shape[1] != m:
            raise ValueError("envelope grid must be square")
        if m < 2 or m & (m - 1) != 0:
            raise ValueError(f"grid side must be a power of two >= 2, got {m}")
        # written so that a NaN box fails too
        if not 0 < self.box_length / m <= 0.5:
            raise ValueError(f"grid spacing L/M must be in (0, 0.5], got L = {self.box_length}")
        self.a = np.ascontiguousarray(self.a, dtype=complex)

    @property
    def grid_side(self) -> int:
        return self.a.shape[0]

    @property
    def spacing(self) -> float:
        return self.box_length / self.grid_side

    def coords_1d(self) -> np.ndarray:
        m = self.grid_side
        return -self.box_length / 2 + self.spacing * np.arange(m)

    def wavenumbers_1d(self) -> np.ndarray:
        return 2 * np.pi * np.fft.fftfreq(self.grid_side, d=self.spacing)


@dataclass(frozen=True)
class NlsProblem:
    """Coefficients of one envelope equation plus the slow-time step."""

    hessian: np.ndarray
    nonlin_coeff: complex
    dT: float = DEFAULT_DT_SLOW

    def __post_init__(self):
        h = np.asarray(self.hessian, dtype=float)
        if h.shape != (2, 2) or abs(h[0, 1] - h[1, 0]) > 1e-12:
            raise ValueError("hessian must be 2x2 symmetric")
        if abs(complex(self.nonlin_coeff).real) > 1e-12 * (1 + abs(self.nonlin_coeff)):
            raise ValueError("nonlinear coefficient must be purely imaginary")
        object.__setattr__(self, "hessian", h)
        object.__setattr__(self, "nonlin_coeff", complex(self.nonlin_coeff))


def gaussian_field(box_length: float, grid_side: int, amplitude: float,
                   sigma: float) -> EnvelopeField:
    """Standard initial envelope a * exp(-(X^2 + Y^2)/sigma^2)."""
    x = -box_length / 2 + (box_length / grid_side) * np.arange(grid_side)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    return EnvelopeField(box_length, amplitude * np.exp(-(xx**2 + yy**2) / sigma**2))


def linear_symbol(field: EnvelopeField, prob: NlsProblem) -> np.ndarray:
    """sigma(K) = K^T H K / 2 on the field's Fourier grid."""
    k = field.wavenumbers_1d()
    kx, ky = k[:, None], k[None, :]
    h = prob.hessian
    return 0.5 * (h[0, 0] * kx**2 + 2 * h[0, 1] * kx * ky + h[1, 1] * ky**2)


def mass(field: EnvelopeField) -> float:
    """Discrete L^2 mass sum |Q|^2 h^2."""
    return float(np.sum(np.abs(field.a) ** 2) * field.spacing**2)


def _h4_weight(field: EnvelopeField) -> np.ndarray:
    k = field.wavenumbers_1d()
    kx, ky = np.meshgrid(k, k, indexing="ij")
    return (1.0 + kx**2 + ky**2) ** 2


def _h4_of_spectrum(spectrum: np.ndarray, weight: np.ndarray,
                    field: EnvelopeField) -> float:
    """H^4 proxy from the unnormalised DFT of the field's samples.

    Only |spectrum| enters, so a unimodular factor on it (a pending linear
    half-step) leaves the value unchanged.
    """
    ahat = np.abs(spectrum) * (field.spacing**2 / (2 * np.pi) ** 2)
    dk = 2 * np.pi / field.box_length
    return float(np.sqrt(np.sum((weight * ahat) ** 2) * dk**2))


def edge_mass_fraction(field: EnvelopeField) -> float:
    """Mass fraction where |X| or |Y| exceeds 0.45 L (wrap-around monitor)."""
    x = np.abs(field.coords_1d())
    cut = field.box_length / 2 * 0.9
    outer = (x[:, None] > cut) | (x[None, :] > cut)
    total = np.sum(np.abs(field.a) ** 2)
    if total == 0:
        return 0.0
    return float(np.sum(np.abs(field.a[outer]) ** 2) / total)


def evolve(field: EnvelopeField, prob: NlsProblem, t_final: float,
           sample_times, blowup_guard: float, on_sample=None) -> list[EnvelopeField]:
    """March to t_final, capturing the field at each requested slow time.

    The field stays in Fourier space for the whole march; consecutive linear
    half-steps are merged inside each sampling segment.  Raises
    EnvelopeBlowup when the H^4 proxy, checked about every CHECK_INTERVAL of
    slow time (at least once a step) and at each sample time, exceeds
    blowup_guard or is NaN.

    Returns the captured fields.  With on_sample, each one is instead handed
    over as it is captured, as on_sample(field, h4) with the H^4 proxy the
    guard just read off its spectrum, and the returned list stays empty.
    """
    sample_times = [float(t) for t in sample_times]
    if any(t < field.slow_time - 1e-12 or t > t_final + 1e-12 for t in sample_times):
        raise ValueError("sample times must lie in [T_current, T_final]")
    if any(b < a for a, b in zip(sample_times, sample_times[1:])):
        raise ValueError("sample times must be ascending")

    symbol = linear_symbol(field, prob)
    weight = _h4_weight(field)
    rate = prob.nonlin_coeff.imag  # gamma is purely imaginary
    spectrum = _fft2(field.a.copy())
    phase = np.empty(spectrum.shape)
    rotation = np.empty_like(spectrum)
    t = field.slow_time
    captured: list[EnvelopeField] = []
    if on_sample is None:
        def on_sample(sample, _h4):
            captured.append(sample)

    def check(spec, t_now) -> float:
        h4 = _h4_of_spectrum(spec, weight, field)
        # written so that a NaN proxy trips the guard too
        if not h4 <= blowup_guard:
            raise EnvelopeBlowup(
                f"H4 proxy exceeded {blowup_guard} at T = {t_now:.6f}"
            )
        return h4

    check(spectrum, t)
    for t_target in sample_times:
        span = t_target - t
        if span > 1e-14:
            n = max(1, int(np.ceil(span / prob.dT - 1e-12)))
            dt = span / n
            check_every = max(1, int(CHECK_INTERVAL / dt + 1e-9))
            half = np.exp(1j * (dt / 2) * symbol)
            full = half * half
            # merged Strang sweep: L(dt/2) [N L(dt)]^(n-1) N L(dt/2)
            spectrum *= half
            for i in range(n):
                a = _ifft2(spectrum)
                # phase = Im(gamma) |Q|^2 dt; rotation.real is scratch until cos
                np.multiply(a.real, a.real, out=phase)
                np.multiply(a.imag, a.imag, out=rotation.real)
                phase += rotation.real
                phase *= rate * dt
                np.cos(phase, out=rotation.real)
                np.sin(phase, out=rotation.imag)
                a *= rotation
                spectrum = _fft2(a)
                spectrum *= half if i == n - 1 else full
                if (i + 1) % check_every == 0:
                    check(spectrum, t + (i + 1) * dt)
            t = t_target
        h4 = check(spectrum, t)
        on_sample(EnvelopeField(field.box_length, _ifft2(spectrum.copy()), t), h4)
    return captured
