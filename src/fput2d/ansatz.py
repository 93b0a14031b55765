"""Lattice-sampled wave-packet approximations built from an envelope field.

The leading-order approximation for a strain/displacement field is

    psi_{m,n}(t) = 2 eps Re[ A(X, Y, T) e^{i theta} ],
    theta = k0 m + l0 n + omega0 t,
    X = eps (m + c_x t),  Y = eps (n + c_y t),  T = eps^2 t,

optionally extended by the third-generation corrections at the harmonics
e^{-i theta} and e^{+-3 i theta} whose amplitudes are scalar multiples of
pointwise triple products of A and conj(A) (the products realize the triple
convolutions of the Fourier-space derivation).  The sampler returns the fields
and their exact first time derivatives, assembled by the chain rule with dA/dT
supplied by the envelope equation's right-hand side: the lattice is compared
against both, and the first-order-system residual on the ansatz is measured
from them without finite-difference contamination.  Strain-form initial data
are moved onto the compatible subspace by the oblique modewise projection.

Lattice sites are labeled m, n in {-N/2, ..., N/2 - 1}; array index (i, j)
maps to (m, n) = (i - N/2, j - N/2).  The lattice and envelope tori are
commensurate (eps * N equals the box length), so the envelope is evaluated at
the scaled moving-frame points by exact FFT resampling: a phase shift for the
moving frame, then zero-padding or truncation of the spectrum to the N x N
lattice grid.  All transforms are scipy.fft.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft

from .dispersion import (
    DispersionData,
    WaveVector,
    amplitude_ratio_b_over_a,
    correction_coefficients,
)
from .lattice import LatticeState
from .nls import (
    EnvelopeField,
    NlsProblem,
    envelope_rhs_arrays,
    linear_symbol,
)

DELTA_PROJ = 1e-9


class FootprintExceeded(ValueError):
    """The lattice's scaled footprint eps*N differs from the envelope box."""


class MissingB(ValueError):
    """Strain ansatz at k0 = 0 needs the B envelope (the A field vanishes)."""


@dataclass
class AnsatzSample:
    """Ansatz fields and their exact first time derivatives on the lattice."""

    eps: float
    carrier: WaveVector
    t: float
    variant: str
    psi_u: np.ndarray | None = None
    psi_v: np.ndarray | None = None
    psi_ut: np.ndarray | None = None
    psi_vt: np.ndarray | None = None
    psi_q: np.ndarray | None = None
    psi_qt: np.ndarray | None = None


def gamma_tilde(disp: DispersionData, variant: str) -> complex:
    """Cubic coefficient of the physical-space envelope equation per variant."""
    if variant in ("strain", "strain_u"):
        if disp.gamma_a is None:
            raise MissingB("k0 = 0: no A envelope; use the strain_v variant")
        return 4 * disp.gamma_a
    if variant == "strain_v":
        if disp.gamma_b is None:
            raise ValueError("l0 = 0: the B envelope is identically zero")
        return 4 * disp.gamma_b
    if variant == "displacement":
        return disp.gamma_q
    raise ValueError(f"unknown variant {variant!r}")


def nls_problem_for(disp: DispersionData, variant: str, dT: float = 1e-3) -> NlsProblem:
    return NlsProblem(disp.hessian, gamma_tilde(disp, variant), dT)


def _harmonic_terms(env: EnvelopeField, disp: DispersionData, variant: str,
                    corrections: bool) -> list[tuple]:
    """Per-variant list of (eps order, harmonic, C, dC/dT, field kind) terms."""
    terms: list[tuple] = []
    kv = disp.carrier
    primary_is_b = disp.axis_degenerate_k
    if variant == "strain" and primary_is_b and env.variant != "strain_v":
        raise MissingB("carrier has k0 = 0; supply the B envelope (strain_v)")

    if variant == "displacement":
        prob = nls_problem_for(disp, "displacement")
    elif primary_is_b:
        prob = nls_problem_for(disp, "strain_v")
    else:
        prob = nls_problem_for(disp, "strain_u")
    a = env.a
    f = envelope_rhs_arrays(a, linear_symbol(env, prob), prob.nonlin_coeff)

    def add_field_terms(kind: str, p: np.ndarray, p_t: np.ndarray):
        # leading term 2 eps Re[P e^{i theta}]
        terms.append((1, 1, 2 * p, 2 * p_t, kind))
        if not corrections:
            return
        co = correction_coefficients(kv, kind)
        pc = np.conj(p)
        pc_t = np.conj(p_t)
        # first-harmonic correction eps^3 Re[C e^{-i theta}],
        # C = 8 c_1m1 P conj(P)^2
        w = 8 * co.c_1m1
        c = w * p * pc**2
        c_t = w * (p_t * pc**2 + 2 * p * pc * pc_t)
        terms.append((3, -1, c, c_t, kind))
        # third-harmonic corrections eps^3 [C3 e^{3 i theta} + Cm3 e^{-3 i theta}]
        # (both live on the positive branch; the conjugate partners ride
        # the negative branch)
        w3 = 8 * co.c_13
        terms.append((3, 3, w3 * p**3, 3 * w3 * p * p * p_t, kind))
        wm3 = 8 * co.c_1m3
        terms.append((3, -3, wm3 * pc**3, 3 * wm3 * pc * pc * pc_t, kind))

    if variant == "displacement":
        add_field_terms("displacement", a, f)
    elif variant == "strain":
        if primary_is_b:
            add_field_terms("strain_v", a, f)
        else:
            add_field_terms("strain_u", a, f)
            if not disp.axis_degenerate_l:
                r = amplitude_ratio_b_over_a(kv)
                add_field_terms("strain_v", r * a, r * f)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return terms


def _respec(coeffs: np.ndarray, n_out: int) -> np.ndarray:
    """Zero-pad or truncate centered Fourier coefficients to an n_out grid."""
    m = coeffs.shape[0]
    cs = fft.fftshift(coeffs)
    if n_out >= m:
        out = np.zeros((n_out, n_out), dtype=complex)
        lo = (n_out - m) // 2
        out[lo:lo + m, lo:lo + m] = cs
    else:
        lo = (m - n_out) // 2
        out = cs[lo:lo + n_out, lo:lo + n_out].copy()
    return fft.ifftshift(out)


def eval_envelope(fields: list[np.ndarray], env: EnvelopeField, eps: float, t: float,
                  n_side: int, group_velocity: tuple[float, float]) -> list[np.ndarray]:
    """Evaluate envelope-grid fields at the lattice's scaled moving-frame points.

    Exact trigonometric resampling; it needs commensurate tori, eps * N equal
    to the envelope box length.
    """
    if abs(eps * n_side - env.box_length) > 1e-9 * env.box_length:
        raise FootprintExceeded(
            f"eps*N = {eps * n_side:.6f} differs from the envelope box {env.box_length}"
        )
    cx, cy = group_velocity
    k1 = env.wavenumbers_1d()
    half = env.box_length / 2
    px = np.exp(1j * k1 * (eps * cx * t + half))
    py = np.exp(1j * k1 * (eps * cy * t + half))
    out = []
    m2 = env.grid_side**2
    for f in fields:
        c = fft.fft2(f) * px[:, None] * py[None, :]
        c = _respec(c, n_side)
        g = fft.ifft2(c) * (n_side**2 / m2)
        out.append(np.roll(g, (n_side // 2, n_side // 2), axis=(0, 1)))
    return out


def _assemble_branches(env: EnvelopeField, disp: DispersionData, eps: float,
                       t: float, n_side: int, variant: str,
                       corrections: bool) -> dict[str, list[np.ndarray]]:
    """Complex positive-branch sums sum_terms eps^p C e^{i j theta} per field.

    Returns, per field kind, the branch field and its exact first time
    derivative.  The real ansatz fields are the real parts; the negative
    branch is the complex conjugate.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    kv = disp.carrier
    w0 = disp.omega0
    cx, cy = disp.group_velocity
    terms = _harmonic_terms(env, disp, variant, corrections)

    # per-term envelope-grid combinations; resampling is linear, so the
    # chain-rule combination is formed on the envelope grid first
    k = env.wavenumbers_1d()
    kxg, kyg = np.meshgrid(k, k, indexing="ij")
    mu = cx * kxg + cy * kyg

    to_eval: list[np.ndarray] = []
    for _, j, c, c_t, _ in terms:
        cgrad = fft.ifft2(1j * mu * fft.fft2(c))
        g_t = 1j * j * w0 * c + eps * cgrad + eps**2 * c_t
        to_eval += [c, g_t]

    sampled = eval_envelope(to_eval, env, eps, t, n_side, (cx, cy))

    mvals = np.arange(n_side) - n_side // 2
    mm, nn = np.meshgrid(mvals, mvals, indexing="ij")
    e1 = np.exp(1j * (kv.k * mm + kv.l * nn + w0 * t))
    e3 = e1 * e1 * e1
    phases = {1: e1, -1: np.conj(e1), 3: e3, -3: np.conj(e3)}

    shape = (n_side, n_side)
    acc = {kind: [np.zeros(shape, dtype=complex), np.zeros(shape, dtype=complex)]
           for kind in ("strain_u", "strain_v", "displacement")}
    for i, (order, j, _, _, kind) in enumerate(terms):
        for d in range(2):  # the field, then its time derivative
            acc[kind][d] += eps**order * (sampled[2 * i + d] * phases[j])
    return acc


def sample_ansatz(env: EnvelopeField, disp: DispersionData, eps: float, t: float,
                  n_side: int, variant: str, corrections: bool = False) -> AnsatzSample:
    """Sample the ansatz and its first time derivatives on the N x N lattice."""
    acc = _assemble_branches(env, disp, eps, t, n_side, variant, corrections)
    sample = AnsatzSample(eps=eps, carrier=disp.carrier, t=t, variant=variant)
    if variant == "displacement":
        sample.psi_q = acc["displacement"][0].real
        sample.psi_qt = acc["displacement"][1].real
    else:
        sample.psi_u = acc["strain_u"][0].real
        sample.psi_v = acc["strain_v"][0].real
        sample.psi_ut = acc["strain_u"][1].real
        sample.psi_vt = acc["strain_v"][1].real
    return sample


def compat_project(u_hat: np.ndarray, ut_hat: np.ndarray, v_hat: np.ndarray,
                   vt_hat: np.ndarray):
    """Modewise oblique projection onto the compatible subspace a V = b U.

    a = e^{ik} - 1, b = e^{il} - 1 per lattice mode.  The map is
    (U, V) -> (a, b) (a U + b V)/(a^2 + b^2) and fixes its range; modes with
    |a^2 + b^2| below DELTA_PROJ pass through unchanged and are counted in the
    returned diagnostics.  Field and velocity spectra are projected with the
    same modewise map, which preserves the velocity compatibility relation.
    """
    n = u_hat.shape[0]
    k = 2 * np.pi * fft.fftfreq(n)
    a = (np.exp(1j * k) - 1.0)[:, None] * np.ones(n)[None, :]
    b = np.ones(n)[:, None] * (np.exp(1j * k) - 1.0)[None, :]
    denom = a * a + b * b
    keep = np.abs(denom) >= DELTA_PROJ
    safe = np.where(keep, denom, 1.0)

    def apply(uh, vh):
        s = (a * uh + b * vh) / safe
        return (
            np.where(keep, a * s, uh),
            np.where(keep, b * s, vh),
        )

    pu, pv = apply(u_hat, v_hat)
    put, pvt = apply(ut_hat, vt_hat)
    diagnostics = {"degenerate_modes": int(np.count_nonzero(~keep))}
    return (pu, put, pv, pvt), diagnostics


def build_initial_data(env: EnvelopeField, disp: DispersionData, eps: float,
                       n_side: int, form: str, corrections: bool = False):
    """Lattice initial data matching the ansatz at t = 0.

    Strain form samples (psi_u, psi_v) and their exact velocities and applies
    the oblique compat_project to the four spectra; the projection moves the
    state by O(eps^2) in sup norm.  Displacement form samples directly (no
    constraint).  Returns (state, diagnostics).
    """
    if form == "displacement":
        s = sample_ansatz(env, disp, eps, 0.0, n_side, "displacement", corrections)
        state = LatticeState("displacement", 0.0, q=s.psi_q, w=s.psi_qt)
        return state, {"degenerate_modes": 0, "max_projection_displacement": 0.0}
    if form != "strain":
        raise ValueError(f"unknown form {form!r}")
    s = sample_ansatz(env, disp, eps, 0.0, n_side, "strain", corrections)
    spectra = [fft.fft2(f) for f in (s.psi_u, s.psi_ut, s.psi_v, s.psi_vt)]
    (pu, put, pv, pvt), diag = compat_project(*spectra)
    fields = [fft.ifft2(f).real for f in (pu, pv, put, pvt)]
    moved = max(
        float(np.max(np.abs(fields[0] - s.psi_u))),
        float(np.max(np.abs(fields[1] - s.psi_v))),
        float(np.max(np.abs(fields[2] - s.psi_ut))),
        float(np.max(np.abs(fields[3] - s.psi_vt))),
    )
    diag["max_projection_displacement"] = moved
    state = LatticeState("strain", 0.0, u=fields[0], v=fields[1],
                         ut=fields[2], vt=fields[3])
    return state, diag


def l1_dft_norm(field: np.ndarray) -> float:
    """Cell-measure-scaled l1 norm of the DFT; dominates the site sup norm."""
    n = field.shape[0]
    return float(np.sum(np.abs(fft.fft2(field))) / n**2)


def _lattice_multipliers(n: int):
    k = 2 * np.pi * fft.fftfreq(n)
    kx = k[:, None] * np.ones(n)[None, :]
    ky = np.ones(n)[:, None] * k[None, :]
    wx2 = 2.0 - 2.0 * np.cos(kx)
    wy2 = 2.0 - 2.0 * np.cos(ky)
    w = np.sqrt(wx2 + wy2)
    inv_8iw = np.zeros((n, n), dtype=complex)
    live = w > 0
    inv_8iw[live] = 1.0 / (8j * w[live])  # bounded combinations only; (0,0) -> 0
    rho_u = (np.exp(1j * kx) - 1.0) * (1.0 - np.exp(-1j * ky))
    rho_v = (np.exp(1j * ky) - 1.0) * (1.0 - np.exp(-1j * kx))
    return wx2, wy2, w, inv_8iw, rho_u, rho_v


def residual_norm(env: EnvelopeField, disp: DispersionData, eps: float, t: float,
                  n_side: int, variant: str, with_corrections: bool) -> float:
    """L1-of-DFT norm of the first-order-system defect on the ansatz at time t.

    The diagonalized system splits each field into branches evolving by
    +-i omega; the ansatz assigns every harmonic to the positive branch whose
    residual is  -d(Psi_1)/dt + i omega Psi_1 + nonlinear terms,  measured in
    the cell-scaled l1 norm of its DFT.  The negative branch is the complex
    conjugate, contributing a factor 2.  (A naive second-order defect
    d2(psi)/dt2 - RHS(psi) cannot see the branch structure: the first-harmonic
    correction rides the carrier's own space-time phase there, so only the
    branch-resolved residual exhibits the extra cancellation order.)
    """
    acc = _assemble_branches(env, disp, eps, t, n_side, variant, with_corrections)
    wx2, wy2, w, inv_8iw, rho_u, rho_v = _lattice_multipliers(n_side)

    def mult(symbol, phys):
        return fft.ifft2(symbol * fft.fft2(phys))

    if variant == "displacement":
        q1, dq1 = acc["displacement"][0], acc["displacement"][1]
        q = 2 * q1.real  # Q_1 + Q_{-1}
        bx = np.roll(q, -1, axis=0) - q
        by = np.roll(q, -1, axis=1) - q
        cx3 = bx**3
        cy3 = by**3
        n_phys = cx3 - np.roll(cx3, 1, axis=0) + cy3 - np.roll(cy3, 1, axis=1)
        res = -dq1 + mult(1j * w, q1) - mult(inv_8iw, n_phys)
        return 2 * l1_dft_norm(res)

    u1, du1 = acc["strain_u"][0], acc["strain_u"][1]
    v1, dv1 = acc["strain_v"][0], acc["strain_v"][1]
    cube_u = (2 * u1.real) ** 3
    cube_v = (2 * v1.real) ** 3
    res_u = (
        -du1 + mult(1j * w, u1)
        + mult(wx2 * inv_8iw, cube_u) - mult(rho_u * inv_8iw, cube_v)
    )
    res_v = (
        -dv1 + mult(1j * w, v1)
        + mult(wy2 * inv_8iw, cube_v) - mult(rho_v * inv_8iw, cube_u)
    )
    return 2 * (l1_dft_norm(res_u) + l1_dft_norm(res_v))
