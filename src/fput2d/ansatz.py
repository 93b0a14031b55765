"""Lattice-sampled wave-packet approximations built from an envelope field.

The leading-order approximation for the displacement field is

    q_{m,n}(t) = 2 eps Re[ Q(X, Y, T) e^{i theta} ],
    theta = k0 m + l0 n + omega0 t,
    X = eps (m + c_x t),  Y = eps (n + c_y t),  T = eps^2 t,

optionally extended by the third-generation corrections eps^3 Re[C_j e^{j i
theta}] at the harmonics j = -1, 3, -3 whose amplitudes are scalar multiples
of pointwise triple products of Q and conj(Q) (the products realize the triple
convolutions of the Fourier-space derivation).  The fields are q (displacement
form) or u and v (strain form).  The strain fields are forward differences of
q, so each strain term is the displacement term of its harmonic j times the
difference symbol e^{ijk} - 1 (k = k0 for u, l0 for v).  Every term of every
field is thus a scalar weight times one of four harmonic basis fields of the
one envelope Q on the envelope grid: Q, Q conj(Q)^2, Q^3 and conj(Q)^3 for
j = 1, -1, 3, -3.  Each is transformed and resampled once (without
corrections: two FFTs on the envelope grid, two inverse FFTs on the lattice).
sample_ansatz returns a LatticeState whose positions are the fields and whose
velocities are their exact first time derivatives, assembled by the chain
rule in Fourier space with dQ/dT from the envelope equation's right-hand
side: the lattice is compared against both, and the first-order-system
residual is measured from them without finite-difference contamination.
Strain-form initial data are the displacements q whose forward differences
project the sampled strain spectra (U, V) onto compatible pairs: per lattice
mode (U, V) -> (a s, b s), a = e^{ik} - 1, b = e^{il} - 1, s the spectrum of
q (_lift gives s, on the degenerate modes too).

Lattice sites are labeled m, n in {-N/2, ..., N/2 - 1}; array index (i, j)
maps to (m, n) = (i - N/2, j - N/2).  The lattice and envelope tori are
commensurate (eps * N equals the box length L) and both grids start at -L/2,
so lattice index i sits at envelope index i M/N.  The envelope is therefore
evaluated at the scaled moving-frame points by exact FFT resampling: a phase
shift for the moving frame, then zero-padding or truncation of the spectrum
to the N x N lattice grid.  All transforms are scipy.fft.
"""

from __future__ import annotations

import numpy as np
from scipy import fft

from .dispersion import DispersionData, correction_coefficients
from .lattice import (
    _ARRAY_NAMES,
    LatticeState,
    _divergence,
    _forward_diff,
    strain_from_displacement,
)
from .nls import EnvelopeField, NlsProblem, envelope_rhs_spectrum, linear_symbol

DELTA_PROJ = 1e-9


class FootprintExceeded(ValueError):
    """The lattice's scaled footprint eps*N differs from the envelope box."""


def envelope_rhs(env: EnvelopeField, disp: DispersionData) -> tuple[np.ndarray, complex]:
    """What dQ/dT needs besides Q: the linear symbol of the envelope equation
    on env's grid, and its cubic coefficient.

    Both depend only on the grid and the carrier, so a run that samples many
    envelopes on one grid builds them once and passes them as rhs.
    """
    prob = NlsProblem(disp.hessian, disp.gamma_q)
    return linear_symbol(env, prob), prob.nonlin_coeff


def _harmonics(env: EnvelopeField, disp: DispersionData, corrections: bool,
               rhs=None) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """DFTs of the envelope-grid basis field B_j of each harmonic e^{i j theta}
    and of dB_j/dT; B_1 = Q takes two FFTs, of Q and of the cubic term of dQ/dT.
    rhs is envelope_rhs on env's grid, built here when None."""
    symbol, gamma = envelope_rhs(env, disp) if rhs is None else rhs
    a = env.a
    a_hat = fft.fft2(a)
    a_t_hat = envelope_rhs_spectrum(a, a_hat, symbol, gamma)
    basis = {1: (a_hat, a_t_hat)}
    if corrections:
        a_t = fft.ifft2(a_t_hat)
        ac, ac_t = np.conj(a), np.conj(a_t)
        for j, (b, b_t) in {-1: (a * ac**2, a_t * ac**2 + 2 * a * ac * ac_t),
                            3: (a**3, 3 * a * a * a_t),
                            -3: (ac**3, 3 * ac * ac * ac_t)}.items():
            basis[j] = (fft.fft2(b), fft.fft2(b_t))
    return basis


def _positions(form: str) -> tuple[str, ...]:
    """The position arrays of a lattice form, in LatticeState.arrays() order."""
    names = _ARRAY_NAMES[form]
    return names[:len(names) // 2]


def _weights(disp: DispersionData, form: str,
             corrections: bool) -> dict[str, dict[int, complex]]:
    """Per position array of the form, the scalar weight of each harmonic
    basis field.

    The displacement field 2 eps Re[Q e^{i theta}] weighs Q by 2; its
    corrections 8 c Q conj(Q)^2, 8 c Q^3 and 8 c conj(Q)^3 weigh the basis
    products by 8 c, with c the displacement correction coefficients.  The
    strain field along axis p forward-differences every harmonic j of q, so
    its weight is the displacement one times e^{ijk_p} - 1.  At l0 = 0 every
    v weight is 0, and at k0 = 0 every u weight.
    """
    w_q = {1: 2.0}
    if corrections:
        co = correction_coefficients(disp.carrier)
        w_q.update({-1: 8 * co.c_1m1, 3: 8 * co.c_13, -3: 8 * co.c_1m3})
    if form == "displacement":
        return {"q": w_q}
    if form != "strain":
        raise ValueError(f"unknown lattice form {form!r}")
    kv = disp.carrier
    return {name: {j: w * (np.exp(1j * j * k) - 1.0) for j, w in w_q.items()}
            for name, k in zip(_positions(form), (kv.k, kv.l))}


def _respec(coeffs: np.ndarray, n_out: int) -> np.ndarray:
    """Zero-pad or truncate centered Fourier coefficients to an n_out grid by
    index selection: per axis, the c = min(M, n_out) central modes in fftshift
    order go where ifftshift puts the n_out grid's c central modes."""
    m = coeffs.shape[0]
    c = min(m, n_out)
    r = np.arange(c)
    dst = (r + (n_out - c) // 2 - n_out // 2) % n_out
    src = np.zeros(n_out, dtype=int)  # the input mode each output mode reads
    src[dst] = (r + (m - c) // 2 - m // 2) % m
    pad = np.ones(n_out, dtype=bool)
    pad[dst] = False
    out = coeffs.take(src, axis=0).take(src, axis=1)
    out[pad] = out[:, pad] = 0.0
    return out


def eval_envelope(spectra: list[np.ndarray], env: EnvelopeField, eps: float, t: float,
                  n_side: int, group_velocity: tuple[float, float]) -> list[np.ndarray]:
    """Evaluate envelope-grid fields, given by their DFTs, at the lattice's
    scaled moving-frame points.

    Exact trigonometric resampling; it needs commensurate tori, eps * N equal
    to the envelope box length.
    """
    if abs(eps * n_side - env.box_length) > 1e-9 * env.box_length:
        raise FootprintExceeded(
            f"eps*N = {eps * n_side:.6f} differs from the envelope box {env.box_length}"
        )
    cx, cy = group_velocity
    k1 = env.wavenumbers_1d()
    scale = n_side**2 / env.grid_side**2
    shift = np.outer(scale * np.exp(1j * eps * cx * t * k1), np.exp(1j * eps * cy * t * k1))
    return [fft.ifft2(_respec(s * shift, n_side), overwrite_x=True) for s in spectra]


def _assemble_branches(env: EnvelopeField, disp: DispersionData, eps: float,
                       t: float, n_side: int, variant: str, corrections: bool,
                       rhs) -> dict[str, list[np.ndarray]]:
    """Complex positive-branch sums sum_j eps^p w_j B_j e^{i j theta} per field.

    Returns, per position array of the form, the branch field and its exact
    first time derivative.  The real ansatz fields are the real parts; the
    negative branch is the complex conjugate.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    kv = disp.carrier
    w0 = disp.omega0
    cx, cy = disp.group_velocity
    basis = _harmonics(env, disp, corrections, rhs)
    weights = _weights(disp, variant, corrections)

    # d/dt of B_j(X, Y, T) e^{i j theta} = e^{i j theta} times
    # g_t = i j omega0 B_j + eps (c . grad) B_j + eps^2 dB_j/dT, here in Fourier space
    k = env.wavenumbers_1d()
    i_mu = 1j * (cx * k[:, None] + cy * k[None, :])
    spectra: list[np.ndarray] = []
    for j, (b_hat, b_t_hat) in basis.items():
        spectra += [b_hat, (1j * j * w0 + eps * i_mu) * b_hat + eps**2 * b_t_hat]
    sampled = eval_envelope(spectra, env, eps, t, n_side, (cx, cy))

    # the field, then its time derivative, of each harmonic on the lattice,
    # times its carrier phase e^{i j theta}, an outer product over m and n
    mvals = np.arange(n_side) - n_side // 2
    terms = {}
    for i, j in enumerate(basis):
        phase = np.outer(np.exp(1j * j * (kv.k * mvals + w0 * t)), np.exp(1j * j * kv.l * mvals))
        terms[j] = [np.multiply(f, phase, out=f) for f in sampled[2 * i:2 * i + 2]]

    return {name: [sum(eps ** (1 if j == 1 else 3) * wj * terms[j][d] for j, wj in w.items())
                   for d in range(2)]
            for name, w in weights.items()}


def sample_ansatz(env: EnvelopeField, disp: DispersionData, eps: float, t: float,
                  n_side: int, variant: str, corrections: bool = False,
                  rhs=None) -> LatticeState:
    """The ansatz on the N x N lattice as a state of form variant at time t:
    positions are the psi fields, velocities their exact time derivatives.
    rhs is envelope_rhs on env's grid, built here when None."""
    acc = _assemble_branches(env, disp, eps, t, n_side, variant, corrections, rhs)
    names = _positions(variant)
    return LatticeState.from_arrays(
        variant, t, [acc[p][0].real for p in names] + [acc[p][1].real for p in names])


def _difference_symbol(n: int):
    """e^{ik} - 1 at the n lattice wavenumbers k, and the mask of the (k, l)
    modes the projection keeps, |a^2 + b^2| >= DELTA_PROJ for a = e^{ik} - 1,
    b = e^{il} - 1."""
    e = np.exp(2j * np.pi * fft.fftfreq(n)) - 1.0
    return e, np.abs(e[:, None] ** 2 + e[None, :] ** 2) >= DELTA_PROJ


def _lift(u_hat: np.ndarray, v_hat: np.ndarray, e, keep) -> np.ndarray:
    """Spectrum s of the periodic mean-zero displacement whose forward
    differences (a s, b s) are the projection of the strain pair (U, V): on
    kept modes s = (a U + b V)/(a^2 + b^2); on the degenerate modes other than
    (0, 0), which are (pi/2, -pi/2) and (-pi/2, pi/2) when 4 divides N, U/a
    (V/b where a = 0), so U stays and V becomes (b/a) U."""
    a, b = e[:, None], e[None, :]
    q = (a * u_hat + b * v_hat) / np.where(keep, a * a + b * b, 1.0)
    for m, n in np.argwhere(~keep):  # (0, 0), where a = b = 0, is the mean
        q[m, n] = u_hat[m, n] / e[m] if e[m] else v_hat[m, n] / e[n] if e[n] else 0.0
    return q


def build_initial_data(env: EnvelopeField, disp: DispersionData, eps: float,
                       n_side: int, form: str, corrections: bool = False):
    """Displacement-form lattice initial data matching the ansatz at t = 0.

    The sampled ansatz at t = 0.  Displacement form takes it as it is (no
    constraint).  Strain form lifts the spectra of its four arrays to the
    (q, w) whose forward differences are their projection onto compatible
    pairs (see the module docstring); the projection moves the strain state
    by O(eps^2) in sup norm.  Returns (state, diagnostics).
    """
    s = sample_ansatz(env, disp, eps, 0.0, n_side, form, corrections)
    if form == "displacement":
        return s, {"degenerate_modes": 0, "max_projection_displacement": 0.0}
    e, keep = _difference_symbol(n_side)
    u_hat, v_hat, ut_hat, vt_hat = (fft.fft2(f) for f in s.arrays())
    state = LatticeState("displacement", 0.0, q=fft.ifft2(_lift(u_hat, v_hat, e, keep)).real,
                         w=fft.ifft2(_lift(ut_hat, vt_hat, e, keep)).real)
    moved = max(float(np.max(np.abs(p - r)))
                for p, r in zip(strain_from_displacement(state).arrays(), s.arrays()))
    return state, {"degenerate_modes": int(np.count_nonzero(~keep)),
                   "max_projection_displacement": moved}


def l1_dft_norm(spectrum: np.ndarray) -> float:
    """Cell-measure-scaled l1 norm of a field's DFT; dominates the field's
    site sup norm."""
    return float(np.sum(np.abs(spectrum)) / spectrum.size)


def _lattice_multipliers(n: int):
    wk2 = 2.0 - 2.0 * np.cos(2 * np.pi * fft.fftfreq(n))
    w = np.sqrt(wk2[:, None] + wk2[None, :])
    inv_8iw = np.zeros((n, n), dtype=complex)
    live = w > 0
    inv_8iw[live] = 1.0 / (8j * w[live])  # bounded combinations only; (0,0) -> 0
    return w, inv_8iw


def residual_norm(env: EnvelopeField, disp: DispersionData, eps: float, t: float,
                  n_side: int, variant: str, with_corrections: bool, rhs=None) -> float:
    """L1-of-DFT norm of the first-order-system defect on the ansatz at time t.

    The diagonalized system splits each field into branches evolving by
    +-i omega; the ansatz assigns every harmonic to the positive branch whose
    residual is  -d(Psi_1)/dt + i omega Psi_1 + N/(8 i omega),  measured in
    the cell-scaled l1 norm of its DFT.  N is the cubic lattice term: the
    divergence of the bond forces -b^3 for displacement, its forward
    differences for strain, on the fields 2 Re Psi_1 = Psi_1 + Psi_-1.  The
    negative branch is the complex conjugate, contributing a factor 2.  (A
    naive second-order defect d2(psi)/dt2 - RHS(psi) cannot see the branch
    structure: the first-harmonic correction rides the carrier's own
    space-time phase there, so only the branch-resolved residual exhibits the
    extra cancellation order.)  rhs is envelope_rhs on env's grid, built here
    when None.
    """
    acc = _assemble_branches(env, disp, eps, t, n_side, variant, with_corrections, rhs)
    w, inv_8iw = _lattice_multipliers(n_side)
    names = _positions(variant)
    fields = [2 * acc[p][0].real for p in names]
    bonds = ([_forward_diff(fields[0], axis) for axis in (0, 1)]
             if variant == "displacement" else fields)
    div = _divergence(-bonds[0]**3, -bonds[1]**3, np.empty_like(fields[0]))
    cubic = [div] if variant == "displacement" else [_forward_diff(div, 0),
                                                     _forward_diff(div, 1)]
    norm = 0.0
    for p, n_cubic in zip(names, cubic):
        psi1, dpsi1 = acc[p]
        norm += l1_dft_norm(-fft.fft2(dpsi1) + 1j * w * fft.fft2(psi1)
                            + inv_8iw * fft.fft2(n_cubic))
    return 2 * norm
