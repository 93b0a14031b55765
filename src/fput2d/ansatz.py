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
The three correction products have three times Q's bandwidth; they are
formed on the envelope grid zero-padded to 2M points, where they do not
alias onto Q's M modes, and resampled from there.
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
evaluated at the scaled moving-frame points by exact FFT resampling: the
central modes of the envelope spectrum move to the N x N lattice grid
(zero-padded or truncated), each gets the moving frame's phase shift, and one
inverse FFT gives the lattice field.  All transforms are nls._fft2 and
nls._ifft2, in place.

An AnsatzWorkspace holds what one lattice run's samples share: the
constants (the envelope equation's cubic coefficient, the index blocks of
the resampling, the carrier phase along n and the harmonic weights; on the
lattice's modes, the linear symbol and eps times the group-velocity symbol
as real N x N arrays, and the residual's frequency as a 1D factor) and the
buffers every sample is written into (one envelope-grid array, four
lattice-grid complex arrays and the state's real arrays, all on 64-byte
cache lines).  Between the envelope FFTs and the lattice inverse FFTs all
arithmetic runs on the lattice's modes, in place, with the same
floating-point operations per mode as on the envelope grid.  The purely
imaginary multipliers i sigma, i (eps c . K + j omega0), i omega and
1/(8 i omega) are applied as their real factor times the exact rotation of
the spectrum by i or -i, which gives each mode the products of the complex
multiplication.  sample_ansatz, residual_norm and build_initial_data take it
as their first argument and read the carrier, eps, lattice side and form
from it; the envelope they are given must have its grid side and box.  The
state sample_ansatz or build_initial_data returns is live: its arrays are
the workspace's, and the next call on that workspace (residual_norm too)
overwrites them, so a caller copies what it keeps.  A workspace serves one
thread.
"""

from __future__ import annotations

import numpy as np

from .dispersion import DispersionData, correction_coefficients
from .lattice import (
    _ARRAY_NAMES,
    LatticeState,
    _aligned_empty,
    _divergence,
    _forward_diff,
)
from .nls import EnvelopeField, NlsProblem, _fft2, _ifft2, linear_symbol

DELTA_PROJ = 1e-9


class FootprintExceeded(ValueError):
    """The lattice's scaled footprint eps*N differs from the envelope box."""


def _correction_products(a: np.ndarray, a_t: np.ndarray) -> dict[int, tuple]:
    """The basis fields B_j of the correction harmonics j = -1, 3, -3, Q
    conj(Q)^2, Q^3 and conj(Q)^3, and dB_j/dT, from Q and dQ/dT on one grid."""
    ac, ac_t = np.conj(a), np.conj(a_t)
    return {-1: (a * ac**2, a_t * ac**2 + 2 * a * ac * ac_t),
            3: (a**3, 3 * a * a * a_t),
            -3: (ac**3, 3 * ac * ac * ac_t)}


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
        co = correction_coefficients(disp.carrier, disp.delta_res)
        w_q.update({-1: 8 * co.c_1m1, 3: 8 * co.c_13, -3: 8 * co.c_1m3})
    if form == "displacement":
        return {"q": w_q}
    if form != "strain":
        raise ValueError(f"unknown lattice form {form!r}")
    kv = disp.carrier
    return {name: {j: w * (np.exp(1j * j * k) - 1.0) for j, w in w_q.items()}
            for name, k in zip(_positions(form), (kv.k, kv.l))}


def _resample_map(m: int, n_out: int):
    """How centered Fourier coefficients of an m-point axis move to an
    n_out-point axis (zero padding or truncation): per axis, the c =
    min(m, n_out) central modes in fftshift order go where ifftshift puts the
    n_out grid's c central modes.

    Returns (blocks, pad, src): the (output, input) slice pairs along which
    both index runs are contiguous (each wraps at most once, so there are at
    most three), the slice of the output modes no input mode reaches (the
    band beyond the input's, one run; None when there are none), and per
    output mode the input mode it reads (0 on pads).
    """
    c = min(m, n_out)
    r = np.arange(c)
    dst = (r + (n_out - c) // 2 - n_out // 2) % n_out
    src = (r + (m - c) // 2 - m // 2) % m
    cuts = [0] + [i for i in range(1, c)
                  if dst[i] != dst[i - 1] + 1 or src[i] != src[i - 1] + 1] + [c]
    blocks = [(slice(dst[a], dst[b - 1] + 1), slice(src[a], src[b - 1] + 1))
              for a, b in zip(cuts, cuts[1:])]
    reads = np.zeros(n_out, dtype=int)
    reads[dst] = src
    pad = np.ones(n_out, dtype=bool)
    pad[dst] = False
    pad = np.flatnonzero(pad)
    return blocks, (slice(pad[0], pad[-1] + 1) if pad.size else None), reads


def _respec(coeffs: np.ndarray, out: np.ndarray, blocks) -> np.ndarray:
    """Copy the central modes of coeffs into out along the blocks of
    _resample_map; out's pad modes are left as they are."""
    for dst_i, src_i in blocks:
        for dst_j, src_j in blocks:
            out[dst_i, dst_j] = coeffs[src_i, src_j]
    return out


def _i_times(factor: np.ndarray, z: np.ndarray, out: np.ndarray,
             turn: complex = 1j) -> np.ndarray:
    """(turn * factor) * z for a real factor and turn = 1j or -1j, into out
    (z itself or another array): the exact rotation turn * z, (-Im z, Re z)
    or (Im z, -Re z), then its real products with factor.  Each mode gets
    the products the complex multiplication by the purely imaginary
    turn * factor forms, up to the sign of a zero."""
    return np.multiply(factor, np.multiply(turn, z, out=out), out=out)


def _frequency(wk2: np.ndarray, out: np.ndarray) -> np.ndarray:
    """omega = sqrt(wk2[a] + wk2[b]) on the lattice's modes (a, b), into out."""
    return np.sqrt(np.add(wk2[:, None], wk2[None, :], out=out), out=out)


def _inverse_8w(w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """1/(8 omega) on the lattice's modes, into out (not w): 0 at the mean
    mode (0, 0), the only one where omega is 0."""
    inverse = np.multiply(8.0, w, out=out)
    inverse[0, 0] = np.inf
    return np.divide(1.0, inverse, out=inverse)


def _real_view(z: np.ndarray) -> np.ndarray:
    """The first half of a C-contiguous complex N x N array's memory as a
    C-contiguous real N x N array."""
    n = z.shape[0]
    return z.view(np.float64).reshape(2, n, n)[0]


class AnsatzWorkspace:
    """The constants and buffers that sample_ansatz and residual_norm share
    over one lattice run: one envelope grid and box, carrier, eps, lattice
    side and form (see the module docstring)."""

    def __init__(self, env: EnvelopeField, disp: DispersionData, eps: float,
                 n_side: int, form: str):
        if not 0 < eps < 1:
            raise ValueError("eps must be in (0, 1)")
        if form not in _ARRAY_NAMES:
            raise ValueError(f"unknown lattice form {form!r}")
        if abs(eps * n_side - env.box_length) > 1e-9 * env.box_length:
            raise FootprintExceeded(
                f"eps*N = {eps * n_side:.6f} differs from the envelope box {env.box_length}"
            )
        m, n = env.grid_side, n_side
        self.disp, self.eps, self.n_side, self.form = disp, eps, n, form
        self._grid = (m, env.box_length)
        self._blocks, self._pad, _ = _resample_map(m, n)
        # the correction products' grid, the envelope grid padded to 2M points
        # (see _corrections): from the M modes to it, and from it to the lattice
        self._pad_blocks = _resample_map(m, 2 * m)[0]
        self._wide_blocks, self._wide_pad, reads = _resample_map(2 * m, n)
        self._prob = NlsProblem(disp.hessian, disp.gamma_q)
        # per lattice mode: the envelope wavenumber it carries (the M- and
        # 2M-point grids of one box share theirs), the envelope equation's
        # linear symbol and eps times the group-velocity symbol c . K; each
        # multiplies i times a spectrum (see harmonics), so both are real
        self._k = 2 * np.pi * np.fft.fftfreq(2 * m, d=env.spacing / 2)[reads]
        self._symbol = _respec(linear_symbol(env, self._prob), np.zeros((n, n)), self._blocks)
        cx, cy = disp.group_velocity
        self._eps_mu = np.add(cx * self._k[:, None], cy * self._k[None, :])
        self._eps_mu *= eps
        self._scale = n**2 / m**2
        mvals = np.arange(n) - n // 2
        kv = disp.carrier
        self._km = kv.k * mvals
        self._phase_n = {j: np.exp(1j * j * kv.l * mvals) for j in (1, -1, 3, -3)}
        self._coefficients: dict[bool, dict[str, dict[int, complex]]] = {}
        # the residual's 1D factor: omega^2 = wk2[a] + wk2[b] on the lattice's modes
        self._wk2 = 2.0 - 2.0 * np.cos(2 * np.pi * np.fft.fftfreq(n))
        self._env = _aligned_empty((m, m), complex)
        # lattice grid: harmonic 1's field and time derivative, and two scratch
        # arrays; a sample reads the first two's pad modes before it zeroes them
        self._pos, self._vel, self._tmp, self._spare = (
            _aligned_empty((n, n), complex) for _ in range(4))
        self._pos.fill(0.0)
        self._vel.fill(0.0)
        self.arrays = tuple(_aligned_empty((n, n)) for _ in _ARRAY_NAMES[form])

    def coefficients(self, corrections: bool) -> dict[str, dict[int, complex]]:
        """Per position array, eps^p times the weight of each harmonic (p = 1
        for j = 1, 3 for the corrections), built on first use."""
        if corrections not in self._coefficients:
            self._coefficients[corrections] = {
                name: {j: self.eps ** (1 if j == 1 else 3) * wj for j, wj in w.items()}
                for name, w in _weights(self.disp, self.form, corrections).items()}
        return self._coefficients[corrections]

    def real_scratch(self) -> np.ndarray:
        """The spare complex array's memory as a C-contiguous real N x N array."""
        return _real_view(self._spare)

    def harmonics(self, env: EnvelopeField, t: float,
                  corrections: bool) -> list[tuple[int, tuple[np.ndarray, np.ndarray]]]:
        """Per harmonic j: its basis field B_j(X, Y, T) e^{i j theta} on the
        lattice at time t and that product's exact time derivative.

        Harmonic 1 is written into the workspace; the corrections' are new
        arrays.  dQ/dT is i sigma Q + gamma |Q|^2 Q, and one DFT of the cubic
        term serves both: harmonic 1 takes its lattice modes, and the
        corrections, which need dQ/dT on the envelope grid, keep it whole.
        """
        if (env.grid_side, env.box_length) != self._grid:
            raise ValueError("the envelope's grid side or box differs from the workspace's")
        a, e = env.a, self._env
        # gamma |Q|^2 Q, with |Q|^2 in e's real part and e's imaginary part 0:
        # the complex array a real one casts to, so the product is the same
        np.abs(a, out=e.real)
        np.square(e.real, out=e.real)
        e.imag = 0.0
        np.multiply(self._prob.nonlin_coeff, e, out=e)
        e *= a
        # the corrections read it after e is rewritten: then it takes a copy
        cubic_hat = _fft2(e.copy() if corrections else e)
        _respec(cubic_hat, self._vel, self._blocks)
        np.copyto(e, a)
        a_hat = _fft2(e)
        _respec(a_hat, self._pos, self._blocks)
        self._vel += _i_times(self._symbol, self._pos, out=self._tmp)
        basis = [(1, self._scale, self._pad, (self._pos, self._vel))]
        if corrections:
            cubic_hat += 1j * linear_symbol(env, self._prob) * a_hat
            basis += self._corrections(a_hat, cubic_hat)
        w0 = self.disp.omega0
        harmonics = []
        for j, scale, pad, (b_hat, b_t_hat) in basis:
            self._time_derivative(j, b_hat, b_t_hat)
            field, derivative = self.resample([b_hat, b_t_hat], t, scale, pad)
            # times the carrier phase e^{i j theta}, an outer product over m and n
            phase = np.outer(np.exp(1j * j * (self._km + w0 * t)), self._phase_n[j],
                             out=self._tmp)
            field *= phase
            derivative *= phase
            harmonics.append((j, (field, derivative)))
        return harmonics

    def _corrections(self, a_hat: np.ndarray, a_t_hat: np.ndarray) -> list:
        """(j, scale, pad, (DFT of B_j, DFT of dB_j/dT)) of the correction
        harmonics, from the DFTs of Q and dQ/dT on the envelope grid.

        Q and dQ/dT are evaluated on the envelope grid zero-padded to 2M
        points, where a cubic product of Q's M modes does not alias onto them
        (Orszag's rule, at twice the size for cubic products); its modes
        beyond them, up to the 2M-point band, are kept too, and only its tail
        past that band folds onto them.  Each product's DFT moves to the
        lattice's modes, to be resampled with the 2M-point grid's scale and
        pad modes."""
        m = self._grid[0]
        # the 2M-point inverse DFT's 1/size is a quarter of the M-point one's
        a, a_t = (4 * _ifft2(_respec(f, np.zeros((2 * m, 2 * m), dtype=complex),
                                     self._pad_blocks))
                  for f in (a_hat, a_t_hat))
        return [(j, self._scale / 4, self._wide_pad,
                 tuple(_respec(_fft2(f), np.zeros_like(self._pos), self._wide_blocks)
                       for f in fields))
                for j, fields in _correction_products(a, a_t).items()]

    def _time_derivative(self, j: int, b_hat: np.ndarray, b_t_hat: np.ndarray) -> None:
        """b_t_hat, the DFT of dB_j/dT, becomes in place the DFT of
        g_t = i j omega0 B_j + eps (c . grad) B_j + eps^2 dB_j/dT, so that
        d/dt of B_j(X, Y, T) e^{i j theta} = e^{i j theta} g_t.  The first two
        terms are i (eps c . K + j omega0) B_j, whose real factor is built in
        the scratch array's memory and whose product goes into the spare."""
        np.multiply(self.eps**2, b_t_hat, out=b_t_hat)
        g = np.add(self._eps_mu, j * self.disp.omega0, out=_real_view(self._tmp))
        b_t_hat += _i_times(g, b_hat, out=self._spare)

    def resample(self, spectra: list[np.ndarray], t: float, scale: float,
                 pad: slice | None) -> list[np.ndarray]:
        """Envelope-grid fields, given by their DFTs already moved to the
        lattice's modes, evaluated at the lattice's scaled moving-frame points
        at time t: the frame's phase shift and the pad modes zeroed in place,
        then the inverse FFT, in the spectrum's own array.  scale is N^2 over
        the size of the grid the DFTs were taken on, and pad the slice of the
        lattice modes that grid does not reach (None when it reaches all)."""
        eps, k = self.eps, self._k
        cx, cy = self.disp.group_velocity
        shift = np.outer(scale * np.exp(1j * eps * cx * t * k),
                         np.exp(1j * eps * cy * t * k), out=self._tmp)
        fields = []
        for s in spectra:
            s *= shift
            if pad is not None:
                s[pad] = s[:, pad] = 0.0
            fields.append(_ifft2(s))
        return fields


def _branch(coefficients: dict[int, complex], basis, d: int, out: np.ndarray) -> np.ndarray:
    """The complex branch sum_j coefficients[j] * (basis field j, or its time
    derivative for d = 1) in harmonic order, into out; a second harmonic takes
    a new scratch array."""
    scratch = None
    for k, (j, fields) in enumerate(basis):
        if k == 0:
            np.multiply(coefficients[j], fields[d], out=out)
        else:
            if scratch is None:
                scratch = np.empty_like(out)
            out += np.multiply(coefficients[j], fields[d], out=scratch)
    return out


def _real_branches(basis, coefficients, names, d: int, outs, scratch: np.ndarray) -> None:
    """Per name, the real part of its branch (built in the complex scratch)
    into its out: of 0 + the branch, as a sum that starts at 0 gives it."""
    for name, out in zip(names, outs):
        np.add(_branch(coefficients[name], basis, d, scratch).real, 0.0, out=out)


def sample_ansatz(work: AnsatzWorkspace, env: EnvelopeField, t: float,
                  corrections: bool = False) -> LatticeState:
    """The ansatz of envelope env on the workspace's N x N lattice as a
    state of its form at time t: positions are the psi fields, velocities
    their exact time derivatives, the real parts of the complex
    positive-branch sums sum_j eps^p w_j B_j e^{i j theta}.  The state is
    live (see the module docstring)."""
    basis = work.harmonics(env, t, corrections)
    names = _positions(work.form)
    for d in range(2):  # the fields, then their time derivatives
        _real_branches(basis, work.coefficients(corrections), names, d,
                       work.arrays[d * len(names):], work._tmp)
    return LatticeState.from_arrays(work.form, t, work.arrays)


def _difference_symbol(n: int):
    """e^{ik} - 1 at the n lattice wavenumbers k, and the mask of the (k, l)
    modes the projection keeps, |a^2 + b^2| >= DELTA_PROJ for a = e^{ik} - 1,
    b = e^{il} - 1."""
    e = np.exp(2j * np.pi * np.fft.fftfreq(n)) - 1.0
    return e, np.abs(e[:, None] ** 2 + e[None, :] ** 2) >= DELTA_PROJ


def _lift(u_hat: np.ndarray, v_hat: np.ndarray, e, keep) -> np.ndarray:
    """Spectrum s of the periodic mean-zero displacement whose forward
    differences (a s, b s) are the projection of the strain pair (U, V): on
    kept modes s = (a U + b V)/(a^2 + b^2); on the degenerate modes other than
    (0, 0), which are (pi/2, -pi/2) and (-pi/2, pi/2) when 4 divides N, U/a
    (V/b where a = 0), so U stays and V becomes (b/a) U.  s is written over
    u_hat, with v_hat as scratch."""
    a, b = e[:, None], e[None, :]
    # the degenerate modes' inputs, before the products overwrite them;
    # (0, 0), where a = b = 0, is the mean
    lone = [(m, n, u_hat[m, n], v_hat[m, n]) for m, n in np.argwhere(~keep)]
    q = np.multiply(a, u_hat, out=u_hat)
    q += np.multiply(b, v_hat, out=v_hat)
    denominator = np.add(a * a, b * b, out=v_hat)
    denominator[~keep] = 1.0
    q /= denominator
    for m, n, u, v in lone:
        q[m, n] = u / e[m] if e[m] else v / e[n] if e[n] else 0.0
    return q


def build_initial_data(work: AnsatzWorkspace, env: EnvelopeField, corrections: bool):
    """Displacement-form lattice initial data matching the ansatz at t = 0.

    The sampled ansatz at t = 0.  Displacement form takes it as it is (no
    constraint).  Strain form lifts the spectra of its four arrays to the
    (q, w) whose forward differences are their projection onto compatible
    pairs (see the module docstring); the projection moves the strain state
    by O(eps^2) in sup norm.  The lift runs in the workspace's complex
    arrays and writes q and w over the sample's u and v.  The state is live,
    as sample_ansatz's is (see the module docstring).  Returns (state,
    diagnostics).
    """
    s = sample_ansatz(work, env, 0.0, corrections)
    if work.form == "displacement":
        return s, {"degenerate_modes": 0, "max_projection_displacement": 0.0}
    e, keep = _difference_symbol(work.n_side)
    sampled = s.arrays()
    spectra = (work._pos, work._vel, work._tmp, work._spare)
    for f, spectrum in zip(sampled, spectra):
        np.copyto(spectrum, f)
        _fft2(spectrum)
    moved = 0.0
    # (U, V) lifts to q, written over u; (Ut, Vt) to w, over v
    for i, (u_hat, v_hat) in enumerate(zip(spectra[::2], spectra[1::2])):
        lifted = _ifft2(_lift(u_hat, v_hat, e, keep)).real
        # its differences against the pair, in v_hat's memory
        field, difference = v_hat.view(np.float64).reshape(2, *v_hat.shape)
        np.copyto(field, lifted)
        for axis, r in enumerate(sampled[2 * i:2 * i + 2]):
            d = np.subtract(_forward_diff(field, axis, out=difference), r, out=difference)
            moved = max(moved, float(np.max(np.abs(d, out=d))))
        np.copyto(sampled[i], field)
    state = LatticeState("displacement", 0.0, q=sampled[0], w=sampled[1])
    return state, {"degenerate_modes": int(np.count_nonzero(~keep)),
                   "max_projection_displacement": moved}


def l1_dft_norm(spectrum: np.ndarray, out: np.ndarray) -> float:
    """Cell-measure-scaled l1 norm of a field's DFT; dominates the field's
    site sup norm.  out takes |spectrum|."""
    return float(np.sum(np.abs(spectrum, out=out)) / spectrum.size)


def residual_norm(work: AnsatzWorkspace, env: EnvelopeField, t: float,
                  with_corrections: bool) -> float:
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
    extra cancellation order.)  The workspace's state arrays serve as scratch.
    """
    form = work.form
    basis = work.harmonics(env, t, with_corrections)
    coefficients = work.coefficients(with_corrections)
    names = _positions(form)
    real = work.arrays  # the state arrays, free until the next sample
    # the fields 2 Re Psi_1, then the cubic term N of each
    fields = real[:len(names)]
    _real_branches(basis, coefficients, names, 0, fields, work._tmp)
    for field in fields:
        field *= 2
    if form == "displacement":
        bonds = [_forward_diff(fields[0], 0, out=real[1]),
                 _forward_diff(fields[0], 1, out=work.real_scratch())]
    else:
        bonds = fields
    # -b^3 as b^2 times -b (np.power is a scalar pow loop), with the array
    # the divergence takes next as scratch: the bonds have left it free
    div = real[0] if form == "displacement" else real[2]
    for b in bonds:
        np.square(b, out=div)
        np.negative(b, out=b)
        b *= div
    div = _divergence(bonds[0], bonds[1], div)
    cubic = [div] if form == "displacement" else [_forward_diff(div, 0, out=real[0]),
                                                  _forward_diff(div, 1, out=real[1])]
    w = _frequency(work._wk2, out=real[len(names)])  # the array after the cubic terms
    norm = 0.0
    for name, n_cubic in zip(names, cubic):
        spectrum = _fft2(_branch(coefficients[name], basis, 1, work._tmp))
        np.negative(spectrum, out=spectrum)
        psi1_hat = _fft2(_branch(coefficients[name], basis, 0, work._spare))
        spectrum += _i_times(w, psi1_hat, out=psi1_hat)
        # the cubic term's DFT, in the spare array psi1_hat no longer needs
        np.copyto(work._spare, n_cubic)
        cubic_hat = _fft2(work._spare)
        # N/(8 i omega) = (-i/(8 omega)) N, with 1/(8 omega) in n_cubic's array
        spectrum += _i_times(_inverse_8w(w, out=n_cubic), cubic_hat, out=cubic_hat, turn=-1j)
        norm += l1_dft_norm(spectrum, out=n_cubic)
    return 2 * norm
