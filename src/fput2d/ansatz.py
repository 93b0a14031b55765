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
j = 1, -1, 3, -3.
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
maps to (m, n) = (i - N//2, j - N//2).  The lattice and envelope tori are
commensurate (eps * N equals the box length L) and both grids start at -L/2,
so lattice index i sits at envelope index i M/N.  Each term is therefore
assembled on the lattice's modes, by exact FFT resampling: the DFT of its
basis field on the envelope grid takes the moving frame's phase shift (two
broadcast 1D factors), and its central modes move to the N x N lattice's
modes (zero-padded or truncated).  The carrier factor e^{ij(k0 m + l0 n)} is
an exact roll of the mode indices there: j k0 and j l0 are lattice
wavenumbers 2 pi p / N (a workspace refuses a carrier for which they are
not), so the block copy that moves the modes writes them j p places on, times
the scalar e^{ij theta} at the first site.  The terms of a field add up on the
lattice's modes, one inverse FFT gives the complex field, and its real part
goes with real arithmetic straight into the state's array.  The velocity
spectrum of harmonic 1 is eps^2 C + i (eps^2 sigma + eps c . K + omega0) Q,
with C the DFT of the cubic term gamma |Q|^2 Q of dQ/dT and sigma the linear
symbol: one real symbol on the envelope grid.  Without corrections a sample
takes two FFTs on the envelope grid and two inverse FFTs on the lattice.  The
three correction products have three times Q's bandwidth; they are formed
one at a time on the envelope grid zero-padded to 2M points, where they do
not alias onto Q's M modes, and their spectra are added into the lattice's
during the mode copy.  All transforms are nls._fft2 and nls._ifft2, in place.

An AnsatzWorkspace holds what one lattice run's samples share: the
constants (the envelope equation's cubic coefficient, the rolled index
blocks of each harmonic, the harmonic weights and harmonic 1's velocity
symbol on the envelope grid) and the buffers every sample is written into:
two complex N x N arrays for the lattice spectra, the state's real arrays,
and harmonic 1's two spectra and a real scratch on the envelope grid, all on
64-byte cache lines.  Every lattice-sized step of a sample, a residual and
the strain lift runs in the two complex arrays and the state's arrays.
sample_ansatz, residual_norm and build_initial_data take it as their first
argument and read the carrier, eps, lattice side and form from it; the
envelope they are given must have its grid side and box.  The state
sample_ansatz or build_initial_data returns is live: its arrays are the
workspace's, and the next call on that workspace (residual_norm too)
overwrites them, so a caller copies what it keeps.  A workspace serves one
thread.
"""

from __future__ import annotations

import numpy as np

from .dispersion import DispersionData, correction_coefficients
from .lattice import (
    _ARRAY_NAMES,
    ForceLaw,
    LatticeState,
    _add_divergence,
    _add_force,
    _aligned_empty,
    _forward_diff,
    _views,
)
from .nls import EnvelopeField, NlsProblem, _fft2, _ifft2, linear_symbol

DELTA_PROJ = 1e-9
CORRECTIONS = (-1, 3, -3)
CUBIC_PART = ForceLaw().scaled_coefficients(0.0, None)  # h^3 W'(b / h) at h = 0: -b^3


class FootprintExceeded(ValueError):
    """The lattice's scaled footprint eps*N differs from the envelope box."""


def _correction_products(j: int, a: np.ndarray, a_t: np.ndarray | None):
    """The basis field B_j of correction harmonic j, Q conj(Q)^2 = |Q|^2
    conj(Q) for j = -1, Q^3 for 3 and conj(Q)^3 for -3, and with a_t given
    dB_j/dT, from Q and dQ/dT on one grid: new arrays (dB_j/dT None without
    a_t).  conj(Q)^3 is formed as the conjugate of Q^3, which has the same
    bits."""
    if j == -1:
        r = np.abs(a)
        np.square(r, out=r)
        b = np.conj(a)
        b *= r
        if a_t is None:
            return b, None
        # conj(Q)^2 dQ/dT + 2 |Q|^2 conj(dQ/dT)
        b_t = np.conj(a_t)
        b_t *= r
        b_t *= 2.0
        s = np.conj(a)
        np.square(s, out=s)
        s *= a_t
        b_t += s
        return b, b_t
    b = a * a
    b *= a
    b_t = None
    if a_t is not None:
        b_t = a * a
        b_t *= a_t
        b_t *= 3.0
    if j == -3:
        for f in (b, b_t):
            if f is not None:
                np.conj(f, out=f)
    return b, b_t


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


def _runs(dst: np.ndarray, src: np.ndarray) -> list[tuple[slice, slice]]:
    """The (dst, src) slice pairs of the maximal runs along which both index
    arrays step by 1."""
    cuts = [0] + [i for i in range(1, len(dst))
                  if dst[i] != dst[i - 1] + 1 or src[i] != src[i - 1] + 1] + [len(dst)]
    return [(slice(dst[a], dst[b - 1] + 1), slice(src[a], src[b - 1] + 1))
            for a, b in zip(cuts, cuts[1:]) if b > a]


def _resample_map(m: int, n_out: int, roll: int = 0):
    """How centered Fourier coefficients of an m-point axis move to an
    n_out-point axis (zero padding or truncation), rolled by roll modes: the
    c = min(m, n_out) central modes in fftshift order go where ifftshift puts
    the n_out grid's c central modes, plus roll (mod n_out).

    Returns (blocks, pads): the (output, input) slice pairs along which both
    index runs are contiguous (each wraps at most once, so there are at most
    three), and the slices of the output modes no input mode reaches (the
    band beyond the input's, at most two runs once rolled; none when the
    input reaches every output mode).
    """
    c = min(m, n_out)
    r = np.arange(c)
    dst = (r + (n_out - c) // 2 - n_out // 2 + roll) % n_out
    src = (r + (m - c) // 2 - m // 2) % m
    pad = np.ones(n_out, dtype=bool)
    pad[dst] = False
    pad = np.flatnonzero(pad)
    return _runs(dst, src), [s for s, _ in _runs(pad, pad)]


def _block_pairs(rows, cols):
    """The 2D (output, input) index pairs of per-axis block lists."""
    for dst_i, src_i in rows:
        for dst_j, src_j in cols:
            yield (dst_i, dst_j), (src_i, src_j)


def _respec(coeffs: np.ndarray, out: np.ndarray, rows, cols,
            scalar: complex = 1.0) -> np.ndarray:
    """scalar times the central modes of coeffs, into out along the per-axis
    blocks of _resample_map; out's pad modes are left as they are."""
    for dst, src in _block_pairs(rows, cols):
        np.multiply(coeffs[src], scalar, out=out[dst])
    return out


def _respec_add(coeffs: np.ndarray, out: np.ndarray, rows, cols) -> None:
    """The central modes of coeffs added onto out along the per-axis blocks
    of _resample_map."""
    for dst, src in _block_pairs(rows, cols):
        out[dst] += coeffs[src]


def _i_times(factor: np.ndarray, z: np.ndarray, out: np.ndarray,
             turn: complex = 1j) -> np.ndarray:
    """(turn * factor) * z for a real factor and turn = 1j or -1j, into out
    (z itself or another array): the exact rotation turn * z, (-Im z, Re z)
    or (Im z, -Re z), then its real products with factor.  Each mode gets
    the products the complex multiplication by the purely imaginary
    turn * factor forms, up to the sign of a zero."""
    return np.multiply(factor, np.multiply(turn, z, out=out), out=out)


def _add_i_times(factor: np.ndarray, z: np.ndarray, out: np.ndarray,
                 scratch: np.ndarray) -> None:
    """out += i factor z for a real factor, by real arithmetic in the real
    scratch: Re out -= factor Im z, Im out += factor Re z, the products and
    sums of the complex formula."""
    out.real -= np.multiply(factor, z.imag, out=scratch)
    out.imag += np.multiply(factor, z.real, out=scratch)


def _real_part(z: np.ndarray, factor: complex, out: np.ndarray,
               scratch: np.ndarray) -> np.ndarray:
    """Re(factor z) into out by real arithmetic, Re factor Re z - Im factor
    Im z, with the real scratch for the second term (unused for a real
    factor)."""
    factor = complex(factor)
    np.multiply(z.real, factor.real, out=out)
    if factor.imag:
        out -= np.multiply(z.imag, factor.imag, out=scratch)
    return out


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
        kv = disp.carrier
        # the carrier's wavenumbers in lattice modes: k0 = 2 pi p / N, l0 = 2 pi q / N
        turns = [x * n / (2 * np.pi) for x in (kv.k, kv.l)]
        if any(abs(x - round(x)) > 1e-9 * max(1.0, abs(x)) for x in turns):
            raise ValueError(
                f"carrier ({kv.k!r}, {kv.l!r}) does not fit the N = {n} lattice: its "
                f"harmonics j k0, j l0 (j = +-1, +-3) are lattice wavenumbers 2 pi p/N "
                f"only if k0 N/(2 pi) = {turns[0]:.6g} and l0 N/(2 pi) = {turns[1]:.6g} "
                f"are integers")
        p, q = (round(x) for x in turns)
        self.disp, self.eps, self.n_side, self.form = disp, eps, n, form
        self._grid = (m, env.box_length)
        self._prob = NlsProblem(disp.hessian, disp.gamma_q)
        # per harmonic j and axis, the (blocks, pads) of its modes on the
        # lattice, rolled by the carrier's j p and j q modes: harmonic 1's from
        # the envelope grid, the corrections' from that grid padded to 2M
        # points (see _add_correction), which _pad_blocks moves the M modes to
        self._maps = {j: (_resample_map(m if j == 1 else 2 * m, n, j * p),
                          _resample_map(m if j == 1 else 2 * m, n, j * q))
                      for j in (1, *CORRECTIONS)}
        self._pad_blocks = _resample_map(m, 2 * m)[0]
        # theta at site (0, 0), m = n = -(N // 2), less its time term
        self._theta0 = (kv.k + kv.l) * -(n // 2)
        self._k = env.wavenumbers_1d()
        self._k2 = 2 * np.pi * np.fft.fftfreq(2 * m, d=env.spacing / 2)
        self._scale = n**2 / m**2
        # harmonic 1's velocity symbol eps^2 sigma + eps c . K + omega0
        self._symbol = self._velocity_symbol(self._k, 1)
        self._symbol += eps**2 * linear_symbol(env, self._prob)
        self._coefficients: dict[bool, dict[str, dict[int, complex]]] = {}
        # the residual's 1D factor: omega^2 = wk2[a] + wk2[b] on the lattice's modes
        self._wk2 = 2.0 - 2.0 * np.cos(2 * np.pi * np.fft.fftfreq(n))
        # envelope grid: harmonic 1's spectra of position and velocity, and a
        # real scratch
        self._a_hat, self._g_hat = (_aligned_empty((m, m), complex) for _ in range(2))
        self._scratch = _aligned_empty((m, m))
        # lattice grid: the spectra a sample assembles, then its complex fields
        self.spectra = tuple(_aligned_empty((n, n), complex) for _ in range(2))
        self.arrays = tuple(_aligned_empty((n, n)) for _ in _ARRAY_NAMES[form])

    def coefficients(self, corrections: bool) -> dict[str, dict[int, complex]]:
        """Per position array, eps^p times the weight of each harmonic (p = 1
        for j = 1, 3 for the corrections), built on first use."""
        if corrections not in self._coefficients:
            self._coefficients[corrections] = {
                name: {j: self.eps ** (1 if j == 1 else 3) * wj for j, wj in w.items()}
                for name, w in _weights(self.disp, self.form, corrections).items()}
        return self._coefficients[corrections]

    def groups(self, corrections: bool) -> list:
        """The spectra a sample assembles: per spectrum, the weight of each
        harmonic, and the index and factor of each position array that is
        the real part of factor times the spectrum's field.  Without
        corrections every position array is its coefficient times harmonic
        1's field, so one spectrum serves them all; with them each array is
        its own sum of harmonics."""
        coefficients = self.coefficients(corrections).values()
        if corrections:
            return [(w, [(i, 1.0)]) for i, w in enumerate(coefficients)]
        return [({1: 1.0}, [(i, w[1]) for i, w in enumerate(coefficients)])]

    def real_scratch(self) -> np.ndarray:
        """The second lattice spectrum's memory as a C-contiguous real N x N
        array."""
        return _real_view(self.spectra[1])

    def _velocity_symbol(self, k: np.ndarray, j: int) -> np.ndarray:
        """eps c . K + j omega0 on the grid of wavenumbers k.  d/dt of
        B_j(X, Y, T) e^{ij theta} is e^{ij theta} g_t, and the DFT of g_t is
        eps^2 that of dB_j/dT plus i times this symbol times that of B_j."""
        cx, cy = self.disp.group_velocity
        s = np.add.outer(cx * k, cy * k)
        s *= self.eps
        s += j * self.disp.omega0
        return s

    def _frame(self, k: np.ndarray, t: float, scale: float):
        """The moving frame's phase shift at time t on the grid of
        wavenumbers k, as 1D factors along the two axes, with scale, N^2
        over the grid's size, in the first."""
        cx, cy = self.disp.group_velocity
        return (scale * np.exp(1j * self.eps * cx * t * k),
                np.exp(1j * self.eps * cy * t * k))

    def _phase(self, j: int, t: float) -> complex:
        """e^{ij theta} at site (0, 0) at time t."""
        return np.exp(1j * j * (self._theta0 + self.disp.omega0 * t))

    def prepare(self, env: EnvelopeField, t: float, corrections: bool):
        """Harmonic 1's spectra at time t on the envelope grid: the DFTs of Q
        and of its velocity term eps^2 gamma |Q|^2 Q + i (eps^2 sigma + eps
        c . K + omega0) Q, each times the moving frame's phase shift.  One DFT
        of the cubic term serves this velocity and the corrections' dQ/dT.
        Returns, with corrections, Q and dQ/dT on the 2M-point grid, new
        arrays; else None."""
        if (env.grid_side, env.box_length) != self._grid:
            raise ValueError("the envelope's grid side or box differs from the workspace's")
        a, a_hat, g_hat = env.a, self._a_hat, self._g_hat
        # gamma |Q|^2 Q, with |Q|^2 in g_hat's real part and its imaginary
        # part 0: the complex array a real one casts to, so the product is the same
        np.abs(a, out=g_hat.real)
        np.square(g_hat.real, out=g_hat.real)
        g_hat.imag = 0.0
        np.multiply(self._prob.nonlin_coeff, g_hat, out=g_hat)
        g_hat *= a
        _fft2(g_hat)
        np.copyto(a_hat, a)
        _fft2(a_hat)
        wide = self._wide(env) if corrections else None
        g_hat *= self.eps**2
        _add_i_times(self._symbol, a_hat, g_hat, self._scratch)
        fx, fy = self._frame(self._k, t, self._scale)
        for z in (a_hat, g_hat):
            z *= fx[:, None]
            z *= fy[None, :]
        return wide

    def _wide(self, env: EnvelopeField) -> tuple[np.ndarray, np.ndarray]:
        """Q and dQ/dT = i sigma Q + gamma |Q|^2 Q on the envelope grid
        zero-padded to 2M points, from the DFTs of Q and of the cubic term
        that prepare holds."""
        m = self._grid[0]
        t_hat = self._g_hat.copy()
        _add_i_times(linear_symbol(env, self._prob), self._a_hat, t_hat, self._scratch)
        fields = []
        for f in (self._a_hat, t_hat):
            z = _ifft2(_respec(f, np.zeros((2 * m, 2 * m), dtype=complex),
                               self._pad_blocks, self._pad_blocks))
            # the 2M-point inverse DFT's 1/size is a quarter of the M-point one's
            z *= 4.0
            fields.append(z)
        return fields[0], fields[1]

    def assemble(self, weights: dict[int, complex], t: float, wide,
                 velocities: bool = True) -> None:
        """Into spectra[0], and with velocities into spectra[1]: the lattice
        DFT of sum_j weights[j] B_j(X, Y, T) e^{ij theta} at time t, and of its
        time derivative.  Harmonic 1's spectra from prepare move to the
        lattice's modes, rolled by the carrier's, times weights[1] and the
        scalar e^{i theta} at site (0, 0); the modes they do not reach are
        zeroed.  The correction harmonics of weights, formed from prepare's
        wide fields, are added onto theirs."""
        targets = self.spectra if velocities else self.spectra[:1]
        rows, cols = self._maps[1]
        scalar = weights[1] * self._phase(1, t)
        for src, out in zip((self._a_hat, self._g_hat), targets):
            _respec(src, out, rows[0], cols[0], scalar)
            for pad in rows[1]:
                out[pad] = 0.0
            for pad in cols[1]:
                out[:, pad] = 0.0
        for j in CORRECTIONS:
            if j in weights:
                self._add_correction(j, weights[j], t, wide, targets)

    def _add_correction(self, j: int, weight: complex, t: float, wide, targets) -> None:
        """Adds weight times the lattice DFT of B_j(X, Y, T) e^{ij theta}, and
        of its time derivative, onto the targets.

        B_j and dB_j/dT are formed on the envelope grid zero-padded to 2M
        points, where a cubic product of Q's M modes does not alias onto them
        (Orszag's rule, at twice the size for cubic products); its modes
        beyond them, up to the 2M-point band, are kept too, and only its tail
        past that band folds onto them.  Their DFTs take the moving frame's
        shift, the weight and the scalar phase on that grid, and are added
        onto the lattice's modes, rolled by the carrier's j p and j q."""
        a, a_t = wide
        b, b_t = _correction_products(j, a, a_t if len(targets) == 2 else None)
        fx, fy = self._frame(self._k2, t, self._scale / 4)
        fx *= weight * self._phase(j, t)
        (rows, _), (cols, _) = self._maps[j]
        for z in (b, b_t)[:len(targets)]:
            _fft2(z)
            z *= fx[:, None]
            z *= fy[None, :]
        _respec_add(b, targets[0], rows, cols)
        if b_t is not None:
            # eps^2 dB_j/dT + i (eps c . K + j omega0) B_j, the second term in b
            b_t *= self.eps**2
            b_t += _i_times(self._velocity_symbol(self._k2, j), b, out=b)
            _respec_add(b_t, targets[1], rows, cols)


def sample_ansatz(work: AnsatzWorkspace, env: EnvelopeField, t: float,
                  corrections: bool = False) -> LatticeState:
    """The ansatz of envelope env on the workspace's N x N lattice as a
    state of its form at time t: positions are the psi fields, velocities
    their exact time derivatives, the real parts of the complex
    positive-branch sums sum_j eps^p w_j B_j e^{i j theta}.  The state is
    live (see the module docstring)."""
    wide = work.prepare(env, t, corrections)
    p, v = work.spectra
    arrays = work.arrays
    half = len(arrays) // 2
    for weights, fields in work.groups(corrections):
        work.assemble(weights, t, wide)
        _ifft2(p)
        _ifft2(v)
        # the positions, with their velocities' arrays as scratch, then the
        # velocities, with p's memory
        for i, factor in fields:
            _real_part(p, factor, arrays[i], arrays[half + i])
        for i, factor in fields:
            _real_part(v, factor, arrays[half + i], _real_view(p))
    return LatticeState.from_arrays(work.form, t, arrays)


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
    by O(eps^2) in sup norm.  The lift runs pair by pair through the
    workspace's two complex arrays and writes q and w over the sample's u
    and v.  The state is live, as sample_ansatz's is (see the module
    docstring).  Returns (state, diagnostics).
    """
    s = sample_ansatz(work, env, 0.0, corrections)
    if work.form == "displacement":
        return s, {"degenerate_modes": 0, "max_projection_displacement": 0.0}
    e, keep = _difference_symbol(work.n_side)
    sampled = s.arrays()
    u_hat, v_hat = work.spectra
    # the lifted field and its differences against the pair, in v_hat's
    # memory, which the lift leaves free
    field, difference = v_hat.view(np.float64).reshape(2, *v_hat.shape)
    moved = 0.0
    # (U, V) lifts to q, written over u; (Ut, Vt) to w, over v
    for i in range(2):
        pair = sampled[2 * i:2 * i + 2]
        for f, spectrum in zip(pair, work.spectra):
            np.copyto(spectrum, f)
            _fft2(spectrum)
        lifted = _ifft2(_lift(u_hat, v_hat, e, keep)).real
        np.copyto(field, lifted)
        for axis, r in enumerate(pair):
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
    the cell-scaled l1 norm of its DFT.  N is the cubic lattice term on the
    fields 2 Re Psi_1 = Psi_1 + Psi_-1: the march's force at h = 0, where
    the cubic law is -b^3, for displacement; for strain the forward
    differences of that law's divergence on (u, v).  The
    negative branch is the complex conjugate, contributing a factor 2.  (A
    naive second-order defect d2(psi)/dt2 - RHS(psi) cannot see the branch
    structure: the first-harmonic correction rides the carrier's own
    space-time phase there, so only the branch-resolved residual exhibits the
    extra cancellation order.)  The DFTs of Psi_1 and d(Psi_1)/dt are the
    spectra the workspace assembles, so each position array takes one
    forward FFT, of its cubic term.  The workspace's state arrays serve as
    scratch.
    """
    form = work.form
    wide = work.prepare(env, t, with_corrections)
    p, v = work.spectra
    names = _positions(form)
    real = work.arrays  # the state arrays, free until the next sample
    # the fields 2 Re Psi_1, with the arrays after them as scratch, then the
    # cubic term N of each
    for weights, fields in work.groups(with_corrections):
        work.assemble(weights, t, wide, velocities=False)
        _ifft2(p)
        for i, factor in fields:
            _real_part(p, 2 * factor, real[i], real[len(names) + i])
    # N, with the bond strains and the law's scratch in the spectra's memory,
    # free until the next assemble; free is the real array N leaves
    bonds, temp, col = work.real_scratch(), _real_view(p), np.empty(work.n_side)
    if form == "displacement":
        div, free = real[1], real[0]
        div.fill(0.0)
        laws = [[(bonds, temp, k)] for k in CUBIC_PART]
        _add_force(_views(div), _views(real[0]), _views(bonds), laws, col)
        cubic = [div]
    else:
        div = free = real[2]
        div.fill(0.0)
        for axis, (b, k) in enumerate(zip(real[:2], CUBIC_PART)):
            ForceLaw._bond_law([(b, temp, k)])
            _add_divergence(_views(div), _views(b), axis, col)
        cubic = [_forward_diff(div, 0, out=real[0]), _forward_diff(div, 1, out=real[1])]
    w = _frequency(work._wk2, out=free)
    norm = 0.0
    for weights, n_cubic in zip(work.coefficients(with_corrections).values(), cubic):
        work.assemble(weights, t, wide)
        # -d(Psi_1)/dt + i omega Psi_1, in v
        np.subtract(_i_times(w, p, out=p), v, out=v)
        # the cubic term's DFT, in p
        np.copyto(p, n_cubic)
        _fft2(p)
        # N/(8 i omega) = (-i/(8 omega)) N, with 1/(8 omega) in n_cubic's array
        v += _i_times(_inverse_8w(w, out=n_cubic), p, out=p, turn=-1j)
        norm += l1_dft_norm(v, out=n_cubic)
    return 2 * norm
