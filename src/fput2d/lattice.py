"""Time integration of the cubic FPUT lattice on a periodic N x N grid.

Every run steps one ODE, the displacement form: the state is (q, w = dq/dt)
and the acceleration at a site is the four-bond force balance

    a_{m,n} = W'(q_{m+1,n}-q_{m,n}) - W'(q_{m,n}-q_{m-1,n})
            + W'(q_{m,n+1}-q_{m,n}) - W'(q_{m,n}-q_{m,n-1}),

the backward divergence div = fx - S-x fx + fy - S-y fy of the bond forces
fx = W'(x-bond strain), fy = W'(y-bond strain), (S-x f)_{m,n} = f_{m-1,n}.
Array axis 0 is the m (x) index, axis 1 the n (y) index.  The strain form
(u, v, du/dt, dv/dt), u_{m,n} = q_{m+1,n}-q_{m,n}, v_{m,n} = q_{m,n+1}-q_{m,n},
is the forward difference of a displacement state (strain_from_displacement):
its accelerations are the forward differences of div, and it satisfies the
discrete curl-free constraint u_{m,n+1} - u_{m,n} = v_{m+1,n} - v_{m,n},
which compatibility_defect measures.

The stencils write each difference straight into a preallocated buffer and
are bit-identical to the np.roll formulas.  A shift along axis 0 is a row
slice.  A shift along axis 1 is one unit-stride pass over the flattened
arrays, each element against its neighbour in memory; that pass crosses each
row end, and the periodic wrap column is written over those entries.  The
pass needs C-contiguous arrays: an input that is not is read through
np.ascontiguousarray, and an out that is not raises ValueError, since
ravel() of one is a copy that the pass would fill and drop.

The integrator is velocity Verlet (symplectic, second order, time reversible)
stepped in place in its leapfrog form: between two observations the closing
half-kick of one step and the opening half-kick of the next are one full
kick, and the force at the end of a march starts the next (FSAL), so a step
costs one force evaluation.  A march between two observations steps the
scaled variables r = h q and p = h^2 w, into which the state's own arrays
are converted in place and back, so that a step is

    p += div F(beta),  F(beta) = h^3 W'(beta / h) = beta (h^2 - beta^2),
    r += p,

with beta the forward differences of r: 13 passes over N x N arrays, on two
work arrays (the bond strains and forces, and the bond law's scratch).  The
work arrays and the stepped copy of the state start on cache lines, and the
bond law runs in blocks of rows that stay in cache.  The overflow guard
checks both arrays every CHECK_EVERY steps and before every observation, in
the state's own units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DT_MAX = 0.5  # stability margin below the linear CFL limit 2 / (2*sqrt(2))
OVERFLOW_GUARD = 1e6
CHECK_EVERY = 10  # steps between overflow-guard checks inside a march
LAW_BLOCK_BYTES = 2**18  # bond strains the bond law takes at a time, in whole rows


class FormMismatch(ValueError):
    """Operation applied to a lattice state of the wrong formulation."""


class UnstableStep(RuntimeError):
    """An array value left [-OVERFLOW_GUARD, OVERFLOW_GUARD] (or became NaN)
    during a step; the message names the array, the site, the value and the
    time."""


@dataclass
class ForceLaw:
    """Bond force W'.

    kind "cubic_baseline" is W'(u) = u - u^3; "perturbed" applies per-bond
    perturbed forces

        W'(u) = u + alpha*eps^3*u + beta*eps^2*u^2 - u^3 + gamma*eps*u^3

    with N x N coefficient arrays per bond direction, all bounded by
    coeff_bound in absolute value, as W'(u) = u (1 + c1 + u (c2 + c3 u)) with
    c1 = alpha*eps^3, c2 = beta*eps^2, c3 = gamma*eps - 1 built once; a march
    evaluates it on scaled strains (scaled_coefficients).
    """

    kind: str = "cubic_baseline"
    eps: float = 0.0
    alpha_x: np.ndarray | None = None
    beta_x: np.ndarray | None = None
    gamma_x: np.ndarray | None = None
    alpha_y: np.ndarray | None = None
    beta_y: np.ndarray | None = None
    gamma_y: np.ndarray | None = None
    coeff_bound: float = 1.0

    def __post_init__(self):
        if self.kind not in ("cubic_baseline", "perturbed"):
            raise ValueError(f"unknown force kind {self.kind!r}")
        if self.kind == "perturbed":
            if not 0.0 < self.eps < 1.0:
                raise ValueError("perturbed force needs eps in (0, 1)")
            arrays = [self.alpha_x, self.beta_x, self.gamma_x,
                      self.alpha_y, self.beta_y, self.gamma_y]
            if any(a is None for a in arrays):
                raise ValueError("perturbed force needs all six coefficient arrays")
            shape = arrays[0].shape
            for a in arrays:
                if a.shape != shape:
                    raise ValueError("coefficient arrays must share one shape")
                if np.max(np.abs(a)) > self.coeff_bound + 1e-15:
                    raise ValueError(f"coefficient magnitude exceeds bound {self.coeff_bound}")
            e = self.eps
            self._poly = {
                "x": (self.alpha_x * e**3, self.beta_x * e**2, self.gamma_x * e - 1.0),
                "y": (self.alpha_y * e**3, self.beta_y * e**2, self.gamma_y * e - 1.0),
            }

    def scaled_coefficients(self, h: float, out) -> tuple[tuple, tuple]:
        """Per direction (x, y), the coefficients (k1, k2, k3) of the law
        h^3 W'(beta / h) = beta (k1 + beta (k2 + k3 beta)) on the scaled bond
        strains beta = h u: (h^2 (1 + c1), h c2, c3), with k1 and k2 written
        into out[direction]; (h^2, None, None) for the cubic law, whose
        k2 = 0 and k3 = -1 the two-pass form beta (h^2 - beta^2) takes.  At
        zero coefficients both forms round alike, bit for bit.
        """
        h2 = h * h
        if self.kind == "cubic_baseline":
            return (h2, None, None), (h2, None, None)
        coeffs = []
        for d in "xy":
            c1, c2, c3 = self._poly[d]
            k1, k2 = out[d]
            np.add(c1, 1.0, out=k1)
            k1 *= h2
            np.multiply(c2, h, out=k2)
            coeffs.append((k1, k2, c3))
        return tuple(coeffs)

    def w_potential(self, u: np.ndarray, direction: str, buffers) -> np.ndarray:
        """Antiderivative of the bond force, W(0) = 0, on an array of bond
        strains: 0.5 u^2 - 0.25 u^4, or u^2 (0.5 + 0.5 c1 + u (c2/3 + 0.25 c3 u)).

        buffers is (out, scratch), neither of them u; the value is written
        into out and returned.
        """
        out, scratch = buffers
        if self.kind == "cubic_baseline":
            u2 = np.multiply(u, u, out=scratch)
            np.multiply(0.25, u2, out=out)
            out *= u2
            u2 *= 0.5
            return np.subtract(u2, out, out=out)
        c1, c2, c3 = self._poly[direction]
        np.multiply(0.25, c3, out=scratch)
        scratch *= u
        np.divide(c2, 3.0, out=out)
        out += scratch
        np.multiply(u, out, out=scratch)
        np.multiply(0.5, c1, out=out)
        out += 0.5
        out += scratch
        out *= np.multiply(u, u, out=scratch)
        return out


def perturbed_force(n_side: int, eps: float, coeff_bound: float, seed: int) -> ForceLaw:
    """Seeded per-bond perturbation coefficients, uniform in [-bound, bound]."""
    rng = np.random.default_rng(seed)
    draw = lambda: rng.uniform(-coeff_bound, coeff_bound, size=(n_side, n_side))
    return ForceLaw(
        kind="perturbed",
        eps=eps,
        alpha_x=draw(), beta_x=draw(), gamma_x=draw(),
        alpha_y=draw(), beta_y=draw(), gamma_y=draw(),
        coeff_bound=coeff_bound,
    )


_ARRAY_NAMES = {"displacement": ("q", "w"), "strain": ("u", "v", "ut", "vt")}


def _names(form: str) -> tuple[str, ...]:
    """The state arrays of a form, positions first, then their velocities."""
    if form not in _ARRAY_NAMES:
        raise ValueError(f"unknown form {form!r}")
    return _ARRAY_NAMES[form]


@dataclass
class LatticeState:
    """Periodic N x N lattice state in displacement or strain form."""

    form: str
    time: float = 0.0
    q: np.ndarray | None = None
    w: np.ndarray | None = None
    u: np.ndarray | None = None
    v: np.ndarray | None = None
    ut: np.ndarray | None = None
    vt: np.ndarray | None = None

    def __post_init__(self):
        arrays = self.arrays()
        if any(a is None for a in arrays):
            raise ValueError(f"{self.form} form is missing arrays")
        shape = arrays[0].shape
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 8:
            raise ValueError("state arrays must be square N x N with N >= 8")
        for a in arrays:
            if a.shape != shape:
                raise ValueError("state arrays must share one shape")

    @classmethod
    def from_arrays(cls, form: str, time: float, arrays) -> "LatticeState":
        """The state whose arrays(), in order, are arrays; a wrong count raises."""
        return cls(form, time, **dict(zip(_names(form), arrays, strict=True)))

    @property
    def n_side(self) -> int:
        return self.arrays()[0].shape[0]

    def arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in _names(self.form))

    def copy(self) -> "LatticeState":
        return LatticeState.from_arrays(self.form, self.time, [a.copy() for a in self.arrays()])

    def max_amplitude(self) -> float:
        """Largest |value| over the state arrays; NaN if any entry is NaN.

        max |x| is max(max x, -min x), so no |x| array is made; both
        reductions and np.maximum pass NaN on, and abs() turns the -0.0 of an
        all-zero state into 0.0.
        """
        return abs(float(np.max([np.maximum(a.max(), -a.min()) for a in self.arrays()])))


def _c_contiguous_out(out: np.ndarray) -> np.ndarray:
    """out, checked: a flat pass writes through out.ravel(), which is a
    copy, not a view, unless out is C-contiguous."""
    if not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous array")
    return out


def _forward_diff(f: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """Periodic forward difference S+ f - f along axis, into out (not f).

    Along axis 1 the difference is one pass over the flattened arrays, each
    element minus its predecessor in memory; the pass crosses each row end,
    and the wrap column f[:, 0] - f[:, -1] then overwrites those entries.
    """
    f = np.ascontiguousarray(f)
    out = _c_contiguous_out(out)
    if axis == 0:
        np.subtract(f[1:], f[:-1], out=out[:-1])
        np.subtract(f[0], f[-1], out=out[-1])  # the wrap row
    else:
        flat, o = f.ravel(), out.ravel()
        np.subtract(flat[1:], flat[:-1], out=o[:-1])
        np.subtract(f[:, 0], f[:, -1], out=out[:, -1])  # the wrap column
    return out


def strain_from_displacement(state: LatticeState,
                             out: LatticeState | None = None) -> LatticeState:
    """Forward-difference a displacement state into the equivalent strain
    state: into out's arrays and time if given (a strain state), else new ones."""
    if state.form != "displacement":
        raise FormMismatch("expected displacement form")
    if out is None:
        n = state.n_side
        out = LatticeState.from_arrays("strain", state.time, [np.empty((n, n)) for _ in range(4)])
    differences = [(f, axis) for f in (state.q, state.w) for axis in (0, 1)]  # u, v, ut, vt
    for (f, axis), o in zip(differences, out.arrays()):
        _forward_diff(f, axis, out=o)
    out.time = state.time
    return out


def _divergence(fx: np.ndarray, fy: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Backward divergence fx - S-x fx + fy - S-y fy, the net bond force per site,
    into out (neither fx nor fy).

    The S-y fy term is one flat pass that subtracts from each element its
    predecessor in memory; column 0, where that pass crosses a row end, is
    computed first with the wrap column fy[:, -1] and written back after.
    """
    fx, fy = np.ascontiguousarray(fx), np.ascontiguousarray(fy)
    out = _c_contiguous_out(out)
    np.subtract(fx[1:], fx[:-1], out=out[1:])
    np.subtract(fx[0], fx[-1], out=out[0])  # the wrap row
    out += fy
    wrap = out[:, 0] - fy[:, -1]  # the wrap column
    out.ravel()[1:] -= fy.ravel()[:-1]
    out[:, 0] = wrap
    return out


def _check_amplitude(state: LatticeState, scales=None) -> None:
    """Raise UnstableStep at the first entry outside the guard; NaN trips it.

    scales, when given, holds the factor each array is held in (a march's
    r = h q and p = h^2 w): the bound is scaled with it, and the message
    gives the value in the state's own units.
    """
    g = OVERFLOW_GUARD
    names = _ARRAY_NAMES[state.form]
    for name, scale in zip(names, scales or (1.0,) * len(names)):
        a = getattr(state, name)
        bound = g * scale
        if a.max() <= bound and a.min() >= -bound:  # False for NaN
            continue
        m, n = np.unravel_index(np.argmax(~(np.abs(a) <= bound)), a.shape)
        raise UnstableStep(f"{name} = {float(a[m, n]) / scale!r} at site (m, n) = ({m}, {n}), "
                           f"t = {state.time}: outside the overflow guard |x| <= {g:g}")


def _aligned_empty(shape: tuple[int, int], dtype=np.float64) -> np.ndarray:
    """A new array of dtype whose data starts on a 64-byte boundary, a cache
    line: a pass that writes into a misaligned array splits its vector
    stores across lines and can take twice as long."""
    nbytes = shape[0] * shape[1] * np.dtype(dtype).itemsize
    buf = np.empty(nbytes + 63, dtype=np.uint8)
    start = -buf.ctypes.data % 64
    return buf[start:start + nbytes].view(dtype).reshape(shape)


def _aligned_copy(f: np.ndarray) -> np.ndarray:
    out = _aligned_empty(f.shape, f.dtype)
    np.copyto(out, f)
    return out


def _views(f: np.ndarray) -> tuple:
    """The views the march's stencils take of one C-contiguous N x N array:
    f, rows 1: and :-1, rows 0 and -1, columns 0 and -1, and the flattened
    array from 1 and up to -1."""
    flat = _c_contiguous_out(f).ravel()
    return f, f[1:], f[:-1], f[0], f[-1], f[:, 0], f[:, -1], flat[1:], flat[:-1]


class _Work:
    """The work arrays of one integrate call.

    a takes the bond strains and then the bond forces of a force evaluation;
    b is the bond law's scratch inside a step and holds the force (FSAL)
    from the end of one march to the start of the next, scaled for step h.
    The bond law runs in blocks of at most LAW_BLOCK_BYTES of rows, so that
    its three passes over a block stay in cache; while b takes a force, its
    scratch is rows, at most half of an N x N array.  col takes the wrap
    column of the y-bond pass, and k the perturbed law's coefficients
    scaled for the march's step.
    """

    def __init__(self, n: int, force: ForceLaw):
        self.a, self.b = _aligned_empty((n, n)), _aligned_empty((n, n))
        self.block = max(1, LAW_BLOCK_BYTES // (8 * n))
        self.rows = _aligned_empty((min(self.block, -(-n // 2)), n))
        self.col = np.empty(n)
        self.k = None if force.kind == "cubic_baseline" else {
            d: (np.empty((n, n)), np.empty((n, n))) for d in "xy"}
        self.h = 1.0

    def laws(self, force: ForceLaw, h: float) -> tuple[list, list]:
        """The bond law of each direction at step h, as blocks (beta, temp,
        coefficients): with b as temp, then with rows."""
        coeffs = force.scaled_coefficients(h, self.k)
        return (_blocks(self.a, self.b, coeffs, self.block),
                _blocks(self.a, self.rows, coeffs, self.rows.shape[0]))


def _blocks(beta: np.ndarray, temp: np.ndarray, coeffs, rows: int) -> list:
    """Per direction, the blocks of `rows` rows of beta, each with the first
    rows of temp and its rows of the coefficient arrays."""
    n = beta.shape[0]
    return [[(beta[i:i + rows], temp[:min(rows, n - i)],
              tuple(c[i:i + rows] if isinstance(c, np.ndarray) else c for c in k))
             for i in range(0, n, rows)] for k in coeffs]


def _bond_law(blocks) -> None:
    """beta <- beta (k1 + beta (k2 + k3 beta)) in place, block by block, or
    beta (k1 - beta^2) when k2 is None (the cubic law)."""
    for beta, temp, (k1, k2, k3) in blocks:
        if k2 is None:
            np.square(beta, out=temp)
            np.subtract(k1, temp, out=temp)
        else:
            np.multiply(k3, beta, out=temp)
            temp += k2
            temp *= beta
            temp += k1
        beta *= temp


def _add_force(t, r, a, laws, col: np.ndarray) -> None:
    """t += div F(beta), the force h^3 a(q) at positions r = h q: the bond
    strains beta = S+ r - r go through a, which the bond laws (one per
    direction) turn into the bond forces F, and F - S- F is added into t.

    t, r and a are _views tuples.  Along axis 1 each difference is one flat
    pass; the wrap column is written over the entries where the pass
    crossed a row end, and col carries the target's column 0 across it.
    """
    t_, t1, _, t0, _, tc0, _, tf1, _ = t
    _, r1, r_1, r0, rl, rc0, rcl, rf1, rf_1 = r
    a_, _, a_1, _, al, _, acl, _, af_1 = a
    law_x, law_y = laws
    np.subtract(r1, r_1, out=a_1)
    np.subtract(r0, rl, out=al)  # the wrap row
    _bond_law(law_x)
    t_ += a_
    t1 -= a_1
    t0 -= al
    np.subtract(rf1, rf_1, out=af_1)
    np.subtract(rc0, rcl, out=acl)  # the wrap column
    _bond_law(law_y)
    t_ += a_
    np.subtract(tc0, acl, out=col)
    tf1 -= af_1
    tc0[...] = col


def _force_into_b(r, work: _Work, laws) -> None:
    """work.b <- the force at positions r (a _views tuple), through rows."""
    work.b.fill(0.0)
    _add_force(_views(work.b), r, _views(work.a), laws, work.col)


def _march(state: LatticeState, force: ForceLaw, h: float, n_steps: int, work: _Work) -> None:
    """Advance a displacement state in place by n_steps >= 1 Verlet steps of
    size h, with merged kicks and a guard check every CHECK_EVERY steps.

    The march steps the scaled variables r = h q and p = h^2 w, into which
    the state's arrays are converted in place and back at the end.  A step
    is then p += div F(beta), F(beta) = h^3 W'(beta / h) = beta (h^2 - beta^2)
    for the cubic law, followed by r += p.  work.b holds the force at the
    start (scaled for step work.h and rescaled to h) and takes the force at
    the end, which the closing half-kick uses and the next march reuses
    (FSAL).  A state that overflows between two checks is reported by the
    guard, so numpy's overflow and invalid-value warnings are off inside.
    """
    if h > DT_MAX:
        raise ValueError(f"dt = {h} exceeds dt_max = {DT_MAX}")
    r, p, a, b = state.q, state.w, work.a, work.b
    h2 = h * h
    in_step, in_rows = work.laws(force, h)
    rv, pv, av = _views(r), _views(p), _views(a)
    with np.errstate(over="ignore", invalid="ignore"):
        r *= h
        p *= h2
        b *= 0.5 * (h / work.h) ** 3
        p += b  # the opening half-kick
        r += p
        state.time += h
        for i in range(2, n_steps + 1):
            # looked up as a module global on every call, so a wrapper put on
            # it (a counter, a tracer) sees every force evaluation
            _add_force(pv, rv, av, in_step, work.col)
            r += p
            state.time += h
            if i % CHECK_EVERY == 0:
                _check_amplitude(state, (h, h2))
        _force_into_b(rv, work, in_rows)
        p += np.multiply(b, 0.5, out=a)  # the closing half-kick
        r /= h
        p /= h2
    work.h = h


def integrate(state: LatticeState, force: ForceLaw, dt_max_step: float,
              sample_times, observer):
    """March a copy of a displacement state to each requested time, stepping
    in place.

    sample_times must be ascending and start at or after state.time; observer
    is called as observer(state) at every sample time (including t0 when it is
    the first entry), after the overflow guard has checked the state.  The
    observer receives the live state, which is valid only during the call:
    the next step overwrites it, so an observer copies any state it keeps.
    Over S steps the force is evaluated S + 1 times.
    """
    if state.form != "displacement":
        raise FormMismatch("integrate needs displacement form")
    current = LatticeState.from_arrays(state.form, state.time,
                                       [_aligned_copy(f) for f in state.arrays()])
    work = _Work(current.n_side, force)
    # the force at t0 for step 1, where it is the acceleration; the first
    # march rescales it to its own step
    _force_into_b(_views(current.q), work, work.laws(force, 1.0)[1])
    for t_target in sample_times:
        if t_target < current.time - 1e-12:
            raise ValueError("sample times must be ascending")
        span = t_target - current.time
        if span > 1e-12:
            n_steps = max(1, int(np.ceil(span / dt_max_step - 1e-12)))
            _march(current, force, span / n_steps, n_steps, work)
            current.time = t_target
        _check_amplitude(current)
        observer(current)
    return current


def energy(state: LatticeState, force: ForceLaw, buffers) -> float:
    """Total energy sum(w^2)/2 + sum of bond potentials (displacement form).

    buffers holds three N x N float work arrays: the bond strains, the
    summed terms and the bond potential's scratch.
    """
    if state.form != "displacement":
        raise FormMismatch("energy is defined for the displacement form")
    bonds, out, scratch = buffers
    total = 0.5 * np.sum(np.square(state.w, out=out))
    for axis, direction in ((0, "x"), (1, "y")):
        total += np.sum(force.w_potential(_forward_diff(state.q, axis, out=bonds), direction,
                                          (out, scratch)))
    return float(total)


def compatibility_defect(state: LatticeState, buffers) -> float:
    """Max defect of the curl-free constraint, fields plus velocities.

    buffers holds at least two N x N work arrays.
    """
    if state.form != "strain":
        raise FormMismatch("compatibility defect is defined for the strain form")
    a, b = buffers[:2]

    def defect(f, g):
        d = np.subtract(_forward_diff(f, 1, out=a), _forward_diff(g, 0, out=b), out=a)
        return np.max(np.abs(d, out=d))

    return float(defect(state.u, state.v) + defect(state.ut, state.vt))
