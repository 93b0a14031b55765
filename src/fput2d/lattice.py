"""Time integration of the cubic FPUT lattice on a periodic N x N grid.

Two equivalent formulations are supported.  In displacement form the state is
(q, w = dq/dt) and the acceleration at a site is the four-bond force balance

    a_{m,n} = W'(q_{m+1,n}-q_{m,n}) - W'(q_{m,n}-q_{m-1,n})
            + W'(q_{m,n+1}-q_{m,n}) - W'(q_{m,n}-q_{m,n-1}).

In strain form the state is (u, v, du/dt, dv/dt) with u_{m,n} = q_{m+1,n}-q_{m,n},
v_{m,n} = q_{m,n+1}-q_{m,n}; the two second-order stencils follow by
differencing the displacement balance, and the discrete curl-free constraint

    u_{m,n+1} - u_{m,n} = v_{m+1,n} - v_{m,n}

is invariant under the flow.  Array axis 0 is the m (x) index, axis 1 the n
(y) index.  Inverting the strain map back to periodic displacements would
additionally require mean-zero row/column sums of u and v; the module tracks
the constraint as a diagnostic and never inverts.

Both forms share one stencil, the backward divergence of the bond forces

    div = fx - S-x fx + fy - S-y fy,   (S-x f)_{m,n} = f_{m-1,n},

with fx = W'(x-bond strain), fy = W'(y-bond strain).  The displacement
acceleration is div itself; the strain accelerations are its forward
differences d2u = S+x div - div and d2v = S+y div - div.

The integrator is velocity Verlet (symplectic, second order, time reversible),
stepped in place.  It is first-same-as-last (FSAL): the force at the end of a
step is the force at the start of the next, so each step evaluates the force
once.  The overflow guard checks every array after every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DT_MAX = 0.5  # stability margin below the linear CFL limit 2 / (2*sqrt(2))
OVERFLOW_GUARD = 1e6


class FormMismatch(ValueError):
    """Operation applied to a lattice state of the wrong formulation."""


class UnstableStep(RuntimeError):
    """An array value left [-OVERFLOW_GUARD, OVERFLOW_GUARD] (or became NaN)
    during a step; the message names the array, the site, the value and the
    time."""


@dataclass
class ForceLaw:
    """Bond force W'.

    kind "cubic_baseline" is W'(u) = u - u^3; "linear" drops the cubic term
    (diagnostic runs); "perturbed" applies per-bond perturbed forces

        W'(u) = u + alpha*eps^3*u + beta*eps^2*u^2 - u^3 + gamma*eps*u^3

    with N x N coefficient arrays per bond direction, all bounded by
    coeff_bound in absolute value, evaluated as u + u*(c1 + u*(c2 + c3*u)) with
    c1 = alpha*eps^3, c2 = beta*eps^2, c3 = gamma*eps - 1 built once; the unit
    term outside c1 keeps zero coefficients bit-identical to the cubic baseline.
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
        if self.kind not in ("cubic_baseline", "perturbed", "linear"):
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

    def w_prime(self, u: np.ndarray, direction: str,
                out: np.ndarray | None = None) -> np.ndarray:
        """Evaluate the bond force on an array of bond strains, in place into out (not u)."""
        if out is None:
            out = np.empty_like(u)
        if self.kind == "linear":
            return np.positive(u, out=out)  # a copy
        if self.kind == "cubic_baseline":
            np.multiply(u, u, out=out)
            out *= u
            return np.subtract(u, out, out=out)
        c1, c2, c3 = self._poly[direction]
        np.multiply(c3, u, out=out)
        out += c2
        out *= u
        out += c1
        out *= u
        out += u
        return out

    def w_potential(self, u: np.ndarray, direction: str) -> np.ndarray:
        """Antiderivative of the bond force, W(0) = 0."""
        u2 = u * u
        if self.kind == "cubic_baseline":
            return 0.5 * u2 - 0.25 * u2 * u2
        if self.kind == "linear":
            return 0.5 * u2
        c1, c2, c3 = self._poly[direction]
        return u2 * (0.5 + 0.5 * c1 + u * (c2 / 3.0 + 0.25 * c3 * u))


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
        """Largest |value| over the state arrays; NaN if any entry is NaN."""
        return float(np.max([np.max(np.abs(a)) for a in self.arrays()]))


def _forward_diff(f: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Periodic forward difference S+ f - f along axis (into out if given; out is not f)."""
    if out is None:
        out = np.empty_like(f)
    g, o = (f, out) if axis == 0 else (f.T, out.T)
    np.subtract(g[1:], g[:-1], out=o[:-1])
    np.subtract(g[0], g[-1], out=o[-1])  # the wrap row
    return out


def strain_from_displacement(state: LatticeState) -> LatticeState:
    """Forward-difference a displacement state into the equivalent strain state."""
    if state.form != "displacement":
        raise FormMismatch("expected displacement form")
    return LatticeState.from_arrays("strain", state.time, [  # u, v, ut, vt
        _forward_diff(f, axis) for f in (state.q, state.w) for axis in (0, 1)])


def _buffers(state: LatticeState) -> tuple[np.ndarray, ...]:
    """Work arrays (fx, fy, div) of one force evaluation."""
    n = state.n_side
    return tuple(np.empty((n, n)) for _ in range(3))


def _divergence(fx: np.ndarray, fy: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Backward divergence fx - S-x fx + fy - S-y fy, the net bond force per site,
    into out (neither fx nor fy)."""
    np.subtract(fx[1:], fx[:-1], out=out[1:])
    np.subtract(fx[0], fx[-1], out=out[0])  # the wrap row
    out += fy
    out[:, 1:] -= fy[:, :-1]
    out[:, 0] -= fy[:, -1]  # the wrap column
    return out


def rhs_displacement(state: LatticeState, force: ForceLaw, out=None) -> np.ndarray:
    """Acceleration field of the displacement formulation.

    out, if given, holds the work arrays (fx, fy, div); the bond differences
    pass through div, and the acceleration is written into div and returned.
    """
    if state.form != "displacement":
        raise FormMismatch("rhs_displacement needs displacement form")
    fx, fy, div = out if out is not None else _buffers(state)
    force.w_prime(_forward_diff(state.q, 0, out=div), "x", out=fx)
    force.w_prime(_forward_diff(state.q, 1, out=div), "y", out=fy)
    return _divergence(fx, fy, div)


def rhs_strain(state: LatticeState, force: ForceLaw,
               out=None) -> tuple[np.ndarray, np.ndarray]:
    """Acceleration fields (d2u/dt2, d2v/dt2) of the strain formulation.

    They are the forward differences of the displacement acceleration div.
    out, if given, holds the work arrays (fx, fy, div); the accelerations
    are written over the spent bond forces fx and fy and returned.
    """
    if state.form != "strain":
        raise FormMismatch("rhs_strain needs strain form")
    fx, fy, div = out if out is not None else _buffers(state)
    _divergence(force.w_prime(state.u, "x", out=fx),
                force.w_prime(state.v, "y", out=fy), div)
    return _forward_diff(div, 0, out=fx), _forward_diff(div, 1, out=fy)


def _accel(state: LatticeState, force: ForceLaw, buffers) -> tuple[np.ndarray, ...]:
    # rhs_* are looked up as module globals on every call, so a wrapper put
    # on them (a counter, a tracer) sees every force evaluation
    if state.form == "displacement":
        return (rhs_displacement(state, force, out=buffers),)
    return rhs_strain(state, force, out=buffers)


def _check_amplitude(state: LatticeState) -> None:
    """Raise UnstableStep at the first entry outside the guard; NaN trips it."""
    g = OVERFLOW_GUARD
    for name in _ARRAY_NAMES[state.form]:
        a = getattr(state, name)
        if a.max() <= g and a.min() >= -g:  # False for NaN
            continue
        m, n = np.unravel_index(np.argmax(~(np.abs(a) <= g)), a.shape)
        raise UnstableStep(f"{name} = {float(a[m, n])!r} at site (m, n) = ({m}, {n}), "
                           f"t = {state.time}: outside the overflow guard |x| <= {g:g}")


def _step(state: LatticeState, force: ForceLaw, dt: float, accel, buffers):
    """Advance state in place by one velocity-Verlet step of size dt.

    accel is the acceleration at the current positions; the acceleration at
    the new positions is returned to start the next step (FSAL), so a step
    costs one force evaluation.  It lives in buffers and is overwritten by
    the next evaluation.  Kick and drift increments go to the work array the
    acceleration leaves free: fx in displacement form, div in strain form.
    """
    if abs(dt) > DT_MAX:
        raise ValueError(f"|dt| = {abs(dt)} exceeds dt_max = {DT_MAX}")
    arrays = state.arrays()
    half = len(arrays) // 2
    pos, vel = arrays[:half], arrays[half:]
    work = buffers[0] if state.form == "displacement" else buffers[2]
    for p, d, a in zip(pos, vel, accel):
        d += np.multiply(a, 0.5 * dt, out=work)
        p += np.multiply(d, dt, out=work)
    accel = _accel(state, force, buffers)
    for d, a in zip(vel, accel):
        d += np.multiply(a, 0.5 * dt, out=work)
    state.time += dt
    _check_amplitude(state)
    return accel


def verlet_step(state: LatticeState, force: ForceLaw, dt: float) -> LatticeState:
    """One velocity-Verlet step; returns a new state advanced by dt.

    The input state is left untouched.  Negative dt steps backwards (the
    scheme is time reversible).
    """
    out = state.copy()
    buffers = _buffers(out)
    _step(out, force, dt, _accel(out, force, buffers), buffers)
    return out


def integrate(state: LatticeState, force: ForceLaw, dt_max_step: float,
              sample_times, observer):
    """March a copy of the state to each requested time, stepping in place.

    sample_times must be ascending and start at or after state.time; observer
    is called as observer(state) at every sample time (including t0 when it is
    the first entry).  The observer receives the live state, which is valid
    only during the call: the next step overwrites it, so an observer copies
    any state it keeps.  Over S steps the force is evaluated S + 1 times.
    """
    current = state.copy()
    buffers = _buffers(current)
    accel = _accel(current, force, buffers)
    for t_target in sample_times:
        if t_target < current.time - 1e-12:
            raise ValueError("sample times must be ascending")
        span = t_target - current.time
        if span > 1e-12:
            n_steps = max(1, int(np.ceil(span / dt_max_step - 1e-12)))
            dt = span / n_steps
            for _ in range(n_steps):
                accel = _step(current, force, dt, accel, buffers)
            current.time = t_target
        observer(current)
    return current


def energy(state: LatticeState, force: ForceLaw) -> float:
    """Total energy sum(w^2)/2 + sum of bond potentials (displacement form)."""
    if state.form != "displacement":
        raise FormMismatch("energy is defined for the displacement form")
    return float(
        0.5 * np.sum(state.w**2)
        + np.sum(force.w_potential(_forward_diff(state.q, 0), "x"))
        + np.sum(force.w_potential(_forward_diff(state.q, 1), "y"))
    )


def compatibility_defect(state: LatticeState) -> float:
    """Max defect of the curl-free constraint, fields plus velocities."""
    if state.form != "strain":
        raise FormMismatch("compatibility defect is defined for the strain form")
    d_field = np.max(np.abs(_forward_diff(state.u, 1) - _forward_diff(state.v, 0)))
    d_vel = np.max(np.abs(_forward_diff(state.ut, 1) - _forward_diff(state.vt, 0)))
    return float(d_field + d_vel)
