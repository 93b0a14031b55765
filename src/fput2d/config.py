"""Run configuration: the ExperimentPlan schema and its loader.

A run is described by one JSON or YAML file of flat keys plus command-line
--set key=value overrides, applied after the file.  The keys are the fields
of ExperimentPlan; each field's metadata carries its help text and, where
one applies, the rule its value must meet.  load_plan converts every value
to the type of the field's default and rejects unknown keys, unreadable
values and broken rules with ConfigError, before any work starts; two rules
span several keys: an explicit grid_side must keep the envelope grid spacing
eps*n_side/grid_side at or below 0.5 at eps and at every eps_list value (at
grid_side = 0 the smallest power of two that does is taken), and an explicit
n_side must be at least 8 and a multiple of the carrier's lattice periods.  Carrier
components are given in multiples of pi so that the standard quarter-pi
carriers are exact in config text; each must have a small lattice period
(carrier_period), which the lattice side N is then a multiple of.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .dispersion import DEFAULT_RESONANCE_MARGIN, WaveVector
from .lattice import DT_MAX
from .nls import DEFAULT_BLOWUP_GUARD, DEFAULT_DT_SLOW


MAX_CARRIER_PERIOD = 64


class ConfigError(ValueError):
    pass


def carrier_period(k_pi: float) -> int:
    """Lattice period of the carrier component k_pi * pi.

    exp(i k_pi pi m) repeats every q sites, where k_pi/2 = p/q in lowest
    terms.  Raises ValueError when no q <= MAX_CARRIER_PERIOD matches k_pi/2
    to 1e-12.
    """
    half = k_pi / 2
    if math.isfinite(half * MAX_CARRIER_PERIOD):
        for q in range(1, MAX_CARRIER_PERIOD + 1):  # the first match is in lowest terms
            if abs(half * q - round(half * q)) <= 1e-12 * q:
                return q
    raise ValueError(f"carrier component {k_pi!r} (units of pi) has no lattice period: "
                     f"k_pi/2 is not p/q with q <= {MAX_CARRIER_PERIOD} to 1e-12")


_POSITIVE = ("positive", lambda v: v > 0)
_NON_NEGATIVE = ("non-negative", lambda v: v >= 0)


def _key(default, help_text: str, rule: str = "", ok=None):
    """A config key: its default, its help and an optional (rule, predicate)."""
    return field(default=default, metadata={"help": help_text, "rule": rule, "ok": ok})


def _choice(default, help_text: str, *choices: str):
    return _key(default, help_text, "one of " + " | ".join(choices), lambda v: v in choices)


@dataclass
class ExperimentPlan:
    """Everything a run or a sweep needs; plain values only, safe to pickle and hash."""

    carrier_k_pi: float = _key(0.5, "carrier k0 in units of pi; k_pi/2 = p/q with q <= 64")
    carrier_l_pi: float = _key(0.5, "carrier l0 in units of pi; l_pi/2 = p/q with q <= 64")
    variant: str = _choice("strain", "lattice form", "strain", "displacement")
    eps: float = _key(0.2, "single-run modulation parameter", "in (0, 0.5)",
                      lambda v: 0 < v < 0.5)
    eps_list: tuple = _key((0.2, 0.14, 0.1), "strictly descending sweep values in (0, 0.5)")
    t0: float = _key(1.0, "slow-time horizon T0", *_POSITIVE)
    box_length: float = _key(40.0, "envelope box side L", *_POSITIVE)
    grid_side: int = _key(0, "envelope grid side M; 0 = rule: the smallest power of two "
                             "with eps*N/M <= 0.5 at every eps; else one that meets that",
                          "0 or a power of two",
                          lambda m: m == 0 or (m >= 2 and m & (m - 1) == 0))
    n_side: int = _key(0, "lattice side; 0 = rule ceil(L/eps) to a multiple of 4 and of "
                          "the carrier's lattice periods; else >= 8 and a multiple of "
                          "those periods",
                       *_NON_NEGATIVE)
    dt: float = _key(0.0, "lattice step; 0 = rule eps^1.5/4", f"in [0, {DT_MAX}]",
                     lambda v: 0 <= v <= DT_MAX)
    dt_slow: float = _key(DEFAULT_DT_SLOW, "envelope Strang step dT; the default moves "
                          "max_sup_error by <= 7e-6 relative against dT = 1e-3", *_POSITIVE)
    corrections: bool = _key(False, "include third-generation corrections")
    force_kind: str = _choice("cubic_baseline", "lattice force law",
                              "cubic_baseline", "perturbed")
    coeff_bound: float = _key(1.0, "sup bound for per-bond perturbation coefficients",
                              *_NON_NEGATIVE)
    seed: int = _key(2026, "RNG seed for perturbation draws", *_NON_NEGATIVE)
    amplitude: float = _key(1.0, "peak of the initial envelope: of Q in the displacement "
                            "form, of the strain envelope (e^{ik0} - 1) Q in the strain form")
    sigma: float = _key(4.0, "Gaussian envelope width", *_POSITIVE)
    envelope_kind: str = _choice("gaussian", "initial envelope", "gaussian", "constant")
    sample_count: int = _key(21, "number of slow-time sample points", *_POSITIVE)
    residual_fractions: tuple = _key(
        (0.0, 0.5, 1.0), "residual sampling as fractions of T0", "ascending in [0, 1]",
        lambda fs: len(fs) > 0 and list(fs) == sorted(fs) and all(0 <= f <= 1 for f in fs))
    delta_res: float = _key(DEFAULT_RESONANCE_MARGIN, "non-resonance margin", *_NON_NEGATIVE)
    pass_threshold: float = _key(1.8, "minimum fitted order for a passing sweep")
    residual_order_min_with: float = _key(3.6, "residual-order bar with corrections")
    residual_order_min_without: float = _key(2.7, "residual-order bar without corrections")
    error_over_eps2_bound: float = _key(50.0, "sanity cap on sup_error / eps^2")
    workers: int = _key(0, "threads running envelope solves and lattice runs; 0 = auto "
                        "(FPUT2D_THREADS caps)",
                        *_NON_NEGATIVE)
    blowup_guard: float = _key(DEFAULT_BLOWUP_GUARD, "bound on the H4 proxy of the envelope Q "
                               "in the envelope solve",
                               *_POSITIVE)
    snapshots: int = _key(3, "lattice snapshots written by simulate", *_NON_NEGATIVE)

    def __post_init__(self):
        if len(self.eps_list) < 1:
            raise ValueError("at least one eps is required")
        if any(not 0 < e < 0.5 for e in self.eps_list):
            raise ValueError("eps values must lie in (0, 0.5)")
        if any(a <= b for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ValueError("eps_list must be strictly descending")
        for k_pi in (self.carrier_k_pi, self.carrier_l_pi):
            carrier_period(k_pi)

    @property
    def carrier(self) -> WaveVector:
        return WaveVector(self.carrier_k_pi * np.pi, self.carrier_l_pi * np.pi)

    def n_side_for(self, eps: float) -> int:
        # a multiple of both carrier periods closes the carrier plane wave on
        # the torus (k0 = pi/4 needs 8: N = 252 would leave k0 N = 63 pi, a
        # sign seam); the 4 keeps the N of the pi/2 carriers' earlier rule
        if self.n_side:
            return self.n_side
        step = math.lcm(4, carrier_period(self.carrier_k_pi), carrier_period(self.carrier_l_pi))
        return int(np.ceil(self.box_length / eps / step) * step)

    def resolved_grid_side(self) -> int:
        """The envelope grid side M: grid_side, or at 0 the smallest power of
        two with eps*N/M <= 0.5 at eps and at every eps_list value (128 at
        the default box 40).  The rule reads no envelope, so a solve on its
        grid is held to a tighter spectral tail (harness.RULE_TAIL)."""
        if self.grid_side:
            return self.grid_side
        m = 2
        while any(eps * self.n_side_for(eps) / m > 0.5 for eps in (self.eps, *self.eps_list)):
            m *= 2
        return m

    def dt_for(self, eps: float) -> float:
        # integrator phase error over T0/eps^2 steps then scales as eps^3,
        # one order below the eps^2 measurement target
        return self.dt or eps**1.5 / 4

    def hash(self) -> str:
        import hashlib  # only a sweep's report asks for it

        payload = json.dumps(asdict(self), sort_keys=True, default=float)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _type_name(default) -> str:
    return "float list" if isinstance(default, tuple) else type(default).__name__


def keys_help() -> str:
    """One line per config key: name, type, default, help and rule."""
    lines = ["config keys (file or --set key=value):"]
    for f in fields(ExperimentPlan):
        rule = f"  ({f.metadata['rule']})" if f.metadata["rule"] else ""
        lines.append(f"  {f.name:28s} {_type_name(f.default):10s} "
                     f"default={f.default!r}  {f.metadata['help']}{rule}")
    return "\n".join(lines)


def _number(value, kind):
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError
    if kind is int and isinstance(value, float) and value != int(value):
        raise TypeError
    number = kind(value)
    if kind is float and not math.isfinite(number):
        raise ValueError  # NaN passes every rule's comparison; infinity overflows later work
    return number


def _convert(key: str, value, default):
    """value read as the type of the key's default; floats must be finite."""
    kind = type(default)
    try:
        if kind is tuple:
            if isinstance(value, str):
                value = [v for v in value.split(",") if v.strip()]
            if not isinstance(value, (list, tuple)):
                raise TypeError
            return tuple(_number(v, float) for v in value)
        if kind is bool:
            if isinstance(value, str):
                value = {"true": True, "1": True, "yes": True,
                         "false": False, "0": False, "no": False}.get(value.lower(), value)
            if not isinstance(value, bool):
                raise TypeError
            return value
        if kind is str:
            if not isinstance(value, str):
                raise TypeError
            return value
        return _number(value, kind)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(
            f"config key {key!r}: cannot read {value!r} as "
            f"{'finite ' if kind in (float, tuple) else ''}{_type_name(default)}"
        ) from None


def _read_file(path: str) -> dict:
    p = Path(path)
    try:
        text = p.read_text()
        if p.suffix in (".yaml", ".yml"):
            import yaml  # only a YAML config file needs it

            try:
                data = yaml.safe_load(text) or {}
            except yaml.YAMLError as e:
                raise ValueError(e) from None
        else:
            data = json.loads(text)
    except (OSError, ValueError) as e:
        raise ConfigError(f"{path}: {e}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return data


def load_plan(path: str | None = None, overrides=()) -> ExperimentPlan:
    """Read the config file (if any), apply --set overrides and check every key."""
    raw = _read_file(path) if path is not None else {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()
    schema = {f.name: f for f in fields(ExperimentPlan)}
    values = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _convert(key, value, schema[key].default)
    try:
        plan = ExperimentPlan(**values)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    for f in schema.values():
        value = getattr(plan, f.name)
        if f.metadata["ok"] is not None and not f.metadata["ok"](value):
            raise ConfigError(f"config key {f.name!r}: {value!r} is not {f.metadata['rule']}")
    period = math.lcm(carrier_period(plan.carrier_k_pi), carrier_period(plan.carrier_l_pi))
    if plan.n_side and (plan.n_side < 8 or plan.n_side % period):
        # the carrier plane wave must close on the torus (k0 N in 2 pi Z)
        raise ConfigError(
            f"config key 'n_side': {plan.n_side} is not 0, nor at least 8 and a multiple "
            f"of {period}, the carrier's lattice period"
        )
    for eps in (plan.eps, *plan.eps_list):
        # the envelope box is eps * n_side, sampled on grid_side points (the
        # rule's side, at grid_side = 0, meets the bound by construction)
        spacing = eps * plan.n_side_for(eps) / plan.resolved_grid_side()
        if spacing > 0.5:
            raise ConfigError(
                f"config key 'grid_side': {plan.grid_side} is too coarse at eps = {eps}: "
                f"envelope grid spacing eps*n_side/grid_side = {spacing:.4g} exceeds 0.5"
            )
    return plan


def thread_cap() -> int:
    """Thread cap: FPUT2D_THREADS if set, else the CPU count.

    It caps the width of the thread pool that runs a call's envelope solves
    and lattice runs, and is that width when the plan's workers is 0
    (harness._pool_width).
    """
    raw = os.environ.get("FPUT2D_THREADS")
    if not raw:
        return os.cpu_count() or 1
    try:
        cap = int(raw)
    except ValueError:
        raise ConfigError(f"FPUT2D_THREADS={raw!r} is not an integer") from None
    if cap < 1:
        raise ConfigError(f"FPUT2D_THREADS={raw!r} must be at least 1")
    return cap
