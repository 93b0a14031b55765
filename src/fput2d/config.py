"""Declarative run configuration.

A run is described by one JSON or YAML file of flat keys; every key has a
typed default below and unknown keys are rejected (no silent typo
acceptance).  Command-line --set key=value overrides are applied after the
file.  Carrier components are given in multiples of pi so that the standard
quarter-pi carriers are exact in config text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import yaml


class ConfigError(ValueError):
    pass


# key -> (default, type tag, help)
SCHEMA: dict[str, tuple] = {
    "carrier_k_pi": (0.5, "float", "carrier k0 in units of pi"),
    "carrier_l_pi": (0.5, "float", "carrier l0 in units of pi"),
    "variant": ("strain", "str", "strain | displacement"),
    "eps": (0.2, "float", "single-run modulation parameter"),
    "eps_list": ([0.2, 0.14, 0.1], "float_list", "descending sweep values in (0, 0.5)"),
    "t0": (1.0, "float", "slow-time horizon T0"),
    "box_length": (40.0, "float", "envelope box side L"),
    "grid_side": (256, "int", "envelope grid side M (power of two)"),
    "n_side": (0, "int", "lattice side override; 0 = rule ceil(L/eps) to multiple of 4"),
    "dt": (0.0, "float", "lattice step override; 0 = rule"),
    "dt_rule": ("eps15_over4", "str", "lattice step rule: eps15_over4 | eps_over4"),
    "dt_slow": (1e-3, "float", "envelope splitting step dT"),
    "corrections": (False, "bool", "include third-generation corrections"),
    "force_kind": ("cubic_baseline", "str", "cubic_baseline | perturbed | linear"),
    "coeff_bound": (1.0, "float", "sup bound for per-bond perturbation coefficients"),
    "seed": (2026, "int", "RNG seed for perturbation draws"),
    "amplitude": (1.0, "float", "envelope amplitude a"),
    "sigma": (4.0, "float", "Gaussian envelope width"),
    "envelope_kind": ("gaussian", "str", "gaussian | constant"),
    "sample_count": (21, "int", "number of slow-time sample points"),
    "residual_fractions": ([0.0, 0.5, 1.0], "float_list", "residual sampling as fractions of T0"),
    "projection": ("oblique", "str", "compatibility projection: oblique | orthogonal"),
    "delta_res": (1e-8, "float", "non-resonance margin"),
    "pass_threshold": (1.8, "float", "minimum fitted order for a passing sweep"),
    "residual_order_min_with": (3.6, "float", "residual-order bar with corrections"),
    "residual_order_min_without": (2.7, "float", "residual-order bar without corrections"),
    "error_over_eps2_bound": (50.0, "float", "sanity cap on sup_error / eps^2"),
    "workers": (0, "int", "eps-parallel workers; 0 = auto (FPUT2D_THREADS caps)"),
    "blowup_guard": (1e4, "float", "H4-proxy guard for the envelope solve"),
    "snapshots": (3, "int", "lattice snapshots written by simulate"),
    "write_csv": (True, "bool", "emit diagnostics CSV files"),
    "write_snapshots": (True, "bool", "emit binary snapshots"),
    "synthetic_errors": ([], "float_list", "self-test: fit these errors instead of running"),
}


def _coerce(key: str, value, tag: str):
    try:
        if tag == "float":
            if isinstance(value, bool):
                raise TypeError
            return float(value)
        if tag == "int":
            if isinstance(value, bool) or (isinstance(value, float) and value != int(value)):
                raise TypeError
            return int(value)
        if tag == "bool":
            if isinstance(value, bool):
                return value
            if isinstance(value, str):
                if value.lower() in ("true", "1", "yes"):
                    return True
                if value.lower() in ("false", "0", "no"):
                    return False
            raise TypeError
        if tag == "str":
            if not isinstance(value, str):
                raise TypeError
            return value
        if tag == "float_list":
            if isinstance(value, str):
                value = [v for v in value.split(",") if v.strip()]
            if not isinstance(value, (list, tuple)):
                raise TypeError
            return [float(v) for v in value]
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key!r}: cannot read {value!r} as {tag}")
    raise ConfigError(f"unknown schema tag {tag}")


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __getattr__(self, key):
        values = object.__getattribute__(self, "values")
        if key in values:
            return values[key]
        raise AttributeError(key)

    @property
    def carrier_k(self) -> float:
        return self.values["carrier_k_pi"] * np.pi

    @property
    def carrier_l(self) -> float:
        return self.values["carrier_l_pi"] * np.pi


def default_config() -> RunConfig:
    return RunConfig({k: v for k, (v, _, _) in SCHEMA.items()})


def load_config(path: str | None, overrides=()) -> RunConfig:
    """Read the config file (if any) and apply --set overrides."""
    values = {k: v for k, (v, _, _) in SCHEMA.items()}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file {path} does not exist")
        text = p.read_text()
        if p.suffix in (".yaml", ".yml"):
            data = yaml.safe_load(text) or {}
        else:
            try:
                data = json.loads(text)
            except json.JSONDecodeError as e:
                raise ConfigError(f"{path}: {e}")
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        for key, value in data.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = _coerce(key, value, SCHEMA[key][1])
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _coerce(key, raw.strip(), SCHEMA[key][1])
    return RunConfig(values)


def config_hash(cfg: RunConfig) -> str:
    import hashlib

    return hashlib.sha256(
        json.dumps(cfg.values, sort_keys=True, default=float).encode()
    ).hexdigest()[:16]


def to_plan(cfg: RunConfig):
    """Translate a RunConfig into an ExperimentPlan."""
    from .harness import ExperimentPlan

    return ExperimentPlan(
        carrier_k=cfg.carrier_k,
        carrier_l=cfg.carrier_l,
        variant=cfg.variant,
        force_kind=cfg.force_kind,
        coeff_bound=cfg.coeff_bound,
        seed=cfg.seed,
        eps_list=tuple(cfg.eps_list),
        t0=cfg.t0,
        box_length=cfg.box_length,
        grid_side=cfg.grid_side,
        dt_slow=cfg.dt_slow,
        amplitude=cfg.amplitude,
        sigma=cfg.sigma,
        envelope_kind=cfg.envelope_kind,
        corrections=cfg.corrections,
        sample_count=cfg.sample_count,
        residual_fractions=tuple(cfg.residual_fractions),
        dt_rule=cfg.dt_rule,
        dt_override=cfg.dt or None,
        n_side_override=cfg.n_side or None,
        projection=cfg.projection,
        pass_threshold=cfg.pass_threshold,
        error_over_eps2_bound=cfg.error_over_eps2_bound,
        workers=cfg.workers,
        delta_res=cfg.delta_res,
        blowup_guard=cfg.blowup_guard,
    )
