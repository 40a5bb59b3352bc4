"""Run configuration: YAML schema, validation, canonical dict snapshot."""

from __future__ import annotations

import copy
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from .beam_fe import MONITORS, BeamSpec, GeometryParams
from .params import ParamBounds

__all__ = ["RunConfig", "load_config", "config_from_dict", "apply_overrides"]


@dataclass(frozen=True)
class SamplingConfig:
    n_train: int = 10
    n_validation: int = 3
    n_test: int = 3
    seed_train: int = 2024
    seed_validation: int = 2025
    seed_test: int = 2026

    def role(self, role: str) -> tuple[int, int]:
        """Sample count and LHS seed of a sample role (train/validation/test)."""
        if role not in ("train", "validation", "test"):
            raise ValueError(f"unknown sample role {role!r}")
        return getattr(self, f"n_{role}"), getattr(self, f"seed_{role}")


@dataclass(frozen=True)
class BasisConfig:
    n_modes: int = 10  # modes computed per sample
    f_max: float = 400.0  # Hz, selection band
    mpf_tol: float = 1.0e-3
    companion: str = "smd"  # smd | dual
    k_pairs: int = 6
    smd_step: float = 1.0e-8
    dual_scale: float = 2.0  # thickness multiples
    dual_pairs: bool = False
    dual_pod_energy: float = 1.0 - 1e-8


@dataclass(frozen=True)
class PodConfig:
    energy_modes: float = 0.999
    energy_companions: float = 0.9999999


@dataclass(frozen=True)
class IdentificationConfig:
    method: str = "eed"  # eed | ed
    probe_target: float = 1.0  # thickness multiples


@dataclass(frozen=True)
class InterpolationConfig:
    kernel: str = "inverse_multiquadric"  # | gaussian
    eps_min: float = 1.0e-2
    eps_max: float = 10.0
    eps_count: int = 50
    error_metric: str = "verbatim"  # | rms
    structure_check: str = "error"  # | warn
    condition_limit: float = 1.0e6  # shape values above this are not selectable


@dataclass(frozen=True)
class DampingConfig:
    zeta: float = 0.01


@dataclass(frozen=True)
class LoadConfig:
    amplitude: float = 55.0  # Pa, uniform pressure pulse peak
    t_pulse: float = 0.02  # s


@dataclass(frozen=True)
class IntegrationConfig:
    t_span: float = 0.12
    rom_steps_per_period: int = 100
    hfm_steps_per_period: int = 200
    gamma: float = 0.5
    beta: float = 0.25


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"  # artifacts land here unless --out is given


@dataclass(frozen=True)
class RunConfig:
    param_bounds: tuple = ((0.75, 1.5), (0.0, 0.5))  # (min, max) per GeometryParams field
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    fe: BeamSpec = field(default_factory=BeamSpec)
    basis: BasisConfig = field(default_factory=BasisConfig)
    pod: PodConfig = field(default_factory=PodConfig)
    identification: IdentificationConfig = field(default_factory=IdentificationConfig)
    interpolation: InterpolationConfig = field(default_factory=InterpolationConfig)
    damping: DampingConfig = field(default_factory=DampingConfig)
    load: LoadConfig = field(default_factory=LoadConfig)
    integration: IntegrationConfig = field(default_factory=IntegrationConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    monitors: tuple = tuple(MONITORS)[:1]

    def __post_init__(self):
        _validate(self)

    def bounds(self) -> ParamBounds:
        lower, upper = zip(*self.param_bounds)
        return ParamBounds(lower=list(lower), upper=list(upper))

    def eps_grid(self) -> np.ndarray:
        c = self.interpolation
        return np.logspace(np.log10(c.eps_min), np.log10(c.eps_max), c.eps_count)

    def to_dict(self) -> dict:
        """Canonical config-schema dict (reloadable via config_from_dict)."""
        return {
            "bounds": {name: list(pair) for name, pair in zip(_PARAMS, self.param_bounds)},
            **{name: asdict(getattr(self, name)) for name in _SECTIONS},
            "monitors": list(self.monitors),
        }


# YAML section name -> its dataclass: every RunConfig field with a default factory
_SECTIONS = {f.name: f.default_factory for f in fields(RunConfig) if f.default_factory is not MISSING}
# the bounds keys: the structure's geometry parameters, in field order
_PARAMS = [f.name for f in fields(GeometryParams)]


def _validate(cfg: RunConfig) -> None:
    errors = []
    if len(cfg.param_bounds) != len(_PARAMS):
        errors.append(f"bounds must give one [min, max] pair for each of {_PARAMS}")
    for name, (lo, hi) in zip(_PARAMS, cfg.param_bounds):
        if not lo < hi:
            errors.append(f"bounds for {name} must satisfy min < max")
    for role in ("train", "validation", "test"):
        count, seed = cfg.sampling.role(role)
        if count < 1:
            errors.append(f"sampling.n_{role} must be >= 1")
        if seed < 0:
            errors.append(f"sampling.seed_{role} must be >= 0")
    b = cfg.basis
    if b.n_modes < 1:
        errors.append("basis.n_modes must be >= 1")
    if b.companion not in ("smd", "dual"):
        errors.append("basis.companion must be 'smd' or 'dual'")
    if b.k_pairs < 1:
        errors.append("basis.k_pairs must be >= 1")
    if b.smd_step <= 0 or b.dual_scale <= 0:
        errors.append("basis steps/scales must be positive")
    for fieldname in ("energy_modes", "energy_companions"):
        v = getattr(cfg.pod, fieldname)
        if not 0.0 < v <= 1.0:
            errors.append(f"pod.{fieldname} must lie in (0, 1]")
    if not 0.0 < cfg.basis.dual_pod_energy <= 1.0:
        errors.append("basis.dual_pod_energy must lie in (0, 1]")
    if cfg.identification.method not in ("eed", "ed"):
        errors.append("identification.method must be 'eed' or 'ed'")
    if cfg.identification.probe_target <= 0:
        errors.append("identification.probe_target must be positive")
    i = cfg.interpolation
    if i.kernel not in ("inverse_multiquadric", "gaussian"):
        errors.append("interpolation.kernel unknown")
    if not 0 < i.eps_min < i.eps_max:
        errors.append("interpolation eps range invalid")
    if i.eps_count < 1:
        errors.append("interpolation.eps_count must be >= 1")
    if i.error_metric not in ("verbatim", "rms"):
        errors.append("interpolation.error_metric must be 'verbatim' or 'rms'")
    if i.condition_limit <= 1.0:
        errors.append("interpolation.condition_limit must exceed 1")
    if i.structure_check not in ("error", "warn"):
        errors.append("interpolation.structure_check must be 'error' or 'warn'")
    if cfg.damping.zeta < 0:
        errors.append("damping.zeta must be nonnegative")
    if cfg.load.amplitude == 0 or cfg.load.t_pulse <= 0:
        errors.append("load.amplitude must be nonzero and load.t_pulse positive")
    t = cfg.integration
    if t.t_span <= 0 or t.rom_steps_per_period < 2 or t.hfm_steps_per_period < 2:
        errors.append("integration settings invalid")
    for fieldname in ("gamma", "beta"):
        if getattr(t, fieldname) <= 0:
            errors.append(f"integration.{fieldname} must be positive")
    if len(cfg.monitors) < 1:
        errors.append("at least one monitored dof required")
    unknown = [mon for mon in cfg.monitors if isinstance(mon, str) and mon not in MONITORS]
    if unknown:
        errors.append(f"unknown monitors {unknown}: the named ones are {list(MONITORS)}")
    if errors:
        raise ValueError("invalid configuration:\n  " + "\n  ".join(errors))


def _reject_unknown(section: str, payload: dict, known) -> None:
    unknown = set(payload) - set(known)
    if unknown:
        raise ValueError(f"unknown keys in section '{section}': {sorted(unknown)}")


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


def _mapping(name: str, value) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a mapping, got {type(value).__name__}")
    return dict(value)


def _typed(name: str, value, kind: type):
    """`value` checked against its field's type; a bool is no number, a
    number is finite, and an integer given for a float key is stored as a
    float, so that 2700 and 2700.0 make the same config."""
    if kind in (int, float) and isinstance(value, str):
        # YAML reads exponents without a sign (1.0e6) as strings
        try:
            value = float(value)
        except ValueError:
            raise ValueError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}") from None
        if kind is int and value.is_integer():
            value = int(value)
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ValueError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
    if kind is float:
        value = float(value)
    if isinstance(value, float) and not np.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


def config_from_dict(data: dict) -> RunConfig:
    data = _mapping("config", {} if data is None else data)
    kwargs = {}
    bounds = _mapping("bounds", data.pop("bounds", {}))
    _reject_unknown("bounds", bounds, _PARAMS)
    pairs = dict(zip(_PARAMS, RunConfig.param_bounds))
    for name, pair in bounds.items():
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"bounds.{name} must be two numbers [min, max], got {pair!r}")
        pairs[name] = tuple(_typed(f"bounds.{name}", x, float) for x in pair)
    kwargs["param_bounds"] = tuple(pairs.values())
    for section, cls in _SECTIONS.items():
        if section in data:
            payload = _mapping(section, data.pop(section))
            known = cls.__dataclass_fields__
            _reject_unknown(section, payload, known)
            for key, value in payload.items():
                payload[key] = _typed(f"{section}.{key}", value, type(known[key].default))
            try:
                kwargs[section] = cls(**payload)
            except ValueError as exc:  # a section's own rule, such as BeamSpec's
                raise ValueError(f"{section}.{exc}") from None
    if "monitors" in data:
        monitors = data.pop("monitors")
        if not isinstance(monitors, (list, tuple)) or not all(
            isinstance(mon, (str, int)) and not isinstance(mon, bool) for mon in monitors
        ):
            raise ValueError(f"monitors must be a list of names or DOF indices, got {monitors!r}")
        kwargs["monitors"] = tuple(monitors)
    if data:
        raise ValueError(f"unknown top-level config keys: {sorted(data)}")
    return RunConfig(**kwargs)


def load_config(path, overrides=()) -> RunConfig:
    """Read a YAML run configuration and apply `a.b.c=value` overrides to it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValueError(f"config file {path} is not valid YAML: {exc}") from exc
    return config_from_dict(apply_overrides(data, overrides))


def apply_overrides(data: dict, overrides: list[str]) -> dict:
    """Apply `a.b.c=value` scalar overrides onto a copy of a raw config dict."""
    data = copy.deepcopy(_mapping("config", {} if data is None else data))
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form path=value")
        path, raw = item.split("=", 1)
        keys = path.strip().split(".")
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError as exc:
            raise ValueError(f"override {item!r} is not valid YAML: {exc}") from exc
        node = data
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ValueError(f"override path {path!r} crosses a non-section value")
        node[keys[-1]] = value
    return data
