"""Run configuration: YAML schema, validation, canonical dict snapshot."""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import yaml

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
class FeConfig:
    n_elements: int = 40
    length: float = 0.4
    width: float = 0.02
    thickness: float = 8.0e-4
    youngs_modulus: float = 70.0e9
    density: float = 2700.0


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
class RunConfig:
    bounds_p1: tuple = (0.75, 1.5)
    bounds_p2: tuple = (0.0, 0.5)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    fe: FeConfig = field(default_factory=FeConfig)
    basis: BasisConfig = field(default_factory=BasisConfig)
    pod: PodConfig = field(default_factory=PodConfig)
    identification: IdentificationConfig = field(default_factory=IdentificationConfig)
    interpolation: InterpolationConfig = field(default_factory=InterpolationConfig)
    damping: DampingConfig = field(default_factory=DampingConfig)
    load: LoadConfig = field(default_factory=LoadConfig)
    integration: IntegrationConfig = field(default_factory=IntegrationConfig)
    monitors: tuple = ("midspan_w",)
    output_directory: str = "out"

    def bounds(self) -> ParamBounds:
        return ParamBounds(
            lower=[self.bounds_p1[0], self.bounds_p2[0]],
            upper=[self.bounds_p1[1], self.bounds_p2[1]],
        )

    def eps_grid(self) -> np.ndarray:
        c = self.interpolation
        return np.logspace(np.log10(c.eps_min), np.log10(c.eps_max), c.eps_count)

    def to_dict(self) -> dict:
        """Canonical config-schema dict (reloadable via config_from_dict)."""
        return {
            "bounds": {"p1": list(self.bounds_p1), "p2": list(self.bounds_p2)},
            "sampling": asdict(self.sampling),
            "fe": asdict(self.fe),
            "basis": asdict(self.basis),
            "pod": asdict(self.pod),
            "identification": asdict(self.identification),
            "interpolation": asdict(self.interpolation),
            "damping": asdict(self.damping),
            "load": asdict(self.load),
            "integration": asdict(self.integration),
            "monitors": list(self.monitors),
            "output": {"directory": self.output_directory},
        }


_SECTIONS = {
    "sampling": SamplingConfig,
    "fe": FeConfig,
    "basis": BasisConfig,
    "pod": PodConfig,
    "identification": IdentificationConfig,
    "interpolation": InterpolationConfig,
    "damping": DampingConfig,
    "load": LoadConfig,
    "integration": IntegrationConfig,
}


def _validate(cfg: RunConfig) -> RunConfig:
    errors = []
    for name, (lo, hi) in (("p1", cfg.bounds_p1), ("p2", cfg.bounds_p2)):
        if not lo < hi:
            errors.append(f"bounds for {name} must satisfy min < max")
    s = cfg.sampling
    for fieldname in ("n_train", "n_validation", "n_test"):
        if getattr(s, fieldname) < 1:
            errors.append(f"sampling.{fieldname} must be >= 1")
    if cfg.fe.n_elements < 4:
        errors.append("fe.n_elements must be >= 4")
    for fieldname in ("length", "width", "thickness", "youngs_modulus", "density"):
        if getattr(cfg.fe, fieldname) <= 0:
            errors.append(f"fe.{fieldname} must be positive")
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
    if errors:
        raise ValueError("invalid configuration:\n  " + "\n  ".join(errors))
    return cfg


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
    """`value` checked against its field's type; a bool is no number."""
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
    return value


def config_from_dict(data: dict) -> RunConfig:
    data = _mapping("config", data or {})
    kwargs = {}
    bounds = _mapping("bounds", data.pop("bounds", {}))
    _reject_unknown("bounds", bounds, ("p1", "p2"))
    for name, pair in bounds.items():
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"bounds.{name} must be two numbers [min, max], got {pair!r}")
        kwargs[f"bounds_{name}"] = tuple(float(_typed(f"bounds.{name}", x, float)) for x in pair)
    for section, cls in _SECTIONS.items():
        if section in data:
            payload = _mapping(section, data.pop(section))
            fields = cls.__dataclass_fields__
            _reject_unknown(section, payload, fields)
            for key, value in payload.items():
                payload[key] = _typed(f"{section}.{key}", value, type(fields[key].default))
            kwargs[section] = cls(**payload)
    if "monitors" in data:
        monitors = data.pop("monitors")
        if not isinstance(monitors, (list, tuple)) or not all(
            isinstance(mon, (str, int)) and not isinstance(mon, bool) for mon in monitors
        ):
            raise ValueError(f"monitors must be a list of names or DOF indices, got {monitors!r}")
        kwargs["monitors"] = tuple(monitors)
    if "output" in data:
        out = _mapping("output", data.pop("output"))
        _reject_unknown("output", out, ("directory",))
        if "directory" in out:
            kwargs["output_directory"] = _typed("output.directory", out["directory"], str)
    if data:
        raise ValueError(f"unknown top-level config keys: {sorted(data)}")
    return _validate(RunConfig(**kwargs))


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
    data = copy.deepcopy(_mapping("config", data or {}))
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
