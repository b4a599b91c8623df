"""Scenario configuration: flat ``key = value`` text with dotted names.

The format is deliberately trivial: one assignment per line, ``#`` starts
a comment, values are numbers, comma-separated number lists, or one of a
few enumerated strings.  Unknown keys are rejected by name.  Every
parameter defaults to the published case-study values; a config file (or
repeated ``--set key=value`` flags) overrides them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

from .cbf import CBF_KINDS
from .sim import _n_steps
from .systems import (
    BicycleParams,
    PendulumParams,
    SCENARIO_NAMES,
    Scenario,
    bicycle_scenario,
    pendulum_scenario,
)

__all__ = ["ConfigError", "ScenarioConfig", "parse_assignments"]


class ConfigError(ValueError):
    """A config line or value could not be interpreted."""


def _parse_float(key, text):
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {text!r}")
    return value


def _parse_floats(key, text):
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated numbers, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{key}: expected finite numbers, got {text!r}")
    return values


def _parse_ints(key, text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated integers, got {text!r}") from None


def _parse_window(key, text):
    # per-axis "lo:hi" ranges, comma separated
    axes = []
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 2:
            raise ConfigError(f"{key}: expected lo:hi ranges, got {part!r}")
        lo = _parse_float(key, pieces[0])
        hi = _parse_float(key, pieces[1])
        if not hi > lo:
            raise ConfigError(f"{key}: empty range {part!r}")
        axes.append((lo, hi))
    return tuple(axes)


# keys valid for every scenario -> attribute on ScenarioConfig
_SHARED_KEYS = {
    "scenario": ("str", "scenario"),
    "cbf": ("cbf_list", "cbfs"),
    "sim.dt": ("float", "dt"),
    "sim.horizon": ("float", "horizon"),
    "sim.blow_up": ("float", "blow_up_threshold"),
    "init.x0": ("floats", "x0"),
    "scan.window": ("window", "window"),
    "scan.resolution": ("ints", "resolution"),
}

# scenario parameter keys -> field on the params dataclass
_PENDULUM_PARAM_KEYS = {
    "cbf.alpha_c": "alpha_c",
    "cbf.alpha_outer_c": "alpha_outer_c",
    "cbf.K": "K",
    "cbf.mu_backstepping": "mu_backstepping",
    "cbf.mu_abc": "mu_abc",
    "cbf.mu_recbf": "mu_recbf",
    "cbf.epsilon": "epsilon",
    "filter.gamma": "gamma",
}

_BICYCLE_PARAM_KEYS = {
    "cbf.alpha_c": "alpha_c",
    "cbf.alpha_outer_c": "alpha_outer_c",
    "cbf.mu": "mu",
    "cbf.epsilon": "epsilon",
    "system.wheelbase": "wheelbase",
    "system.v_desired": "v_desired",
    "system.v_hat": "v_hat",
    "system.obstacle_xi": "obstacle_xi",
    "system.obstacle_eta": "obstacle_eta",
    "system.obstacle_radius": "obstacle_radius",
    "desired.k_eta": "k_eta",
    "desired.k_theta": "k_theta",
    "desired.k_v": "k_v",
    "kappa.alpha_hat_c": "alpha_hat_c",
    "kappa.sigma_hat": "sigma_hat",
}

_PARAM_KEYS = {"pendulum": _PENDULUM_PARAM_KEYS, "bicycle": _BICYCLE_PARAM_KEYS}


def _listing(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def parse_assignments(text: str) -> dict:
    """Flat key=value lines to an ordered dict of raw strings."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        out[key] = value
    return out


@dataclass
class ScenarioConfig:
    """Effective run configuration: scenario, CBF kinds, and overrides."""

    scenario: str = "pendulum"
    cbfs: tuple = ("abc",)
    dt: Optional[float] = None
    horizon: Optional[float] = None
    blow_up_threshold: float = 1e3
    x0: Optional[tuple] = None
    window: Optional[tuple] = None
    resolution: Optional[tuple] = None
    scan_slice: dict = dataclass_field(default_factory=dict)
    param_overrides: dict = dataclass_field(default_factory=dict)

    # -- construction -------------------------------------------------

    @classmethod
    def from_assignments(cls, assignments: dict) -> "ScenarioConfig":
        config = cls()
        scenario = assignments.get("scenario", config.scenario)
        if scenario not in SCENARIO_NAMES:
            raise ConfigError(
                f"scenario: expected one of {', '.join(SCENARIO_NAMES)}, got {scenario!r}"
            )
        config.scenario = scenario
        param_keys = _PARAM_KEYS[scenario]
        for key, value in assignments.items():
            if key == "scenario":
                continue
            if key in _SHARED_KEYS:
                kind, attr = _SHARED_KEYS[key]
                if kind == "float":
                    setattr(config, attr, _parse_float(key, value))
                elif kind == "floats":
                    setattr(config, attr, _parse_floats(key, value))
                elif kind == "ints":
                    setattr(config, attr, _parse_ints(key, value))
                elif kind == "window":
                    setattr(config, attr, _parse_window(key, value))
                elif kind == "cbf_list":
                    kinds = tuple(part.strip() for part in value.split(","))
                    for k in kinds:
                        if k not in CBF_KINDS:
                            raise ConfigError(
                                f"cbf: expected one of {', '.join(CBF_KINDS)}, got {k!r}"
                            )
                    config.cbfs = kinds
                else:
                    setattr(config, attr, value)
            elif key in param_keys:
                config.param_overrides[param_keys[key]] = _parse_float(key, value)
            elif scenario == "bicycle" and key == "filter.gamma":
                weights = _parse_floats(key, value)
                if len(weights) != 2:
                    raise ConfigError("filter.gamma: bicycle expects two weights")
                config.param_overrides["gamma1"] = weights[0]
                config.param_overrides["gamma2"] = weights[1]
            elif scenario == "bicycle" and key in ("scan.theta", "scan.v"):
                config.scan_slice[key.split(".", 1)[1]] = _parse_float(key, value)
            else:
                raise ConfigError(f"unknown configuration key {key!r}")
        config.validate()
        return config

    @classmethod
    def from_text(cls, text: str) -> "ScenarioConfig":
        return cls.from_assignments(parse_assignments(text))

    def validate(self):
        n = 2 if self.scenario == "pendulum" else 4
        if self.x0 is not None and len(self.x0) != n:
            raise ConfigError(f"init.x0: expected {n} components for {self.scenario}")
        if self.x0 is not None and not all(math.isfinite(v) for v in self.x0):
            raise ConfigError(f"init.x0: expected finite numbers, got {_listing(self.x0)}")
        if self.dt is not None and not self.dt > 0.0:
            raise ConfigError("sim.dt: must be positive")
        if self.horizon is not None and not self.horizon > 0.0:
            raise ConfigError("sim.horizon: must be positive")
        if not self.blow_up_threshold > 0.0:
            raise ConfigError("sim.blow_up: must be positive")
        if self.window is not None and len(self.window) != 2:
            raise ConfigError("scan.window: expected two axes")
        if self.resolution is not None:
            if len(self.resolution) == 1:
                self.resolution = (self.resolution[0], self.resolution[0])
            if len(self.resolution) != 2 or any(r < 2 for r in self.resolution):
                raise ConfigError("scan.resolution: expected one or two counts >= 2")

    # -- realization ---------------------------------------------------

    def build_scenario(self) -> Scenario:
        """The configured scenario, its constructions and filter checked.

        A parameter that the scenario, a construction of ``cbfs`` or the
        safety filter refuses, a horizon and step whose step count overflows,
        and an ``x0`` outside the scenario's extended set, raise a
        :class:`ConfigError`.
        """
        try:
            scenario = self._scenario()
            for kind in self.cbfs:
                scenario.make_cbf(kind)
            scenario.filter_spec()
        except ValueError as exc:
            raise ConfigError(f"{self.scenario} parameters: {exc}") from None
        try:
            _n_steps(scenario.horizon, scenario.dt)
        except ValueError as exc:
            raise ConfigError(f"sim.horizon, sim.dt: {exc}") from None
        if not scenario.output.in_extended_set(scenario.x0):
            raise ConfigError(
                f"init.x0: {_listing(scenario.x0)} lies outside the extended set of "
                f"{self.scenario}, where the constructions are undefined"
            )
        return scenario

    def _scenario(self) -> Scenario:
        given = {
            "x0": self.x0,
            "horizon": self.horizon,
            "dt": self.dt,
            "window": self.window,
            "resolution": self.resolution,
        }
        kwargs = {name: value for name, value in given.items() if value is not None}
        if self.scenario == "pendulum":
            return pendulum_scenario(params=PendulumParams(**self.param_overrides), **kwargs)
        params = BicycleParams(**self.param_overrides)
        if self.scan_slice:
            kwargs["scan_slice"] = {"theta": 0.0, "v": params.v_desired, **self.scan_slice}
        return bicycle_scenario(params=params, **kwargs)

    # -- serialization --------------------------------------------------

    def to_text(self) -> str:
        """Canonical serialization of the effective configuration."""
        scenario = self.build_scenario()
        lines = [
            f"scenario = {self.scenario}",
            f"cbf = {','.join(self.cbfs)}",
            f"sim.dt = {scenario.dt!r}",
            f"sim.horizon = {scenario.horizon!r}",
            f"sim.blow_up = {self.blow_up_threshold!r}",
            "init.x0 = " + ",".join(repr(float(v)) for v in scenario.x0),
            "scan.window = "
            + ",".join(f"{lo!r}:{hi!r}" for lo, hi in scenario.window),
            "scan.resolution = " + ",".join(str(r) for r in scenario.resolution),
        ]
        params = scenario.params
        for key, attr in _PARAM_KEYS[self.scenario].items():
            value = getattr(params, attr)
            if value is not None:
                lines.append(f"{key} = {float(value)!r}")
        if self.scenario == "bicycle":
            lines.append(f"filter.gamma = {params.gamma1!r},{params.gamma2!r}")
            lines.append(f"scan.theta = {scenario.scan_slice['theta']!r}")
            lines.append(f"scan.v = {scenario.scan_slice['v']!r}")
        return "\n".join(lines) + "\n"
