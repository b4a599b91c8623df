"""Fixed-step closed-loop simulation with per-step logging and metrics.

The loop integrates xdot = f(x) + g(x) k(x) with classical RK4, evaluating
the controller at every stage point so the integrated system is the
continuous feedback loop (a zero-order hold at these step sizes visibly
violates the barrier certificates the runs are meant to demonstrate).
Each logged row records the controller output at the step start; the
chatter metrics take differences of those logged values.

Runs truncate (rather than abort) on input blow-up, on leaving the
extended set, and on non-finite states, so comparative batches complete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import EvaluationError
from .cbf import ABC, CbfInstance
from .core import ControlAffineSystem, DomainError
from .safety_filter import SafetyFilterSpec, safety_filter

__all__ = [
    "Trajectory",
    "SafetyMetrics",
    "SimulationError",
    "rk4_step",
    "simulate",
    "compute_metrics",
]

DEFAULT_BLOW_UP_THRESHOLD = 1e3


class SimulationError(RuntimeError):
    """Raised when an integration step cannot be evaluated."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (t = {t:g} s)")
        self.t = t


@dataclass
class Trajectory:
    """Uniformly sampled closed-loop log.

    ``s`` is populated for the activated backstepping construction and
    ``None`` otherwise.  ``exit_reason`` is ``"completed"`` for a full run
    and names the truncation cause otherwise.
    """

    dt: float
    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    h: np.ndarray
    psi: np.ndarray
    s: Optional[np.ndarray]
    exit_reason: str = "completed"

    @property
    def blew_up(self) -> bool:
        return self.exit_reason == "blow_up"

    def __len__(self) -> int:
        return self.t.size


@dataclass
class SafetyMetrics:
    """Post-hoc safety and regularity summary of one trajectory."""

    min_h: float
    min_psi: float
    max_abs_u: np.ndarray
    max_step_delta_u: np.ndarray
    blew_up: bool
    final_state: np.ndarray
    exit_reason: str = "completed"


def rk4_step(derivative, x, dt: float, t: float = 0.0) -> np.ndarray:
    """One classical Runge-Kutta step; raises on non-finite stage values."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    x = np.asarray(x, dtype=float)
    k1 = np.asarray(derivative(x), dtype=float)
    k2 = np.asarray(derivative(x + 0.5 * dt * k1), dtype=float)
    k3 = np.asarray(derivative(x + 0.5 * dt * k2), dtype=float)
    k4 = np.asarray(derivative(x + dt * k3), dtype=float)
    for stage in (k1, k2, k3, k4):
        if not np.all(np.isfinite(stage)):
            raise SimulationError("non-finite derivative at an RK4 stage", t)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _n_steps(horizon: float, dt: float) -> int:
    if not horizon > 0.0 or not dt > 0.0:
        raise ValueError("horizon and dt must be positive")
    return int(math.floor(horizon / dt + 1e-9))


def simulate(
    system: ControlAffineSystem,
    instance: CbfInstance,
    spec: SafetyFilterSpec,
    x0,
    horizon: float,
    dt: float,
    blow_up_threshold: float = DEFAULT_BLOW_UP_THRESHOLD,
) -> Trajectory:
    """Closed-loop run of the safety-filtered system from ``x0``.

    Every argument is honoured: the controller is ``safety_filter(spec,
    instance, system, x)`` on the AD reference path.  For the published
    constructions of a built-in scenario,
    :meth:`cbftk.systems.Scenario.simulate` gives the same run on the
    compiled kernels.
    """
    x0 = np.asarray(x0, dtype=float)
    n_steps = _n_steps(horizon, dt)
    n = system.n
    m = system.m
    want_s = instance.kind == ABC
    xs = np.empty((n_steps + 1, n))
    us = np.empty((n_steps + 1, m))
    hs = np.empty(n_steps + 1)
    psis = np.empty(n_steps + 1)
    ss = np.empty(n_steps + 1) if want_s else None

    def controlled_derivative(x):
        u = safety_filter(spec, instance, system, x)
        return system.f_vec(x) + system.g_mat(x) @ u

    x = x0.copy()
    rows = 0
    exit_reason = "completed"
    for k in range(n_steps + 1):
        if not np.all(np.isfinite(x)):
            exit_reason = "non_finite"
            break
        if not instance.output.in_extended_set(x):
            exit_reason = "left_domain"
            break
        u = safety_filter(spec, instance, system, x)
        xs[k] = x
        us[k] = u
        hs[k] = instance.value(x)
        psis[k] = instance.output.psi_of_state(x)
        if want_s:
            ss[k] = instance.switching(x)
        rows = k + 1
        if not np.all(np.isfinite(u)):
            exit_reason = "non_finite"
            break
        if np.max(np.abs(u)) > blow_up_threshold:
            exit_reason = "blow_up"
            break
        if k == n_steps:
            break
        # stage 1 reuses the logged input; later stages re-evaluate the
        # controller, mirroring the compiled kernels exactly
        try:
            k1 = system.f_vec(x) + system.g_mat(x) @ u
            k2 = controlled_derivative(x + 0.5 * dt * k1)
            k3 = controlled_derivative(x + 0.5 * dt * k2)
            k4 = controlled_derivative(x + dt * k3)
        except DomainError:
            exit_reason = "left_domain"
            break
        except EvaluationError:
            exit_reason = "non_finite"
            break
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    t = dt * np.arange(rows)
    return Trajectory(
        dt=dt,
        t=t,
        x=xs[:rows].copy(),
        u=us[:rows].copy(),
        h=hs[:rows].copy(),
        psi=psis[:rows].copy(),
        s=ss[:rows].copy() if want_s else None,
        exit_reason=exit_reason,
    )


def compute_metrics(traj: Trajectory) -> SafetyMetrics:
    """Deterministic summary of a non-empty trajectory."""
    if len(traj) == 0:
        raise ValueError("cannot summarize an empty trajectory")
    du = (
        np.max(np.abs(np.diff(traj.u, axis=0)), axis=0)
        if len(traj) > 1
        else np.zeros(traj.u.shape[1])
    )
    return SafetyMetrics(
        min_h=float(np.min(traj.h)),
        min_psi=float(np.min(traj.psi)),
        max_abs_u=np.max(np.abs(traj.u), axis=0),
        max_step_delta_u=du,
        blew_up=traj.blew_up,
        final_state=traj.x[-1].copy(),
        exit_reason=traj.exit_reason,
    )
