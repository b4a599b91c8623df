"""Fixed-step closed-loop simulation with per-step logging and metrics.

The loop integrates xdot = f(x) + g(x) k(x) with classical RK4, evaluating
the controller at every stage point so the integrated system is the
continuous feedback loop (a zero-order hold at these step sizes visibly
violates the barrier certificates the runs are meant to demonstrate).
Each logged row records the controller output at the step start; the
chatter metrics take differences of those logged values.

Runs truncate (rather than abort) on input blow-up, on leaving the
extended set, and on non-finite states, so comparative batches complete.

:func:`simulate` traces one step once (:class:`cbftk.autodiff.Traced`) from
the helpers its numpy step uses, flat: the filter at each of the four RK4
stages, the RK4 combination and the logged fields are one record, which
calls no other generated code.  The whole run is one generated loop around
that step's code (:meth:`cbftk.autodiff.Traced.loop`), which appends each
row to one float buffer.  A step the loop leaves to numpy runs
on numpy, with the same bits, and the loop takes the run back at the next
step.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import EvaluationError
from .cbf import ABC, CbfInstance
from .core import ControlAffineSystem, DomainError
from .safety_filter import SafetyFilterSpec, _filtered, safety_filter

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
    and names the truncation cause otherwise.  ``evaluation`` says how the
    steps ran: ``"generated"`` when every step of :func:`simulate` ran its
    generated code; ``"numpy: <reason>"`` with the reason of the first step
    that ran on numpy instead, with h and its gradient on Duals; and
    ``"kernel"`` for a run of :meth:`cbftk.systems.Scenario.simulate`.
    Both paths log each row into one float buffer and copy the columns out
    of it (:func:`_trajectory`).
    """

    dt: float
    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    h: np.ndarray
    psi: np.ndarray
    s: Optional[np.ndarray]
    exit_reason: str = "completed"
    evaluation: str = "generated"

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

    def checked(z):
        stage = np.asarray(derivative(z), dtype=float)
        if not np.all(np.isfinite(stage)):
            raise SimulationError("non-finite derivative at an RK4 stage", t)
        return stage

    x = np.asarray(x, dtype=float)
    return _next_state(checked, x, checked(x), dt)


def _n_steps(horizon: float, dt: float) -> int:
    """The steps of ``dt`` in ``horizon``; refuses either where it is not
    positive and finite, and a count that is not finite or whose rows no
    index can hold (``sys.maxsize``)."""
    if not (0.0 < horizon < math.inf and 0.0 < dt < math.inf):
        raise ValueError(f"horizon and dt must be positive and finite, got {horizon} and {dt}")
    steps = horizon / dt + 1e-9
    if steps == math.inf:
        raise ValueError(f"horizon / dt = {horizon} / {dt} overflows")
    if not steps < sys.maxsize:
        raise ValueError(f"horizon / dt = {horizon} / {dt} is {steps:.6g} steps, more than an index holds")
    return int(math.floor(steps))


def _blow_up_threshold(value) -> float:
    """``value`` as a float; refuses it unless it is positive (``math.inf`` is)."""
    threshold = float(value)
    if not threshold > 0.0:
        raise ValueError(f"blow_up_threshold must be positive, got {value!r}")
    return threshold


def _initial_state(x0, n: int) -> np.ndarray:
    """``x0`` as floats; refuses it unless it has ``n`` finite components."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 must have {n} components, got shape {x0.shape}")
    if not np.isfinite(x0).all():
        raise ValueError(f"x0 must be finite, got {x0}")
    return x0


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
    instance, system, x)``.  A step runs as straight-line code on Python
    floats, traced once per (instance, system, spec) from the same filter,
    plant, RK4 stages and logged fields, with the filter inlined at each
    stage, and cached on the instance for the last system and spec by value
    (each :meth:`cbftk.systems.Scenario.filter_spec` is equal): the first
    run pays for the trace and for rendering and compiling its loop (a few
    ms, more for the bicycle's larger filters), and later runs pay for
    neither.  It makes numpy's float operations in numpy's order; the
    filter's dot products sum in index order on both paths
    (:func:`cbftk.autodiff.dot`), so it gives the same bits whatever BLAS
    numpy loads.  The steps run as one generated loop around that code,
    which carries the state in its locals, appends each row (x, u, h, psi
    and, for the activated construction, s) to one ``array('d')`` and
    stops at the first input
    past ``blow_up_threshold`` in magnitude; the columns are copied out of
    that buffer at the end.  A step runs on numpy instead, with the same
    bits or the same error, where the code leaves it: a state that is not
    finite or not in the extended set, a check of h's construction that
    fails, or an exception.  The loop then takes the run back at the next
    step.  Every step runs on numpy when the step could not be traced (a
    callable that needs the number behind a traced value).  A step on numpy
    evaluates h and its gradient on Duals.
    ``evaluation`` of the result says which ran and why.  Memory grows with
    the rows logged (8 bytes a value), not with the horizon: a run that
    stops early holds only its rows, and one whose rows outgrow memory
    raises ``MemoryError`` from the buffer.  An ``x0`` without
    ``system.n`` finite components, or a ``horizon`` or ``dt`` that is not
    positive and finite or gives more steps than an index holds, or a
    ``blow_up_threshold`` that is not positive (NaN among them; ``math.inf``
    turns the check off), is refused with a ValueError.  For the published
    constructions of a built-in scenario,
    :meth:`cbftk.systems.Scenario.simulate` gives the run on the scalar
    kernels, which log into the same row layout.
    """
    n = system.n
    x0 = _initial_state(x0, n)
    n_steps = _n_steps(horizon, dt)
    blow_up_threshold = _blow_up_threshold(blow_up_threshold)
    dt = float(dt)  # the generated step runs 1.7-2.8x slower on an np.float64 dt
    m = system.m
    want_s = instance.kind == ABC
    step = _generated_step(system, instance, spec)

    def controlled_derivative(x):
        return _derivative(system, x, safety_filter(spec, instance, system, x))

    # each row: x, u, h, psi and, for the activated construction, s
    rows = array("d")
    x, k = tuple(x0.tolist()), 0
    exit_reason = "completed"
    reason = None
    while True:
        k, stopped, x = step.loop((*x, dt), range(k, n_steps + 1), rows, n, range(n, n + m), blow_up_threshold)
        if stopped is None:
            if k <= n_steps:
                exit_reason = "blow_up"
            break
        # step k on numpy, then back to the generated loop
        if reason is None:
            reason = stopped if step.reason is not None else f"{stopped} at state {np.array(x)}"
        xa = np.array(x)
        if not np.all(np.isfinite(xa)):
            exit_reason = "non_finite"
            break
        if not instance.output.in_extended_set(xa):
            exit_reason = "left_domain"
            break
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or a NaN as silent as the loop's
            ua = safety_filter(spec, instance, system, xa)
        u = ua.tolist()
        rows.extend((*x, *u, *_logged(instance, xa, want_s)))
        if not all(map(math.isfinite, u)):
            exit_reason = "non_finite"
            break
        if max(map(abs, u)) > blow_up_threshold:
            exit_reason = "blow_up"
            break
        if k == n_steps:
            break
        # stage 1 reuses the logged input; later stages re-evaluate the
        # controller, mirroring the scalar kernels exactly
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                x = tuple(_next_state(controlled_derivative, xa, _derivative(system, xa, ua), dt).tolist())
        except DomainError:
            exit_reason = "left_domain"
            break
        except EvaluationError:
            exit_reason = "non_finite"
            break
        k += 1
    return _trajectory(rows, dt, n, m, want_s, exit_reason, "generated" if reason is None else f"numpy: {reason}")


def _trajectory(rows, dt, n, m, want_s, exit_reason, evaluation) -> Trajectory:
    """The :class:`Trajectory` of the rows in ``rows``, an ``array('d')``
    holding each row's ``n`` states, ``m`` inputs, h, psi and, where
    ``want_s``, s; the columns are copied out of the buffer."""
    table = np.frombuffer(rows).reshape(-1, n + m + 2 + want_s)
    return Trajectory(
        dt=dt,
        t=dt * np.arange(len(table)),
        x=table[:, :n].copy(),
        u=table[:, n : n + m].copy(),
        h=table[:, n + m].copy(),
        psi=table[:, n + m + 1].copy(),
        s=table[:, n + m + 2].copy() if want_s else None,
        exit_reason=exit_reason,
        evaluation=evaluation,
    )


def _derivative(system, x, u):
    """xdot = f(x) + g(x) u."""
    return system.f_vec(x) + ad.dot(system.g_mat(x), u)


def _next_state(derivative, x, k1, dt):
    """The classical RK4 step of ``derivative`` from ``x``, whose first stage is ``k1``."""
    k2 = derivative(x + 0.5 * dt * k1)
    k3 = derivative(x + 0.5 * dt * k2)
    k4 = derivative(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _logged(instance, x, want_s) -> list:
    """h and psi at ``x`` and, where ``want_s``, s: each on its float path."""
    values = [instance.value(x), instance.output.psi_of_state(x)]
    if want_s:
        values.append(instance.switching(x))
    return values


def _generated_step(system, instance, spec) -> ad.Traced:
    """:func:`_step` as straight-line code, cached on ``instance`` for the
    last ``(system, spec)`` by value (:func:`cbftk.autodiff.cached`), so a
    fresh spec equal to the last one traces nothing: one flat trace of the
    four filter evaluations, the RK4 combination and the logged fields."""

    def traced():
        return ad.Traced(lambda args: _step(system, instance, spec, args), system.n + 1)

    return ad.cached(instance, "_step_trace", (system, spec), traced)


def _controlled(system, instance, spec, x) -> list:
    """u at ``x``, then the stage derivative f(x) + g(x) u."""
    u = _filtered(spec, instance, system, x)
    return [*u, *_derivative(system, x, u)]


def _step(system, instance, spec, args) -> list:
    """One step of :func:`simulate` from the traced state and step size in
    ``args``: the next state, then u, h, psi and, for the activated
    construction, s at the state.

    :func:`_controlled` runs on the traced state and on each of the three
    later stage states, so its guards (the extended set among them) are
    the step's.  Besides those, a guard leaves the step to numpy where an
    output is not finite: the state itself may not be, which the numpy
    step reports as the loop checks it, or a NaN may have gone through a
    sum, whose sign and payload Python's and numpy's arithmetic need not
    pass on alike.
    """
    x, dt = np.array(args[:-1], dtype=object), args[-1]
    m = system.m

    def controlled_derivative(z):
        return np.array(_controlled(system, instance, spec, z)[m:], dtype=object)

    at_x = _controlled(system, instance, spec, x)
    k1 = np.array(at_x[m:], dtype=object)
    outputs = [*_next_state(controlled_derivative, x, k1, dt), *at_x[:m], *_logged(instance, x, instance.kind == ABC)]
    for v in outputs:
        ad.holds(abs(v) < math.inf, "non-finite")
    return outputs


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
