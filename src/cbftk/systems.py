"""The two concrete plants: inverted pendulum and kinematic bicycle.

Each scenario is built from its parameters alone: ``params`` gives the
dynamics, the relative-degree-two output with its constraint, the desired
controller, the filter's weights and gain and the CBF factories, so a
scenario with other parameters is ``dataclasses.replace(scenario,
params=...)``.  Its ``scan`` method is :func:`cbftk.analysis.grid_scan` of the scenario's
own construction, system, window and gain.  Its ``simulate`` method runs
the published constructions on the scalar simulation kernels, and is
the only caller of :mod:`cbftk.kernels` in the library.  The dynamics and
outputs are defined at one state; the scans and checks run them as lanes
of their traces.

Pendulum: state (phi [rad], omega [rad/s]), torque input; the constraint
keeps the pendulum above the horizontal, psi(phi) = pi^2/4 - phi^2.

Bicycle: state (xi [m], eta [m], theta [rad], v [m/s]), inputs (steering
tangent, longitudinal acceleration); the constraint keeps the rear axle
outside a circular obstacle, psi = (xi - xi_o)^2 + (eta - eta_o)^2 - r_o^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional

import numpy as np

from . import analysis
from . import autodiff as ad
from . import cbf as cbf_mod
from . import kernels
from .cbf import ABC, BACKSTEPPING, CBF_KINDS, HOCBF, RECBF, CbfInstance
from .core import ControlAffineSystem, LinearClassK, RelDeg2Output, ReQUActivation
from .safety_filter import LinearGain, SafetyFilterSpec, SmoothFilter, VirtualController
from .sim import DEFAULT_BLOW_UP_THRESHOLD, Trajectory, _blow_up_threshold, _initial_state, _n_steps

__all__ = [
    "PendulumParams",
    "BicycleParams",
    "Scenario",
    "pendulum_scenario",
    "bicycle_scenario",
    "scenario_by_name",
    "lane_keeping_desired",
    "SCENARIO_NAMES",
]

SCENARIO_NAMES = ("pendulum", "bicycle")

HALF_PI_SQ = math.pi * math.pi / 4.0


# -- parameters --------------------------------------------------------------


@dataclass(frozen=True)
class PendulumParams:
    """Pendulum case-study parameters (defaults as published).

    ``mu_recbf`` is not part of the published list; it defaults to the
    activated-backstepping value for comparability.  ``alpha_outer_c``
    defaults to ``alpha_c`` (one gain serves the construction and the
    filter).
    """

    alpha_c: float = 1.0
    gamma: float = 1.0
    K: float = 0.75
    mu_backstepping: float = 1.5
    mu_abc: float = 5.0
    mu_recbf: float = 5.0
    epsilon: float = 2.0
    alpha_outer_c: Optional[float] = None

    @property
    def alpha_outer(self) -> float:
        return self.alpha_c if self.alpha_outer_c is None else self.alpha_outer_c

    def mu_for(self, kind: str) -> float:
        return {
            HOCBF: self.mu_abc,  # unused by the construction
            RECBF: self.mu_recbf,
            BACKSTEPPING: self.mu_backstepping,
            ABC: self.mu_abc,
        }[kind]


@dataclass(frozen=True)
class BicycleParams:
    """Vehicle case-study parameters (defaults as published).

    ``epsilon``/``mu`` for the rectified and backstepping constructions on
    this plant are not published; they default to the activated values.
    """

    wheelbase: float = 2.5
    v_desired: float = 10.0
    v_hat: float = 4.0
    obstacle_xi: float = 20.0
    obstacle_eta: float = -0.1
    obstacle_radius: float = 4.0
    k_eta: float = 0.4
    k_theta: float = 1.75
    k_v: float = 0.3
    gamma1: float = 1.0
    gamma2: float = 0.15
    alpha_hat_c: float = 1.0
    sigma_hat: float = 0.001
    mu: float = 1.0
    alpha_c: float = 5.0
    epsilon: float = 2.0
    alpha_outer_c: Optional[float] = None

    def __post_init__(self):
        # the steering input enters as v u1 / L
        if not self.wheelbase > 0.0:
            raise ValueError(f"wheelbase must be positive, got {self.wheelbase}")

    @property
    def alpha_outer(self) -> float:
        return self.alpha_c if self.alpha_outer_c is None else self.alpha_outer_c

    def mu_for(self, kind: str) -> float:
        return self.mu


# -- desired controller ------------------------------------------------------


def lane_keeping_desired(x, params: BicycleParams = BicycleParams()) -> np.ndarray:
    """(-K_eta eta - K_theta sin theta, K_v (v_d - v)); traceable."""
    return np.asarray(
        [
            -params.k_eta * x[1] - params.k_theta * ad.sin(x[2]),
            params.k_v * (params.v_desired - x[3]),
        ]
    )


# -- scenarios ---------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A plant built from its parameters, with its run and scan defaults.

    The init fields are the scenario's inputs: ``params``, the initial
    state, horizon and step, and the scan's window, resolution and slice.
    ``system``, ``output``, ``desired``, ``gamma``, ``alpha_outer`` and
    ``assumption_states`` are built from ``params`` and the window in
    ``__post_init__``, so ``dataclasses.replace(scenario, params=...)``
    rebuilds them and ``replace`` refuses to set one of them.
    """

    name: ClassVar[str]

    params: object
    x0: np.ndarray
    horizon: float
    dt: float
    window: tuple
    resolution: tuple
    scan_slice: dict
    system: ControlAffineSystem = field(init=False, repr=False, compare=False)
    output: RelDeg2Output = field(init=False, repr=False, compare=False)
    desired: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False, compare=False)
    gamma: np.ndarray = field(init=False, repr=False, compare=False)
    alpha_outer: LinearClassK = field(init=False, repr=False, compare=False)
    assumption_states: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        inputs = dict(
            x0=np.asarray(self.x0, dtype=float),
            window=tuple(tuple(w) for w in self.window),
            resolution=tuple(self.resolution),
            scan_slice=dict(self.scan_slice),
        )
        for name, value in inputs.items():
            object.__setattr__(self, name, value)
        built = dict(self._build(), alpha_outer=LinearClassK(self.params.alpha_outer))
        for name, value in built.items():
            object.__setattr__(self, name, value)

    def _build(self) -> dict:
        """``system``, ``output``, ``desired``, ``gamma`` and ``assumption_states``."""
        raise NotImplementedError

    def _kappa(self) -> VirtualController:
        """The virtual controller of the backstepping constructions."""
        raise NotImplementedError

    def make_cbf(self, kind: str) -> CbfInstance:
        if kind not in CBF_KINDS:
            raise ValueError(f"unknown CBF kind {kind!r}")
        p = self.params
        alpha = LinearClassK(p.alpha_c)
        if kind == HOCBF:
            return cbf_mod.hocbf(self.output, alpha)
        mu = p.mu_for(kind)
        if kind == RECBF:
            return cbf_mod.recbf(self.output, alpha, ReQUActivation(mu), p.epsilon)
        if kind == BACKSTEPPING:
            return cbf_mod.backstepping(self.output, alpha, self._kappa(), mu)
        return cbf_mod.abc(self.output, alpha, self._kappa(), ReQUActivation(mu))

    def kernel_params_for(self, kind: str) -> tuple:
        """The kernel's parameter vector for ``kind``, as Python floats."""
        raise NotImplementedError

    def filter_spec(self) -> SafetyFilterSpec:
        return SafetyFilterSpec(desired=self.desired, gamma=self.gamma, alpha=self.alpha_outer)

    def sample_state(self, rng: np.random.Generator) -> np.ndarray:
        """A state drawn from the scenario's sampling region."""
        raise NotImplementedError

    def simulate(
        self,
        kind: str,
        x0=None,
        horizon: Optional[float] = None,
        dt: Optional[float] = None,
        blow_up_threshold: float = DEFAULT_BLOW_UP_THRESHOLD,
    ) -> Trajectory:
        """Closed-loop run of ``make_cbf(kind)`` under ``filter_spec()``, on
        the scalar kernels.

        The same run as :func:`cbftk.sim.simulate` with those arguments, on
        the scenario kernel in plain Python, which reads the construction,
        the filter and the plant from ``self.params``, as the scenario's own
        fields are built.  A kind, parameters or filter weights that
        ``make_cbf`` or ``filter_spec`` refuse are refused here too, and so
        are the ``x0``, ``horizon``, ``dt`` and ``blow_up_threshold`` that
        :func:`cbftk.sim.simulate` refuses.
        ``x0``, ``horizon`` and ``dt`` default to the scenario's own.

        The kernel gets ``x0``, ``dt``, the threshold and the parameters as
        Python floats, whatever number types the caller gave: on numpy
        scalars each of its scalar operations would run as ``np.float64``
        arithmetic, with the same bits at 2-3 times the cost per step.
        """
        self.make_cbf(kind)  # refuses the kinds and parameters the reference refuses
        self.filter_spec()  # and the filter's weights, which the kernel divides by
        code, params = kernels.KIND_CODES[kind], self.kernel_params_for(kind)
        x0 = _initial_state(self.x0 if x0 is None else x0, self.system.n).tolist()
        dt = float(self.dt if dt is None else dt)
        n_steps = _n_steps(self.horizon if horizon is None else horizon, dt)
        xs, us, hs, psis, ss, rows, exit_code = self._kernel_simulate(
            code, x0, n_steps, dt, params, _blow_up_threshold(blow_up_threshold)
        )
        return Trajectory(
            dt=dt,
            t=dt * np.arange(rows),
            x=xs[:rows].copy(),
            u=us[:rows].copy(),
            h=hs[:rows].copy(),
            psi=psis[:rows].copy(),
            s=ss[:rows].copy() if kind == ABC else None,
            exit_reason=kernels.EXIT_REASONS[exit_code],
            evaluation="kernel",
        )

    def scan(self, kind: str) -> analysis.GridScan:
        """Grid scan of ``make_cbf(kind)`` over the scenario's window.

        :func:`cbftk.analysis.grid_scan` with the scenario's system, window,
        resolution, ``state_from_axes`` and ``alpha_outer``.
        """
        return analysis.grid_scan(
            self.make_cbf(kind),
            self.system,
            self.window,
            self.resolution,
            state_from_axes=self.state_from_axes,
            alpha_outer=self.alpha_outer,
        )

    @property
    def resolved_slice(self) -> dict:
        """The fixed coordinates of the scan: ``scan_slice`` over the
        defaults of the coordinates it leaves out, resolved from ``params``
        when read, so that a replaced ``params`` moves the defaults."""
        return dict(self.scan_slice)

    def state_from_axes(self, axis_values):
        """Full state of one scan node (fills fixed slice coordinates): given
        the node's axis values, one entry per state component."""
        raise NotImplementedError


def _no_torque(x):
    return np.zeros(1)


@dataclass(frozen=True)
class PendulumScenario(Scenario):
    name: ClassVar[str] = "pendulum"

    def _build(self) -> dict:
        system = ControlAffineSystem(
            n=2,
            m=1,
            f=lambda x: [x[1], ad.sin(x[0])],
            g=lambda x: [[0.0], [1.0]],
        )
        output = RelDeg2Output(
            p=1,
            y=lambda x: [x[0]],
            ydot=lambda x: [x[1]],
            psi=lambda y: HALF_PI_SQ - y[0] * y[0],
            psi_grad=lambda y: [-2.0 * y[0]],
        )
        phis = np.linspace(*self.window[0], 9)
        omegas = np.linspace(*self.window[1], 9)
        return dict(
            system=system,
            output=output,
            desired=_no_torque,
            gamma=np.asarray([self.params.gamma], dtype=float),
            assumption_states=np.array([(a, b) for a in phis for b in omegas]),
        )

    def _kappa(self) -> VirtualController:
        return LinearGain(self.params.K, p=1)

    def kernel_params_for(self, kind: str) -> tuple:
        p: PendulumParams = self.params
        return tuple(
            float(v) for v in (p.alpha_c, p.alpha_outer, p.K, p.mu_for(kind), p.epsilon, p.gamma)
        )

    def sample_state(self, rng: np.random.Generator) -> np.ndarray:
        (phi_lo, phi_hi), (omega_lo, omega_hi) = self.window
        return np.asarray([rng.uniform(phi_lo, phi_hi), rng.uniform(omega_lo, omega_hi)])

    def state_from_axes(self, axis_values):
        return list(axis_values)

    def _kernel_simulate(self, code, x0, n_steps, dt, params, blow_up_threshold):
        return kernels.pend_simulate(code, x0[0], x0[1], n_steps, dt, params, blow_up_threshold)


def _clear_of_obstacle(p: BicycleParams, xi, eta) -> bool:
    """More than 0.5 m from the obstacle centre, where the checks sample."""
    dx = xi - p.obstacle_xi
    dy = eta - p.obstacle_eta
    return dx * dx + dy * dy > 0.25


@dataclass(frozen=True)
class BicycleScenario(Scenario):
    name: ClassVar[str] = "bicycle"

    def _build(self) -> dict:
        p: BicycleParams = self.params
        system = ControlAffineSystem(
            n=4,
            m=2,
            f=lambda x: [x[3] * ad.cos(x[2]), x[3] * ad.sin(x[2]), 0.0 * x[0], 0.0 * x[0]],
            g=lambda x: [
                [0.0, 0.0],
                [0.0, 0.0],
                [ad.scalar(x[3]) / p.wheelbase, 0.0],
                [0.0, 1.0],
            ],
        )

        def in_extended_set(x):
            dx = x[0] - p.obstacle_xi
            dy = x[1] - p.obstacle_eta
            return dx * dx + dy * dy >= 1e-18

        output = RelDeg2Output(
            p=2,
            y=lambda x: [x[0], x[1]],
            ydot=lambda x: [x[3] * ad.cos(x[2]), x[3] * ad.sin(x[2])],
            psi=lambda y: (y[0] - p.obstacle_xi) * (y[0] - p.obstacle_xi)
            + (y[1] - p.obstacle_eta) * (y[1] - p.obstacle_eta)
            - p.obstacle_radius**2,
            psi_grad=lambda y: [
                2.0 * (y[0] - p.obstacle_xi),
                2.0 * (y[1] - p.obstacle_eta),
            ],
            in_extended_set=in_extended_set,
        )
        assumption_states = [
            (a, b, c, d)
            for a in np.linspace(0.0, 40.0, 5)
            for b in np.linspace(-6.0, 6.0, 5)
            for c in (-0.5, 0.0, 0.5)
            for d in (0.1, 1.0, 5.0, 10.0)
            if _clear_of_obstacle(p, a, b)
        ]
        return dict(
            system=system,
            output=output,
            desired=lambda x: lane_keeping_desired(x, p),
            gamma=np.asarray([p.gamma1, p.gamma2], dtype=float),
            assumption_states=np.array(assumption_states),
        )

    def _kappa(self) -> VirtualController:
        p: BicycleParams = self.params
        return SmoothFilter(
            kappa_d=lambda y, vh=p.v_hat: [vh, 0.0 * y[1]],
            psi=self.output.psi,
            psi_grad=self.output.psi_grad,
            alpha_hat=LinearClassK(p.alpha_hat_c),
            sigma_hat=p.sigma_hat,
            p=2,
        )

    def kernel_params_for(self, kind: str) -> tuple:
        p: BicycleParams = self.params
        return tuple(
            float(v)
            for v in (
                p.wheelbase,
                p.v_desired,
                p.v_hat,
                p.obstacle_xi,
                p.obstacle_eta,
                p.obstacle_radius,
                p.k_eta,
                p.k_theta,
                p.k_v,
                p.gamma1,
                p.gamma2,
                p.alpha_hat_c,
                p.sigma_hat,
                p.mu,
                p.alpha_c,
                p.alpha_outer,
                p.epsilon,
            )
        )

    def sample_state(self, rng: np.random.Generator) -> np.ndarray:
        while True:
            x = np.asarray(
                [
                    rng.uniform(0.0, 40.0),
                    rng.uniform(-8.0, 8.0),
                    rng.uniform(-0.8, 0.8),
                    rng.uniform(0.5, 13.0),
                ]
            )
            if _clear_of_obstacle(self.params, x[0], x[1]):
                return x

    @property
    def resolved_slice(self) -> dict:
        """``scan_slice`` over heading 0 at ``params.v_desired``."""
        return {"theta": 0.0, "v": self.params.v_desired, **self.scan_slice}

    def state_from_axes(self, axis_values):
        fixed = self.resolved_slice
        return [axis_values[0], axis_values[1], fixed["theta"], fixed["v"]]

    def _kernel_simulate(self, code, x0, n_steps, dt, params, blow_up_threshold):
        return kernels.bike_simulate(
            code, x0[0], x0[1], x0[2], x0[3], n_steps, dt, params, blow_up_threshold
        )


def pendulum_scenario(
    params: PendulumParams = PendulumParams(),
    x0=(-1.2, 2.6),
    horizon: float = 10.0,
    dt: float = 1e-3,
    window=((-math.pi / 2.0, math.pi / 2.0), (-4.0, 4.0)),
    resolution=(401, 401),
) -> PendulumScenario:
    """Inverted pendulum scenario with published defaults.

    The default initial state exercises the safety filter from inside all
    four constructions' safe sets (the published phase plots do not state
    numerical initial conditions).
    """
    return PendulumScenario(params, x0, horizon, dt, window, resolution, scan_slice={})


def bicycle_scenario(
    params: BicycleParams = BicycleParams(),
    x0=(0.0, 0.5, 0.0, 3.0),
    horizon: float = 20.0,
    dt: float = 1e-3,
    window=((0.0, 40.0), (-8.0, 8.0)),
    resolution=(401, 401),
    scan_slice=None,
) -> BicycleScenario:
    """Kinematic bicycle scenario with the published parameter table.

    The published run does not state its initial condition.  The default
    here starts slightly off-lane at 3 m/s: slow enough that the actual
    output velocity is initially no less safe than the virtual
    controller's (so h = psi during the approach), and offset enough that
    the closed loop clears the obstacle and recovers the lane rather than
    braking to a standstill in front of it.  The scan slice defaults to
    heading 0 at the desired speed (:attr:`BicycleScenario.resolved_slice`).
    """
    return BicycleScenario(params, x0, horizon, dt, window, resolution, scan_slice or {})


def scenario_by_name(name: str, **kwargs) -> Scenario:
    if name == "pendulum":
        return pendulum_scenario(**kwargs)
    if name == "bicycle":
        return bicycle_scenario(**kwargs)
    raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}")
