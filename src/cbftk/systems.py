"""The two concrete plants: inverted pendulum and kinematic bicycle.

Each scenario bundles dynamics, the relative-degree-two output with its
constraint, the desired controller, default parameters and CBF factories.
Its ``simulate`` and ``scan`` methods run the published constructions on
the compiled kernels, and are the only callers of :mod:`cbftk.kernels` in
the library.

Pendulum: state (phi [rad], omega [rad/s]), torque input; the constraint
keeps the pendulum above the horizontal, psi(phi) = pi^2/4 - phi^2.

Bicycle: state (xi [m], eta [m], theta [rad], v [m/s]), inputs (steering
tangent, longitudinal acceleration); the constraint keeps the rear axle
outside a circular obstacle, psi = (xi - xi_o)^2 + (eta - eta_o)^2 - r_o^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from . import cbf as cbf_mod
from . import kernels
from .analysis import GridScan, _grid_axes, _node_array
from .cbf import ABC, BACKSTEPPING, CBF_KINDS, HOCBF, RECBF, CbfInstance
from .core import ControlAffineSystem, LinearClassK, RelDeg2Output, ReQUActivation
from .safety_filter import LAMBDA_EXACT, LinearGain, SafetyFilterSpec, SmoothFilter
from .sim import DEFAULT_BLOW_UP_THRESHOLD, Trajectory, _n_steps

__all__ = [
    "PendulumParams",
    "BicycleParams",
    "Scenario",
    "pendulum_scenario",
    "bicycle_scenario",
    "scenario_by_name",
    "pendulum_dynamics",
    "bicycle_dynamics",
    "pendulum_constraint",
    "bicycle_constraint",
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

    @property
    def alpha_outer(self) -> float:
        return self.alpha_c if self.alpha_outer_c is None else self.alpha_outer_c


# -- plant primitives --------------------------------------------------------


def pendulum_dynamics(x, u):
    """(phi_dot, omega_dot) = (omega, sin(phi) + u)."""
    return np.asarray([float(x[1]), math.sin(float(x[0])) + float(u[0])])


def bicycle_dynamics(x, u, wheelbase: float = 2.5):
    """Kinematic bicycle: (v cos th, v sin th, v u1 / L, u2)."""
    xi, eta, th, v = (float(c) for c in x)
    return np.asarray(
        [v * math.cos(th), v * math.sin(th), v * float(u[0]) / wheelbase, float(u[1])]
    )


def pendulum_constraint(phi) -> float:
    """psi(phi) = pi^2/4 - phi^2 (above the horizontal)."""
    phi = float(phi)
    return HALF_PI_SQ - phi * phi


def bicycle_constraint(y, params: BicycleParams = BicycleParams()) -> float:
    """Squared obstacle clearance: (xi-xi_o)^2 + (eta-eta_o)^2 - r_o^2."""
    dx = float(y[0]) - params.obstacle_xi
    dy = float(y[1]) - params.obstacle_eta
    return dx * dx + dy * dy - params.obstacle_radius**2


def lane_keeping_desired(x, params: BicycleParams = BicycleParams()) -> np.ndarray:
    """(-K_eta eta - K_theta sin theta, K_v (v_d - v))."""
    return np.asarray(
        [
            -params.k_eta * float(x[1]) - params.k_theta * math.sin(float(x[2])),
            params.k_v * (params.v_desired - float(x[3])),
        ]
    )


# -- scenarios ---------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A plant with its output, desired controller and defaults."""

    name: str
    system: ControlAffineSystem
    output: RelDeg2Output
    desired: Callable[[np.ndarray], np.ndarray]
    gamma: np.ndarray
    alpha_outer: LinearClassK
    x0: np.ndarray
    horizon: float
    dt: float
    window: tuple
    resolution: tuple
    scan_slice: dict
    params: object
    assumption_states: np.ndarray
    sample_state: Callable

    def make_cbf(self, kind: str) -> CbfInstance:
        raise NotImplementedError

    def kernel_params_for(self, kind: str) -> np.ndarray:
        raise NotImplementedError

    def filter_spec(self) -> SafetyFilterSpec:
        return SafetyFilterSpec(
            desired=self.desired,
            gamma=self.gamma,
            alpha=self.alpha_outer,
            lambda_kind=LAMBDA_EXACT,
        )

    def simulate(
        self,
        kind: str,
        x0=None,
        horizon: Optional[float] = None,
        dt: Optional[float] = None,
        blow_up_threshold: float = DEFAULT_BLOW_UP_THRESHOLD,
    ) -> Trajectory:
        """Closed-loop run of ``make_cbf(kind)`` under ``filter_spec()``, compiled.

        The same run as :func:`cbftk.sim.simulate` with those arguments, on
        the scenario kernel, which reads the construction, the filter and
        the plant from ``self.params`` alone.  ``x0``, ``horizon`` and
        ``dt`` default to the scenario's own.
        """
        code, params = self._kernel_args(kind)
        x0 = np.asarray(self.x0 if x0 is None else x0, dtype=float)
        if x0.shape != (self.system.n,):
            raise ValueError(f"x0 must have {self.system.n} components, got shape {x0.shape}")
        dt = self.dt if dt is None else dt
        n_steps = _n_steps(self.horizon if horizon is None else horizon, dt)
        xs, us, hs, psis, ss, rows, exit_code = self._kernel_simulate(
            code, x0, n_steps, dt, params, blow_up_threshold
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
        )

    def scan(self, kind: str) -> GridScan:
        """Grid scan of ``make_cbf(kind)`` over the scenario's window, compiled.

        The same scan as :func:`cbftk.analysis.grid_scan` at the scenario's
        window, resolution, ``state_from_axes`` and ``alpha_outer``, on the
        scenario kernel.
        """
        code, params = self._kernel_args(kind)
        axes = _grid_axes(self.window, self.resolution)
        # the nodes first: their temporaries are freed before the kernel allocates
        nodes = _node_array(axes, self.state_from_axes)
        h, psi, lgh_norm, margin, s, excluded = self._kernel_scan(code, axes, params)
        return GridScan(
            kind=kind,
            axes=axes,
            x=nodes,
            h=h,
            psi=psi,
            lgh_norm=lgh_norm,
            margin=margin,
            s=s if kind == ABC else None,
            excluded=excluded,
        )

    def _kernel_args(self, kind: str):
        self.make_cbf(kind)  # refuses the kinds and parameters the reference refuses
        return kernels.KIND_CODES[kind], self.kernel_params_for(kind)

    def state_from_axes(self, axis_values) -> np.ndarray:
        """Full state for a scan node (fills fixed slice coordinates)."""
        raise NotImplementedError

    def alpha_inner(self) -> LinearClassK:
        return LinearClassK(self.params.alpha_c)


@dataclass(frozen=True)
class PendulumScenario(Scenario):
    def kernel_params_for(self, kind: str) -> np.ndarray:
        p: PendulumParams = self.params
        return np.asarray(
            [p.alpha_c, p.alpha_outer, p.K, p.mu_for(kind), p.epsilon, p.gamma],
            dtype=float,
        )

    def make_cbf(self, kind: str) -> CbfInstance:
        if kind not in CBF_KINDS:
            raise ValueError(f"unknown CBF kind {kind!r}")
        p: PendulumParams = self.params
        alpha = LinearClassK(p.alpha_c)
        if kind == HOCBF:
            return cbf_mod.hocbf(self.output, alpha)
        if kind == RECBF:
            return cbf_mod.recbf(self.output, alpha, ReQUActivation(p.mu_recbf), p.epsilon)
        kappa = LinearGain(p.K, p=1)
        if kind == BACKSTEPPING:
            return cbf_mod.backstepping(self.output, alpha, kappa, p.mu_backstepping)
        return cbf_mod.abc(self.output, alpha, kappa, ReQUActivation(p.mu_abc))

    def state_from_axes(self, axis_values) -> np.ndarray:
        return np.asarray(axis_values, dtype=float)

    def _kernel_simulate(self, code, x0, n_steps, dt, params, blow_up_threshold):
        return kernels.pend_simulate(code, x0[0], x0[1], n_steps, dt, params, blow_up_threshold)

    def _kernel_scan(self, code, axes, params):
        h, psi, lgh_norm, margin, s = kernels.pend_scan(code, axes[0], axes[1], params)
        return h, psi, lgh_norm, margin, s, np.zeros(h.size, dtype=bool)


@dataclass(frozen=True)
class BicycleScenario(Scenario):
    def kernel_params_for(self, kind: str) -> np.ndarray:
        p: BicycleParams = self.params
        return np.asarray(
            [
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
            ],
            dtype=float,
        )

    def make_cbf(self, kind: str) -> CbfInstance:
        if kind not in CBF_KINDS:
            raise ValueError(f"unknown CBF kind {kind!r}")
        p: BicycleParams = self.params
        alpha = LinearClassK(p.alpha_c)
        if kind == HOCBF:
            return cbf_mod.hocbf(self.output, alpha)
        if kind == RECBF:
            return cbf_mod.recbf(self.output, alpha, ReQUActivation(p.mu), p.epsilon)
        kappa = SmoothFilter(
            kappa_d=lambda y, vh=p.v_hat: [vh, 0.0 * y[1]],
            psi=self.output.psi,
            psi_grad=self.output.psi_grad,
            alpha_hat=LinearClassK(p.alpha_hat_c),
            sigma_hat=p.sigma_hat,
            p=2,
        )
        if kind == BACKSTEPPING:
            return cbf_mod.backstepping(self.output, alpha, kappa, p.mu)
        return cbf_mod.abc(self.output, alpha, kappa, ReQUActivation(p.mu))

    def state_from_axes(self, axis_values) -> np.ndarray:
        return np.asarray(
            [axis_values[0], axis_values[1], self.scan_slice["theta"], self.scan_slice["v"]],
            dtype=float,
        )

    def _kernel_simulate(self, code, x0, n_steps, dt, params, blow_up_threshold):
        return kernels.bike_simulate(
            code, x0[0], x0[1], x0[2], x0[3], n_steps, dt, params, blow_up_threshold
        )

    def _kernel_scan(self, code, axes, params):
        theta = float(self.scan_slice["theta"])
        v = float(self.scan_slice["v"])
        h, psi, lgh_norm, margin, s, excluded = kernels.bike_scan(
            code, axes[0], axes[1], theta, v, params
        )
        return h, psi, lgh_norm, margin, s, np.asarray(excluded, dtype=bool)


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
    phis = np.linspace(window[0][0], window[0][1], 9)
    omegas = np.linspace(window[1][0], window[1][1], 9)
    assumption_states = np.array([(a, b) for a in phis for b in omegas])

    def sample_state(rng: np.random.Generator) -> np.ndarray:
        return np.asarray(
            [
                rng.uniform(window[0][0], window[0][1]),
                rng.uniform(window[1][0], window[1][1]),
            ]
        )

    return PendulumScenario(
        name="pendulum",
        system=system,
        output=output,
        desired=lambda x: np.zeros(1),
        gamma=np.asarray([params.gamma]),
        alpha_outer=LinearClassK(params.alpha_outer),
        x0=np.asarray(x0, dtype=float),
        horizon=horizon,
        dt=dt,
        window=tuple(tuple(w) for w in window),
        resolution=tuple(resolution),
        scan_slice={},
        params=params,
        assumption_states=assumption_states,
        sample_state=sample_state,
    )


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
    braking to a standstill in front of it.
    """
    p = params
    system = ControlAffineSystem(
        n=4,
        m=2,
        f=lambda x: [x[3] * ad.cos(x[2]), x[3] * ad.sin(x[2]), 0.0 * x[0], 0.0 * x[0]],
        g=lambda x: [
            [0.0, 0.0],
            [0.0, 0.0],
            [float(ad.scalar(x[3])) / p.wheelbase, 0.0],
            [0.0, 1.0],
        ],
    )

    def in_extended_set(x) -> bool:
        dx = float(x[0]) - p.obstacle_xi
        dy = float(x[1]) - p.obstacle_eta
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
    xis = np.linspace(0.0, 40.0, 5)
    etas = np.linspace(-6.0, 6.0, 5)
    thetas = (-0.5, 0.0, 0.5)
    vs = (0.1, 1.0, 5.0, 10.0)
    assumption_states = np.array(
        [
            (a, b, c, d)
            for a in xis
            for b in etas
            for c in thetas
            for d in vs
            if (a - p.obstacle_xi) ** 2 + (b - p.obstacle_eta) ** 2 > 0.25
        ]
    )

    def sample_state(rng: np.random.Generator) -> np.ndarray:
        while True:
            x = np.asarray(
                [
                    rng.uniform(0.0, 40.0),
                    rng.uniform(-8.0, 8.0),
                    rng.uniform(-0.8, 0.8),
                    rng.uniform(0.5, 13.0),
                ]
            )
            dx = x[0] - p.obstacle_xi
            dy = x[1] - p.obstacle_eta
            if dx * dx + dy * dy > 0.25:
                return x

    return BicycleScenario(
        name="bicycle",
        system=system,
        output=output,
        desired=lambda x: lane_keeping_desired(x, p),
        gamma=np.asarray([p.gamma1, p.gamma2]),
        alpha_outer=LinearClassK(p.alpha_outer),
        x0=np.asarray(x0, dtype=float),
        horizon=horizon,
        dt=dt,
        window=tuple(tuple(w) for w in window),
        resolution=tuple(resolution),
        scan_slice=dict(scan_slice or {"theta": 0.0, "v": p.v_desired}),
        params=params,
        assumption_states=assumption_states,
        sample_state=sample_state,
    )


def scenario_by_name(name: str, **kwargs) -> Scenario:
    if name == "pendulum":
        return pendulum_scenario(**kwargs)
    if name == "bicycle":
        return bicycle_scenario(**kwargs)
    raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}")
