"""The four CBF constructions for relative-degree-two constraints.

Given an output y with constraint psi(y) >= 0 and relative degree two,
each construction produces a scalar field h whose zero-superlevel set is
the candidate safe set:

* high-order:     h = psi_dot + alpha(psi)
* rectified:      h = psi - Theta(epsilon - r),      r = psi_dot + alpha(psi)
* backstepping:   h = psi - ||ydot - kappa(y)||^2 / (2 mu)
* activated backstepping: h = psi - Theta(-s),       s = psi_grad . (ydot - kappa(y))

with Theta the ReQU activation.  The switching function s measures whether
the output currently evolves at least as safely as the virtual controller
kappa; wherever s >= 0 the activated construction coincides with psi
exactly and its input direction L_g h vanishes.

Values and gradients are evaluated at one state through the forward-mode
AD layer, so they remain exact through kappa and the activations; the
scans and checks run the same definitions as lanes of their traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .core import (
    DomainError,
    LinearClassK,
    RelDeg2Output,
    ReQUActivation,
    _states,
    at_states,
    directional,
    lie_g,
)
from .safety_filter import VirtualController

__all__ = [
    "HOCBF",
    "RECBF",
    "BACKSTEPPING",
    "ABC",
    "CBF_KINDS",
    "CbfInstance",
    "hocbf",
    "recbf",
    "backstepping",
    "abc",
    "recbf_validity_condition",
    "ValidityConditionReport",
]

HOCBF = "hocbf"
RECBF = "recbf"
BACKSTEPPING = "backstepping"
ABC = "abc"
CBF_KINDS = (HOCBF, RECBF, BACKSTEPPING, ABC)


@dataclass(frozen=True)
class CbfInstance:
    """One CBF construction bound to an output map and its parameters."""

    kind: str
    output: RelDeg2Output
    alpha: LinearClassK
    theta: Optional[ReQUActivation] = None
    mu: Optional[float] = None
    epsilon: Optional[float] = None
    kappa: Optional[VirtualController] = None

    def __post_init__(self):
        if self.kind not in CBF_KINDS:
            raise ValueError(f"unknown CBF kind {self.kind!r}")
        if self.kind == RECBF:
            if self.theta is None or self.epsilon is None or self.epsilon < 0.0:
                raise ValueError("rectified CBF needs an activation and epsilon >= 0")
        if self.kind == BACKSTEPPING and (self.mu is None or not self.mu > 0.0 or self.kappa is None):
            raise ValueError("backstepping CBF needs mu > 0 and a virtual controller")
        if self.kind == ABC and (self.theta is None or self.kappa is None):
            raise ValueError("activated backstepping CBF needs an activation and a virtual controller")

    # -- scalar field --------------------------------------------------

    def _check_domain(self, x):
        xv = ad.array([ad.scalar(v) for v in x])
        if not ad.holds(self.output.in_extended_set(xv), "domain"):
            raise DomainError(f"state {xv} is outside the extended set")

    def residual(self, x):
        """r = psi_dot + alpha(psi); the high-order construction's value."""
        out = self.output
        return out.psi_dot(x) + self.alpha(out.psi_of_state(x))

    def switching(self, x):
        """s = psi_grad(y) . (ydot - kappa(y)); needs a virtual controller."""
        if self.kappa is None:
            raise ValueError(f"{self.kind} CBF has no virtual controller / switching function")
        out = self.output
        yv = out.y(x)
        return directional(out.psi_grad(yv), self._velocity_error(x, yv))

    def _velocity_error(self, x, yv):
        """ydot - kappa(y), componentwise."""
        dv = self.output.ydot(x)
        kv = self.kappa(yv)
        return [dv[i] - kv[i] for i in range(self.output.p)]

    def value(self, x):
        """h(x) at one state; accepts floats or Duals componentwise."""
        self._check_domain(x)
        out = self.output
        if self.kind == HOCBF:
            return self.residual(x)
        psi = out.psi_of_state(x)
        if self.kind == RECBF:
            return psi - self.theta(self.epsilon - self.residual(x))
        if self.kind == BACKSTEPPING:
            error = self._velocity_error(x, out.y(x))
            return psi - directional(error, error) / (2.0 * self.mu)
        return psi - self.theta(-self.switching(x))

    def value_and_gradient(self, x):
        """h and its exact gradient at one state (n,), on Duals:
        :func:`cbftk.autodiff.value_and_grad` of :meth:`value`.

        A traced state (see :class:`cbftk.autodiff.Traced`) runs on traced
        Duals, which is how the generated step of :func:`cbftk.sim.simulate`
        gets h and its gradient.
        """
        return ad.value_and_grad(self.value, ad.array(x))

    def gradient(self, x) -> np.ndarray:
        """Exact gradient of h at x via forward-mode AD."""
        return self.value_and_gradient(x)[1]


def hocbf(output, alpha) -> CbfInstance:
    return CbfInstance(HOCBF, output, alpha)


def recbf(output, alpha, theta, epsilon) -> CbfInstance:
    return CbfInstance(RECBF, output, alpha, theta=theta, epsilon=epsilon)


def backstepping(output, alpha, kappa, mu) -> CbfInstance:
    return CbfInstance(BACKSTEPPING, output, alpha, mu=mu, kappa=kappa)


def abc(output, alpha, kappa, theta) -> CbfInstance:
    return CbfInstance(ABC, output, alpha, theta=theta, kappa=kappa)


# -- rectified-CBF validity condition ----------------------------------------


@dataclass
class ValidityConditionReport:
    """Witnesses of the rectified construction's validity condition.

    A witness is a sampled state where the constraint's input coupling
    L_g L_f psi vanishes but the residual r = psi_dot + alpha(psi) falls
    below epsilon.  An empty report means the condition holds on the grid.
    """

    epsilon: float
    n_checked: int
    witnesses: list

    @property
    def ok(self) -> bool:
        return not self.witnesses

    def __str__(self):
        if self.ok:
            return (
                f"rectified validity condition: pass over {self.n_checked} states "
                f"(epsilon = {self.epsilon:g})"
            )
        x, r = self.witnesses[0]
        return (
            f"rectified validity condition: FAIL at {len(self.witnesses)} of "
            f"{self.n_checked} states (epsilon = {self.epsilon:g}); e.g. "
            f"x = {np.array2string(x, precision=4)} has r = {r:.4f} < {self.epsilon:g}"
        )


def recbf_validity_condition(instance: CbfInstance, system, states) -> ValidityConditionReport:
    """Check L_g L_f psi = 0  =>  psi_dot + alpha(psi) >= epsilon over a grid.

    L_g L_f psi = 0 where each entry is below 1e-8 in magnitude.  ``states``
    must hold ``system.n`` components per row.  L_g L_f psi and, where it
    vanishes, the residual run as lanes (:func:`cbftk.core.at_states`);
    witnesses keep the order of ``states``.
    """
    if instance.kind != RECBF:
        raise ValueError("validity condition applies to rectified CBFs")
    rows = _states(states, system.n)
    coupling = at_states(lambda x: lie_g(instance.output.psi_dot, system, x), rows).reshape(system.m, -1)
    # the residual only where the coupling vanishes
    uncoupled = np.flatnonzero(np.max(np.abs(coupling), axis=0) < 1e-8)
    r = at_states(lambda x: [instance.residual(x)], rows[uncoupled], uncoupled).reshape(-1)
    witnesses = [(rows[i].copy(), float(ri)) for i, ri in zip(uncoupled, r) if ri < instance.epsilon]
    return ValidityConditionReport(instance.epsilon, len(rows), witnesses)
