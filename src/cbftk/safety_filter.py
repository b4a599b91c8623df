"""Closed-form safety filters and virtual controllers.

The safety filter minimally modifies a desired controller subject to the
barrier inequality hdot(x, u) >= -alpha(h(x)).  For a single constraint
the minimizer of the Gamma-weighted quadratic program is available in
closed form:

    k(x) = k_d(x) + lambda(a, ||b||^2_Gamma) * b,
    a = L_f h + L_g h k_d + alpha(h),   b = Gamma^-1 L_g h^T,

with ``lambda_exact`` the exact multiplier and ``lambda_half_sontag`` its
smooth strict over-approximation.  The half-Sontag variant is what builds
the smooth virtual controller kappa for the single integrator; the outer
control loop uses the exact multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .core import DomainError, LinearClassK

__all__ = [
    "lambda_exact",
    "lambda_half_sontag",
    "SafetyFilterSpec",
    "safety_filter",
    "VirtualController",
    "LinearGain",
    "SmoothFilter",
    "virtual_kappa",
    "check_virtual_controller",
]

LAMBDA_EXACT = "exact"
LAMBDA_HALF_SONTAG = "half_sontag"


def lambda_exact(a: float, b: float) -> float:
    """Exact QP multiplier: 0 if b <= 0, else max(0, -a/b)."""
    if b <= 0.0:
        return 0.0
    return max(0.0, -a / b)


def lambda_half_sontag(a, b, sigma: float):
    """Half-Sontag multiplier: 0 if b = 0, else (-a + sqrt(a^2 + sigma b^2)) / (2b).

    Smooth in (a, b) away from b = 0 and strictly feasible: a + lambda*b > 0
    whenever b > 0.  Recovers :func:`lambda_exact` as sigma -> 0.  Accepts
    Dual operands so it can sit inside differentiated fields.
    """
    if not sigma > 0.0:
        raise ValueError(f"half-Sontag smoothing sigma must be positive, got {sigma}")
    if ad.scalar(b) == 0.0:
        return 0.0 * b if isinstance(b, ad.Dual) else 0.0
    return (-a + ad.sqrt(a * a + sigma * (b * b))) / (2.0 * b)


@dataclass(frozen=True)
class SafetyFilterSpec:
    """Desired controller, input weights and multiplier variant.

    ``gamma`` is the positive diagonal of the input cost; ``alpha`` the
    (outer) extended class-K gain enforcing hdot >= -alpha(h).
    """

    desired: Callable[[np.ndarray], Sequence]
    gamma: np.ndarray
    alpha: LinearClassK
    lambda_kind: str = LAMBDA_EXACT
    sigma: Optional[float] = None

    def __post_init__(self):
        gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        if np.any(gamma <= 0.0):
            raise ValueError("all Gamma weights must be positive")
        object.__setattr__(self, "gamma", gamma)
        if self.lambda_kind not in (LAMBDA_EXACT, LAMBDA_HALF_SONTAG):
            raise ValueError(f"unknown lambda kind {self.lambda_kind!r}")
        if self.lambda_kind == LAMBDA_HALF_SONTAG and not (self.sigma or 0.0) > 0.0:
            raise ValueError("half-Sontag filter needs sigma > 0")


def safety_filter(spec: SafetyFilterSpec, instance, system, x) -> np.ndarray:
    """Filtered input at ``x`` for the given CBF instance.

    Returns k_d(x) unchanged when L_g h(x) = 0 or (exact multiplier)
    when the desired controller already satisfies the barrier inequality.
    """
    x = np.asarray(x, dtype=float)
    if not instance.output.in_extended_set(x):
        raise DomainError(f"state {x} is outside the extended set")
    h, hgrad = instance.value_and_gradient(x)
    lfh = float(hgrad @ system.f_vec(x))
    lgh = hgrad @ system.g_mat(x)
    kd = np.asarray(spec.desired(x), dtype=float)
    a = lfh + float(lgh @ kd) + spec.alpha(h)
    b = lgh / spec.gamma
    bb = float(lgh @ b)  # ||b||^2_Gamma
    if spec.lambda_kind == LAMBDA_EXACT:
        lam = lambda_exact(a, bb)
    else:
        lam = lambda_half_sontag(a, bb, spec.sigma)
    return kd + lam * b


# -- virtual controllers for the single integrator ydot = u_y ---------------


class VirtualController:
    """Smooth controller kappa(y) for the single integrator.

    Safe in the sense that psi_dot(y, kappa(y)) > -alpha(psi(y)) on the
    scenario region; validated sampled-wise by
    :func:`check_virtual_controller`.
    """

    p: int

    def __call__(self, y):  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class LinearGain(VirtualController):
    """kappa(y) = -K y componentwise."""

    gain: float
    p: int = 1

    def __call__(self, y):
        return [-self.gain * y[i] for i in range(self.p)]


@dataclass(frozen=True)
class SmoothFilter(VirtualController):
    """Half-Sontag safety filter of a desired output velocity.

    kappa(y) = kappa_d(y) + lambda(a, ||b||^2) b  with  b = psi_grad(y) and
    a = psi_grad(y) . kappa_d(y) + alpha_hat(psi(y)); unit weights.
    Undefined at constrained singular points (psi_grad = 0 with a < 0),
    e.g. the obstacle center.
    """

    kappa_d: Callable[[Sequence], Sequence]
    psi: Callable[[Sequence], object]
    psi_grad: Callable[[Sequence], Sequence]
    alpha_hat: LinearClassK
    sigma_hat: float
    p: int = 2

    def __call__(self, y):
        b = self.psi_grad(y)
        kd = self.kappa_d(y)
        a = b[0] * kd[0]
        bb = b[0] * b[0]
        for i in range(1, self.p):
            a = a + b[i] * kd[i]
            bb = bb + b[i] * b[i]
        a = a + self.alpha_hat(self.psi(y))
        if ad.scalar(bb) < 1e-20 and ad.scalar(a) < 0.0:
            raise DomainError(
                "virtual controller is undefined at a constrained singular point "
                "(psi_grad = 0 with negative margin; e.g. the obstacle center)"
            )
        lam = lambda_half_sontag(a, bb, self.sigma_hat)
        return [kd[i] + lam * b[i] for i in range(self.p)]


def virtual_kappa(vc: VirtualController, y) -> np.ndarray:
    """Evaluate a virtual controller at an output point."""
    return np.asarray([ad.scalar(v) for v in vc(y)], dtype=float)


def check_virtual_controller(
    vc: VirtualController,
    output,
    alpha: LinearClassK,
    states,
    margin: float = 1e-10,
):
    """Sampled single-integrator safety: psi_dot(y, kappa(y)) > -alpha(psi(y)).

    Returns an :class:`cbftk.core.AssumptionReport`-style (ok, failures).
    """
    from .core import AssumptionReport

    failures = []
    states = np.atleast_2d(np.asarray(states, dtype=float))
    for x in states:
        yv = [float(v) for v in output.y(x)]
        kv = vc(yv)
        gv = output.psi_grad(yv)
        psidot = sum(float(gv[i]) * ad.scalar(kv[i]) for i in range(output.p))
        bound = -alpha(float(output.psi(yv)))
        if not psidot > bound + margin:
            failures.append((x.copy(), f"psi_dot(y, kappa) = {psidot:.6e} <= {bound:.6e}"))
    return AssumptionReport("virtual controller safety", len(states), failures)
