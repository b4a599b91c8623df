"""Closed-form safety filters and virtual controllers.

The safety filter minimally modifies a desired controller subject to the
barrier inequality hdot(x, u) >= -alpha(h(x)).  For a single constraint
the minimizer of the Gamma-weighted quadratic program is available in
closed form:

    k(x) = k_d(x) + lambda(a, ||b||^2_Gamma) * b,
    a = L_f h + L_g h k_d + alpha(h),   b = Gamma^-1 L_g h^T,

with ``lambda_exact`` the exact multiplier, which the outer control loop
always uses.  Its smooth strict over-approximation ``lambda_half_sontag``
builds the smooth virtual controller kappa for the single integrator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .core import AssumptionReport, DomainError, LinearClassK, _states, directional, per_node, sampled

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

def lambda_exact(a, b):
    """Exact QP multiplier: 0 if b <= 0, else max(0, -a/b).

    Selects with :func:`cbftk.autodiff.where`, so that it can be traced; 1
    stands in for a b <= 0 that is then not used.
    """
    positive = b > 0.0
    ratio = -a / ad.where(positive, b, 1.0)
    return ad.where(positive & (ratio > 0.0), ratio, 0.0)


def lambda_half_sontag(a, b, sigma: float):
    """Half-Sontag multiplier: 0 if b = 0, else (-a + sqrt(a^2 + sigma b^2)) / (2b).

    Smooth in (a, b) away from b = 0 and strictly feasible: a + lambda*b > 0
    whenever b > 0.  Recovers :func:`lambda_exact` as sigma -> 0.  Accepts
    Dual operands so it can sit inside differentiated fields, and batches,
    where b = 1 stands in for the elements with b = 0 before they are
    replaced by 0.
    """
    if not sigma > 0.0:
        raise ValueError(f"half-Sontag smoothing sigma must be positive, got {sigma}")
    zero = ad.scalar(b) == 0.0
    safe = ad.where(zero, 1.0, b)
    return ad.where(zero, 0.0 * b, (-a + ad.sqrt(a * a + sigma * (safe * safe))) / (2.0 * safe))


@dataclass(frozen=True)
class SafetyFilterSpec:
    """Desired controller and input weights of the exact-multiplier filter.

    ``gamma`` is the positive diagonal of the input cost, a read-only copy
    (the generated step of :func:`cbftk.sim.simulate` holds its values);
    ``alpha`` the (outer) extended class-K gain enforcing hdot >= -alpha(h).
    """

    desired: Callable[[np.ndarray], Sequence]
    gamma: np.ndarray
    alpha: LinearClassK

    def __post_init__(self):
        gamma = np.array(self.gamma, dtype=float, ndmin=1)
        if np.any(gamma <= 0.0):
            raise ValueError("all Gamma weights must be positive")
        gamma.setflags(write=False)
        object.__setattr__(self, "gamma", gamma)


def safety_filter(spec: SafetyFilterSpec, instance, system, x) -> np.ndarray:
    """Filtered input at ``x`` for the given CBF instance.

    k_d(x) + lambda_exact(a, ||b||^2_Gamma) b: k_d(x) unchanged when
    L_g h(x) = 0 or when the desired controller already satisfies the
    barrier inequality.  h and its gradient come from
    ``instance.value_and_gradient`` on Duals, which refuses a state outside
    the extended set with a DomainError.  The three dot products are
    :func:`cbftk.autodiff.dot`, summed in index order, on floats and in the
    generated step of :func:`cbftk.sim.simulate` alike.
    """
    return _filtered(spec, instance, system, ad.array(x))


def _filtered(spec: SafetyFilterSpec, instance, system, x):
    """The body of :func:`safety_filter` at the array ``x`` of floats, or of
    traced floats in the step :func:`cbftk.sim.simulate` generates; the
    trace calls it, so that a wrapper of the public function (a profiler's,
    say) sees only calls on floats."""
    h, hgrad = instance.value_and_gradient(x)
    lfh = ad.dot(hgrad, system.f_vec(x))
    lgh = ad.dot(hgrad, system.g_mat(x))
    kd = ad.array(spec.desired(x))
    a = lfh + ad.dot(lgh, kd) + spec.alpha(h)
    b = lgh / spec.gamma
    return kd + lambda_exact(a, ad.dot(lgh, b)) * b  # ||b||^2_Gamma = lgh . b


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
    e.g. the obstacle center, where it raises :class:`DomainError` (naming
    the first such element of a batch).
    """

    kappa_d: Callable[[Sequence], Sequence]
    psi: Callable[[Sequence], object]
    psi_grad: Callable[[Sequence], Sequence]
    alpha_hat: LinearClassK
    sigma_hat: float
    p: int = 2

    def __post_init__(self):
        if not self.sigma_hat > 0.0:
            raise ValueError(f"half-Sontag smoothing sigma must be positive, got {self.sigma_hat}")

    def __call__(self, y):
        b = self.psi_grad(y)
        kd = self.kappa_d(y)
        a = directional(b, kd) + self.alpha_hat(self.psi(y))
        bb = directional(b, b)
        singular = (ad.scalar(bb) < 1e-20) & (ad.scalar(a) < 0.0)
        if ad.failed(singular):
            raise DomainError(
                "virtual controller is undefined at a constrained singular point "
                "(psi_grad = 0 with negative margin; e.g. the obstacle center)",
                ad.first(singular),
            )
        lam = lambda_half_sontag(a, bb, self.sigma_hat)
        return [kd[i] + lam * b[i] for i in range(self.p)]


def virtual_kappa(vc: VirtualController, y) -> np.ndarray:
    """Evaluate a virtual controller at an output point."""
    return np.asarray([ad.scalar(v) for v in vc(y)], dtype=float)


def check_virtual_controller(
    vc: VirtualController,
    output,
    system,
    alpha: LinearClassK,
    states,
    margin: float = 1e-10,
):
    """Sampled single-integrator safety: psi_dot(y, kappa(y)) > -alpha(psi(y)).

    Returns a :class:`cbftk.core.AssumptionReport`.  Batched as
    :func:`cbftk.core.check_relative_degree`, with ``vc`` elementwise;
    ``states`` must hold ``system.n`` components per row.
    """
    rows = _states(states, system.n)

    def evaluate(xs):
        y = per_node(output.y, xs, "y", (output.p,))
        kv = per_node(vc, y, "virtual controller", (output.p,))
        # summed from 0.0, so that a total of -0.0 reads 0.0 in a message
        psidot = 0.0 + directional(per_node(output.psi_grad, y, "psi_grad", (output.p,)), kv)
        bound = -alpha(per_node(output.psi, y, "psi"))
        failed = np.flatnonzero(~(psidot > bound + margin))
        return [(j, f"psi_dot(y, kappa) = {psidot[j]:.6e} <= {bound[j]:.6e}") for j in failed]

    return AssumptionReport("virtual controller safety", len(rows), sampled(evaluate, rows))
