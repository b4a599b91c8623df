"""Domain vocabulary: control-affine systems, relative-degree-two outputs,
constraint functions, linear extended class-K functions, ReQU activations,
and Lie-derivative helpers.

The sampled assumption checks here are validation aids, not proofs: they
run the relative-degree and constraint-regularity conditions over
scenario-declared state sets.  Each spells out its quantities at one
state; :func:`at_states` traces them once and runs the states as numpy
lanes of the trace, with the states the lanes flag on the quantities
themselves (:func:`by_lanes`, which the grid scans use too).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import directional

__all__ = [
    "LinearClassK",
    "ReQUActivation",
    "ControlAffineSystem",
    "RelDeg2Output",
    "DomainError",
    "at_states",
    "by_lanes",
    "directional",
    "lie_f",
    "lie_g",
    "lie_derivatives",
    "AssumptionReport",
    "check_relative_degree",
    "check_constraint_regularity",
    "check_output_consistency",
]


class DomainError(ValueError):
    """A state (or output point) lies outside the declared domain.

    ``index`` is None, or the position of the state among those evaluated
    together, where :func:`by_lanes` raises it.
    """

    index = None


def by_lanes(traced: ad.Traced, states, index):
    """The outputs of ``traced`` at K states, shape (k, K), and None or the
    reason the first node ran on ``traced.function``.

    ``states`` holds the components of the states: an array of shape
    (n, K), one state per column, or n arrays that broadcast to a shape of
    K elements, such as a sparse grid, with the states in its C order.
    They run as lanes of ``traced`` (:meth:`cbftk.autodiff.Traced.lanes`).
    A node whose lane has a guard that fired or an output that is not
    finite runs on ``traced.function`` at its floats instead, the reference
    path, and so does every node where the lanes did not run.  Lanes are
    independent, so the other nodes keep their lane outputs.  The nodes on
    the reference path run in order; the first that raises raises its
    exception, of its own type, with ``index`` its entry of ``index`` and
    its state named.
    """
    shape = states.shape[1:] if isinstance(states, np.ndarray) else np.broadcast(*states).shape
    count = math.prod(shape)
    found = traced.lanes(*states)
    outputs, flagged, reason = None, range(count), found
    if found.__class__ is not str:
        bad, lanes = found
        outputs = np.empty((len(lanes), *shape))
        for row, lane in zip(outputs, lanes):
            row[...] = lane
        outputs = outputs.reshape(len(lanes), count)
        flagged = np.flatnonzero(bad | ~np.isfinite(outputs).all(axis=0).reshape(shape))
        reason = None
    if len(flagged):
        nodes = np.array(np.broadcast_arrays(*states)).reshape(len(states), count)
        if reason is None:
            state = nodes[:, flagged[0]]
            said = traced(*state.tolist())
            reason = f"{said if said.__class__ is str else 'non-finite output'} at state {state}"
    for j in flagged:
        state = nodes[:, j]
        try:
            alone = traced.function(state.tolist())
        except Exception as exc:
            exc.index = int(index[j])
            exc.args = (f"{exc} at state {state}",)
            raise
        if outputs is None:
            outputs = np.empty((len(alone), count))
        outputs[:, j] = alone
    return np.empty((0, count)) if outputs is None else outputs, reason


def at_states(quantities, states, index=None) -> np.ndarray:
    """``quantities`` at each row of ``states`` (shape (N, n)), shape (k, N).

    ``quantities`` maps the components of one state, an object array, to k
    floats.  It is traced once and run over blocks of
    :data:`cbftk.autodiff.BLOCK_NODES` states by :func:`by_lanes`, each
    holding just the arrays it has yet to read; an error names the row's
    entry of ``index`` (the row itself by default).  Where no state runs and
    the trace failed, k is 0.
    """
    traced = ad.Traced(lambda x: quantities(np.array(x, dtype=object)), states.shape[1])
    index = np.arange(len(states)) if index is None else index
    found = [by_lanes(traced, states[block].T, index[block])[0] for block in ad.blocks(len(states))]
    return np.concatenate(found, axis=1) if found else np.empty((traced.outputs, 0))


@dataclass(frozen=True)
class LinearClassK:
    """Linear extended class-K function alpha(r) = gain * r, gain > 0 [1/s].

    Both case studies use linear gains; the callable interface leaves room
    for other strictly increasing alpha(0) = 0 shapes, but only the linear
    family ships.
    """

    gain: float

    def __post_init__(self):
        if not self.gain > 0.0:
            raise ValueError(f"class-K gain must be positive, got {self.gain}")

    def __call__(self, r):
        return self.gain * r


@dataclass(frozen=True)
class ReQUActivation:
    """Rectified quadratic activation Theta(s) = ReQU(s) / (2 mu), mu > 0.

    C^1 everywhere, with Theta(s) = 0 and Theta'(s) = 0 exactly for s <= 0.
    """

    mu: float

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ValueError(f"activation scale mu must be positive, got {self.mu}")

    def __call__(self, s):
        return ad.requ(s) / (2.0 * self.mu)


@dataclass(frozen=True)
class ControlAffineSystem:
    """Dynamics xdot = f(x) + g(x) u with AD-traceable drift and input map.

    ``f`` maps one state (a sequence of floats, Duals or traced floats) to a
    length-n sequence; ``g`` maps it to an n x m nested sequence.
    """

    n: int
    m: int
    f: Callable[[Sequence], Sequence]
    g: Callable[[Sequence], Sequence]

    def f_vec(self, x) -> np.ndarray:
        return ad.array(self.f(x))

    def g_mat(self, x) -> np.ndarray:
        return ad.array(self.g(x)).reshape(self.n, self.m)


@dataclass(frozen=True)
class RelDeg2Output:
    """Output map of relative degree two with its constraint function.

    ``y`` selects the safety-relevant coordinates, ``ydot`` is its drift
    derivative L_f y spelled out explicitly (so that CBFs composing ydot
    stay first-order AD-traceable), ``psi`` is the constraint function over
    output space and ``psi_grad`` its explicit gradient.  ``ydot`` and
    ``psi_grad`` are redundant with ``y``/``psi`` by construction;
    :func:`check_output_consistency` validates them against AD.

    ``in_extended_set`` is the predicate for the open set E on which the
    relative-degree and regularity assumptions are declared: given one
    state as an array, its truth value says whether the state is in E.
    Like the other callables it need only work at one state.
    """

    p: int
    y: Callable[[Sequence], Sequence]
    ydot: Callable[[Sequence], Sequence]
    psi: Callable[[Sequence], object]
    psi_grad: Callable[[Sequence], Sequence]
    in_extended_set: Callable[[np.ndarray], bool] = field(default=lambda x: True)

    def psi_of_state(self, x):
        return self.psi(self.y(x))

    def psi_dot(self, x):
        """d/dt psi(y(x)) along the drift: psi_grad(y) . ydot."""
        yv = self.y(x)
        return directional(self.psi_grad(yv), self.ydot(x))


# -- Lie derivatives --------------------------------------------------------


def lie_f(field, system: ControlAffineSystem, x) -> float:
    """L_f field (x) = grad(field, x) . f(x), summed in index order."""
    return float(ad.dot(ad.grad(field, x), system.f_vec(x)))


def lie_g(field, system: ControlAffineSystem, x) -> np.ndarray:
    """L_g field (x) = grad(field, x) . g(x), a row of length m summed in index order."""
    return ad.dot(ad.grad(field, x), system.g_mat(x))


def lie_derivatives(field, system: ControlAffineSystem, x):
    """(value, L_f field, L_g field) from a single gradient evaluation."""
    value, g = ad.value_and_grad(field, x)
    return value, float(ad.dot(g, system.f_vec(x))), ad.dot(g, system.g_mat(x))


# -- sampled assumption checks ----------------------------------------------


@dataclass
class AssumptionReport:
    name: str
    n_checked: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self):
        status = "pass" if self.ok else f"FAIL ({len(self.failures)} states)"
        return f"{self.name}: {status} over {self.n_checked} sampled states"


def _states(states, n: int) -> np.ndarray:
    """``states`` as an (N, n) array; refuses any other shape."""
    given = np.asarray(states, dtype=float)
    rows = np.atleast_2d(given)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"states must hold {n} components each, got shape {given.shape}")
    return rows


def check_relative_degree(output: RelDeg2Output, system: ControlAffineSystem, states) -> AssumptionReport:
    """Sampled relative-degree-two check: L_g y = 0 and L_g L_f y full rank.

    ``states`` must hold ``system.n`` components per row; they run as lanes
    (:func:`at_states`).  L_g y = 0 where each entry is below 1e-10 in
    magnitude, and only there is L_g L_f y evaluated; it has full rank where
    the smallest singular value of the p x m matrix exceeds 1e-8.  A NaN fails.
    """
    rows = _states(states, system.n)
    p, m = output.p, system.m

    def lie_g_rows(field):
        """L_g of the p components of ``field`` at one state, p x m entries."""
        return lambda x: [v for i in range(p) for v in lie_g(lambda z: field(z)[i], system, x)]

    lgy = np.max(np.abs(at_states(lie_g_rows(output.y), rows).reshape(p * m, -1)), axis=0)
    vanishes = lgy < 1e-10
    passed = np.flatnonzero(vanishes)
    lglfy = at_states(lie_g_rows(output.ydot), rows[passed], passed).T.reshape(-1, p, m)
    finite = np.isfinite(lglfy).all(axis=(1, 2))
    smin = np.full(passed.size, np.nan)
    smin[finite] = np.linalg.svd(lglfy[finite], compute_uv=False)[:, -1]
    failures = [(j, f"L_g y nonzero (max |entry| {lgy[j]:.3e})") for j in np.flatnonzero(~vanishes)]
    failures += [(j, f"L_g L_f y rank-deficient (sigma_min {s:.3e})") for j, s in zip(passed, smin) if not s > 1e-8]
    return AssumptionReport("relative degree two", len(rows), _failures(rows, failures))


def check_constraint_regularity(output: RelDeg2Output, system: ControlAffineSystem, states) -> AssumptionReport:
    """Sampled regularity check: psi_grad = 0 (a norm below 1e-10) only
    where psi > 0.  The states run as in :func:`check_relative_degree`;
    ``states`` must hold ``system.n`` components per row; a NaN fails."""
    rows = _states(states, system.n)
    p = output.p

    def quantities(x):
        y = output.y(x)
        grad = output.psi_grad(y)
        return [output.psi(y), *(grad[i] for i in range(p))]

    psi, *grad = at_states(quantities, rows).reshape(1 + p, -1)
    stationary = ~(np.sqrt(directional(grad, grad)) >= 1e-10) & ~(psi > 0.0)
    failures = [(j, f"stationary output point with psi = {psi[j]:.3e} <= 0") for j in np.flatnonzero(stationary)]
    return AssumptionReport("constraint regularity", len(rows), _failures(rows, failures))


def check_output_consistency(output: RelDeg2Output, system: ControlAffineSystem, states) -> AssumptionReport:
    """Validate the explicit ydot and psi_grad fields against AD.

    ydot must equal L_f y componentwise and psi_grad must equal the AD
    gradient of psi at the sampled states, each to 1e-9 times one plus the
    magnitude of the AD value.  The states run as in
    :func:`check_relative_degree`; a NaN fails.
    """
    rows = _states(states, system.n)
    p = output.p

    def quantities(x):
        f = system.f_vec(x)
        lf = [ad.dot(ad.grad(lambda z: output.y(z)[i], x), f) for i in range(p)]
        declared, y = output.ydot(x), output.y(x)
        declared_grad = output.psi_grad(y)
        return [*lf, *(declared[i] for i in range(p)), *ad.grad(output.psi, y), *(declared_grad[i] for i in range(p))]

    found = at_states(quantities, rows).reshape(4, p, -1)
    tol = 1e-9
    lf, declared, auto_g, declared_grad = found
    wrong = ~(np.abs(lf - declared) <= tol * (1.0 + np.abs(lf)))
    error_g = np.abs(declared_grad - auto_g)
    wrong_g = ~(np.max(error_g, axis=0) <= tol * (1.0 + np.max(np.abs(auto_g), axis=0)))
    # per state: its ydot components in order, then psi_grad
    failures = [(j, i, f"ydot[{i}] = {declared[i, j]} but L_f y[{i}] = {lf[i, j]}") for i, j in np.argwhere(wrong)]
    failures += [(j, p, "psi_grad disagrees with grad(psi)") for j in np.flatnonzero(wrong_g)]
    return AssumptionReport("output consistency", len(rows), _failures(rows, [(j, m) for j, _, m in sorted(failures)]))


def _failures(rows, failures) -> list:
    """``(state, message)`` for each ``(row, message)`` of ``failures``, in row order."""
    return [(rows[j].copy(), message) for j, message in sorted(failures, key=lambda f: f[0])]
