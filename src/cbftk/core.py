"""Domain vocabulary: control-affine systems, relative-degree-two outputs,
constraint functions, linear extended class-K functions, ReQU activations,
and Lie-derivative helpers.

The sampled assumption checks here are validation aids, not proofs: they
run the relative-degree and constraint-regularity conditions over
scenario-declared state sets.
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
    "first_failure",
    "per_node",
    "sampled",
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

    ``index`` is the first offending element of a batch, and None for a
    single state; ``reason`` is the message without the batch element.
    """

    def __init__(self, message: str, index=None):
        self.index = index
        self.reason = message
        super().__init__(message if index is None else f"{message} (batch element {index})")


def first_failure(evaluate, states):
    """``evaluate(states)``; an error names the first state that fails alone.

    ``states`` holds one state per column.  A batch raises at the first
    primitive that fails for any of its states, which need not be the first
    state that fails, nor fail the same way.  So on a :class:`DomainError`
    or :class:`cbftk.autodiff.EvaluationError` the states are evaluated
    again one at a time, in order, and the first that fails raises the
    error it raises alone, with ``index`` its column and its state named.
    """
    try:
        return evaluate(states)
    except (DomainError, ad.EvaluationError) as exc:
        failure = exc
    for i in range(states.shape[1]):
        try:
            evaluate(states[:, i : i + 1])
        except (DomainError, ad.EvaluationError) as exc:
            exc.index = i
            exc.args = (f"{exc.reason} at state {states[:, i]}",)
            raise
    raise failure


def sampled(evaluate, states) -> list:
    """``(state, item)`` for each ``(column, item)`` that ``evaluate`` returns on blocks of
    :data:`cbftk.autodiff.BLOCK_NODES` rows of ``states``, one per column; errors as :func:`first_failure`."""
    found = []
    for block in ad.blocks(len(states)):
        rows = states[block]
        found += [(rows[j].copy(), item) for j, item in first_failure(evaluate, rows.T)]
    return found


def per_node(func, states, name, shape=(), dtype=float) -> np.ndarray:
    """``func(states)`` as an array of shape ``shape + (N,)``.

    ``states`` holds N states, one per column, so that ``states[i]`` is the
    array of component i; ``name`` names ``func`` in errors.  ``func``
    returns a nested sequence of ``shape`` whose entries are arrays over
    the N states, or single values that count for every state.  A result
    that cannot be broadcast to that shape is refused with a ValueError, as
    is a ``func`` that cannot take component arrays at all.  A single numpy
    value may come from a reduction over the batch (``np.all``, ``np.sum``,
    a norm), so it is checked against ``func`` on the first, middle and
    last state alone, and refused where they differ; a plain Python number
    is taken as a constant.
    """
    count = states.shape[1]
    out = np.empty((*shape, count), dtype=dtype)
    spread = []
    try:
        entries = [func(states)]
        for _ in shape:
            entries = [item for entry in entries for item in entry]
        if len(entries) != math.prod(shape):
            raise ValueError(f"{len(entries)} entries where {math.prod(shape)} were expected")
        for index, entry in zip(np.ndindex(*shape), entries):
            out[index] = entry
            if isinstance(entry, (np.generic, np.ndarray)) and np.ndim(entry) == 0:
                spread.append(index)
    except DomainError:
        raise
    except (TypeError, ValueError) as exc:
        raise _not_elementwise(name, shape, count, exc) from exc
    if spread and count > 1:
        for i in (0, count // 2, count - 1):
            alone = np.asarray(func(states[:, i]), dtype=dtype).reshape(shape)
            for index in spread:
                if not np.array_equal(alone[index], out[index][i], equal_nan=True):
                    raise _not_elementwise(
                        name, shape, count,
                        f"one value {out[index][i]} for the batch, but {alone[index]} "
                        f"for state {states[:, i]} alone",
                    )
    return out


def _not_elementwise(name, shape, count, reason) -> ValueError:
    return ValueError(
        f"{name} must act elementwise on per-component arrays and give shape "
        f"{shape} for a batch of {count} states: {reason}"
    )


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

    ``f`` maps a state (sequence of scalars or Duals) to a length-n
    sequence; ``g`` maps a state to an n x m nested sequence.  Both act
    elementwise on per-component arrays: given the components of N states
    as arrays of shape (N,), each entry is a float or an array over the N
    states (see :meth:`f_batch` and :meth:`g_batch`).
    """

    n: int
    m: int
    f: Callable[[Sequence], Sequence]
    g: Callable[[Sequence], Sequence]

    def f_vec(self, x) -> np.ndarray:
        return ad.array(self.f(x))

    def g_mat(self, x) -> np.ndarray:
        return ad.array(self.g(x)).reshape(self.n, self.m)

    def f_batch(self, states) -> np.ndarray:
        """f at the N states of ``states`` (shape (n, N)), shape (n, N)."""
        return per_node(self.f, states, "f", (self.n,))

    def g_batch(self, states) -> np.ndarray:
        """g at the N states of ``states`` (shape (n, N)), shape (n, m, N)."""
        return per_node(self.g, states, "g", (self.n, self.m))


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
    relative-degree and regularity assumptions are declared.  It acts
    elementwise on per-component arrays: given the components of N states
    as arrays of shape (N,), it returns one flag per state (see
    :meth:`in_extended_set_batch`).  The other callables take such arrays,
    or batched Duals, as well: the grid scans and the sampled assumption
    checks evaluate them over many states at once.
    """

    p: int
    y: Callable[[Sequence], Sequence]
    ydot: Callable[[Sequence], Sequence]
    psi: Callable[[Sequence], object]
    psi_grad: Callable[[Sequence], Sequence]
    in_extended_set: Callable[[np.ndarray], bool] = field(default=lambda x: True)

    def in_extended_set_batch(self, states) -> np.ndarray:
        """Membership flags of the N states of ``states`` (shape (n, N))."""
        return per_node(self.in_extended_set, states, "in_extended_set", dtype=bool)

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


def _lie_rows(field, p: int, vector_field, xs) -> np.ndarray:
    """L_f (or L_g) of the p components of ``field`` at ``xs``, shape (p, N) (or (p, m, N))."""
    return np.array([directional(ad.grad(lambda v, i=i: field(v)[i], xs), vector_field) for i in range(p)])


def check_relative_degree(
    output: RelDeg2Output,
    system: ControlAffineSystem,
    states,
    lgy_tol: float = 1e-10,
    rank_tol: float = 1e-8,
) -> AssumptionReport:
    """Sampled relative-degree-two check: L_g y = 0 and L_g L_f y full rank.

    ``states`` must hold ``system.n`` components per row.  They are checked
    in batches (:func:`sampled`), so ``y``, ``ydot`` and ``g`` must act
    elementwise.  L_g L_f y is evaluated only where L_g y = 0; its rank is
    the smallest singular value of the p x m matrix.  A NaN fails.
    """
    rows = _states(states, system.n)

    def evaluate(xs):
        g = system.g_batch(xs)
        lgy = np.max(np.abs(_lie_rows(output.y, output.p, g, xs)), axis=(0, 1))
        passed = np.flatnonzero(lgy < lgy_tol)
        lglfy = np.moveaxis(_lie_rows(output.ydot, output.p, g[..., passed], xs[:, passed]), -1, 0)
        finite = np.isfinite(lglfy).all(axis=(1, 2))
        smin = np.full(passed.size, np.nan)
        smin[finite] = np.linalg.svd(lglfy[finite], compute_uv=False)[:, -1]
        failures = [(j, f"L_g y nonzero (max |entry| {lgy[j]:.3e})") for j in np.flatnonzero(~(lgy < lgy_tol))]
        failures += [(j, f"L_g L_f y rank-deficient (sigma_min {s:.3e})") for j, s in zip(passed, smin) if not s > rank_tol]
        return sorted(failures)

    return AssumptionReport("relative degree two", len(rows), sampled(evaluate, rows))


def check_constraint_regularity(
    output: RelDeg2Output,
    system: ControlAffineSystem,
    states,
    grad_tol: float = 1e-10,
) -> AssumptionReport:
    """Sampled regularity check: psi_grad = 0 only where psi > 0.  Batched as
    :func:`check_relative_degree`, with ``psi`` and ``psi_grad`` elementwise;
    ``states`` must hold ``system.n`` components per row; a NaN fails."""
    rows = _states(states, system.n)

    def evaluate(xs):
        y = per_node(output.y, xs, "y", (output.p,))
        grad = per_node(output.psi_grad, y, "psi_grad", (output.p,))
        psi = per_node(output.psi, y, "psi")
        stationary = ~(np.sqrt(directional(grad, grad)) >= grad_tol) & ~(psi > 0.0)
        return [(j, f"stationary output point with psi = {psi[j]:.3e} <= 0") for j in np.flatnonzero(stationary)]

    return AssumptionReport("constraint regularity", len(rows), sampled(evaluate, rows))


def check_output_consistency(
    output: RelDeg2Output,
    system: ControlAffineSystem,
    states,
    tol: float = 1e-9,
) -> AssumptionReport:
    """Validate the explicit ydot and psi_grad fields against AD.

    ydot must equal L_f y componentwise and psi_grad must equal the AD
    gradient of psi at the sampled states.  Batched as
    :func:`check_relative_degree`, with ``f`` in place of ``g``; a NaN fails.
    """
    rows = _states(states, system.n)

    def evaluate(xs):
        lf = _lie_rows(output.y, output.p, system.f_batch(xs), xs)
        declared = per_node(output.ydot, xs, "ydot", (output.p,))
        wrong = ~(np.abs(lf - declared) <= tol * (1.0 + np.abs(lf)))
        y = per_node(output.y, xs, "y", (output.p,))
        auto_g = ad.grad(output.psi, y)
        error_g = np.abs(per_node(output.psi_grad, y, "psi_grad", (output.p,)) - auto_g)
        wrong_g = ~(np.max(error_g, axis=0) <= tol * (1.0 + np.max(np.abs(auto_g), axis=0)))
        # per state: its ydot components in order, then psi_grad
        failures = [(j, i, f"ydot[{i}] = {declared[i, j]} but L_f y[{i}] = {lf[i, j]}") for i, j in np.argwhere(wrong)]
        failures += [(j, output.p, "psi_grad disagrees with grad(psi)") for j in np.flatnonzero(wrong_g)]
        return [(j, message) for j, _, message in sorted(failures)]

    return AssumptionReport("output consistency", len(rows), sampled(evaluate, rows))
