"""Phase-space grid analysis: CBF validity, set membership, singular regions.

A grid scan evaluates one CBF construction over a rectangular window and
records, per node, the barrier value h, the constraint value psi, the
input-coupling norm ||L_g h||, the drift margin L_f h + alpha(h) and (for
the activated construction) the switching value s.  A candidate CBF is
valid when every singular node (L_g h = 0) has positive margin; the
validity report also checks the safe-set inclusion S within C where the
construction claims it.

The nodes run in blocks as numpy lanes of one trace of the per-state
evaluation of every column (so ``alpha_outer``, like every plant callable,
works at one state): the trace-once, run-per-batch approach of JAX
(Frostig, Johnson & Leary, SysML 2018); a node the lanes flag runs on the
per-state evaluation itself, which is the reference.  The node states and
the mask of the nodes outside the extended set come the same way, from one
trace of the lift and the predicate.  The node states are one C-contiguous
array with a row per component, so a block that excludes no node runs on
views of it and writes each column by slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from . import autodiff as ad
from .cbf import ABC, HOCBF, CbfInstance
from .core import ControlAffineSystem, by_lanes, directional

__all__ = [
    "SINGULAR_TOL",
    "GridScan",
    "grid_scan",
    "ValidityReport",
    "validity_report",
    "abc_equivalence_check",
]

# matched tolerances: ||L_g h|| below SINGULAR_TOL counts as singular, and
# the activated construction's s >= -SINGULAR_TOL counts as nonnegative,
# so the singular-set equivalence is testable in floating point
SINGULAR_TOL = 1e-10


@dataclass
class GridScan:
    """Row-major (from the axis lows) scan of one construction.

    ``evaluation`` is ``"lanes"`` when every node ran as lanes, else
    ``"per state: <reason>"`` with the first reason a node ran on the
    per-state evaluation: a guard that fired, an output not finite, or the
    trace's.
    """

    kind: str
    axes: tuple
    x: np.ndarray
    h: np.ndarray
    psi: np.ndarray
    lgh_norm: np.ndarray
    margin: np.ndarray
    s: Optional[np.ndarray]
    excluded: np.ndarray
    evaluation: str = "lanes"

    def __len__(self) -> int:
        return self.h.size

    @property
    def in_safe_set(self) -> np.ndarray:
        return (self.h >= 0.0) & ~self.excluded

    @property
    def in_constraint_set(self) -> np.ndarray:
        return (self.psi >= 0.0) & ~self.excluded

    @property
    def singular(self) -> np.ndarray:
        return (self.lgh_norm < SINGULAR_TOL) & ~self.excluded

    @property
    def validity_violation(self) -> np.ndarray:
        return self.singular & (self.margin <= 0.0)


def _grid_axes(window, resolution):
    """The node values of each axis; refuses bounds that are not finite or
    not increasing and counts that are not whole numbers of at least 2,
    naming the axis."""
    if len(window) != len(resolution):
        raise ValueError("window and resolution must have matching lengths")
    axes = []
    for axis, ((lo, hi), count) in enumerate(zip(window, resolution)):
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"scan window of axis {axis} must have finite bounds, got ({lo!r}, {hi!r})")
        if not lo < hi:
            raise ValueError(f"scan window of axis {axis} is an empty range, got ({lo!r}, {hi!r})")
        if not (float(count).is_integer() and count >= 2):
            raise ValueError(f"scan resolution of axis {axis} must be a whole number of at least 2, got {count!r}")
        axes.append(np.linspace(lo, hi, int(count)))
    return tuple(axes)


def grid_scan(
    instance: CbfInstance,
    system: ControlAffineSystem,
    window,
    resolution,
    state_from_axes=None,
    alpha_outer=None,
) -> GridScan:
    """Scan a CBF construction over a rectangular window.

    ``state_from_axes`` lifts grid nodes to full states (identity by
    default; the bicycle fills its fixed slice coordinates); every node is
    evaluated at the lifted state.  ``alpha_outer`` defaults to the
    construction's own class-K gain.  Like every plant callable each works
    at one state: the lift gets the axis values of one node and returns the
    ``system.n`` state components, and ``alpha_outer`` gets h at one state.

    The nodes outside the extended set are excluded (NaN in every value
    column); the lift and ``in_extended_set`` run as lanes of one trace
    (:func:`_node_array`).  The others run in blocks of
    :data:`cbftk.autodiff.BLOCK_NODES` nodes, each holding just the arrays
    it has yet to read, as lanes of :func:`_scan_outputs`, every column at
    one state (||L_g h|| and the margin too), traced once and cached for the
    last (system, alpha); a node the lanes flag (a guard that fired, an
    output not finite) runs on :func:`_scan_outputs` at its floats, as does
    every node when the trace failed (:func:`cbftk.core.by_lanes`).  A block
    that excludes no node (every block, where no node is excluded) hands the
    lanes views of its slice of the node components and writes its slice of
    each column; a block that excludes some gathers the nodes it keeps and
    scatters their values.  An error is the one the first failing node
    raises, with ``index`` its row of ``x`` and its state named.
    """
    axes = _grid_axes(window, resolution)
    comps, excluded, reason = _node_array(axes, state_from_axes or list, instance.output, system.n)
    alpha = alpha_outer if alpha_outer is not None else instance.alpha
    traced = _scan_trace(instance, system, alpha)
    count = comps.shape[1]
    clean = not excluded.any()
    columns = [np.empty(count) if clean else np.full(count, np.nan) for _ in range(4 + (instance.kind == ABC))]
    for block in ad.blocks(count):
        if clean or not excluded[block].any():
            rows, index = block, range(block.start, block.stop)
        else:
            rows = index = block.start + np.flatnonzero(~excluded[block])
            if rows.size == 0:
                continue
        outputs, said = by_lanes(traced, comps[:, rows], index)
        for column, values in zip(columns, outputs):
            column[rows] = values
        reason = reason or said
    h, psi, lgh_norm, margin, *s = columns
    return GridScan(
        kind=instance.kind,
        axes=axes,
        x=comps.T,
        h=h,
        psi=psi,
        lgh_norm=lgh_norm,
        margin=margin,
        s=s[0] if s else None,
        excluded=excluded,
        evaluation="lanes" if reason is None else f"per state: {reason}",
    )


def _scan_trace(instance: CbfInstance, system: ControlAffineSystem, alpha) -> ad.Traced:
    """:func:`_scan_outputs` as generated code, cached on ``instance`` for
    the last ``(system, alpha)`` by value (:func:`cbftk.autodiff.cached`)."""
    outputs = partial(_scan_outputs, instance, system, alpha)
    return ad.cached(instance, "_scan_trace", (system, alpha), lambda: ad.Traced(outputs, system.n))


def _scan_outputs(instance, system, alpha, x) -> list:
    """h, psi, ||L_g h||, L_f h + alpha(h) and (activated construction) s at
    ``x``: the reference of :func:`grid_scan`, whose lanes trace it whole."""
    x = np.array(x, dtype=object)
    value, hgrad = ad.value_and_grad(instance.value, x)
    lfh, lgh = directional(hgrad, system.f_vec(x)), directional(hgrad, system.g_mat(x))
    outputs = [value, instance.output.psi_of_state(x), ad.sqrt(directional(lgh, lgh)), lfh + alpha(value)]
    if instance.kind == ABC:
        outputs.append(instance.switching(x))
    return outputs


def _node_array(axes, state_from_axes, output, n: int):
    """The node states as components, shape (n, nodes), C-contiguous, the
    mask of the nodes outside ``output``'s extended set, and None or the
    reason the first node ran on the per-state evaluation.

    The nodes are row-major from the axis lows, so the transpose of the
    components holds one state per row.  The lift and the predicate run as
    lanes of one trace over the sparse grid of the axes, so the first write
    of a value per node is the node array's (:func:`cbftk.core.by_lanes`);
    at one node they give ``[*state_from_axes(a), in_extended_set(x)]``,
    the predicate read as a truth value, as
    :meth:`cbftk.cbf.CbfInstance.value` reads it, so 0 marks an excluded
    node.  The trace is cached on ``output`` for the last ``(state_from_axes,
    n, len(axes))`` by value (:func:`cbftk.autodiff.cached`).  A lift that
    does not give ``n`` components is refused with a ValueError naming
    ``state_from_axes``.
    """

    def lifted(a):
        x = state_from_axes(a)
        if len(x) != n:
            raise ValueError(f"state_from_axes must give a state of shape ({n},), got {len(x)} components")
        return [*x, ad.where(output.in_extended_set(ad.array(x)), 1.0, 0.0)]

    traced = ad.cached(output, "_lift_trace", (state_from_axes, n, len(axes)), lambda: ad.Traced(lifted, len(axes)))
    grids = np.meshgrid(*axes, indexing="ij", sparse=True)
    nodes, reason = by_lanes(traced, grids, range(math.prod(map(len, axes))))
    return nodes[:n], nodes[n] == 0.0, reason


@dataclass
class ValidityReport:
    """Validity-scan summary.

    The high-order construction only certifies safety with respect to the
    intersection of its superlevel set with the constraint set, so the
    S-within-C inclusion is not claimed (and not counted) for it.
    """

    kind: str
    n_nodes: int
    n_excluded: int
    n_violations: int
    violation_states: np.ndarray
    inclusion_claimed: bool
    n_inclusion_violations: int

    @property
    def ok(self) -> bool:
        return self.n_violations == 0 and self.n_inclusion_violations == 0

    def __str__(self):
        lines = [
            f"validity scan ({self.kind}): {self.n_nodes} nodes"
            + (f", {self.n_excluded} excluded" if self.n_excluded else "")
        ]
        if self.n_violations:
            first = np.array2string(self.violation_states[0], precision=4)
            lines.append(
                f"  barrier-condition violations: {self.n_violations} "
                f"(singular nodes with non-positive margin; first at {first})"
            )
        else:
            lines.append("  barrier-condition violations: none")
        if self.inclusion_claimed:
            lines.append(
                f"  safe-set inclusion S within C: "
                + ("holds" if self.n_inclusion_violations == 0 else f"{self.n_inclusion_violations} violations")
            )
        else:
            lines.append("  safe-set inclusion S within C: not claimed")
        return "\n".join(lines)


def validity_report(scan: GridScan) -> ValidityReport:
    """Count barrier-condition violations and check S within C on a scan;
    the first 16 violating states are kept."""
    if len(scan) == 0:
        raise ValueError("empty scan")
    violations = scan.validity_violation
    idx = np.flatnonzero(violations)
    inclusion_claimed = scan.kind != HOCBF
    if inclusion_claimed:
        n_incl = int(np.count_nonzero(scan.in_safe_set & ~scan.in_constraint_set))
    else:
        n_incl = 0
    return ValidityReport(
        kind=scan.kind,
        n_nodes=len(scan),
        n_excluded=int(np.count_nonzero(scan.excluded)),
        n_violations=int(idx.size),
        violation_states=scan.x[idx[:16]],
        inclusion_claimed=inclusion_claimed,
        n_inclusion_violations=n_incl,
    )


def abc_equivalence_check(scan: GridScan) -> bool:
    """Node-wise biconditional: L_g h vanishes exactly where s >= 0.

    Both sides are compared under the matched tolerance :data:`SINGULAR_TOL`.
    """
    if scan.kind != ABC or scan.s is None:
        raise ValueError("singular-set equivalence applies to activated backstepping scans")
    keep = ~scan.excluded
    singular = scan.lgh_norm[keep] < SINGULAR_TOL
    s_nonneg = scan.s[keep] >= -SINGULAR_TOL
    return bool(np.all(singular == s_nonneg))
