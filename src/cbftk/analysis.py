"""Phase-space grid analysis: CBF validity, set membership, singular regions.

A grid scan evaluates one CBF construction over a rectangular window and
records, per node, the barrier value h, the constraint value psi, the
input-coupling norm ||L_g h||, the drift margin L_f h + alpha(h) and (for
the activated construction) the switching value s.  A candidate CBF is
valid when every singular node (L_g h = 0) has positive margin; the
validity report also checks the safe-set inclusion S within C where the
construction claims it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .cbf import ABC, HOCBF, CbfInstance
from .core import ControlAffineSystem

__all__ = [
    "SINGULAR_TOL",
    "GridScan",
    "GridScanRecord",
    "grid_scan",
    "ValidityReport",
    "validity_report",
    "abc_equivalence_check",
]

# matched tolerances: ||L_g h|| below SINGULAR_TOL counts as singular, and
# the activated construction's s >= -SINGULAR_TOL counts as nonnegative,
# so the singular-set equivalence is testable in floating point
SINGULAR_TOL = 1e-10


@dataclass(frozen=True)
class GridScanRecord:
    """One grid node of a scan."""

    x: np.ndarray
    h: float
    psi: float
    lgh_norm: float
    margin: float
    s: Optional[float]
    excluded: bool

    @property
    def in_safe_set(self) -> bool:
        return self.h >= 0.0

    @property
    def in_constraint_set(self) -> bool:
        return self.psi >= 0.0

    @property
    def singular(self) -> bool:
        return self.lgh_norm < SINGULAR_TOL

    @property
    def validity_violation(self) -> bool:
        return self.singular and self.margin <= 0.0


@dataclass
class GridScan:
    """Row-major (from the axis lows) scan of one construction."""

    kind: str
    axes: tuple
    x: np.ndarray
    h: np.ndarray
    psi: np.ndarray
    lgh_norm: np.ndarray
    margin: np.ndarray
    s: Optional[np.ndarray]
    excluded: np.ndarray

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

    def records(self) -> Iterator[GridScanRecord]:
        for i in range(len(self)):
            yield GridScanRecord(
                x=self.x[i],
                h=float(self.h[i]),
                psi=float(self.psi[i]),
                lgh_norm=float(self.lgh_norm[i]),
                margin=float(self.margin[i]),
                s=None if self.s is None else float(self.s[i]),
                excluded=bool(self.excluded[i]),
            )


def _grid_axes(window, resolution):
    if len(window) != len(resolution):
        raise ValueError("window and resolution must have matching lengths")
    axes = []
    for (lo, hi), count in zip(window, resolution):
        if count < 2:
            raise ValueError("scan resolution must be at least 2 per axis")
        axes.append(np.linspace(float(lo), float(hi), int(count)))
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

    ``state_from_axes`` lifts a grid node to a full state (identity by
    default; the bicycle fills its fixed slice coordinates); every node is
    evaluated at the lifted state.  ``alpha_outer`` defaults to the
    construction's own class-K gain.  Every argument is honoured on the AD
    reference path; :meth:`cbftk.systems.Scenario.scan` gives the same scan
    of a built-in scenario on the compiled kernels.
    """
    axes = _grid_axes(window, resolution)
    if state_from_axes is None:
        state_from_axes = lambda vals: np.asarray(vals, dtype=float)
    nodes = _node_array(axes, state_from_axes)
    alpha = alpha_outer if alpha_outer is not None else instance.alpha
    n = nodes.shape[0]
    h = np.empty(n)
    psi = np.empty(n)
    lgh_norm = np.empty(n)
    margin = np.empty(n)
    s = np.empty(n) if instance.kind == ABC else None
    excluded = np.zeros(n, dtype=bool)
    for i, x in enumerate(nodes):
        if not instance.output.in_extended_set(x):
            excluded[i] = True
            h[i] = psi[i] = lgh_norm[i] = margin[i] = np.nan
            if s is not None:
                s[i] = np.nan
            continue
        value, hgrad = instance.value_and_gradient(x)
        lfh = float(hgrad @ system.f_vec(x))
        lgh = hgrad @ system.g_mat(x)
        h[i] = value
        psi[i] = instance.output.psi_of_state(x)
        lgh_norm[i] = float(np.linalg.norm(lgh))
        margin[i] = lfh + alpha(value)
        if s is not None:
            s[i] = instance.switching(x)
    return GridScan(
        kind=instance.kind,
        axes=axes,
        x=nodes,
        h=h,
        psi=psi,
        lgh_norm=lgh_norm,
        margin=margin,
        s=s,
        excluded=excluded,
    )


def _node_array(axes, state_from_axes) -> np.ndarray:
    """Row-major node states, built vectorized when the lift allows it.

    The common lifts place the axis values in the leading state
    coordinates followed by constants (identity for the pendulum, fixed
    (theta, v) slice for the bicycle); that structure is verified against
    probe nodes and the construction falls back to a per-node loop
    otherwise.
    """
    grids = np.meshgrid(*axes, indexing="ij")
    flat = [g.ravel() for g in grids]
    count = flat[0].size
    probe_ids = (0, count // 2, count - 1)
    probes = {
        i: np.asarray(state_from_axes(tuple(g[i] for g in flat)), dtype=float)
        for i in probe_ids
    }
    first = probes[0]
    if first.size >= len(axes):
        tail = first[len(axes):]
        nodes = np.column_stack(flat + [np.full(count, t) for t in tail])
        if all(np.array_equal(nodes[i], probes[i]) for i in probe_ids):
            return nodes
    return np.array(
        [state_from_axes(tuple(g[i] for g in flat)) for i in range(count)],
        dtype=float,
    )


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


def validity_report(scan: GridScan, max_witnesses: int = 16) -> ValidityReport:
    """Count barrier-condition violations and check S within C on a scan."""
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
        violation_states=scan.x[idx[:max_witnesses]],
        inclusion_claimed=inclusion_claimed,
        n_inclusion_violations=n_incl,
    )


def abc_equivalence_check(scan: GridScan, tol: float = SINGULAR_TOL) -> bool:
    """Node-wise biconditional: L_g h vanishes exactly where s >= 0.

    Both sides are compared under the matched tolerance ``tol``.
    """
    if scan.kind != ABC or scan.s is None:
        raise ValueError("singular-set equivalence applies to activated backstepping scans")
    keep = ~scan.excluded
    singular = scan.lgh_norm[keep] < tol
    s_nonneg = scan.s[keep] >= -tol
    return bool(np.all(singular == s_nonneg))
