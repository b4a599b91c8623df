"""Minimal SVG rendering: polyline charts and grid cell maps.

A convenience layer for eyeballing results; the CSV outputs are the
contract.  No styling knobs beyond a fixed palette.
"""

from __future__ import annotations

import numpy as np

__all__ = ["line_chart", "cell_map"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")

_W, _H = 720, 420
_ML, _MR, _MT, _MB = 60, 16, 28, 40


def _finite(values):
    values = np.asarray(values, dtype=float)
    return values[np.isfinite(values)]


def _span(lo, hi):
    if hi - lo < 1e-12:
        pad = max(abs(lo), 1.0) * 0.05 + 1e-12
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.04
    return lo - pad, hi + pad


def line_chart(path, x, series, title="", x_label="", y_label=""):
    """Write a polyline chart of the named series against ``x``."""
    x = np.asarray(x, dtype=float)
    finite_y = np.concatenate([_finite(v) for v in series.values()]) if series else np.zeros(1)
    if finite_y.size == 0:
        finite_y = np.zeros(1)
    x_lo, x_hi = _span(float(np.min(x)), float(np.max(x)))
    y_lo, y_hi = _span(float(np.min(finite_y)), float(np.max(finite_y)))

    def sx(v):
        return _ML + (v - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="18" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{_W / 2:.0f}" y="{_H - 8}" text-anchor="middle" font-size="12">{x_label}</text>',
        f'<text x="14" y="{_H / 2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {_H / 2:.0f})">{y_label}</text>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
    ]
    if y_lo < 0.0 < y_hi:
        zero = sy(0.0)
        parts.append(
            f'<line x1="{_ML}" y1="{zero:.2f}" x2="{_W - _MR}" y2="{zero:.2f}" '
            f'stroke="#bbbbbb" stroke-dasharray="4 4"/>'
        )
    for tick in np.linspace(x_lo, x_hi, 5):
        parts.append(
            f'<text x="{sx(tick):.1f}" y="{_H - _MB + 16}" text-anchor="middle" '
            f'font-size="10">{tick:.3g}</text>'
        )
    for tick in np.linspace(y_lo, y_hi, 5):
        parts.append(
            f'<text x="{_ML - 6}" y="{sy(tick) + 3:.1f}" text-anchor="end" '
            f'font-size="10">{tick:.3g}</text>'
        )
    # the x text is shared by every series; each keeps its finite points
    x_text = np.array(["%.2f" % v for v in sx(x).tolist()], dtype=object)
    for i, (name, values) in enumerate(series.items()):
        values = np.asarray(values, dtype=float)
        color = _PALETTE[i % len(_PALETTE)]
        keep = np.isfinite(values)
        points = " ".join(
            ["%s,%.2f" % p for p in zip(x_text[keep].tolist(), sy(values[keep]).tolist())]
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 6}" y="{_MT + 14 + 14 * i}" text-anchor="end" '
            f'font-size="11" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(parts) + "\n")


def cell_map(path, axes, categories, colors, title=""):
    """Write a coarse cell map of integer categories over a 2-D grid.

    ``categories`` is row-major over ``axes`` (first axis outer); the grid
    is downsampled to at most ~120 cells per side to keep files small.
    """
    ax0, ax1 = (np.asarray(a, dtype=float) for a in axes)
    n0, n1 = ax0.size, ax1.size
    cats = np.asarray(categories).reshape(n0, n1)
    step0 = max(1, n0 // 120)
    step1 = max(1, n1 // 120)
    cats = cats[::step0, ::step1]
    ax0 = ax0[::step0]
    ax1 = ax1[::step1]
    x_lo, x_hi = float(ax0[0]), float(ax0[-1])
    y_lo, y_hi = float(ax1[0]), float(ax1[-1])

    def sx(v):
        return _ML + (v - x_lo) / max(x_hi - x_lo, 1e-12) * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v - y_lo) / max(y_hi - y_lo, 1e-12) * (_H - _MT - _MB)

    cw = (_W - _ML - _MR) / max(ax0.size - 1, 1)
    ch = (_H - _MT - _MB) / max(ax1.size - 1, 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="18" text-anchor="middle" font-size="14">{title}</text>',
    ]
    xs = ["%.2f" % v for v in (sx(ax0) - cw / 2).tolist()]
    ys = ["%.2f" % v for v in (sy(ax1) - ch / 2).tolist()]
    size = f'width="{cw:.2f}" height="{ch:.2f}"'
    for i, row in enumerate(cats.tolist()):
        for j, cat in enumerate(row):
            color = colors.get(cat)
            if color is None:
                continue
            parts.append(f'<rect x="{xs[i]}" y="{ys[j]}" {size} fill="{color}"/>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(parts) + "\n")
