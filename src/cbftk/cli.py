"""Command-line entry point.

Subcommands:

* ``simulate`` -- closed-loop run, trajectory CSV
* ``scan``     -- phase-plane grid scan, grid CSV
* ``validate`` -- sampled assumption checks plus a validity scan, report
* ``compare``  -- one simulation per requested CBF kind, metrics CSV

Exit codes: 0 success, 1 configuration error, 2 truncated run (blow-up or
leaving the domain), 3 validation failure.  Floating-point CSV fields use
nine significant digits; booleans are 0/1; the switching column ``s`` is
populated for the activated backstepping construction and empty otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from . import svg as svg_mod
from .analysis import _grid_axes, _node_array, validity_report
from .cbf import RECBF, recbf_validity_condition
from .config import ConfigError, ScenarioConfig, parse_assignments
from .core import check_constraint_regularity, check_relative_degree
from .sim import compute_metrics

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TRUNCATED = 2
EXIT_VALIDATION = 3


# rows formatted and written at a time: bounds the text held in memory
_BLOCK_ROWS = 4096

_BOOL_TEXT = np.array(["0", "1"], dtype=object)


def _fmt(value: float) -> str:
    """Nine significant digits, plain decimal or exponent as needed."""
    return f"{value:.9g}"


@contextlib.contextmanager
def _output(path):
    """The ``--out`` file, or stdout when no path is given."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="\n") as handle:
            yield handle


def _format_block(values):
    """``"%.9g"`` text of each entry of a float64 array, as a list.

    Each distinct value is formatted once and its text gathered into every
    cell that holds it.  Values are keyed by their bit pattern, not compared
    with ``==``: ``-0.0 == 0.0`` although they print as ``-0`` and ``0``
    (the kernel runs' ``u`` column holds both), and a NaN equals no value,
    itself included; by bits, each NaN sign and payload is one key.  A block
    without a repeated value, as most trajectory blocks are, is formatted
    cell by cell, which skips the gather.
    """
    keys = values.view(np.int64)
    order = np.argsort(keys, kind="stable")
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[order[1:]], keys[order[:-1]], out=first[1:])
    if first.all():
        return ["%.9g" % v for v in values.tolist()]
    text = np.array(["%.9g" % v for v in values[order[first]].tolist()], dtype=object)
    group = np.empty(len(keys), dtype=np.intp)
    group[order] = np.cumsum(first) - 1
    return text[group].tolist()


def _write_csv(handle, header, columns):
    """Write ``header`` and the rows of ``columns``, one block of rows at a time.

    A column is a numeric array (nine significant digits of its float64
    value), a bool array (0/1) or None (empty cells); the first column is an
    array.  Each block of ``_BLOCK_ROWS`` rows is written as soon as it is
    formatted, so the whole text is never held in memory; within a block,
    each distinct float is formatted once (:func:`_format_block`).
    """
    columns = [
        column if column is None or column.dtype == bool else np.asarray(column, dtype=float)
        for column in columns
    ]
    rows = len(columns[0])
    handle.write(header + "\n")
    for start in range(0, rows, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, rows)
        cells = []
        for column in columns:
            if column is None:
                cells.append([""] * (stop - start))
            elif column.dtype == bool:
                cells.append(_BOOL_TEXT[column[start:stop].view(np.uint8)].tolist())
            else:
                cells.append(_format_block(column[start:stop]))
        handle.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _load_config(args, single_cbf: bool = True) -> ScenarioConfig:
    assignments = {}
    if args.config:
        with open(args.config) as handle:
            assignments.update(parse_assignments(handle.read()))
    if args.scenario:
        assignments["scenario"] = args.scenario
    if args.cbf:
        assignments["cbf"] = args.cbf
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        assignments[key] = value
    config = ScenarioConfig.from_assignments(assignments)
    if single_cbf and len(config.cbfs) != 1:
        raise ConfigError(
            f"cbf: this command takes a single construction, got {','.join(config.cbfs)!r}"
        )
    return config


# -- simulate ----------------------------------------------------------------


def _write_trajectory(handle, scenario, traj):
    n = scenario.system.n
    m = scenario.system.m
    header = (
        "t,"
        + ",".join(f"x{i + 1}" for i in range(n))
        + ","
        + ",".join(f"u{i + 1}" for i in range(m))
        + ",h,psi,s"
    )
    _write_csv(handle, header, [traj.t, *traj.x.T, *traj.u.T, traj.h, traj.psi, traj.s])


def cmd_simulate(args) -> int:
    config = _load_config(args)
    scenario = config.build_scenario()
    kind = config.cbfs[0]
    traj = scenario.simulate(kind, blow_up_threshold=config.blow_up_threshold)
    with _output(args.out) as handle:
        _write_trajectory(handle, scenario, traj)
    if args.svg:
        svg_path = (args.out or f"{scenario.name}_{kind}") + ".svg"
        series = {"h": traj.h, "psi": traj.psi}
        for i in range(traj.u.shape[1]):
            series[f"u{i + 1}"] = traj.u[:, i]
        svg_mod.line_chart(
            svg_path,
            traj.t,
            series,
            title=f"{scenario.name} / {kind} ({traj.exit_reason})",
            x_label="t [s]",
        )
    if traj.exit_reason != "completed":
        print(f"run truncated: {traj.exit_reason} at t = {traj.t[-1]:g} s", file=sys.stderr)
        return EXIT_TRUNCATED
    return EXIT_OK


# -- scan --------------------------------------------------------------------


def _write_scan(handle, scenario, scan):
    n = scenario.system.n
    header = (
        ",".join(f"x{i + 1}" for i in range(n))
        + ",h,psi,lgh_norm,margin,s,in_S,in_C,singular,violation"
    )
    columns = [*scan.x.T, scan.h, scan.psi, scan.lgh_norm, scan.margin, scan.s]
    columns += [scan.in_safe_set, scan.in_constraint_set, scan.singular, scan.validity_violation]
    _write_csv(handle, header, columns)


def cmd_scan(args) -> int:
    config = _load_config(args)
    scenario = config.build_scenario()
    kind = config.cbfs[0]
    scan = scenario.scan(kind)
    with _output(args.out) as handle:
        _write_scan(handle, scenario, scan)
    if args.svg:
        svg_path = (args.out or f"{scenario.name}_{kind}_scan") + ".svg"
        # categories: 0 unsafe, 1 constraint only, 2 safe set, 3 singular, 4 violation
        cats = np.zeros(len(scan), dtype=int)
        cats[scan.in_constraint_set] = 1
        cats[scan.in_safe_set] = 2
        cats[scan.singular] = 3
        cats[scan.validity_violation] = 4
        svg_mod.cell_map(
            svg_path,
            scan.axes,
            cats,
            colors={1: "#f4c7c3", 2: "#c8e6c9", 3: "#555555", 4: "#d62728"},
            title=f"{scenario.name} / {kind} scan",
        )
    return EXIT_OK


# -- validate ----------------------------------------------------------------


def cmd_validate(args) -> int:
    config = _load_config(args)
    scenario = config.build_scenario()
    kind = config.cbfs[0]
    instance = scenario.make_cbf(kind)
    ok = True
    lines = [f"scenario: {scenario.name}, construction: {kind}"]

    rel = check_relative_degree(scenario.output, scenario.system, scenario.assumption_states)
    lines.append(str(rel))
    ok &= rel.ok
    reg = check_constraint_regularity(scenario.output, scenario.system, scenario.assumption_states)
    lines.append(str(reg))
    ok &= reg.ok

    if kind == RECBF:
        axes = _grid_axes(scenario.window, (101, 101))
        nodes = _node_array(axes, scenario.state_from_axes, scenario.system.n)
        condition = recbf_validity_condition(instance, scenario.system, nodes)
        lines.append(str(condition))
        ok &= condition.ok

    scan = scenario.scan(kind)
    report = validity_report(scan)
    lines.append(str(report))
    ok &= report.ok

    lines.append("result: " + ("PASS" if ok else "FAIL"))
    with _output(args.out) as handle:
        handle.write("\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_VALIDATION


# -- compare -----------------------------------------------------------------


def cmd_compare(args) -> int:
    config = _load_config(args, single_cbf=False)
    scenario = config.build_scenario()
    n = scenario.system.n
    m = scenario.system.m
    header = (
        "cbf,min_h,min_psi,"
        + ",".join(f"max_abs_u{i + 1}" for i in range(m))
        + ","
        + ",".join(f"max_step_delta_u{i + 1}" for i in range(m))
        + ",blew_up,exit_reason,"
        + ",".join(f"final_x{i + 1}" for i in range(n))
    )
    lines = [header]
    truncated = False
    for kind in config.cbfs:
        traj = scenario.simulate(kind, blow_up_threshold=config.blow_up_threshold)
        metrics = compute_metrics(traj)
        truncated |= traj.exit_reason != "completed"
        cells = [kind, _fmt(metrics.min_h), _fmt(metrics.min_psi)]
        cells += [_fmt(v) for v in metrics.max_abs_u]
        cells += [_fmt(v) for v in metrics.max_step_delta_u]
        cells.append(str(int(metrics.blew_up)))
        cells.append(metrics.exit_reason)
        cells += [_fmt(v) for v in metrics.final_state]
        lines.append(",".join(cells))
    with _output(args.out) as handle:
        handle.write("\n".join(lines) + "\n")
    return EXIT_TRUNCATED if truncated else EXIT_OK


# -- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbftk",
        description="Safety filters and CBF constructions for relative-degree-two constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (
        ("simulate", cmd_simulate),
        ("scan", cmd_scan),
        ("validate", cmd_validate),
        ("compare", cmd_compare),
    ):
        p = sub.add_parser(name)
        p.add_argument("--scenario", choices=("pendulum", "bicycle"))
        p.add_argument("--cbf", help="CBF kind (comma-separated list for compare)")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a configuration key (repeatable)",
        )
        p.add_argument("--config", help="configuration file (flat key = value lines)")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--svg", action="store_true", help="also render an SVG chart")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
