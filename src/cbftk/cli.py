"""Command-line entry point.

Subcommands:

* ``simulate`` -- closed-loop run, trajectory CSV
* ``scan``     -- phase-plane grid scan, grid CSV
* ``validate`` -- sampled assumption checks plus a validity scan, report
* ``compare``  -- one simulation per requested CBF kind, metrics CSV

Exit codes: 0 success, 1 configuration error, 2 truncated run (blow-up or
leaving the domain), 3 validation failure.  Every floating-point CSV field
is byte-identical to ``"%.9g" % v``: nine significant digits, formatted as
numpy lanes, and a lane the lanes cannot decide runs ``"%.9g"`` itself
(:func:`_decimal_cells`), each distinct value of a block once where the first
block of its column repeats values (:func:`_write_csv`).  Booleans are 0/1;
the switching column ``s`` is populated for the activated backstepping
construction and empty otherwise.
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
# a float column sorts every block if its first holds at most this share of
# distinct values: the sort and gather cost what they save at about a quarter
_DISTINCT_SHARE = 0.25


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


# a float cell: its "%.9g" text padded with NULs, which the writer drops; the
# longest such text, as "-1.23456789e-308", has 16 bytes
_CELL = np.dtype("V16")
# a cell as two words, little-endian whatever the host's order
_WORD = np.dtype("<u8")
# 10**0 .. 10**22, each exact in binary: a scaling by one rounds once
_SCALE = 10.0 ** np.arange(23)
# the 4 ASCII digits of each of 0 .. 9999, the first in the low byte, and its trailing zeros
_DIGITS = (np.arange(10000, dtype=np.uint16)[:, None] // np.uint16([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
_DIGITS = _DIGITS.view("<u4").ravel().astype(np.uint64)
_ZEROS = (np.arange(10000, dtype=np.uint16)[:, None] % np.uint16([10, 100, 1000, 10000]) == 0).sum(1)


def _layout(x: int, sign: str, kept: int) -> str:
    """The text of a cell of decimal exponent x in -14 .. 8 (9 for a zero)
    and sign whose nine digits keep the first ``kept``, each digit a ``d``."""
    if x == 9:
        return sign + "0"
    if x < -4:
        return sign + "d" + "." * (kept > 1) + "d" * (kept - 1) + f"e-{-x:02d}"
    if x < 0:
        return sign + "0." + "0" * (-x - 1) + "d" * kept
    return sign + "d" * (x + 1) + "." * (kept > x + 1) + "d" * (kept - x - 1)


def _layouts():
    """Every :func:`_layout`, at ``9 * (2 * (x + 14) + sign) + zeros`` for
    the number of trailing zeros of its nine digits: its constant bytes, the
    bits ``a`` before its first digit, and the masks (low and high word) of
    its bytes that the digits at bytes 0 .. 8 fill when moved ``a`` and
    ``a + 8`` bits up; only a point comes between two digits."""
    texts = [_layout(x, sign, 9 - zeros) for x in range(-14, 10) for sign in ("", "-") for zeros in range(9)]
    layout = np.frombuffer("".join(t.ljust(16, "\0") for t in texts).encode("ascii"), np.uint8).reshape(-1, 16)
    digit = layout == ord("d")
    shift = np.arange(16) + 1 - np.cumsum(digit, axis=1)  # digit j's byte minus j
    first = digit.argmax(axis=1)
    masks = [((digit & (shift == first[:, None] + s)) * np.uint8(255)).view(_WORD).T.copy() for s in (0, 1)]
    return np.where(digit, 0, layout).astype(np.uint8).view(_CELL).ravel(), 8 * first.astype(np.uint64), masks


_TEXT, _SHIFT, _MASKS = _layouts()


def _decimal_cells(values):
    """The cells of a float64 array, and the index of its lanes that
    ``"%.9g"`` formats itself.

    A lane of decimal exponent X in -14 .. 8 (``|v| >= 2**-46``, about
    1.4e-14, and below 999999999.5) is laid out from its nine
    digits, which one scaling gives, ``|v| * 10.0**(8 - X)``: the power is
    exact, so the product rounds once, to within 1.2e-7 of the exact
    mantissa, and decides its rounding unless its fraction is within 2.5e-7
    of 0.5 (a tie, or too close to call).  ``"%.9g"``, the reference,
    formats those lanes and every lane of another exponent or not finite.
    """
    a = np.abs(values)
    zero = values == 0.0
    decided = (a >= 2.0**-46) & (a < 999999999.5)
    v = np.where(decided, a, 1.0)
    # v is in [2**(e - 1), 2**e), so 10**k with k = 8 - floor((e - 1) log10 2)
    # scales it to nine digits before the point, or to ten, which one
    # comparison mends; k is then in 0 .. 22
    k = 8 - np.floor((np.frexp(v)[1] - 1) * 0.3010299956639812).astype(np.intp)
    k -= v * _SCALE.take(k) >= 1e9
    s = v * _SCALE.take(k)
    m = np.rint(s)
    carry = m == 1e9
    m -= carry * 9e8
    decided = decided & (np.abs(s - np.floor(s) - 0.5) > 2.5e-7) | zero
    # m's digits 0-3, 4-7 and 8, the last as "d000"
    hi = np.floor(m / 1e5)
    rest = m - hi * 1e5
    mid = np.floor(rest / 10.0)
    hi, mid, lo = hi.astype(np.intp), mid.astype(np.intp), (rest - mid * 10.0).astype(np.intp)
    zeros = (lo == 0) * (1 + _ZEROS.take(mid) + (mid == 0) * _ZEROS.take(hi))
    x = np.where(zero, 9, 8 - k + carry)
    layout = np.where(decided, 9 * (2 * (x + 14) + np.signbit(values)) + zeros, 0)
    # the 128-bit word of m's digits: 0-3 and 4-7 in the low half, 8 in the high
    low = _DIGITS.take(hi)
    low |= _DIGITS.take(mid) << 32
    high = (lo + 48).astype(np.uint64)
    cells = _TEXT.take(layout)
    # the word moves by a bits and then by 8 more, the high half taking what
    # the low one shifts out; each move ORs in the digit bytes its masks keep
    for move, masks in zip((_SHIFT.take(layout), 8), _MASKS):
        high <<= move
        high |= low >> (64 - move)
        low <<= move
        for word, mask, bits in zip((low, high), masks, cells.view(_WORD).reshape(-1, 2).T):
            bits |= word & mask.take(layout)
    flagged = np.flatnonzero(~decided)
    if len(flagged):
        text = "".join(("%.9g" % v).ljust(16, "\0") for v in values[flagged].tolist())
        cells[flagged] = np.frombuffer(text.encode("ascii"), _CELL)
    return cells, flagged


def _format_block(values, sort):
    """The cells of a float64 array (:func:`_decimal_cells`), and whether it
    holds few enough distinct values to sort the next blocks of its column.

    With ``sort``, each distinct value is formatted once and its cell
    gathered into every lane that holds it.  Values are keyed by their bit
    pattern, not compared with ``==``: ``-0.0 == 0.0`` although they print
    as ``-0`` and ``0`` (the kernel runs' ``u`` column holds both), and a NaN
    equals no value, itself included; by bits, each NaN sign and payload is
    one key.  A block without a repeated value skips the gather.
    """
    if sort:
        keys = values.view(np.int64)
        order = np.argsort(keys)
        first = np.empty(len(keys), dtype=bool)
        first[:1] = True
        np.not_equal(keys[order[1:]], keys[order[:-1]], out=first[1:])
        if not first.all():
            group = np.empty(len(keys), dtype=np.intp)
            group[order] = np.cumsum(first) - 1
            repeats = np.count_nonzero(first) <= _DISTINCT_SHARE * len(keys)
            return _decimal_cells(values[order[first]])[0].take(group), repeats
    return _decimal_cells(values)[0], False


def _write_csv(handle, header, columns):
    """Write ``header`` and the rows of ``columns``, one block of rows at a time.

    A column is a numeric array (nine significant digits of its float64
    value), a bool array (0/1) or None (empty cells); the first column is an
    array.  A block of ``_BLOCK_ROWS`` rows is one matrix of bytes: each
    float a NUL-padded cell (:func:`_format_block`), each bool one digit,
    each row's commas and newline in place.  A float column's first block
    decides whether its blocks are sorted to find repeats or formatted whole.
    Each block is written when filled, its NULs dropped by a mask.
    """
    columns = [
        column if column is None or column.dtype == bool else np.asarray(column, dtype=float)
        for column in columns
    ]
    rows = len(columns[0])
    widths = [0 if column is None else 1 if column.dtype == bool else 16 for column in columns]
    ends = np.cumsum(np.add(widths, 1))  # one past each cell's separator
    matrix = np.zeros((min(rows, _BLOCK_ROWS), ends[-1]), np.uint8)
    matrix[:, ends - 1] = ord(",")
    matrix[:, -1] = ord("\n")
    sort = [True] * len(columns)
    handle.write(header + "\n")
    for start in range(0, rows, _BLOCK_ROWS):
        block = matrix[: rows - start]
        stop = start + len(block)
        for i, (column, width, end) in enumerate(zip(columns, widths, ends)):
            cells = block[:, end - 1 - width : end - 1]
            if width == 1:
                cells[:, 0] = column[start:stop].view(np.uint8) + ord("0")
            elif width:
                cells.view(_CELL)[:, 0], repeats = _format_block(column[start:stop], sort[i])
                if not start:
                    sort[i] = repeats
        text = block.reshape(-1)
        handle.write(str(text[text != 0], "ascii"))


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
        nodes = _node_array(axes, scenario.state_from_axes, scenario.output, scenario.system.n)[0].T
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
