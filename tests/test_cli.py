import hashlib
import io
import tracemalloc
import xml.etree.ElementTree as ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbftk import svg as svg_mod
from cbftk.cli import _BLOCK_ROWS, _MASKS, _TEXT, _decimal_cells, _layout, _output, _write_csv, _write_scan, main
from cbftk.config import ConfigError, ScenarioConfig

KINDS = ("hocbf", "recbf", "backstepping", "abc")


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def column(header, rows, name):
    i = header.index(name)
    return np.array([float(row[i]) for row in rows if row[i] != ""])


def test_simulate_abc_pendulum_is_safe(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--scenario", "pendulum", "--cbf", "abc", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "x1", "x2", "u1", "h", "psi", "s"]
    assert len(rows) == 10001
    assert column(header, rows, "psi").min() >= 0.0
    assert column(header, rows, "s").size == len(rows)


def test_simulate_csv_uses_nine_significant_digits(tmp_path):
    out = tmp_path / "traj.csv"
    main(["simulate", "--scenario", "pendulum", "--cbf", "abc", "--out", str(out), "--set", "sim.horizon=0.01"])
    header, rows = read_csv(out)
    x1 = rows[1][header.index("x1")]
    assert len(x1.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) <= 10
    assert float(rows[0][header.index("x1")]) == -1.2


def test_simulate_s_column_empty_for_other_kinds(tmp_path):
    out = tmp_path / "traj.csv"
    main(
        [
            "simulate",
            "--scenario",
            "pendulum",
            "--cbf",
            "backstepping",
            "--out",
            str(out),
            "--set",
            "sim.horizon=0.05",
        ]
    )
    header, rows = read_csv(out)
    assert header[-1] == "s"
    assert all(row[-1] == "" for row in rows)
    assert all(row.count("") == 1 for row in rows)


def test_simulate_blow_up_exits_2(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(
        [
            "simulate",
            "--scenario",
            "pendulum",
            "--cbf",
            "hocbf",
            "--set",
            "init.x0=0.1,-2.0",
            "--out",
            str(out),
        ]
    )
    assert code == 2
    header, rows = read_csv(out)
    assert abs(float(rows[-1][header.index("u1")])) > 1e3


def test_simulate_bicycle_keeps_clearance(tmp_path):
    out = tmp_path / "bike.csv"
    assert main(["simulate", "--scenario", "bicycle", "--cbf", "abc", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "x1", "x2", "x3", "x4", "u1", "u2", "h", "psi", "s"]
    xi = column(header, rows, "x1")
    eta = column(header, rows, "x2")
    clearance = (xi - 20.0) ** 2 + (eta + 0.1) ** 2
    assert clearance.min() >= 16.0


def test_byte_identical_reruns(tmp_path):
    args = ["simulate", "--scenario", "pendulum", "--cbf", "abc", "--set", "sim.horizon=1.0"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_scan_abc_has_no_violations(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--scenario", "pendulum", "--cbf", "abc", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == [
        "x1",
        "x2",
        "h",
        "psi",
        "lgh_norm",
        "margin",
        "s",
        "in_S",
        "in_C",
        "singular",
        "violation",
    ]
    assert len(rows) == 401 * 401
    assert all(row[header.index("violation")] == "0" for row in rows)


def test_scan_hocbf_has_violations(tmp_path):
    out = tmp_path / "scan.csv"
    main(["scan", "--scenario", "pendulum", "--cbf", "hocbf", "--out", str(out)])
    header, rows = read_csv(out)
    assert any(row[header.index("violation")] == "1" for row in rows)
    assert all(row[header.index("s")] == "" for row in rows)


def test_scan_two_by_two(tmp_path):
    out = tmp_path / "scan.csv"
    main(["scan", "--scenario", "pendulum", "--cbf", "abc", "--set", "scan.resolution=2,2", "--out", str(out)])
    _, rows = read_csv(out)
    assert len(rows) == 4


def test_validate_exit_codes(tmp_path, capsys):
    assert main(["validate", "--scenario", "pendulum", "--cbf", "recbf"]) == 0
    capsys.readouterr()
    assert main(["validate", "--scenario", "pendulum", "--cbf", "abc"]) == 0
    capsys.readouterr()
    code = main(
        ["validate", "--scenario", "pendulum", "--cbf", "recbf", "--set", "cbf.epsilon=4.0"]
    )
    out = capsys.readouterr().out
    assert code == 3
    assert "FAIL" in out
    assert "r =" in out  # the first witness of the failed condition is shown


def test_validate_hocbf_fails(capsys):
    assert main(["validate", "--scenario", "pendulum", "--cbf", "hocbf"]) == 3
    out = capsys.readouterr().out
    assert "not claimed" in out


def test_compare_four_kinds(tmp_path):
    out = tmp_path / "compare.csv"
    code = main(
        [
            "compare",
            "--scenario",
            "pendulum",
            "--cbf",
            "hocbf,recbf,backstepping,abc",
            "--out",
            str(out),
        ]
    )
    assert code == 2  # high-order run blows up from the default start
    header, rows = read_csv(out)
    assert header[:3] == ["cbf", "min_h", "min_psi"]
    by_kind = {row[0]: row for row in rows}
    assert by_kind["hocbf"][header.index("blew_up")] == "1"
    for kind in ("recbf", "backstepping", "abc"):
        assert by_kind[kind][header.index("blew_up")] == "0"
    max_u = header.index("max_abs_u1")
    assert float(by_kind["abc"][max_u]) >= float(by_kind["backstepping"][max_u])


def test_compare_bicycle_all_kinds_runs(tmp_path):
    out = tmp_path / "bike_compare.csv"
    code = main(
        [
            "compare",
            "--scenario",
            "bicycle",
            "--cbf",
            "hocbf,recbf,backstepping,abc",
            "--set",
            "sim.horizon=2.0",
            "--out",
            str(out),
        ]
    )
    assert code in (0, 2)
    header, rows = read_csv(out)
    assert len(rows) == 4
    assert "max_abs_u2" in header and "final_x4" in header


def test_compare_single_kind_matches_simulate_metrics(tmp_path):
    from cbftk.sim import compute_metrics
    from cbftk.systems import pendulum_scenario

    out = tmp_path / "compare.csv"
    assert main(["compare", "--scenario", "pendulum", "--cbf", "abc", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert len(rows) == 1
    metrics = compute_metrics(pendulum_scenario().simulate("abc"))
    row = rows[0]
    assert float(row[header.index("min_h")]) == pytest.approx(metrics.min_h, rel=1e-8)
    assert float(row[header.index("min_psi")]) == pytest.approx(metrics.min_psi, rel=1e-8)
    assert float(row[header.index("max_abs_u1")]) == pytest.approx(float(metrics.max_abs_u[0]), rel=1e-8)


def test_unknown_key_exits_1(tmp_path, capsys):
    assert main(["simulate", "--scenario", "pendulum", "--cbf", "abc", "--set", "cbf.nonsense=1"]) == 1
    err = capsys.readouterr().err
    assert "cbf.nonsense" in err


def test_bad_cbf_name_exits_1(capsys):
    assert main(["simulate", "--scenario", "pendulum", "--cbf", "magic"]) == 1
    assert "magic" in capsys.readouterr().err


def test_simulate_rejects_multiple_kinds(capsys):
    assert main(["simulate", "--scenario", "pendulum", "--cbf", "abc,hocbf"]) == 1
    assert "single construction" in capsys.readouterr().err


def test_config_file_with_flag_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# pendulum with a softer class-K gain\n"
        "scenario = pendulum\n"
        "cbf = backstepping\n"
        "cbf.alpha_c = 0.5\n"
        "sim.horizon = 0.5\n"
    )
    out = tmp_path / "traj.csv"
    assert (
        main(
            [
                "simulate",
                "--config",
                str(cfg),
                "--cbf",
                "abc",  # flag overrides the file
                "--out",
                str(out),
            ]
        )
        == 0
    )
    header, rows = read_csv(out)
    assert len(rows) == 501
    assert column(header, rows, "s").size > 0  # ran the activated kind


def test_config_round_trip():
    config = ScenarioConfig.from_text(
        "scenario = bicycle\ncbf = abc\ncbf.mu = 2.0\nsim.dt = 0.002\ninit.x0 = 0,1,0,2\n"
    )
    text = config.to_text()
    reparsed = ScenarioConfig.from_text(text)
    first = config.build_scenario()
    second = reparsed.build_scenario()
    assert first.params == second.params
    assert np.array_equal(first.x0, second.x0)
    assert first.dt == second.dt and first.horizon == second.horizon
    assert first.window == second.window and first.resolution == second.resolution
    assert first.resolved_slice == second.resolved_slice
    # serialization is canonical: a second round trip is textually stable
    assert reparsed.to_text() == text


def test_round_trip_pendulum_defaults():
    config = ScenarioConfig.from_text("scenario = pendulum\n")
    reparsed = ScenarioConfig.from_text(config.to_text())
    assert reparsed.build_scenario().params == config.build_scenario().params


def test_svg_output_is_wellformed(tmp_path):
    out = tmp_path / "traj.csv"
    assert (
        main(
            [
                "simulate",
                "--scenario",
                "pendulum",
                "--cbf",
                "abc",
                "--set",
                "sim.horizon=0.5",
                "--out",
                str(out),
                "--svg",
            ]
        )
        == 0
    )
    svg = tmp_path / "traj.csv.svg"
    assert svg.exists()
    root = ElementTree.parse(svg).getroot()
    assert root.tag.endswith("svg")
    assert main(
        [
            "scan",
            "--scenario",
            "pendulum",
            "--cbf",
            "abc",
            "--set",
            "scan.resolution=41,41",
            "--out",
            str(tmp_path / "scan.csv"),
            "--svg",
        ]
    ) == 0
    ElementTree.parse(tmp_path / "scan.csv.svg")


def test_svg_coordinates_match_per_point_formatting(tmp_path):
    # the per-point loop the array code replaced, with the module's own scale
    width, height = svg_mod._W - svg_mod._ML - svg_mod._MR, svg_mod._H - svg_mod._MT - svg_mod._MB
    x = np.linspace(0.0, 3.0, 41)
    values = np.sin(7.0 * x) * 1e3
    values[[3, 17]] = [np.nan, np.inf]
    svg_mod.line_chart(tmp_path / "chart.svg", x, {"v": values, "w": 0.5 * values})
    x_lo, x_hi = svg_mod._span(0.0, 3.0)
    finite = values[np.isfinite(values)]  # the range of the second series lies inside
    y_lo, y_hi = svg_mod._span(float(finite.min()), float(finite.max()))
    polylines = ElementTree.parse(tmp_path / "chart.svg").getroot().iter(
        "{http://www.w3.org/2000/svg}polyline"
    )
    for line, series in zip(polylines, (values, 0.5 * values)):
        expected = " ".join(
            f"{svg_mod._ML + (a - x_lo) / (x_hi - x_lo) * width:.2f},"
            f"{svg_mod._H - svg_mod._MB - (b - y_lo) / (y_hi - y_lo) * height:.2f}"
            for a, b in zip(x, series)
            if np.isfinite(b)
        )
        assert line.get("points") == expected

    ax0, ax1 = np.linspace(-1.0, 1.0, 5), np.linspace(0.0, 2.0, 7)
    cats = np.arange(35) % 3
    colors = {1: "#111111", 2: "#222222"}
    svg_mod.cell_map(tmp_path / "map.svg", (ax0, ax1), cats, colors)
    cw, ch = width / 4, height / 6
    expected = [
        (
            f"{svg_mod._ML + (ax0[i] + 1.0) / 2.0 * width - cw / 2:.2f}",
            f"{svg_mod._H - svg_mod._MB - ax1[j] / 2.0 * height - ch / 2:.2f}",
            colors[cats[7 * i + j]],
        )
        for i in range(5)
        for j in range(7)
        if cats[7 * i + j]
    ]
    rects = ElementTree.parse(tmp_path / "map.svg").getroot().iter("{http://www.w3.org/2000/svg}rect")
    assert [(r.get("x"), r.get("y"), r.get("fill")) for r in list(rects)[1:]] == expected


def test_lf_line_endings(tmp_path):
    out = tmp_path / "traj.csv"
    main(["simulate", "--scenario", "pendulum", "--cbf", "abc", "--set", "sim.horizon=0.01", "--out", str(out)])
    data = out.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")


def test_config_error_messages_name_keys():
    with pytest.raises(ConfigError, match="sim.dt"):
        ScenarioConfig.from_text("sim.dt = fast\n")
    with pytest.raises(ConfigError, match="scenario"):
        ScenarioConfig.from_text("scenario = hovercraft\n")
    with pytest.raises(ConfigError, match="init.x0"):
        ScenarioConfig.from_text("scenario = pendulum\ninit.x0 = 1,2,3\n")


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize(
    "plant,x0", [("bicycle", "20,-0.1,0,3"), ("pendulum", "nan,0"), ("pendulum", "0,-inf")]
)
def test_initial_state_without_a_first_row_is_refused(tmp_path, capsys, command, plant, x0):
    # the obstacle centre and non-finite states would give zero-row runs
    out = tmp_path / "out.csv"
    argv = [command, "--scenario", plant, "--cbf", "abc", "--set", f"init.x0={x0}"]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: init.x0: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "plant,assignment,message",
    [
        ("pendulum", "sim.horizon=inf", "sim.horizon: expected a finite number"),
        ("pendulum", "sim.dt=inf", "sim.dt: expected a finite number"),
        ("pendulum", "scan.window=0:inf,-1:1", "scan.window: expected a finite number"),
        ("pendulum", "cbf.K=nan", "cbf.K: expected a finite number"),
        ("pendulum", "sim.blow_up=nan", "sim.blow_up: expected a finite number"),
        ("pendulum", "sim.blow_up=0", "sim.blow_up: must be positive"),
        ("pendulum", "sim.blow_up=-1", "sim.blow_up: must be positive"),
        ("bicycle", "filter.gamma=inf,1", "filter.gamma: expected finite numbers"),
        ("bicycle", "scan.v=nan", "scan.v: expected a finite number"),
        ("pendulum", "sim.dt=0", "sim.dt: must be positive"),
        ("pendulum", "sim.horizon=-1", "sim.horizon: must be positive"),
        ("pendulum", "scan.window=0:1", "scan.window: expected two axes"),
        ("pendulum", "scan.window=1:0", "scan.window: empty range '1:0'"),
        ("pendulum", "scan.window=0-1,0:1", "scan.window: expected lo:hi ranges, got '0-1'"),
        ("pendulum", "scan.resolution=1", "scan.resolution: expected one or two counts >= 2"),
        ("pendulum", "scan.resolution=2,2,2", "scan.resolution: expected one or two counts >= 2"),
        ("pendulum", "scan.resolution=2.5", "scan.resolution: expected comma-separated integers, got '2.5'"),
        ("pendulum", "init.x0=1,a", "init.x0: expected comma-separated numbers, got '1,a'"),
        ("bicycle", "filter.gamma=1", "filter.gamma: bicycle expects two weights"),
        ("pendulum", "sim.dt", "--set expects key=value, got 'sim.dt'"),
    ],
)
def test_non_finite_and_non_positive_numbers_are_refused(tmp_path, capsys, plant, assignment, message):
    for command in ("simulate", "scan"):
        out = tmp_path / f"{command}.out"
        argv = [command, "--scenario", plant, "--cbf", "abc", "--set", assignment]
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"configuration error: {message}")
        assert not out.exists()


def test_a_config_line_without_an_assignment_is_refused(tmp_path, capsys):
    cfg, out = tmp_path / "run.cfg", tmp_path / "out.csv"
    cfg.write_text("scenario = pendulum\nsim.dt\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["configuration error: line 2: expected key = value, got 'sim.dt'"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "scan", "compare"])
def test_a_step_count_that_overflows_is_refused(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    argv = [command, "--set", "sim.horizon=1e300", "--set", "sim.dt=1e-10", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["configuration error: sim.horizon, sim.dt: horizon / dt = 1e+300 / 1e-10 overflows"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "scan", "compare"])
def test_a_step_count_no_index_holds_is_refused(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    assert main([command, "--set", "sim.horizon=1e300", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "configuration error: sim.horizon, sim.dt: horizon / dt = 1e+300 / 0.001 is 1e+303 steps, "
        "more than an index holds"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "plant,kind,assignment,reason",
    [
        ("pendulum", "abc", "cbf.alpha_outer_c=0", "class-K gain"),
        ("pendulum", "recbf", "cbf.mu_recbf=-1", "activation scale"),
        ("pendulum", "recbf", "cbf.epsilon=-1", "epsilon"),
        ("bicycle", "abc", "cbf.mu=0", "activation scale"),
        ("bicycle", "abc", "kappa.sigma_hat=-1", "sigma"),
        ("bicycle", "abc", "system.wheelbase=0", "wheelbase must be positive"),
        ("bicycle", "hocbf", "system.wheelbase=-1", "wheelbase must be positive"),
    ],
)
def test_parameters_refused_by_the_constructors_exit_1(tmp_path, capsys, plant, kind, assignment, reason):
    for command in ("simulate", "scan", "validate"):
        out = tmp_path / f"{command}.out"
        argv = [command, "--scenario", plant, "--cbf", kind, "--set", assignment]
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"configuration error: {plant} parameters: ")
        assert reason in err[0]
        assert not out.exists()


# -- the column writer against the per-cell layout ----------------------------

# values whose nine-digit text is easy to get wrong: signed zero, the
# non-finite values, subnormals, the extremes of the exponent range, the
# points where %g switches between plain and exponent notation, exact ties
# at the tenth digit (to even, either way, and 2**-14 = 6.103515625e-05),
# roundings up across a power of ten, the edges of the values the digits
# decide (2**-46, about 1.4e-14, and 999999999.5), and |v| below 1e-14 and
# from 1e22, where 10**(8 - X) is not exact
_AWKWARD = [
    np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
    1.7976931348623157e308, -1e300, 1e-300, 1e-5, 1e-4, 0.0001234567891,
    999999999.0, 999999999.5, 1e9, -123456789.123, 1.0 / 3.0,
    100000000.5, 100000001.5, -12345678.25, 12345678.75, 1234567.125, 123456.0625,
    12345.03125, 1234.015625, 123.0078125, 2.0**-14, -(2.0**-14),
    9.99999999951e-5, 99999999.95, 0.999999999951, 9.99999999951e-6, -9.9999999996e-15,
    np.nextafter(1e-14, 0.0), 1e-14, np.nextafter(1e-14, 1.0), 9.99999999e-15,
    1e22, np.nextafter(1e22, np.inf), 1e23, -9.99999999e21,
    np.nextafter(2.0**-46, 0.0), 2.0**-46, -np.nextafter(2.0**-46, 1.0), np.nextafter(999999999.5, 0.0),
]
# NaNs with the sign bit set or other payload bits: distinct keys, one text
_NANS = np.array(
    [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0xFFF0000000000123],
    dtype=np.uint64,
).view(float)


def _per_cell_lines(header, columns):
    """The CLI's CSV layout built one cell at a time, the reference for the writer."""
    lines = [header]
    for k in range(len(columns[0])):
        cells = []
        for column in columns:
            if column is None:
                cells.append("")
            elif column.dtype == bool:
                cells.append(str(int(column[k])))
            else:
                cells.append(f"{column[k]:.9g}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=30)
@given(
    pool=st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=12),
    rows=st.sampled_from(
        [0, 1, 2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1]
    ),
    kinds=st.lists(
        st.sampled_from(["float", "distinct", "mixed", "zeros", "bool", "empty"]), max_size=6
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_column_writer_matches_per_cell_formatting(pool, rows, kinds, seed):
    rng = np.random.default_rng(seed)
    values = np.concatenate([pool + _AWKWARD, _NANS])
    # all distinct: every block is formatted whole
    distinct = rng.permutation(rows) / 7.0 - 100.0
    # the leading columns are strided views, as the state columns x.T are
    columns = [*rng.choice(values, (rows, 2)).T]
    for kind in kinds:
        if kind == "float":
            columns.append(rng.choice(values, rows))
        elif kind == "distinct":
            columns.append(distinct)
        elif kind == "mixed":
            # no repeat in the first block, repeats after it
            columns.append(np.where(np.arange(rows) < _BLOCK_ROWS, distinct, rng.choice(values, rows)))
        elif kind == "zeros":
            columns.append(rng.choice(np.array([0.0, -0.0, *_NANS]), rows))
        elif kind == "bool":
            columns.append(rng.random(rows) < 0.5)
        else:
            columns.append(None)
    header = ",".join(f"c{i}" for i in range(len(columns)))
    out = io.StringIO()
    _write_csv(out, header, columns)
    assert out.getvalue() == _per_cell_lines(header, columns)


def test_column_writer_formats_other_numeric_dtypes_as_floats():
    # an integer's bits must not be read as a double's
    columns = [
        np.array([0, 1, -7, 2**53 + 1, 2**62, 1, 0], dtype=np.int64),
        np.array([0.1, 0.1, -0.0, np.nan, 3e38, 1e-45, 0.1], dtype=np.float32),
        np.array([1, 1, 2, 2, 3, 3, 4], dtype=np.int32),
    ]
    out = io.StringIO()
    _write_csv(out, "a,b,c", columns)
    assert out.getvalue() == _per_cell_lines("a,b,c", columns)
    assert out.getvalue().splitlines()[4] == "9.00719925e+15,nan,2"


@pytest.mark.parametrize("rows", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS])
def test_blocks_sorted_or_formatted_whole_give_the_same_bytes(rows):
    # a column's first block decides whether its later blocks are sorted to
    # find repeats or formatted whole; the bytes must not depend on it
    rng = np.random.default_rng(rows)
    # signed zeros and NaNs of both signs and other payloads: distinct keys
    special = np.concatenate([[0.0, -0.0], _NANS])
    distinct = np.concatenate([special, rng.permutation(rows) / 7.0 - 100.0])[:rows]
    repeats = rng.choice(np.concatenate([special, [1.5, -2.25, 1e-20]]), rows)
    head = np.arange(rows) < _BLOCK_ROWS
    columns = [
        distinct,
        repeats,
        np.where(head, distinct, repeats),
        np.where(head, repeats, distinct),
        # two thirds distinct: sorted in the first block only
        np.where(np.arange(rows) % 3 == 0, -0.0, distinct),
        np.where(np.arange(rows) % 3 == 0, rng.choice(_NANS, rows), repeats),
    ]
    out = io.StringIO()
    _write_csv(out, "a,b,c,d,e,f", columns)
    assert out.getvalue() == _per_cell_lines("a,b,c,d,e,f", columns)


def test_a_column_of_distinct_values_is_sorted_in_its_first_block_only(monkeypatch):
    scenario = ScenarioConfig.from_assignments(
        {"scenario": "pendulum", "cbf": "hocbf", "scan.resolution": "101,101"}
    ).build_scenario()
    scan = scenario.scan("hocbf")
    sorted_keys = []
    argsort = np.argsort

    def recording(keys, *args, **kwargs):
        sorted_keys.append(np.array(keys))
        return argsort(keys, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", recording)
    _write_scan(io.StringIO(), scenario, scan)
    monkeypatch.undo()
    starts = range(0, len(scan), _BLOCK_ROWS)

    def sorted_blocks(column):
        blocks = [column[start : start + _BLOCK_ROWS].view(np.int64) for start in starts]
        return sum(any(np.array_equal(keys, block) for keys in sorted_keys) for block in blocks)

    assert len(starts) == 3
    assert len(np.unique(scan.h[:_BLOCK_ROWS])) == _BLOCK_ROWS
    assert sorted_blocks(scan.h) == 1
    # a grid axis repeats: each of its blocks is sorted
    assert sorted_blocks(scan.x[:, 0]) == len(starts)


def test_two_shifts_place_the_digits_of_every_layout():
    # each layout of a cell, x in -14 .. 9 (9 for a zero), either sign and
    # 0 .. 8 trailing zeros, at its index in the tables
    layouts = [(x, sign, zeros) for x in range(-14, 10) for sign in ("", "-") for zeros in range(9)]
    masks = [np.ascontiguousarray(mask.T).view(np.uint8) for mask in _MASKS]
    assert len(layouts) == len(_TEXT) == 432
    values, texts = [], []
    for index, (x, sign, zeros) in enumerate(layouts):
        text = _layout(x, sign, 9 - zeros)
        digit = np.frombuffer(text.ljust(16, "\0").encode(), np.uint8) == ord("d")
        assert not (masks[0][index] & masks[1][index]).any()
        assert ((masks[0][index] | masks[1][index]) == np.where(digit, 255, 0)).all()
        # nine digits with these trailing zeros, from 9 so that x = -14 is laid out
        digits = iter("987654321"[: 9 - zeros] + "0" * zeros)
        texts.append("".join(next(digits) if c == "d" else c for c in text))
        values.append(float(texts[-1]))
    assert texts == ["%.9g" % v for v in values]
    cells, flagged = _decimal_cells(np.array(values))
    assert [bytes(cell).rstrip(b"\0").decode() for cell in cells.view(np.uint8).reshape(-1, 16)] == texts
    assert len(flagged) == 0


def _assert_cells_are_percent_9g(values):
    cells, flagged = _decimal_cells(values)
    text = [bytes(cell).rstrip(b"\0").decode() for cell in cells.view(np.uint8).reshape(-1, 16)]
    assert text == ["%.9g" % v for v in values.tolist()]
    return flagged


@settings(derandomize=True, max_examples=40)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=2000), seed=st.integers(0, 2**32 - 1))
def test_every_cell_is_the_percent_9g_text_of_its_bits(bits, seed):
    # raw patterns hit every exponent, the subnormals and every NaN payload
    more = np.random.default_rng(seed).integers(0, 2**64, 5000, dtype=np.uint64)
    _assert_cells_are_percent_9g(np.concatenate([np.array(bits, dtype=np.uint64), more]).view(float))


def test_every_cell_at_a_decision_boundary_is_the_percent_9g_text():
    # the 50 doubles either side of each power of ten and of each point where
    # nine digits round up to the next power, and exact ties at the tenth digit
    powers = 10.0 ** np.arange(-16, 24)
    edges = np.concatenate([powers, powers * (1.0 - 5e-10)])
    near = (edges.view(np.int64)[:, None] + np.arange(-50, 51)).ravel().view(float)
    # n + 1/2 = r * 5**k / 2 for an odd r makes a double of (n + 1/2) / 10**k,
    # r / 2**(k + 1): a tie of the nine digits n for k = 0 .. 13
    rng = np.random.default_rng(26)
    k = rng.integers(0, 14, 4000)
    five = 5**k
    low, high = -(-(2 * 10**8 + 1) // five) // 2, ((2 * 10**9 - 1) // five - 1) // 2
    r = 2 * (low + rng.integers(0, 2**62, 4000) % (high - low + 1)) + 1
    ties = r / 2.0 ** (k + 1)
    values = np.concatenate([near, -near, ties, -ties, _AWKWARD])
    flagged = _assert_cells_are_percent_9g(values)
    # a tie is not decided by the digits: "%.9g" formats it itself
    assert np.isin(np.arange(len(near) * 2, len(near) * 2 + 2 * len(ties)), flagged).all()


def _scenario(plant, kind):
    config = ScenarioConfig.from_assignments(
        {"scenario": plant, "cbf": kind, "scan.resolution": "21,21", "sim.horizon": "1.0"}
    )
    return config, config.build_scenario()


@pytest.mark.parametrize("plant", ["pendulum", "bicycle"])
@pytest.mark.parametrize("kind", KINDS)
def test_scan_csv_keeps_the_per_cell_layout(tmp_path, plant, kind):
    _, scenario = _scenario(plant, kind)
    out = tmp_path / "scan.csv"
    argv = ["scan", "--scenario", plant, "--cbf", kind, "--set", "scan.resolution=21,21"]
    assert main(argv + ["--out", str(out)]) == 0
    scan = scenario.scan(kind)
    header = (
        ",".join(f"x{i + 1}" for i in range(scenario.system.n))
        + ",h,psi,lgh_norm,margin,s,in_S,in_C,singular,violation"
    )
    columns = [*scan.x.T, scan.h, scan.psi, scan.lgh_norm, scan.margin, scan.s]
    columns += [scan.in_safe_set, scan.in_constraint_set, scan.singular, scan.validity_violation]
    assert len(scan) == 21 * 21
    assert out.read_bytes() == _per_cell_lines(header, columns).encode()


@pytest.mark.parametrize("plant", ["pendulum", "bicycle"])
@pytest.mark.parametrize("kind", KINDS)
def test_simulate_csv_keeps_the_per_cell_layout(tmp_path, plant, kind):
    config, scenario = _scenario(plant, kind)
    out = tmp_path / "traj.csv"
    argv = ["simulate", "--scenario", plant, "--cbf", kind, "--set", "sim.horizon=1.0"]
    main(argv + ["--out", str(out)])
    traj = scenario.simulate(kind, blow_up_threshold=config.blow_up_threshold)
    n, m = scenario.system.n, scenario.system.m
    header = (
        "t,"
        + ",".join(f"x{i + 1}" for i in range(n))
        + ","
        + ",".join(f"u{i + 1}" for i in range(m))
        + ",h,psi,s"
    )
    columns = [traj.t, *traj.x.T, *traj.u.T, traj.h, traj.psi, traj.s]
    text = out.read_bytes().decode()
    assert text == _per_cell_lines(header, columns)
    # the kernel runs' signed zeros in u survive as "-0" cells
    negative_zeros = int(np.count_nonzero(np.signbit(traj.u[:, 0]) & (traj.u[:, 0] == 0.0)))
    u1 = [line.split(",")[1 + n] for line in text.splitlines()[1:]]
    assert u1.count("-0") == negative_zeros
    if plant == "pendulum" and kind != "hocbf":
        assert negative_zeros > 0


@pytest.mark.parametrize("plant", ["pendulum", "bicycle"])
@pytest.mark.parametrize("kind", KINDS)
def test_few_scan_cells_take_the_per_value_formatting(plant, kind):
    # a slow path that no output shows: "%.9g" formats only the lanes flagged
    scenario = ScenarioConfig.from_assignments(
        {"scenario": plant, "cbf": kind, "scan.resolution": "41,41"}
    ).build_scenario()
    scan = scenario.scan(kind)
    columns = [*scan.x.T, scan.h, scan.psi, scan.lgh_norm, scan.margin]
    columns += [] if scan.s is None else [scan.s]
    flagged = sum(len(_decimal_cells(column)[1]) for column in columns)
    assert flagged < 0.01 * sum(map(len, columns))


def test_scan_writer_holds_less_than_half_the_file(tmp_path, pendulum):
    scan = pendulum.scan("abc")
    out = tmp_path / "scan.csv"
    tracemalloc.start()
    try:
        with _output(str(out)) as handle:
            _write_scan(handle, pendulum, scan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(scan) == 401 * 401
    assert peak < out.stat().st_size / 2


# exit code and sha256 of every published 401 x 401 scan CSV and validate
# report, as the scan kernels wrote them before grid_scan evaluated batches
PUBLISHED_OUTPUTS = {
    ("scan", "pendulum", "hocbf"): (0, "129f70abe79ec7284d49a8d650a281cdc254150ad425e487c82165669994bde4"),
    ("scan", "pendulum", "recbf"): (0, "65b1e784ae69657f57471b4abfc4171c690ae87ec27ba4743f27b932ff4582bc"),
    ("scan", "pendulum", "backstepping"): (0, "006900385179c2b19009fb8e0811cdb2061059f1f12c08aa613a30516e6e535d"),
    ("scan", "pendulum", "abc"): (0, "c1017ee0185e42c3f6c3094c23d8b222f97df73d751788be04664e277240c039"),
    ("scan", "bicycle", "hocbf"): (0, "3527af637e78d253b31425c61ade1ad5c928aaa337cccf0a8638098fa653bdd6"),
    ("scan", "bicycle", "recbf"): (0, "7490ba5d03684ab704e095b6b4d54e1a1a89d8dc66889a43638775a5c1c2600e"),
    ("scan", "bicycle", "backstepping"): (0, "154065b8d853f3bb964e444c9ff222c31c5337cb4b93b20a06bf9c36d78429e8"),
    ("scan", "bicycle", "abc"): (0, "0adc1858685dd5cd03760acef1cac7683782db783e8c53347ff65184d10414fe"),
    ("validate", "pendulum", "hocbf"): (3, "17ae92044b4fc008afd795c92ddda243b0f640e1d4820322f66e6306b26f92c2"),
    ("validate", "pendulum", "recbf"): (0, "d2824c13b6f9f6b3c69c8fe4976b07e980fa32a0f12b486023f71558d2e663fd"),
    ("validate", "pendulum", "backstepping"): (0, "5f0c06909465bd5eeb98cc5f0d927a293444223b3eb67b7b339683507b8dc922"),
    ("validate", "pendulum", "abc"): (0, "9437817999aea08d77b46ec607fa66454c837fbc8ce05f20fe8872021d31cdb8"),
    ("validate", "bicycle", "hocbf"): (0, "ad4a9bc2d757265c730daf408c16861e6ad137d7524120b9b795261af890a009"),
    ("validate", "bicycle", "recbf"): (0, "c6eb30c35edc2edfcb672af84e5e85c7a8fa08ccb0821c470617cc9b6eff2f01"),
    ("validate", "bicycle", "backstepping"): (0, "d82b7803b1976d8ec2c4130816414e76fe5dfd287dd5ae95fd4540d4e8548bc2"),
    ("validate", "bicycle", "abc"): (3, "bb255d82bd2066a2bf81c7a510726ec3062df86195a6d90e0fa143c8a3e7c694"),
}


@pytest.mark.parametrize("command,plant,kind", list(PUBLISHED_OUTPUTS))
def test_published_outputs_keep_their_bytes(tmp_path, command, plant, kind):
    out = tmp_path / "out"
    code = main([command, "--scenario", plant, "--cbf", kind, "--out", str(out)])
    assert (code, hashlib.sha256(out.read_bytes()).hexdigest()) == PUBLISHED_OUTPUTS[command, plant, kind]
