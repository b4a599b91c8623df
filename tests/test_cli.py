import xml.etree.ElementTree as ElementTree

import numpy as np
import pytest

from cbftk.cli import main
from cbftk.config import ConfigError, ScenarioConfig


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
    assert first.scan_slice == second.scan_slice
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
