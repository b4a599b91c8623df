import dataclasses
import math

import numpy as np
import pytest

from cbftk.analysis import SINGULAR_TOL, abc_equivalence_check, grid_scan, validity_report
from cbftk.cbf import ABC, BACKSTEPPING, HOCBF, RECBF
from cbftk.core import LinearClassK, ReQUActivation
from cbftk.systems import PendulumParams, pendulum_scenario


def scan_pendulum(scenario, kind, resolution=(101, 101)):
    return dataclasses.replace(scenario, resolution=resolution).scan(kind)


def test_scan_is_row_major_and_deterministic(pendulum):
    scan1 = scan_pendulum(pendulum, ABC, (11, 11))
    scan2 = scan_pendulum(pendulum, ABC, (11, 11))
    assert np.array_equal(scan1.h, scan2.h)
    assert np.array_equal(scan1.margin, scan2.margin)
    assert np.array_equal(scan1.s, scan2.s)
    # row-major from the lows: the first axis varies slowest
    assert scan1.x[0][0] == pytest.approx(-math.pi / 2.0)
    assert scan1.x[0][1] == pytest.approx(-4.0)
    assert scan1.x[1][0] == pytest.approx(-math.pi / 2.0)
    assert scan1.x[1][1] > scan1.x[0][1]
    assert scan1.x[11][0] > scan1.x[0][0]


def test_record_flags_are_consistent(pendulum):
    scan = scan_pendulum(pendulum, ABC, (21, 21))
    for record in scan.records():
        assert record.in_safe_set == (record.h >= 0.0)
        assert record.in_constraint_set == (record.psi >= 0.0)
        if record.validity_violation:
            assert record.singular


def test_abc_scan_has_no_violations(pendulum):
    scan = scan_pendulum(pendulum, ABC)
    report = validity_report(scan)
    assert report.n_violations == 0
    assert report.inclusion_claimed and report.n_inclusion_violations == 0
    assert report.ok


def test_valid_kinds_have_clean_reports(pendulum):
    for kind in (RECBF, BACKSTEPPING):
        report = validity_report(scan_pendulum(pendulum, kind))
        assert report.ok, str(report)


def test_hocbf_violations_on_the_upright_column(pendulum):
    scan = scan_pendulum(pendulum, HOCBF, (401, 401))
    report = validity_report(scan)
    assert report.n_violations > 0
    assert not report.inclusion_claimed
    spacing_phi = math.pi / 400.0
    threshold = math.pi / (2.0 * math.sqrt(2.0))
    spacing_omega = 8.0 / 400.0
    violating = scan.x[scan.validity_violation]
    assert np.all(np.abs(violating[:, 0]) < spacing_phi)
    assert np.all(np.abs(violating[:, 1]) >= threshold - 1.5 * spacing_omega)


def test_rectified_large_epsilon_scan_fails(pendulum):
    loose = pendulum_scenario(params=PendulumParams(epsilon=4.0))
    report = validity_report(scan_pendulum(loose, RECBF))
    assert report.n_violations > 0


def test_distinct_enforcement_gain_shifts_high_order_violation_band():
    # margin at the zero-gradient column is -2 omega^2 + a_out * a_in * pi^2/4,
    # so doubling the enforcement gain moves the onset from ~1.1107 to ~pi/2
    scenario = pendulum_scenario(params=PendulumParams(alpha_outer_c=2.0))
    scan = scan_pendulum(scenario, HOCBF, (401, 401))
    violating = scan.x[scan.validity_violation]
    onset = np.min(np.abs(violating[:, 1]))
    assert onset == pytest.approx(math.pi / 2.0, abs=8.0 / 400.0 + 1e-9)


def test_backstepping_safe_set_bounded_abc_unbounded(pendulum):
    abc_scan = scan_pendulum(pendulum, ABC, (201, 201))
    bck_scan = scan_pendulum(pendulum, BACKSTEPPING, (201, 201))
    omega = abc_scan.x[:, 1]
    on_edge = np.abs(np.abs(omega) - 4.0) < 1e-12
    assert not np.any(bck_scan.in_safe_set & on_edge)
    assert np.any(abc_scan.in_safe_set & on_edge)


def test_abc_equals_constraint_exactly_where_s_nonnegative(pendulum):
    scan = scan_pendulum(pendulum, ABC, (201, 201))
    s_nonneg = scan.s >= 0.0
    assert np.array_equal(scan.h[s_nonneg], scan.psi[s_nonneg])
    # under the matched tolerance the agreement region is exactly the
    # nonnegative-s region; strictness is only representable once the
    # quadratic penalty clears one ulp of psi
    equal = scan.h == scan.psi
    assert np.array_equal(equal, scan.s >= -SINGULAR_TOL)
    robust = scan.s < -1e-6
    assert np.all(scan.h[robust] < scan.psi[robust])


def test_abc_equivalence_full_grid(pendulum):
    scan = scan_pendulum(pendulum, ABC, (401, 401))
    assert abc_equivalence_check(scan)


def test_abc_equivalence_hand_nodes(pendulum):
    scan = dataclasses.replace(
        pendulum, window=((0.3, 0.3001), (1.0, 1.0001)), resolution=(2, 2)
    ).scan(ABC)
    # s(0.3, 1) < 0: the input direction is live
    assert scan.s[0] < 0.0 and scan.lgh_norm[0] > SINGULAR_TOL
    scan_neg = dataclasses.replace(
        pendulum, window=((-0.3, -0.2999), (1.0, 1.0001)), resolution=(2, 2)
    ).scan(ABC)
    # s(-0.3, 1) > 0: exactly singular
    assert scan_neg.s[0] > 0.0 and scan_neg.lgh_norm[0] < SINGULAR_TOL


def test_abc_equivalence_requires_switching_data(pendulum):
    scan = scan_pendulum(pendulum, BACKSTEPPING, (11, 11))
    with pytest.raises(ValueError):
        abc_equivalence_check(scan)


def test_resolution_must_be_at_least_two(pendulum):
    with pytest.raises(ValueError):
        scan_pendulum(pendulum, ABC, (1, 11))


def test_bicycle_scan_excludes_obstacle_center(bicycle):
    p = bicycle.params
    scan = dataclasses.replace(
        bicycle,
        window=((p.obstacle_xi - 1.0, p.obstacle_xi + 1.0), (p.obstacle_eta - 1.0, p.obstacle_eta + 1.0)),
        resolution=(3, 3),
    ).scan(ABC)
    assert int(np.count_nonzero(scan.excluded)) == 1
    center_index = int(np.flatnonzero(scan.excluded)[0])
    assert scan.x[center_index][0] == pytest.approx(p.obstacle_xi)
    assert scan.x[center_index][1] == pytest.approx(p.obstacle_eta)
    assert not scan.in_safe_set[center_index]
    report = validity_report(scan)
    assert report.n_excluded == 1


def test_bicycle_abc_scan_clean_on_constraint_set(bicycle):
    # on the default slice, singular nodes inside the constraint set have
    # strictly positive margin; inside the obstacle the published gain
    # pair (alpha_hat < alpha) does not certify the margin, so those nodes
    # are not asserted
    scan = dataclasses.replace(bicycle, resolution=(101, 101)).scan(ABC)
    keep = scan.in_constraint_set
    assert not np.any(scan.validity_violation & keep)
    assert not np.any(scan.in_safe_set & ~scan.in_constraint_set)


# -- the library scan honours every argument ------------------------------------


def test_grid_scan_honours_alpha_outer(pendulum):
    inst = pendulum.make_cbf(ABC)
    scan = grid_scan(inst, pendulum.system, pendulum.window, (5, 5), alpha_outer=LinearClassK(7.0))
    for i in range(len(scan)):
        h, grad = inst.value_and_gradient(scan.x[i])
        assert scan.margin[i] == float(grad @ pendulum.system.f_vec(scan.x[i])) + 7.0 * h
    # the published gain gives -214.69 at the first node
    assert scan.margin[0] == pytest.approx(-373.47, abs=0.01)


def test_grid_scan_evaluates_the_lifted_nodes(pendulum):
    inst = pendulum.make_cbf(ABC)
    scan = grid_scan(
        inst,
        pendulum.system,
        pendulum.window,
        (5, 5),
        state_from_axes=lambda v: [v[0], -v[1]],
        alpha_outer=pendulum.alpha_outer,
    )
    omegas = np.linspace(*pendulum.window[1], 5)
    assert np.array_equal(scan.x[:5, 1], -omegas)
    assert np.array_equal(scan.h, [inst.value(x) for x in scan.x])


def test_grid_scan_honours_a_modified_instance(pendulum):
    inst = dataclasses.replace(pendulum.make_cbf(RECBF), epsilon=0.5, theta=ReQUActivation(1.0))
    scan = grid_scan(inst, pendulum.system, pendulum.window, (5, 5), alpha_outer=pendulum.alpha_outer)
    assert np.array_equal(scan.h, [inst.value(x) for x in scan.x])
