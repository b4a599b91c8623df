import dataclasses
import math

import numpy as np
import pytest

from cbftk import analysis
from cbftk import autodiff as ad
from cbftk.analysis import SINGULAR_TOL, abc_equivalence_check, grid_scan, validity_report
from cbftk.cbf import ABC, BACKSTEPPING, CBF_KINDS, HOCBF, RECBF
from cbftk.core import ControlAffineSystem, DomainError, LinearClassK, ReQUActivation
from cbftk.systems import BicycleParams, PendulumParams, bicycle_scenario, pendulum_scenario


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
    assert not scan.excluded.any()
    assert np.array_equal(scan.in_safe_set, scan.h >= 0.0)
    assert np.array_equal(scan.in_constraint_set, scan.psi >= 0.0)
    assert not np.any(scan.validity_violation & ~scan.singular)


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


@pytest.mark.parametrize("lift", [lambda v: [v[0], v[1], v[1]], lambda v: [v[0]]], ids=["three", "one"])
def test_grid_scan_refuses_a_lift_of_the_wrong_length(pendulum, lift):
    # the pendulum state has two components; a bare IndexError named neither
    with pytest.raises(ValueError, match=r"^state_from_axes must act elementwise .* shape \(2,\)"):
        grid_scan(pendulum.make_cbf(ABC), pendulum.system, pendulum.window, (5, 5), state_from_axes=lift)


def test_grid_scan_honours_a_modified_instance(pendulum):
    inst = dataclasses.replace(pendulum.make_cbf(RECBF), epsilon=0.5, theta=ReQUActivation(1.0))
    scan = grid_scan(inst, pendulum.system, pendulum.window, (5, 5), alpha_outer=pendulum.alpha_outer)
    assert np.array_equal(scan.h, [inst.value(x) for x in scan.x])


def test_bicycle_obstacle_centre_node_is_nan_in_every_column():
    # with obstacle_eta = 0 the 11 x 11 grid has a node at the centre (20, 0)
    scenario = bicycle_scenario(params=BicycleParams(obstacle_eta=0.0), resolution=(11, 11))
    for kind in CBF_KINDS:
        scan = scenario.scan(kind)
        centre = np.flatnonzero(scan.excluded)
        assert centre.size == 1
        assert np.array_equal(scan.x[centre[0], :2], [20.0, 0.0])
        columns = [scan.h, scan.psi, scan.lgh_norm, scan.margin] + ([scan.s] if kind == ABC else [])
        for column in columns:
            assert np.isnan(column[centre[0]])
            assert not np.any(np.isnan(np.delete(column, centre[0])))


def test_scenario_scan_honours_a_replaced_alpha_outer(pendulum):
    scenario = dataclasses.replace(pendulum, params=PendulumParams(alpha_outer_c=3.0), resolution=(5, 5))
    assert scenario.alpha_outer == LinearClassK(3.0)
    scan = scenario.scan(ABC)
    expected = grid_scan(
        scenario.make_cbf(ABC),
        scenario.system,
        scenario.window,
        (5, 5),
        state_from_axes=scenario.state_from_axes,
        alpha_outer=LinearClassK(3.0),
    )
    assert np.array_equal(scan.margin, expected.margin)
    assert not np.array_equal(scan.margin, dataclasses.replace(pendulum, resolution=(5, 5)).scan(ABC).margin)


def test_scenario_scan_calls_the_module_grid_scan(pendulum, monkeypatch):
    calls = []
    original = analysis.grid_scan

    def recording(*args, **kwargs):
        calls.append(args[0].kind)
        return original(*args, **kwargs)

    monkeypatch.setattr(analysis, "grid_scan", recording)
    dataclasses.replace(pendulum, resolution=(3, 3)).scan(ABC)
    assert calls == [ABC]


def _pendulum_system_with_g(g):
    return ControlAffineSystem(n=2, m=1, f=lambda x: [x[1], ad.sin(x[0])], g=g)


def test_grid_scan_refuses_a_g_that_does_not_act_elementwise(pendulum):
    inst = pendulum.make_cbf(ABC)
    scalar_only = _pendulum_system_with_g(lambda x: [[0.0], [float(x[0]) * 0.0 + 1.0]])
    with pytest.raises(ValueError, match="g must act elementwise"):
        grid_scan(inst, scalar_only, pendulum.window, (5, 5))
    wrong_shape = _pendulum_system_with_g(lambda x: [[0.0], [np.ones(3)]])
    with pytest.raises(ValueError, match="g must act elementwise"):
        grid_scan(inst, wrong_shape, pendulum.window, (5, 5))
    # constants broadcast to every node
    assert np.array_equal(
        grid_scan(inst, _pendulum_system_with_g(lambda x: [[0.0], [1.0]]), pendulum.window, (5, 5)).margin,
        grid_scan(inst, pendulum.system, pendulum.window, (5, 5)).margin,
    )


def test_grid_scan_refuses_an_extended_set_that_does_not_act_elementwise(pendulum):
    output = dataclasses.replace(pendulum.output, in_extended_set=lambda x: float(x[0]) < 10.0)
    inst = dataclasses.replace(pendulum.make_cbf(HOCBF), output=output)
    with pytest.raises(ValueError, match="in_extended_set must act elementwise"):
        grid_scan(inst, pendulum.system, pendulum.window, (5, 5))


def test_grid_scan_refuses_reductions_over_the_batch(pendulum, bicycle):
    # np.all and a norm over the batch give one value for every node
    inst = pendulum.make_cbf(HOCBF)
    for predicate in (lambda x: np.all(np.abs(x) < 1.0), lambda x: np.linalg.norm(x[:2]) > 1.0):
        output = dataclasses.replace(pendulum.output, in_extended_set=predicate)
        with pytest.raises(ValueError, match="in_extended_set must act elementwise"):
            grid_scan(dataclasses.replace(inst, output=output), pendulum.system, pendulum.window, (5, 5))
    summed = ControlAffineSystem(n=2, m=1, f=lambda x: [x[1], np.sum(ad.sin(x[0]))], g=lambda x: [[0.0], [1.0]])
    with pytest.raises(ValueError, match="f must act elementwise"):
        grid_scan(inst, summed, pendulum.window, (5, 5))
    p = bicycle.params
    output = dataclasses.replace(
        bicycle.output,
        in_extended_set=lambda x: np.linalg.norm([x[0] - p.obstacle_xi, x[1] - p.obstacle_eta]) > 1e-9,
    )
    with pytest.raises(ValueError, match="in_extended_set must act elementwise"):
        grid_scan(
            dataclasses.replace(bicycle.make_cbf(ABC), output=output),
            bicycle.system,
            ((p.obstacle_xi - 1.0, p.obstacle_xi + 1.0), (p.obstacle_eta - 1.0, p.obstacle_eta + 1.0)),
            (3, 3),
            state_from_axes=bicycle.state_from_axes,
        )


def test_grid_scan_error_names_the_first_offending_state(pendulum):
    # h = sqrt(phi) - 1 is undefined for phi < 0 and at phi = 0
    output = dataclasses.replace(pendulum.output, psi=lambda y: ad.sqrt(y[0]) - 1.0)
    inst = dataclasses.replace(pendulum.make_cbf(BACKSTEPPING), output=output)
    window = ((-1.0, 1.0), (0.0, 1.0))
    with pytest.raises(ad.EvaluationError) as err:
        grid_scan(inst, pendulum.system, window, (3, 2))
    assert err.value.primitive == "sqrt"
    assert err.value.index == 0
    assert str(err.value).endswith(f"at state {np.array([-1.0, 0.0])}")
    # the same node raises the same error type on the scalar path
    with pytest.raises(ad.EvaluationError):
        inst.value_and_gradient(np.array([-1.0, 0.0]))


def test_grid_scan_raises_the_first_failing_node_not_the_first_failing_primitive(pendulum):
    # phi = 0 fails at the divide in psi, phi = 1 at the sqrt in psi_grad,
    # which the batch evaluates first; the scalar path met phi = 0 first
    output = dataclasses.replace(
        pendulum.output,
        psi=lambda y: 1.0 / y[0],
        psi_grad=lambda y: [ad.sqrt(0.5 - y[0])],
    )
    inst = dataclasses.replace(pendulum.make_cbf(HOCBF), output=output)
    window = ((-1.0, 1.0), (0.0, 1.0))
    with pytest.raises(ad.EvaluationError) as batch:
        inst.value_and_gradient(np.array([[-1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
    assert (batch.value.primitive, batch.value.index) == ("sqrt", 2)
    with pytest.raises(ad.EvaluationError) as err:
        grid_scan(inst, pendulum.system, window, (3, 2))
    assert (err.value.primitive, err.value.index) == ("divide", 2)
    assert str(err.value) == f"divide: division by a zero-valued operand at state {np.array([0.0, 0.0])}"
    with pytest.raises(ad.EvaluationError) as alone:
        inst.value_and_gradient(np.array([0.0, 0.0]))
    assert alone.value.primitive == "divide"


def test_grid_scan_names_a_kept_singular_state(bicycle):
    # without its extended set the bicycle keeps the obstacle centre, where
    # the virtual controller is undefined
    output = dataclasses.replace(bicycle.output, in_extended_set=lambda x: True)
    inst = dataclasses.replace(bicycle.make_cbf(ABC), output=output)
    p = bicycle.params
    window = ((p.obstacle_xi - 1.0, p.obstacle_xi + 1.0), (p.obstacle_eta - 1.0, p.obstacle_eta + 1.0))
    with pytest.raises(DomainError) as err:
        grid_scan(inst, bicycle.system, window, (3, 3), state_from_axes=bicycle.state_from_axes)
    assert err.value.index == 4
    assert str(err.value).endswith(f"at state {np.array([p.obstacle_xi, p.obstacle_eta, 0.0, p.v_desired])}")
