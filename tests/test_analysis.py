import contextlib
import dataclasses
import io
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbftk import analysis
from cbftk import autodiff as ad
from cbftk.analysis import SINGULAR_TOL, abc_equivalence_check, grid_scan, validity_report
from cbftk.cbf import ABC, BACKSTEPPING, CBF_KINDS, HOCBF, RECBF
from cbftk.core import ControlAffineSystem, DomainError, LinearClassK, ReQUActivation
from cbftk.systems import HALF_PI_SQ, BicycleParams, PendulumParams, bicycle_scenario, pendulum_scenario
from strategies import ROW_SPLITTING, bicycle_params, pendulum_params, split_blocks


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
    with pytest.raises(ValueError, match="resolution of axis 0 must be a whole number of at least 2, got 1"):
        scan_pendulum(pendulum, ABC, (1, 11))


@pytest.mark.parametrize(
    "window, resolution, message",
    [
        (((-1.0, 1.0), (-4.0, 4.0)), (10.7, 3.2), r"resolution of axis 0 must be a whole number .*, got 10.7"),
        (((-1.0, 1.0), (-4.0, 4.0)), (10, 3.2), r"resolution of axis 1 must be a whole number .*, got 3.2"),
        (((-1.0, math.nan), (-4.0, 4.0)), (10, 10), r"window of axis 0 must have finite bounds, got \(-1.0, nan\)"),
        (((-1.0, 1.0), (-math.inf, 4.0)), (10, 10), r"window of axis 1 must have finite bounds, got \(-inf, 4.0\)"),
    ],
)
def test_a_scan_refuses_a_fractional_count_or_a_bound_that_is_not_finite(pendulum, window, resolution, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            grid_scan(pendulum.make_cbf(HOCBF), pendulum.system, window, resolution)


@pytest.mark.parametrize("window", [((1.0, 1.0), (-4.0, 4.0)), ((-1.0, 1.0), (4.0, -4.0))], ids=["empty", "reversed"])
def test_a_scan_refuses_an_empty_or_reversed_window(pendulum, window):
    # the nodes run from the axis lows, so lo < hi, as the CLI's scan.window requires
    axis = 0 if window[0][0] == window[0][1] else 1
    lo, hi = window[axis]
    with pytest.raises(ValueError, match=rf"window of axis {axis} is an empty range, got \({lo}, {hi}\)"):
        grid_scan(pendulum.make_cbf(HOCBF), pendulum.system, window, (3, 3))


def test_a_whole_count_given_as_a_float_is_taken(pendulum):
    scan = grid_scan(pendulum.make_cbf(HOCBF), pendulum.system, pendulum.window, (11.0, np.int64(7)))
    assert [len(axis) for axis in scan.axes] == [11, 7] and len(scan) == 77


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


def test_lifts_alternated_on_one_output_each_scan_their_own_nodes(pendulum):
    # the output keeps the trace of its last lift: each change of lift
    # traces afresh, so no scan runs on the other lift's nodes
    inst = pendulum.make_cbf(ABC)
    lifts = {1.0: lambda v: [v[0], v[1]], -1.0: lambda v: [v[0], -v[1]]}
    omegas = np.linspace(*pendulum.window[1], 5)
    for sign in (1.0, -1.0, 1.0, -1.0):
        scan = grid_scan(inst, pendulum.system, pendulum.window, (5, 5), state_from_axes=lifts[sign])
        assert scan.evaluation == "lanes" and np.array_equal(scan.x[:5, 1], sign * omegas)
        assert scan.h.tobytes() == np.array([inst.value(x) for x in scan.x]).tobytes()


def test_a_guard_in_the_lift_sends_its_nodes_to_the_per_state_lift(pendulum):
    # the lift runs on the sparse grid of the axes: a guard on omega alone
    # flags the nodes of its columns, which take the per-state lift
    lift = lambda v: [v[0], v[1] if ad.holds(v[1] < 3.0) else 3.0]
    scan = _scan_both_ways(pendulum.make_cbf(ABC), pendulum.system, pendulum.window, (5, 9), lift)
    assert scan.evaluation == f"per state: check guard fired at state {np.array([-math.pi / 2.0, 3.0])}"
    assert np.array_equal(scan.x[:, 1], np.tile([-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 3.0], 5))


@pytest.mark.parametrize("lift", [lambda v: [v[0], v[1], v[1]], lambda v: [v[0]]], ids=["three", "one"])
def test_grid_scan_refuses_a_lift_of_the_wrong_length(pendulum, lift):
    # the pendulum state has two components; a bare IndexError named neither
    with pytest.raises(ValueError, match=r"^state_from_axes must give a state of shape \(2,\)"):
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


def test_grid_scan_gives_the_per_state_answer_for_one_state_callables(pendulum):
    # float(), np.sum of a component and Python's max cannot be traced, so
    # every node runs on the per-state evaluation, with its answer
    inst = pendulum.make_cbf(ABC)
    window = pendulum.window
    reference = grid_scan(inst, pendulum.system, window, (5, 5))
    one_state = ControlAffineSystem(
        n=2, m=1, f=lambda x: [x[1], np.sum(ad.sin(x[0]))], g=lambda x: [[0.0], [float(x[0]) * 0.0 + 1.0]]
    )
    scan = grid_scan(inst, one_state, window, (5, 5))
    assert scan.evaluation.startswith("per state: not traced")
    for column in ("h", "psi", "lgh_norm", "margin", "s"):
        assert getattr(scan, column).tobytes() == getattr(reference, column).tobytes(), column
    clipped = dataclasses.replace(pendulum.output, psi=lambda y: max(0.0, 1.0 - y[0] * y[0]))
    for kind in CBF_KINDS:
        inst = dataclasses.replace(pendulum.make_cbf(kind), output=clipped)
        scan = grid_scan(inst, pendulum.system, window, (5, 5))
        assert scan.evaluation.startswith("per state: not traced")
        assert np.array_equal(scan.h, [inst.value(x) for x in scan.x])
        if kind == ABC:
            assert np.array_equal(scan.s, [inst.switching(x) for x in scan.x])
    # a g of the wrong shape is refused at the first node
    wrong_shape = _pendulum_system_with_g(lambda x: [[0.0], [np.ones(3)]])
    with pytest.raises(ValueError):
        grid_scan(pendulum.make_cbf(ABC), wrong_shape, window, (5, 5))


def test_grid_scan_gives_the_per_state_mask_of_an_extended_set_that_needs_floats(pendulum):
    # float() cannot be traced: the mask runs on the per-state evaluation
    predicate = lambda x: float(x[0]) < 0.5
    output = dataclasses.replace(pendulum.output, in_extended_set=predicate)
    inst = dataclasses.replace(pendulum.make_cbf(HOCBF), output=output)
    scan = _scan_both_ways(inst, pendulum.system, pendulum.window, (5, 5))
    assert scan.evaluation.startswith("per state: not traced") and "test_analysis.py:" in scan.evaluation
    assert scan.excluded.tolist() == [not predicate(x) for x in scan.x] and scan.excluded.sum() == 10


def test_grid_scan_gives_the_per_state_mask_of_reductions_in_the_extended_set(pendulum, bicycle):
    # np.all and a norm of one state's components cannot be traced either
    inst = pendulum.make_cbf(HOCBF)
    for predicate in (lambda x: np.all(np.abs(x) < 1.0), lambda x: np.linalg.norm(x[:2]) > 1.0):
        output = dataclasses.replace(pendulum.output, in_extended_set=predicate)
        scan = _scan_both_ways(dataclasses.replace(inst, output=output), pendulum.system, pendulum.window, (5, 5))
        assert scan.evaluation.startswith("per state: not traced")
        assert scan.excluded.tolist() == [not predicate(x) for x in scan.x] and 0 < scan.excluded.sum() < 25
    p = bicycle.params
    output = dataclasses.replace(
        bicycle.output,
        in_extended_set=lambda x: np.linalg.norm([x[0] - p.obstacle_xi, x[1] - p.obstacle_eta]) > 1e-9,
    )
    scan = _scan_both_ways(
        dataclasses.replace(bicycle.make_cbf(ABC), output=output),
        bicycle.system,
        ((p.obstacle_xi - 1.0, p.obstacle_xi + 1.0), (p.obstacle_eta - 1.0, p.obstacle_eta + 1.0)),
        (3, 3),
        state_from_axes=bicycle.state_from_axes,
    )
    assert np.flatnonzero(scan.excluded).tolist() == [4]


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
    # which the evaluation meets first; the scan raises phi = 0's error
    output = dataclasses.replace(
        pendulum.output,
        psi=lambda y: 1.0 / y[0],
        psi_grad=lambda y: [ad.sqrt(0.5 - y[0])],
    )
    inst = dataclasses.replace(pendulum.make_cbf(HOCBF), output=output)
    window = ((-1.0, 1.0), (0.0, 1.0))
    with pytest.raises(ad.EvaluationError) as later:
        inst.value_and_gradient(np.array([1.0, 0.0]))
    assert later.value.primitive == "sqrt"
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


def test_replaced_bicycle_params_move_the_default_scan_slice(bicycle):
    # the default slice is heading 0 at the desired speed of the params scanned
    replaced = dataclasses.replace(bicycle, params=BicycleParams(v_desired=5.0), resolution=(3, 3))
    built = bicycle_scenario(params=BicycleParams(v_desired=5.0), resolution=(3, 3))
    assert replaced.resolved_slice == built.resolved_slice == {"theta": 0.0, "v": 5.0}
    # at (0, -8): psi = 446.41 and psi_dot = -40 v, so h = 2032.05 at v = 5 (1832.05 at 10)
    assert replaced.scan(HOCBF).h[0] == built.scan(HOCBF).h[0] == pytest.approx(2032.05)
    pinned = dataclasses.replace(bicycle, scan_slice={"v": 10.0}, resolution=(3, 3))
    assert dataclasses.replace(pinned, params=BicycleParams(v_desired=5.0)).scan(HOCBF).h[0] == pytest.approx(1832.05)


# -- the per-node oracle: each node evaluated on its own, by another route ------


def _assert_scan_matches_per_node_oracle(scenario, kind, resolution):
    """grid_scan equals the scalar AD evaluation of each node on its own."""
    inst = scenario.make_cbf(kind)
    system = scenario.system
    with split_blocks():
        scan = grid_scan(
            inst,
            system,
            scenario.window,
            resolution,
            state_from_axes=scenario.state_from_axes,
            alpha_outer=scenario.alpha_outer,
        )
    assert len(scan) == resolution[0] * resolution[1]
    assert (scan.s is None) == (kind != ABC)
    columns = [scan.h, scan.psi, scan.lgh_norm, scan.margin] + ([scan.s] if kind == ABC else [])
    expected = np.full((len(columns), len(scan)), np.nan)
    for i, x in enumerate(scan.x):
        assert scan.excluded[i] == (not scenario.output.in_extended_set(x))
        if scan.excluded[i]:
            continue
        value, grad = inst.value_and_gradient(x)
        expected[:4, i] = (
            value,
            inst.output.psi_of_state(x),
            np.linalg.norm(grad @ system.g_mat(x)),
            float(grad @ system.f_vec(x)) + scenario.alpha_outer(value),
        )
        if kind == ABC:
            expected[4, i] = inst.switching(x)
    for got, want in zip(columns, expected):
        # the component sums run in index order, the oracle's in BLAS order
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


# at most about three blocks of SPLIT_BLOCK; a block boundary falls inside a
# row unless the row length divides the block size
resolutions = st.tuples(st.integers(2, 80), st.integers(2, 80))


@pytest.mark.parametrize("kind", CBF_KINDS)
@settings(max_examples=6, derandomize=True)
@given(params=pendulum_params, resolution=resolutions)
@example(params=PendulumParams(), resolution=ROW_SPLITTING)
def test_pendulum_grid_scan_matches_per_node_oracle(kind, params, resolution):
    _assert_scan_matches_per_node_oracle(pendulum_scenario(params=params), kind, resolution)


@pytest.mark.parametrize("kind", CBF_KINDS)
@settings(max_examples=6, derandomize=True)
@given(params=bicycle_params, resolution=resolutions)
@example(params=BicycleParams(), resolution=ROW_SPLITTING)
def test_bicycle_grid_scan_matches_per_node_oracle(kind, params, resolution):
    _assert_scan_matches_per_node_oracle(bicycle_scenario(params=params), kind, resolution)


# -- lanes: the scan's nodes run as numpy code of one trace -------------------------


def _per_state_scan(*args, **kwargs):
    """``grid_scan`` with every node on the per-state evaluation on Duals."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ad.Traced, "lanes", lambda self, *arrays: "lanes off")
        return grid_scan(*args, **kwargs)


def _scan_both_ways(*args, **kwargs):
    """The scan, and the same scan on the per-state evaluation, which must agree byte for byte."""
    scan, reference = grid_scan(*args, **kwargs), _per_state_scan(*args, **kwargs)
    assert reference.evaluation == "per state: lanes off"
    for column in ("x", "h", "psi", "lgh_norm", "margin", "s", "excluded"):
        got, expected = getattr(scan, column), getattr(reference, column)
        assert (got is None) == (expected is None), column
        if got is not None:
            assert got.tobytes() == expected.tobytes(), column
    return scan


def _assert_scan_equals_per_state(scenario, kind, resolution):
    inst = scenario.make_cbf(kind)
    window, lift = scenario.window, scenario.state_from_axes
    with split_blocks():
        scan = _scan_both_ways(inst, scenario.system, window, resolution, lift, scenario.alpha_outer)
    assert scan.evaluation == "lanes"


# small enough for the per-state reference; ROW_SPLITTING gives two blocks of SPLIT_BLOCK
lane_resolutions = st.tuples(st.integers(2, 24), st.integers(2, 24))


@pytest.mark.parametrize("kind", CBF_KINDS)
@settings(max_examples=4, derandomize=True)
@given(params=pendulum_params, resolution=lane_resolutions)
@example(params=PendulumParams(), resolution=ROW_SPLITTING)
def test_pendulum_scan_equals_dual_at_random_parameters(kind, params, resolution):
    _assert_scan_equals_per_state(pendulum_scenario(params=params), kind, resolution)


@pytest.mark.parametrize("kind", CBF_KINDS)
@settings(max_examples=4, derandomize=True)
@given(params=bicycle_params, resolution=lane_resolutions)
@example(params=BicycleParams(), resolution=ROW_SPLITTING)
def test_bicycle_scan_equals_dual_at_random_parameters(kind, params, resolution):
    _assert_scan_equals_per_state(bicycle_scenario(params=params), kind, resolution)


@split_blocks()
def test_a_guard_in_a_later_block_raises_the_dual_error(bicycle):
    # 65 x 65 nodes around the obstacle centre, node 2112: the second block's 65th
    output = dataclasses.replace(bicycle.output, in_extended_set=lambda x: True)
    inst = dataclasses.replace(bicycle.make_cbf(ABC), output=output)
    p = bicycle.params
    window = ((p.obstacle_xi - 1.0, p.obstacle_xi + 1.0), (p.obstacle_eta - 1.0, p.obstacle_eta + 1.0))
    args = (inst, bicycle.system, window, (65, 65), bicycle.state_from_axes)
    with pytest.raises(DomainError) as lanes:
        grid_scan(*args)
    with pytest.raises(DomainError) as dual:
        _per_state_scan(*args)
    assert (lanes.value.index, str(lanes.value)) == (dual.value.index, str(dual.value))
    assert lanes.value.index == 2112
    assert str(lanes.value).endswith(f"at state {np.array([p.obstacle_xi, p.obstacle_eta, 0.0, p.v_desired])}")


@split_blocks()
def test_a_masked_division_by_zero_raises_as_on_the_per_state_evaluation(pendulum):
    # sin(phi) / phi is 0 / 0 at phi = 0, row 32 of 65, which the second block
    # holds: one state at a time the float division raises though the where
    # discards it, so the lanes flag the node and it raises the same error
    sinc = ControlAffineSystem(
        n=2, m=1, f=lambda x: [x[1], ad.where(x[0] != 0.0, ad.sin(x[0]) / x[0], 1.0)], g=lambda x: [[0.0], [1.0]]
    )
    window = ((-1.0, 1.0), (-4.0, 4.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ZeroDivisionError) as lanes:
            grid_scan(pendulum.make_cbf(ABC), sinc, window, (65, 65))
        with pytest.raises(ZeroDivisionError) as per_state:
            _per_state_scan(pendulum.make_cbf(ABC), sinc, window, (65, 65))
    # both paths name the node, row 32 at omega = -4
    assert (lanes.value.index, str(lanes.value)) == (per_state.value.index, str(per_state.value))
    assert lanes.value.index == 2080
    assert str(lanes.value) == f"float division by zero at state {np.array([0.0, -4.0])}"
    # a safe substitute for the divisor raises nowhere, and every node stays on the lanes
    safe = ControlAffineSystem(
        n=2,
        m=1,
        f=lambda x: [x[1], ad.where(x[0] != 0.0, ad.sin(x[0]) / ad.where(x[0] != 0.0, x[0], 1.0), 1.0)],
        g=lambda x: [[0.0], [1.0]],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _scan_both_ways(pendulum.make_cbf(ABC), safe, window, (65, 65)).evaluation == "lanes"


def test_a_traced_power_scans_with_the_bits_of_python_pow(pendulum):
    # numpy's power, and its square for ** 2, round otherwise than glibc's pow,
    # which ** calls on floats: on uniform draws they differ at 0.1-5% of
    # states, so each lane must take Python's ** to match the per-state scan
    system = ControlAffineSystem(
        n=2,
        m=1,
        f=lambda x: [x[1], ad.sin(x[0]) - 0.1 * x[0] ** 2],
        g=lambda x: [[0.0], [(1.0 + x[0] * x[0]) ** 1.5]],
    )
    for kind in CBF_KINDS:
        scan = _scan_both_ways(pendulum.make_cbf(kind), system, pendulum.window, (41, 41))
        assert scan.evaluation == "lanes"


@pytest.mark.parametrize(
    "alpha", [lambda r: math.tanh(r), lambda r: r if r > 0 else 3.0 * r], ids=["tanh", "piecewise"]
)
def test_an_alpha_outer_of_one_state_scans_as_the_per_state_evaluation(pendulum, bicycle, alpha):
    # math.tanh and a Python if need the float behind a traced h, so every
    # node runs on the per-state evaluation, whose margin takes alpha at one state
    for scenario in (bicycle, pendulum):
        inst = scenario.make_cbf(ABC)
        args = (inst, scenario.system, scenario.window, (9, 9), scenario.state_from_axes, alpha)
        scan = _scan_both_ways(*args)
        assert scan.evaluation.startswith("per state: not traced")
    for i in range(len(scan)):
        h, grad = inst.value_and_gradient(scan.x[i])
        assert scan.margin[i] == float(grad @ pendulum.system.f_vec(scan.x[i])) + alpha(h)


def test_a_traceable_non_linear_alpha_outer_scans_as_lanes(pendulum, bicycle):
    cubic = lambda r: r + 0.1 * r * r * r
    for scenario in (pendulum, bicycle):
        inst = scenario.make_cbf(ABC)
        scan = _scan_both_ways(inst, scenario.system, scenario.window, (33, 33), scenario.state_from_axes, cubic)
        assert scan.evaluation == "lanes"


def test_a_where_between_constants_scales_a_dual_in_the_lanes(pendulum):
    # the where gives a traced constant, which a Dual of psi multiplies
    weighted = dataclasses.replace(
        pendulum.output, psi=lambda y: (HALF_PI_SQ - y[0] * y[0]) * ad.where(y[0] > 0.0, 1.0, 1.5)
    )
    for kind in CBF_KINDS:
        inst = dataclasses.replace(pendulum.make_cbf(kind), output=weighted)
        assert _scan_both_ways(inst, pendulum.system, pendulum.window, (41, 41)).evaluation == "lanes"


def _recording_lanes(patch):
    """Record the trace and the arrays of each call of ``Traced.lanes``, in call order."""
    calls, lanes = [], ad.Traced.lanes

    def recorded(self, *arrays):
        calls.append((self, arrays))
        return lanes(self, *arrays)

    patch.setattr(ad.Traced, "lanes", recorded)
    return calls


def _scan_calls(calls, instance, system, alpha):
    """The arrays of the recorded calls of the scan trace of (``instance``, ``system``, ``alpha``)."""
    traced = analysis._scan_trace(instance, system, alpha)
    return [arrays for called, arrays in calls if called is traced]


@split_blocks()
def test_clean_mixed_and_excluded_blocks_equal_the_per_state_evaluation(bicycle, monkeypatch):
    # 65 x 65 nodes around the obstacle centre, node 2112, in blocks [0, 2048),
    # [2048, 4096) and [4096, 4225): the set drops rows 0-31 (nodes 0-2079),
    # so the first block is excluded whole, the second in part, the third not
    p = bicycle.params
    window = ((p.obstacle_xi - 1.0, p.obstacle_xi + 1.0), (p.obstacle_eta - 1.0, p.obstacle_eta + 1.0))
    right_of_row_31 = lambda x: x[0] > p.obstacle_xi - 0.02
    in_set = lambda x: right_of_row_31(x) & bicycle.output.in_extended_set(x)
    inst = dataclasses.replace(bicycle.make_cbf(ABC), output=dataclasses.replace(bicycle.output, in_extended_set=in_set))
    args = (inst, bicycle.system, window, (65, 65), bicycle.state_from_axes, bicycle.alpha_outer)
    calls = _recording_lanes(monkeypatch)
    scan = grid_scan(*args)
    monkeypatch.undo()
    assert np.array_equal(np.flatnonzero(scan.excluded), [*range(2080), 2112])
    assert scan.evaluation == "lanes"
    assert np.isnan(scan.h[scan.excluded]).all() and not np.isnan(scan.h[~scan.excluded]).any()
    # the excluded block runs no lanes, the mixed one a gathered copy, the clean one views of x
    mixed, clean = _scan_calls(calls, inst, bicycle.system, bicycle.alpha_outer)
    assert [len(a) for a in mixed[:2]] == [4096 - 2080 - 1] * 2 and len(clean[0]) == 4225 - 4096
    assert not any(np.shares_memory(a, scan.x) for a in mixed)
    assert all(np.shares_memory(a, scan.x) for a in clean)
    assert _scan_both_ways(*args).evaluation == "lanes"
    # with the centre kept, it raises in the mixed block, as its row of x on both paths
    output = dataclasses.replace(bicycle.output, in_extended_set=right_of_row_31)
    args = (dataclasses.replace(inst, output=output), *args[1:])
    with pytest.raises(DomainError) as lanes:
        grid_scan(*args)
    with pytest.raises(DomainError) as per_state:
        _per_state_scan(*args)
    assert (lanes.value.index, str(lanes.value)) == (per_state.value.index, str(per_state.value))
    assert lanes.value.index == 2112
    centre = np.array([p.obstacle_xi, p.obstacle_eta, 0.0, p.v_desired])
    assert str(lanes.value).endswith(f"at state {centre}")


@split_blocks()
def test_a_scan_without_exclusions_hands_the_lanes_views_of_its_nodes(pendulum, monkeypatch):
    inst = pendulum.make_cbf(RECBF)
    calls = _recording_lanes(monkeypatch)
    scan = grid_scan(inst, pendulum.system, pendulum.window, ROW_SPLITTING)
    monkeypatch.undo()
    calls = _scan_calls(calls, inst, pendulum.system, inst.alpha)
    assert not scan.excluded.any() and len(calls) == 2
    assert all(np.shares_memory(a, scan.x) for arrays in calls for a in arrays)
    assert scan.x.T.flags.c_contiguous


def test_a_replaced_instance_or_another_system_gets_its_own_trace(pendulum):
    inst = pendulum.make_cbf(RECBF)
    window, resolution = pendulum.window, (50, 50)
    first = _scan_both_ways(inst, pendulum.system, window, resolution)
    replaced = dataclasses.replace(inst, epsilon=0.5, theta=ReQUActivation(1.0))
    assert not np.array_equal(_scan_both_ways(replaced, pendulum.system, window, resolution).h, first.h)
    doubled = _pendulum_system_with_g(lambda x: [[0.0], [2.0]])
    assert not np.array_equal(_scan_both_ways(inst, doubled, window, resolution).lgh_norm, first.lgh_norm)
    assert _scan_both_ways(inst, pendulum.system, window, resolution).lgh_norm.tobytes() == first.lgh_norm.tobytes()


def test_evaluation_names_why_blocks_ran_on_duals(pendulum):
    window, resolution = pendulum.window, (50, 50)
    # a Dual and a plain operand of one where: a guard sends the plain side to the per-state evaluation
    capped = dataclasses.replace(pendulum.output, psi=lambda y: ad.minimum(HALF_PI_SQ - y[0] * y[0], 1.0))
    inst = dataclasses.replace(pendulum.make_cbf(HOCBF), output=capped)
    evaluation = _scan_both_ways(inst, pendulum.system, window, resolution).evaluation
    assert evaluation.startswith("per state: where guard fired at state [")
    # a callable the trace cannot follow: the reason names its line
    wobbly = dataclasses.replace(pendulum.output, psi=lambda y: HALF_PI_SQ - y[0] * y[0] + 0.0 * np.sin(ad.scalar(y[0])))
    inst = dataclasses.replace(pendulum.make_cbf(HOCBF), output=wobbly)
    evaluation = _scan_both_ways(inst, pendulum.system, window, resolution).evaluation
    assert evaluation.startswith("per state: not traced") and "test_analysis.py:" in evaluation
    # an infinite state
    lift = lambda v: [v[0], ad.where(v[1] > 3.9, math.inf, v[1])]
    with np.errstate(invalid="ignore"):
        evaluation = grid_scan(pendulum.make_cbf(HOCBF), pendulum.system, window, resolution, lift).evaluation
    assert evaluation.startswith("per state: non-finite output at state [")


# the eight published 401 x 401 scans: one line per scan, a sha256 per column
PUBLISHED_SCAN_DIGESTS = """
import hashlib
from cbftk.cbf import CBF_KINDS
from cbftk.systems import bicycle_scenario, pendulum_scenario
for scenario in (pendulum_scenario(), bicycle_scenario()):
    for kind in CBF_KINDS:
        scan = scenario.scan(kind)
        columns = (scan.x, scan.h, scan.psi, scan.lgh_norm, scan.margin, scan.s, scan.excluded)
        digests = [hashlib.sha256(c.tobytes()).hexdigest() for c in columns if c is not None]
        print(scenario.name, kind, scan.evaluation, *digests)
"""


def test_published_scans_keep_their_bytes_under_another_numpy_simd_dispatch():
    # numpy's AVX2 and AVX-512 loops masked: its sin, cos and sqrt then run
    # other code, which must give the lanes the same bits, as math's does
    # at the nodes the lanes flag
    paths = [os.path.dirname(os.path.dirname(analysis.__file__)), os.environ.get("PYTHONPATH")]
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
        "PYTHONPATH": os.pathsep.join(filter(None, paths)),
    }
    done = subprocess.run(
        [sys.executable, "-c", PUBLISHED_SCAN_DIGESTS], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(PUBLISHED_SCAN_DIGESTS, {})
    lines = here.getvalue().splitlines()
    assert len(lines) == 8 and all(line.split()[2] == "lanes" for line in lines)
    assert done.stdout.splitlines() == lines
