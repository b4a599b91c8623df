import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbftk import autodiff as ad
from cbftk.cbf import ABC, recbf, recbf_validity_condition
from cbftk.core import (
    ControlAffineSystem,
    DomainError,
    LinearClassK,
    RelDeg2Output,
    ReQUActivation,
    check_constraint_regularity,
    check_output_consistency,
    check_relative_degree,
    lie_derivatives,
    lie_f,
    lie_g,
)
from cbftk.safety_filter import LinearGain, check_virtual_controller

HALF_PI_SQ = math.pi**2 / 4.0


def pendulum_field_psi(x):
    return HALF_PI_SQ - x[0] * x[0]


def test_lie_f_of_output_is_angular_velocity(pendulum):
    assert lie_f(lambda x: x[0], pendulum.system, [0.5, 2.0]) == pytest.approx(2.0)


def test_lie_f_of_constraint_by_hand(pendulum):
    # d/dt (pi^2/4 - phi^2) = -2 phi omega = -2 at (1, 1)
    assert lie_f(pendulum_field_psi, pendulum.system, [1.0, 1.0]) == pytest.approx(-2.0)


def test_lie_f_zero_drift():
    sys0 = ControlAffineSystem(2, 1, f=lambda x: [0.0, 0.0], g=lambda x: [[0.0], [1.0]])
    assert lie_f(lambda x: x[0] * x[1], sys0, [2.0, 3.0]) == 0.0


def test_lie_g_output_vanishes(pendulum):
    assert np.array_equal(lie_g(lambda x: x[0], pendulum.system, [0.7, -1.0]), [0.0])


def test_lie_g_of_high_order_barrier(pendulum):
    # h = psi_dot + alpha psi has L_g h = -2 phi for the pendulum
    def h(x):
        return -2.0 * x[0] * x[1] + pendulum_field_psi(x)

    for phi in (-1.2, 0.0, 0.4):
        assert lie_g(h, pendulum.system, [phi, 0.3])[0] == pytest.approx(-2.0 * phi)


def test_lie_g_zero_input_map():
    sysg0 = ControlAffineSystem(2, 2, f=lambda x: [x[1], x[0]], g=lambda x: [[0.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(lie_g(lambda x: x[0] * x[1], sysg0, [1.0, 2.0]), [0.0, 0.0])


def test_lie_derivatives_are_linear_in_the_field(pendulum, rng):
    def f1(x):
        return x[0] * x[0] * x[1] + 3.0 * x[0]

    def f2(x):
        return x[1] * x[1] - x[0] * x[1]

    for _ in range(20):
        x = pendulum.sample_state(rng)
        a = rng.uniform(-3.0, 3.0)
        combo = lambda xs: a * f1(xs) + f2(xs)
        lhs = lie_f(combo, pendulum.system, x)
        rhs = a * lie_f(f1, pendulum.system, x) + lie_f(f2, pendulum.system, x)
        assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-13)
        lhs_g = lie_g(combo, pendulum.system, x)
        rhs_g = a * lie_g(f1, pendulum.system, x) + lie_g(f2, pendulum.system, x)
        assert np.allclose(lhs_g, rhs_g, rtol=1e-14, atol=1e-13)


def test_pendulum_input_coupling_is_unity(pendulum):
    # L_g L_f y = 1 everywhere for the pendulum
    for x in pendulum.assumption_states[::7]:
        row = lie_g(lambda xs: pendulum.output.ydot(xs)[0], pendulum.system, x)
        assert row[0] == pytest.approx(1.0)


def test_relative_degree_checks_pass(pendulum, bicycle):
    assert check_relative_degree(pendulum.output, pendulum.system, pendulum.assumption_states).ok
    report = check_relative_degree(bicycle.output, bicycle.system, bicycle.assumption_states)
    assert report.ok, report.failures[:2]


def test_bicycle_rank_fails_at_standstill(bicycle):
    report = check_relative_degree(bicycle.output, bicycle.system, [[0.0, 0.0, 0.0, 0.0]])
    assert not report.ok


def test_constraint_regularity_checks_pass(pendulum, bicycle):
    assert check_constraint_regularity(pendulum.output, pendulum.system, pendulum.assumption_states).ok
    assert check_constraint_regularity(bicycle.output, bicycle.system, bicycle.assumption_states).ok


def test_constraint_regularity_detects_bad_constraint(pendulum):
    # psi = -(y^2) is stationary at the origin with psi = 0: not regular
    bad = RelDeg2Output(
        p=1,
        y=lambda x: [x[0]],
        ydot=lambda x: [x[1]],
        psi=lambda y: -(y[0] * y[0]),
        psi_grad=lambda y: [-2.0 * y[0]],
    )
    assert not check_constraint_regularity(bad, pendulum.system, [[0.0, 1.0]]).ok


def test_output_consistency_validates_declared_fields(pendulum, bicycle):
    assert check_output_consistency(pendulum.output, pendulum.system, pendulum.assumption_states[::5]).ok
    assert check_output_consistency(bicycle.output, bicycle.system, bicycle.assumption_states[::9]).ok


def test_output_consistency_catches_wrong_ydot(pendulum):
    wrong = RelDeg2Output(
        p=1,
        y=lambda x: [x[0]],
        ydot=lambda x: [2.0 * x[1]],
        psi=lambda y: HALF_PI_SQ - y[0] * y[0],
        psi_grad=lambda y: [-2.0 * y[0]],
    )
    assert not check_output_consistency(wrong, pendulum.system, [[0.3, 1.0]]).ok


def test_linear_class_k_contract():
    alpha = LinearClassK(2.5)
    assert alpha(0.0) == 0.0
    assert alpha(2.0) > alpha(1.0)
    assert alpha(-1.0) == -2.5
    with pytest.raises(ValueError):
        LinearClassK(0.0)
    with pytest.raises(ValueError):
        LinearClassK(-1.0)


def test_requ_activation_contract():
    theta = ReQUActivation(5.0)
    derivative = lambda s: ad.grad(lambda v: theta(v[0]), [s])[0]
    for s in (-2.0, -1e-9, 0.0):
        assert theta(s) == 0.0
        assert derivative(s) == 0.0
    for s in (1e-9, 0.5, 2.0):
        assert theta(s) == pytest.approx(s * s / 10.0)
        assert derivative(s) == pytest.approx(s / 5.0)
    # C^1 at the switch: derivative is continuous
    assert abs(derivative(1e-9) - derivative(-1e-9)) < 1e-9
    with pytest.raises(ValueError):
        ReQUActivation(0.0)


def test_lie_derivatives_single_evaluation(pendulum):
    x = np.array([0.8, -1.3])
    value, lfh, lgh = lie_derivatives(pendulum_field_psi, pendulum.system, x)
    assert value == pytest.approx(HALF_PI_SQ - 0.64)
    assert lfh == pytest.approx(-2.0 * 0.8 * -1.3)
    assert np.array_equal(lgh, [0.0])


# -- batched assumption checks -------------------------------------------------


def _loop_reports(output, system, vc, alpha, states):
    """The four checks one state at a time on floats, index-order sums: the
    reference for the batched checks.  Each is a list of (state, message)."""
    rel, reg, cons, safe = [], [], [], []
    for x in states:
        gm = system.g_mat(x)

        def lie_g_rows(field):
            return np.array([ad.dot(ad.grad(lambda v, i=i: field(v)[i], x), gm) for i in range(output.p)])

        lgy = np.max(np.abs(lie_g_rows(output.y)))
        if not lgy < 1e-10:
            rel.append((x, f"L_g y nonzero (max |entry| {lgy:.3e})"))
        else:
            smin = np.linalg.svd(lie_g_rows(output.ydot), compute_uv=False)[-1]
            if not smin > 1e-8:
                rel.append((x, f"L_g L_f y rank-deficient (sigma_min {smin:.3e})"))
        yv = [float(v) for v in output.y(x)]
        gv = [float(v) for v in output.psi_grad(yv)]
        psi = output.psi(yv)
        if not math.sqrt(ad.dot(gv, gv)) >= 1e-10 and not psi > 0.0:
            reg.append((x, f"stationary output point with psi = {psi:.3e} <= 0"))
        declared = [ad.scalar(v) for v in output.ydot(x)]
        for i in range(output.p):
            lf = lie_f(lambda v, i=i: output.y(v)[i], system, x)
            if not abs(lf - declared[i]) <= 1e-9 * (1.0 + abs(lf)):
                cons.append((x, f"ydot[{i}] = {declared[i]} but L_f y[{i}] = {lf}"))
        auto_g = ad.grad(output.psi, yv)
        if not np.max(np.abs(np.subtract(gv, auto_g))) <= 1e-9 * (1.0 + np.max(np.abs(auto_g))):
            cons.append((x, "psi_grad disagrees with grad(psi)"))
        psidot = sum(g * ad.scalar(k) for g, k in zip(gv, vc(yv)))
        bound = -alpha(psi)
        if not psidot > bound + 1e-10:
            safe.append((x, f"psi_dot(y, kappa) = {psidot:.6e} <= {bound:.6e}"))
    return rel, reg, cons, safe


def _batched_reports(output, system, vc, alpha, states):
    return [
        check_relative_degree(output, system, states),
        check_constraint_regularity(output, system, states),
        check_output_consistency(output, system, states),
        check_virtual_controller(vc, output, system, alpha, states),
    ]


def _assert_batches_equal_the_loop(scenario, output, states, system=None):
    vc = scenario.make_cbf(ABC).kappa
    alpha = scenario.alpha_outer
    system = system or scenario.system
    expected = _loop_reports(output, system, vc, alpha, states)
    for report, failures in zip(_batched_reports(output, system, vc, alpha, states), expected):
        assert report.n_checked == len(states)
        assert report.ok == (not failures)
        assert [(x.tolist(), m) for x, m in report.failures] == [(x.tolist(), m) for x, m in failures], report.name


def _output_variant(output, variant):
    if variant == "wrong ydot":
        return dataclasses.replace(output, ydot=lambda x: [2.0 * v for v in output.ydot(x)])
    if variant == "stationary psi":
        # psi = -y_0^2 is stationary with psi = 0 wherever y_0 = 0
        return dataclasses.replace(
            output,
            psi=lambda y: -(y[0] * y[0]),
            psi_grad=lambda y: [-2.0 * y[0]] + [0.0 * y[i] for i in range(1, output.p)],
        )
    if variant == "wrong psi_grad":
        return dataclasses.replace(output, psi_grad=lambda y: [1.5 * v for v in output.psi_grad(y)])
    return output


@pytest.mark.parametrize("plant", ["pendulum", "bicycle"])
def test_batched_checks_equal_the_loop_on_the_assumption_states(plant, request):
    scenario = request.getfixturevalue(plant)
    _assert_batches_equal_the_loop(scenario, scenario.output, scenario.assumption_states)


@settings(derandomize=True, max_examples=40)
@given(
    plant=st.sampled_from(["pendulum", "bicycle"]),
    variant=st.sampled_from(["published", "wrong ydot", "stationary psi", "wrong psi_grad"]),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 60),
)
def test_batched_checks_equal_the_per_state_loop(pendulum, bicycle, plant, variant, seed, count):
    scenario = pendulum if plant == "pendulum" else bicycle
    rng = np.random.default_rng(seed)
    sampled = [scenario.sample_state(rng) for _ in range(20)]
    if plant == "pendulum":
        special = [[0.0, w] for w in (-1.0, 0.0, 2.5)]
    else:
        # standstill (v = 0) makes L_g L_f y rank-deficient
        special = [[xi, eta, theta, 0.0] for xi in (0.0, 12.5) for eta in (-3.0, 0.0) for theta in (0.0, 0.4)]
    pool = np.concatenate([scenario.assumption_states, sampled, special])
    states = pool[rng.choice(len(pool), size=count, replace=False)]
    # blocks of 7 states, so that a failure's state survives the block offsets
    with mock.patch.object(ad, "BLOCK_NODES", 7):
        _assert_batches_equal_the_loop(scenario, _output_variant(scenario.output, variant), states)


def check_unit_gain_controller(output, system, states):
    return check_virtual_controller(LinearGain(1.0), output, system, LinearClassK(1.0), states)


def check_rectified_validity(output, system, states):
    return recbf_validity_condition(recbf(output, LinearClassK(1.0), ReQUActivation(1.0), 0.5), system, states)


# each check as (output, system, states) -> report
CHECKS = [
    check_relative_degree,
    check_constraint_regularity,
    check_output_consistency,
    check_unit_gain_controller,
    check_rectified_validity,
]


@pytest.mark.parametrize(
    "check", CHECKS, ids=["relative degree", "regularity", "consistency", "virtual controller", "rectified validity"]
)
def test_a_check_raises_the_error_of_the_first_state_that_fails_alone(pendulum, check):
    def y(x):
        root = ad.sqrt(x[1])  # an EvaluationError where omega < 0: states 3 and 4
        if ad.failed(x[0] > 10.0):  # a DomainError at states 1 and 4
            raise DomainError("phi beyond 10")
        return [x[0] + 0.0 * root]

    output = dataclasses.replace(pendulum.output, y=y, ydot=lambda x: [x[1]])
    states = [[0.5, 1.0], [11.0, 1.0], [0.2, 2.0], [0.3, -1.0], [12.0, -1.0]]
    with pytest.raises(DomainError) as err:
        check(output, pendulum.system, states)
    assert err.value.index == 1
    assert str(err.value) == "phi beyond 10 at state [11.  1.]"


def test_a_nan_fails_every_check_it_reaches(pendulum, bicycle):
    at_nan = [[math.nan, 0.0]]
    # L_g y and L_g L_f y do not depend on phi, so they hold there
    assert check_relative_degree(pendulum.output, pendulum.system, at_nan).ok
    assert [m for _, m in check_constraint_regularity(pendulum.output, pendulum.system, at_nan).failures] == [
        "stationary output point with psi = nan <= 0"
    ]
    assert [m for _, m in check_output_consistency(pendulum.output, pendulum.system, at_nan).failures] == [
        "ydot[0] = 0.0 but L_f y[0] = nan",
        "psi_grad disagrees with grad(psi)",
    ]
    report = check_relative_degree(bicycle.output, bicycle.system, [[0.0, 0.0, 0.0, math.nan], [0.0, 0.0, math.nan, 1.0]])
    assert [m for _, m in report.failures] == [
        "L_g y nonzero (max |entry| nan)",
        "L_g L_f y rank-deficient (sigma_min nan)",
    ]


@pytest.mark.parametrize("check", CHECKS)
def test_checks_refuse_states_of_the_wrong_width(pendulum, bicycle, check):
    cases = [
        (pendulum, [[0.1, 0.2, 0.3]], "states must hold 2 components each, got shape (1, 3)"),
        (bicycle, [[1.0, 2.0]], "states must hold 4 components each, got shape (1, 2)"),
        (bicycle, [], "states must hold 4 components each, got shape (0,)"),
    ]
    for scenario, states, message in cases:
        with pytest.raises(ValueError) as err:
            check(scenario.output, scenario.system, states)
        assert str(err.value) == message


def test_checks_give_the_per_state_answer_for_one_state_callables(pendulum, bicycle):
    # Python's max, float() and np.sum of a component cannot be traced, so
    # those checks run their states one at a time, as the loop does
    clipped = dataclasses.replace(pendulum.output, psi=lambda y: max(0.0, 1.0 - y[0] * y[0]))
    floats = dataclasses.replace(pendulum.output, psi_grad=lambda y: [-2.0 * float(y[0])])
    summed = ControlAffineSystem(
        n=2, m=1, f=lambda x: [x[1], np.sum(ad.sin(x[0]))], g=lambda x: [[0.0], [float(x[0]) * 0.0 + 1.0]]
    )
    for output, system in ((clipped, pendulum.system), (floats, pendulum.system), (pendulum.output, summed)):
        _assert_batches_equal_the_loop(pendulum, output, pendulum.assumption_states, system)
    assert not check_output_consistency(clipped, pendulum.system, pendulum.assumption_states).ok
    bumped = dataclasses.replace(
        bicycle.output,
        psi=lambda y: max(bicycle.output.psi(y), -1.0),
        psi_grad=lambda y: [float(v) for v in bicycle.output.psi_grad(y)],
    )
    _assert_batches_equal_the_loop(bicycle, bumped, bicycle.assumption_states[::3])


def test_lie_derivatives_sum_in_index_order(bicycle, rng):
    def field(x):
        return x[0] * x[1] * ad.sin(x[2]) + x[3] * x[3] * x[0] - 0.3 * x[1] * x[3]

    system = bicycle.system
    for _ in range(200):
        x = bicycle.sample_state(rng)
        grad = ad.grad(field, x).tolist()
        f, g = system.f_vec(x).tolist(), system.g_mat(x).tolist()
        lf = grad[0] * f[0] + grad[1] * f[1] + grad[2] * f[2] + grad[3] * f[3]
        lg = [grad[0] * g[0][j] + grad[1] * g[1][j] + grad[2] * g[2][j] + grad[3] * g[3][j] for j in range(2)]
        assert np.float64(lie_f(field, system, x)).tobytes() == np.float64(lf).tobytes()
        assert lie_g(field, system, x).tobytes() == np.array(lg).tobytes()
        _, lf_both, lg_both = lie_derivatives(field, system, x)
        assert np.float64(lf_both).tobytes() == np.float64(lf).tobytes()
        assert lg_both.tobytes() == np.array(lg).tobytes()
