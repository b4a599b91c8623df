import math

import numpy as np
import pytest

from cbftk import autodiff as ad
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
    per_node,
)

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
    assert check_constraint_regularity(pendulum.output, pendulum.assumption_states).ok
    assert check_constraint_regularity(bicycle.output, bicycle.assumption_states).ok


def test_constraint_regularity_detects_bad_constraint():
    # psi = -(y^2) is stationary at the origin with psi = 0: not regular
    bad = RelDeg2Output(
        p=1,
        y=lambda x: [x[0]],
        ydot=lambda x: [x[1]],
        psi=lambda y: -(y[0] * y[0]),
        psi_grad=lambda y: [-2.0 * y[0]],
    )
    assert not check_constraint_regularity(bad, [[0.0, 1.0]]).ok


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


def test_per_node_broadcasts_entries_and_refuses_other_shapes():
    states = np.arange(6.0).reshape(2, 3)
    out = per_node(lambda x: [[x[0], 1.0], [0.0, x[1] * 2.0]], states, "g", (2, 2))
    assert out.shape == (2, 2, 3)
    assert np.array_equal(out[0, 0], states[0]) and np.array_equal(out[0, 1], np.ones(3))
    assert np.array_equal(out[1, 1], 2.0 * states[1])
    for bad in (lambda x: [[x[0]], [1.0]], lambda x: [[np.ones(2), 1.0], [0.0, 0.0]], lambda x: [[float(x[0]), 1.0], [0.0, 0.0]]):
        with pytest.raises(ValueError, match="g must act elementwise"):
            per_node(bad, states, "g", (2, 2))


def test_per_node_refuses_one_value_that_differs_from_single_states():
    states = np.array([[-2.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="in_extended_set must act elementwise.*for state"):
        per_node(lambda x: np.all(np.abs(x) < 1.0), states, "in_extended_set", dtype=bool)
    with pytest.raises(ValueError, match="f must act elementwise"):
        per_node(lambda x: [x[1], np.sum(x[0])], states, "f", (2,))
    # constants, NaN included, count for every state
    for constant in (np.nan, np.float64(np.nan)):
        out = per_node(lambda x: [x[1], constant], states, "f", (2,))
        assert np.isnan(out[1]).all()
    assert np.array_equal(per_node(lambda x: [x[1], np.float64(2.0)], states, "f", (2,))[1], [2.0] * 3)
    assert per_node(lambda x: True, states, "in_extended_set", dtype=bool).all()


def test_per_node_keeps_a_domain_error():
    def undefined(x):
        raise DomainError("outside", 1)

    with pytest.raises(DomainError) as err:
        per_node(undefined, np.zeros((2, 3)), "psi")
    assert err.value.index == 1

