import dataclasses
import math

import numpy as np
import pytest

from cbftk import autodiff as ad
from cbftk.analysis import _grid_axes, _node_array
from cbftk.cbf import ABC, BACKSTEPPING, CBF_KINDS, HOCBF, RECBF, recbf, recbf_validity_condition
from cbftk.core import ControlAffineSystem, DomainError, LinearClassK, ReQUActivation
from cbftk.systems import PendulumParams, bicycle_scenario, pendulum_scenario
from conftest import central_difference
from strategies import SPLIT_BLOCK, split_blocks

HALF_PI_SQ = math.pi**2 / 4.0


@pytest.fixture(scope="module")
def instances(pendulum):
    return {kind: pendulum.make_cbf(kind) for kind in CBF_KINDS}


# -- high-order ---------------------------------------------------------------


def test_hocbf_values(instances):
    h = instances[HOCBF]
    # at phi = 0 the residual reduces to alpha(psi(0)) = pi^2/4
    assert h.value([0.0, -3.0]) == pytest.approx(HALF_PI_SQ)
    assert h.value([0.0, 2.0]) == pytest.approx(HALF_PI_SQ)
    # stationary output velocity: psi_dot = 0
    assert h.value([1.0, 0.0]) == pytest.approx(HALF_PI_SQ - 1.0)
    # hand evaluation of -2 phi omega + alpha_c psi
    assert h.value([0.5, -1.0]) == pytest.approx(1.0 + HALF_PI_SQ - 0.25)


# -- rectified ----------------------------------------------------------------


def test_recbf_equals_constraint_when_residual_clears_epsilon(instances, pendulum, rng):
    h = instances[RECBF]
    for _ in range(200):
        x = pendulum.sample_state(rng)
        r = -2.0 * x[0] * x[1] + (HALF_PI_SQ - x[0] * x[0])
        if r >= 2.0:
            assert h.value(x) == HALF_PI_SQ - x[0] * x[0]


def test_recbf_values(instances):
    h = instances[RECBF]
    # r(0, 0) = pi^2/4 > epsilon = 2, so h = psi
    assert h.value([0.0, 0.0]) == pytest.approx(HALF_PI_SQ)
    # hand evaluation at (1, 1): r = pi^2/4 - 3, h = psi - (2 - r)^2 / (2 mu)
    psi = HALF_PI_SQ - 1.0
    r = -2.0 + psi
    expected = psi - (2.0 - r) ** 2 / 10.0
    assert h.value([1.0, 1.0]) == pytest.approx(expected)
    assert expected == pytest.approx(0.8260, abs=5e-5)


def test_recbf_validity_condition_epsilon_two_passes(pendulum):
    inst = pendulum.make_cbf(RECBF)
    states = [pendulum.state_from_axes(v) for v in _grid(pendulum, 41)]
    report = recbf_validity_condition(inst, pendulum.system, states)
    assert report.ok


def test_recbf_validity_condition_epsilon_four_fails_at_upright(pendulum):
    scenario = pendulum_scenario(params=PendulumParams(epsilon=4.0))
    inst = scenario.make_cbf(RECBF)
    states = [scenario.state_from_axes(v) for v in _grid(scenario, 41)]
    report = recbf_validity_condition(inst, scenario.system, states)
    assert not report.ok
    for x, r in report.witnesses:
        assert abs(x[0]) < 1e-9  # witnesses sit on the zero-gradient column
        assert r < 4.0


def test_recbf_validity_condition_epsilon_zero_passes(pendulum):
    scenario = pendulum_scenario(params=PendulumParams(epsilon=0.0))
    inst = scenario.make_cbf(RECBF)
    states = [scenario.state_from_axes(v) for v in _grid(scenario, 41)]
    assert recbf_validity_condition(inst, scenario.system, states).ok


def _grid(scenario, count):
    axes = [np.linspace(lo, hi, count) for lo, hi in scenario.window]
    return [(a, b) for a in axes[0] for b in axes[1]]


# -- backstepping -------------------------------------------------------------


def test_backstepping_values(instances):
    h = instances[BACKSTEPPING]
    # omega + K phi = 0: the quadratic penalty vanishes
    assert h.value([1.0, -0.75]) == pytest.approx(HALF_PI_SQ - 1.0)
    # hand evaluations of psi - (omega + K phi)^2 / (2 mu), mu = 1.5
    assert h.value([0.0, 1.0]) == pytest.approx(HALF_PI_SQ - 1.0 / 3.0)
    assert h.value([1.0, 2.0]) == pytest.approx(HALF_PI_SQ - 1.0 - 2.75**2 / 3.0)
    assert h.value([1.0, 2.0]) < 0.0  # outside the safe set


def test_backstepping_gradient_with_vanishing_penalty(instances):
    g = instances[BACKSTEPPING].gradient([1.0, -0.75])
    assert g == pytest.approx([-2.0, 0.0])


# -- switching function -------------------------------------------------------


def test_switching_values(instances):
    s = instances[ABC].switching
    assert s([0.0, 3.0]) == 0.0
    assert s([0.0, -1.0]) == 0.0
    assert s([1.0, -2.0]) == pytest.approx(2.5)
    assert s([1.0, 0.0]) == pytest.approx(-1.5)


def test_switching_requires_virtual_controller(instances):
    with pytest.raises(ValueError):
        instances[HOCBF].switching([0.0, 0.0])


# -- activated backstepping ---------------------------------------------------


def test_abc_values(instances):
    h = instances[ABC]
    # s >= 0: h equals the constraint exactly
    assert h.value([1.0, -2.0]) == HALF_PI_SQ - 1.0
    assert h.value([0.0, 1.7]) == HALF_PI_SQ
    # s < 0: hand evaluation of psi - s^2 / (2 mu), mu = 5
    assert h.value([1.0, 0.0]) == pytest.approx(HALF_PI_SQ - 1.0 - 1.5**2 / 10.0)


def test_abc_matches_constraint_exactly_iff_s_nonnegative(instances, pendulum, rng):
    h = instances[ABC]
    for _ in range(500):
        x = pendulum.sample_state(rng)
        psi = HALF_PI_SQ - x[0] * x[0]
        if h.switching(x) >= 0.0:
            assert h.value(x) == psi
        else:
            assert h.value(x) < psi


def test_abc_and_backstepping_below_constraint(instances, pendulum, rng):
    for kind in (ABC, BACKSTEPPING):
        h = instances[kind]
        for _ in range(300):
            x = pendulum.sample_state(rng)
            assert h.value(x) <= HALF_PI_SQ - x[0] * x[0]


def test_abc_gradient_input_direction_vanishes_for_nonnegative_s(instances, pendulum, rng):
    h = instances[ABC]
    found = 0
    for _ in range(400):
        x = pendulum.sample_state(rng)
        if h.switching(x) >= 0.0:
            lgh = h.gradient(x) @ pendulum.system.g_mat(x)
            assert lgh[0] == 0.0  # exactly, there is no activation to push through
            found += 1
    assert found > 50


def test_abc_continuity_across_switching_seam(instances):
    h = instances[ABC]
    # walk across s = 0 at phi = 0.6: s = 0 when omega = -K phi
    for delta in (1e-3, 1e-6, 1e-9):
        below = h.value([0.6, -0.45 - delta])
        above = h.value([0.6, -0.45 + delta])
        assert abs(below - above) < 1e-5


def test_safe_set_membership_implies_constraint_membership(instances, pendulum, rng):
    for kind in (RECBF, BACKSTEPPING, ABC):
        h = instances[kind]
        for _ in range(300):
            x = pendulum.sample_state(rng)
            if h.value(x) >= 0.0:
                assert HALF_PI_SQ - x[0] * x[0] >= 0.0


# -- gradients vs the finite-difference oracle --------------------------------


@pytest.mark.parametrize("kind", CBF_KINDS)
def test_gradients_match_finite_differences(kind, instances, pendulum, rng):
    h = instances[kind]
    checked = 0
    while checked < 100:
        x = pendulum.sample_state(rng)
        if kind == ABC and abs(h.switching(x)) < 1e-4:
            continue  # skip the activation kink; FD straddles it
        if kind == RECBF and abs(h.residual(x) - h.epsilon) < 1e-4:
            continue
        g = h.gradient(x)
        fd = central_difference(lambda xs: h.value(xs), x)
        assert np.all(np.abs(g - fd) / (1.0 + np.abs(g)) < 1e-6)
        checked += 1


# -- validity structure -------------------------------------------------------


def test_hocbf_margin_violations_exactly_in_high_speed_band(instances, pendulum):
    h = instances[HOCBF]
    threshold = math.pi / (2.0 * math.sqrt(2.0))
    for omega in np.linspace(-4.0, 4.0, 81):
        x = np.array([0.0, omega])
        margin = float(h.gradient(x) @ pendulum.system.f_vec(x)) + h.alpha(h.value(x))
        assert margin == pytest.approx(-2.0 * omega**2 + HALF_PI_SQ)
        if abs(omega) >= threshold:
            assert margin <= 0.0
        else:
            assert margin > 0.0


def test_abc_margin_strictly_positive_on_singular_set(instances, pendulum, rng):
    h = instances[ABC]
    found = 0
    for _ in range(500):
        x = pendulum.sample_state(rng)
        if h.switching(x) < 0.0:
            continue
        margin = float(h.gradient(x) @ pendulum.system.f_vec(x)) + h.alpha(h.value(x))
        assert margin > 1e-12
        found += 1
    assert found > 50


def test_abc_safe_set_has_more_nodes_than_backstepping(instances):
    # same K, published mu values; count over the default window
    phis = np.linspace(-math.pi / 2.0, math.pi / 2.0, 201)
    omegas = np.linspace(-4.0, 4.0, 201)
    abc_h = instances[ABC]
    bck_h = instances[BACKSTEPPING]
    abc_count = 0
    bck_count = 0
    witnesses = {"upper_left": 0, "lower_right": 0}
    for phi in phis:
        for omega in omegas:
            x = [phi, omega]
            ha = abc_h.value(x)
            hb = bck_h.value(x)
            abc_count += ha >= 0.0
            bck_count += hb >= 0.0
            psi = HALF_PI_SQ - phi * phi
            if ha >= 0.0 and hb < 0.0 and psi >= 0.0 and abc_h.switching(x) >= 0.0:
                if phi < 0.0 and omega > 0.0:
                    witnesses["upper_left"] += 1
                if phi > 0.0 and omega < 0.0:
                    witnesses["lower_right"] += 1
    assert abc_count > bck_count
    assert witnesses["upper_left"] > 0 and witnesses["lower_right"] > 0


def test_domain_error_outside_extended_set(bicycle):
    inst = bicycle.make_cbf(ABC)
    center = [bicycle.params.obstacle_xi, bicycle.params.obstacle_eta, 0.0, 1.0]
    with pytest.raises(DomainError) as err:
        inst.value(center)
    assert err.value.index is None


def _validity_oracle(instance, system, states, coupling_tol=1e-8):
    """The rectified validity condition evaluated one state at a time."""
    witnesses = []
    for x in states:
        coupling = ad.grad(instance.output.psi_dot, x) @ system.g_mat(x)
        if np.max(np.abs(coupling)) < coupling_tol:
            r = float(instance.residual(x))
            if r < instance.epsilon:
                witnesses.append((x, r))
    return witnesses


@pytest.mark.parametrize("plant", ["pendulum", "bicycle"])
@split_blocks()
def test_recbf_validity_condition_matches_per_state_oracle(plant):
    if plant == "pendulum":
        scenario = pendulum_scenario(params=PendulumParams(epsilon=4.0))
        extra = np.empty((0, 2))
    else:
        scenario = bicycle_scenario()
        p = scenario.params
        # on the line eta = eta_o only the steering coupling vanishes; at the
        # obstacle centre both do, and r = alpha psi < 0
        extra = [[xi, p.obstacle_eta, 0.0, 10.0] for xi in np.linspace(10.0, 30.0, 9)]
    # 61 x 61 nodes: more than one block, split inside a row
    axes = _grid_axes(scenario.window, (61, 61))
    nodes = _node_array(axes, scenario.state_from_axes, scenario.output, scenario.system.n)[0]
    states = np.vstack([nodes.T, extra])
    assert ad.BLOCK_NODES == SPLIT_BLOCK < len(states) and SPLIT_BLOCK % 61
    inst = scenario.make_cbf(RECBF)
    report = recbf_validity_condition(inst, scenario.system, states)
    expected = _validity_oracle(inst, scenario.system, states)
    assert expected and report.n_checked == len(states)
    assert len(report.witnesses) == len(expected)
    for (x, r), (x_want, r_want) in zip(report.witnesses, expected):
        assert np.array_equal(x, x_want)
        assert r == r_want


def test_recbf_validity_condition_gives_the_per_state_answer_for_one_state_callables(pendulum):
    # Python's max and float() cannot be traced: every state runs on its own
    output = dataclasses.replace(pendulum.output, psi=lambda y: max(HALF_PI_SQ - y[0] * y[0], -1.0))
    system = ControlAffineSystem(n=2, m=1, f=pendulum.system.f, g=lambda x: [[0.0], [float(x[0]) * 0.0 + 1.0]])
    inst = recbf(output, LinearClassK(1.0), ReQUActivation(5.0), 4.0)
    states = pendulum.assumption_states
    report = recbf_validity_condition(inst, system, states)
    expected = _validity_oracle(inst, system, states)
    assert expected and [(x.tolist(), r) for x, r in report.witnesses] == [(x.tolist(), r) for x, r in expected]
