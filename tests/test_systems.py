import dataclasses
import math

import numpy as np
import pytest

from cbftk.systems import (
    BicycleParams,
    PendulumParams,
    bicycle_scenario,
    lane_keeping_desired,
    pendulum_scenario,
    scenario_by_name,
)

HALF_PI_SQ = math.pi**2 / 4.0


def dynamics(scenario, x, u):
    """xdot = f(x) + g(x) u from the scenario's own system."""
    return scenario.system.f_vec(x) + scenario.system.g_mat(x) @ np.asarray(u, dtype=float)


def pendulum_dynamics(x, u):
    return dynamics(pendulum_scenario(), x, u)


def bicycle_dynamics(x, u):
    return dynamics(bicycle_scenario(), x, u)


def test_pendulum_dynamics_examples():
    assert np.allclose(pendulum_dynamics([0.0, 0.0], [0.0]), [0.0, 0.0])
    assert np.allclose(pendulum_dynamics([math.pi / 2.0, 0.0], [0.0]), [0.0, 1.0])
    out = pendulum_dynamics([0.5, 1.0], [-2.0])
    assert out == pytest.approx([1.0, math.sin(0.5) - 2.0])


def test_bicycle_dynamics_examples():
    assert np.allclose(bicycle_dynamics([0, 0, 0, 10.0], [0.0, 0.0]), [10.0, 0.0, 0.0, 0.0])
    assert np.allclose(
        bicycle_dynamics([0, 0, math.pi / 2.0, 2.0], [0.0, 1.0]),
        [2.0 * math.cos(math.pi / 2.0), 2.0, 0.0, 1.0],
        atol=1e-15,
    )
    assert np.allclose(bicycle_dynamics([0, 0, 0, 5.0], [0.2, 0.0]), [5.0, 0.0, 0.4, 0.0])


def test_constraints():
    pendulum_constraint = pendulum_scenario().output.psi_of_state
    assert pendulum_constraint([0.0, 0.0]) == pytest.approx(HALF_PI_SQ)
    assert pendulum_constraint([math.pi / 2.0, 0.0]) == pytest.approx(0.0)
    p = BicycleParams()
    bicycle_constraint = bicycle_scenario(params=p).output.psi_of_state
    assert bicycle_constraint([p.obstacle_xi + p.obstacle_radius, p.obstacle_eta, 0.0, 1.0]) == pytest.approx(0.0)
    assert bicycle_constraint([0.0, 0.0, 0.0, 1.0]) == pytest.approx(20.0**2 + 0.1**2 - 16.0)


def test_lane_keeping_desired():
    p = BicycleParams()
    assert np.allclose(lane_keeping_desired([3.0, 0.0, 0.0, p.v_desired], p), [0.0, 0.0])
    assert np.allclose(lane_keeping_desired([3.0, 1.0, 0.0, 10.0], p), [-0.4, 0.0])
    assert np.allclose(lane_keeping_desired([3.0, 0.0, 0.0, 5.0], p), [0.0, 1.5])


def test_published_pendulum_defaults():
    p = PendulumParams()
    assert (p.alpha_c, p.gamma, p.epsilon, p.K) == (1.0, 1.0, 2.0, 0.75)
    assert (p.mu_backstepping, p.mu_abc) == (1.5, 5.0)
    assert p.alpha_outer == p.alpha_c


def test_published_bicycle_defaults():
    p = BicycleParams()
    assert (p.wheelbase, p.v_desired, p.v_hat) == (2.5, 10.0, 4.0)
    assert (p.obstacle_xi, p.obstacle_eta, p.obstacle_radius) == (20.0, -0.1, 4.0)
    assert (p.k_eta, p.k_theta, p.k_v) == (0.4, 1.75, 0.3)
    assert (p.gamma1, p.gamma2) == (1.0, 0.15)
    assert (p.alpha_hat_c, p.sigma_hat, p.mu, p.alpha_c) == (1.0, 0.001, 1.0, 5.0)


def test_pendulum_stationary_output_point_is_interior():
    # the only zero of psi_grad is phi = 0, and psi(0) = pi^2/4 > 0
    scenario = pendulum_scenario()
    grad = lambda phi: scenario.output.psi_grad([phi])[0]
    phis = np.linspace(-math.pi / 2.0, math.pi / 2.0, 2001)
    zeros = [phi for phi in phis if abs(grad(phi)) < 1e-10]
    assert len(zeros) == 1 and abs(zeros[0]) < 1e-9
    assert scenario.output.psi([0.0]) == pytest.approx(HALF_PI_SQ)


def test_scenario_by_name():
    assert scenario_by_name("pendulum").name == "pendulum"
    assert scenario_by_name("bicycle").name == "bicycle"
    with pytest.raises(ValueError):
        scenario_by_name("unicycle")


def test_extended_set_excludes_obstacle_center():
    sc = bicycle_scenario()
    p = sc.params
    assert not sc.output.in_extended_set([p.obstacle_xi, p.obstacle_eta, 0.0, 1.0])
    assert sc.output.in_extended_set([p.obstacle_xi + 0.5, p.obstacle_eta, 0.0, 1.0])


def test_sampler_respects_extended_set(bicycle, rng):
    for _ in range(200):
        x = bicycle.sample_state(rng)
        assert bicycle.output.in_extended_set(x)


@pytest.mark.parametrize("wheelbase", [0.0, -1.0, math.nan])
def test_a_non_positive_wheelbase_is_refused(wheelbase):
    # the steering input enters the dynamics as v u1 / L
    with pytest.raises(ValueError, match="wheelbase must be positive"):
        BicycleParams(wheelbase=wheelbase)
    with pytest.raises(ValueError, match="wheelbase must be positive"):
        dataclasses.replace(BicycleParams(), wheelbase=wheelbase)
