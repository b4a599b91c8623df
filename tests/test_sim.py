import dataclasses
import math

import numpy as np
import pytest

from cbftk import autodiff as ad
from cbftk.cbf import ABC, RECBF, hocbf
from cbftk.core import ControlAffineSystem, LinearClassK, RelDeg2Output, ReQUActivation
from cbftk.safety_filter import SafetyFilterSpec, safety_filter
from cbftk.sim import SimulationError, compute_metrics, rk4_step, simulate
from cbftk.systems import PendulumParams, pendulum_dynamics, pendulum_scenario


def test_rk4_exponential_decay():
    x = rk4_step(lambda xs: -xs, np.array([1.0]), 0.1)
    assert x[0] == pytest.approx(math.exp(-0.1), abs=1e-7)


def test_rk4_zero_derivative():
    x0 = np.array([2.0, -3.0])
    assert np.array_equal(rk4_step(lambda xs: np.zeros(2), x0, 0.5), x0)


def test_rk4_rejects_nonpositive_dt():
    with pytest.raises(ValueError):
        rk4_step(lambda xs: -xs, np.array([1.0]), 0.0)


def test_rk4_nonfinite_stage_carries_timestamp():
    with pytest.raises(SimulationError) as err:
        rk4_step(lambda xs: np.array([float("nan")]), np.array([1.0]), 0.1, t=2.5)
    assert err.value.t == 2.5


def test_undriven_pendulum_conserves_energy():
    energy = lambda x: 0.5 * x[1] ** 2 + math.cos(x[0])
    x = np.array([0.4, 0.3])
    e0 = energy(x)
    drift = 0.0
    for _ in range(10000):
        x = rk4_step(lambda xs: pendulum_dynamics(xs, [0.0]), x, 1e-3)
        drift = max(drift, abs(energy(x) - e0))
    assert drift < 1e-6


def test_simulated_row_count_and_spacing(pendulum):
    traj = pendulum.simulate(ABC, horizon=1.0)
    assert len(traj) == 1001
    assert traj.exit_reason == "completed"
    steps = np.diff(traj.t)
    assert np.allclose(steps, 1e-3, rtol=0.0, atol=1e-15)


def test_abc_run_is_safe(pendulum):
    traj = pendulum.simulate(ABC, horizon=10.0)
    assert traj.exit_reason == "completed"
    assert traj.psi.min() >= 0.0
    assert traj.h.min() >= -1e-6
    assert traj.s is not None and traj.s.shape == traj.h.shape


def test_s_column_absent_for_other_kinds(pendulum):
    assert pendulum.simulate("backstepping", horizon=0.2).s is None


def test_high_order_run_blows_up_crossing_the_upright(pendulum):
    traj = pendulum.simulate("hocbf", x0=[0.1, -2.0], horizon=5.0)
    assert traj.blew_up
    assert traj.exit_reason == "blow_up"
    assert traj.t[-1] < 5.0
    assert np.abs(traj.u[-1]).max() > 1e3


def test_desired_zero_input_while_inactive(pendulum):
    # start deep inside the safe set moving toward upright: s >= 0 there,
    # the filter cannot and need not act
    traj = pendulum.simulate(ABC, x0=[-0.3, 0.3], horizon=0.5)
    assert np.array_equal(traj.u[:200], np.zeros((200, 1)))


def test_metrics_constant_input():
    traj = simulate_dummy_trajectory(u=np.ones((5, 1)) * 2.0)
    metrics = compute_metrics(traj)
    assert metrics.max_step_delta_u[0] == 0.0
    assert metrics.max_abs_u[0] == 2.0
    assert not metrics.blew_up


def test_metrics_two_row_jump():
    traj = simulate_dummy_trajectory(u=np.array([[0.0], [5.0]]))
    assert compute_metrics(traj).max_step_delta_u[0] == 5.0


def simulate_dummy_trajectory(u):
    from cbftk.sim import Trajectory

    n = u.shape[0]
    return Trajectory(
        dt=0.1,
        t=0.1 * np.arange(n),
        x=np.zeros((n, 2)),
        u=np.asarray(u, dtype=float),
        h=np.linspace(1.0, 0.5, n),
        psi=np.ones(n),
        s=None,
    )


def test_metrics_require_rows():
    from cbftk.sim import Trajectory

    empty = Trajectory(
        dt=0.1,
        t=np.zeros(0),
        x=np.zeros((0, 2)),
        u=np.zeros((0, 1)),
        h=np.zeros(0),
        psi=np.zeros(0),
        s=None,
    )
    with pytest.raises(ValueError):
        compute_metrics(empty)


def test_rectified_small_epsilon_chatters_harder_than_activated(pendulum):
    sharp = pendulum_scenario(params=PendulumParams(epsilon=0.01))
    recbf_traj = sharp.simulate(RECBF)
    abc_traj = sharp.simulate(ABC)
    assert recbf_traj.exit_reason == "completed"
    m_recbf = compute_metrics(recbf_traj)
    m_abc = compute_metrics(abc_traj)
    assert m_recbf.max_step_delta_u[0] > m_abc.max_step_delta_u[0]


def test_closed_loop_matches_independent_adaptive_integrator(pendulum):
    # same controller composition, integrated by scipy's adaptive RK45:
    # an oracle for the fixed-step loop that shares no integration code
    from scipy.integrate import solve_ivp

    from cbftk.safety_filter import safety_filter

    inst = pendulum.make_cbf(ABC)
    spec = pendulum.filter_spec()

    def rhs(_t, x):
        u = safety_filter(spec, inst, pendulum.system, x)
        return pendulum.system.f_vec(x) + pendulum.system.g_mat(x) @ u

    sol = solve_ivp(rhs, (0.0, 3.0), pendulum.x0, rtol=1e-10, atol=1e-12)
    traj = pendulum.simulate(ABC, horizon=3.0)
    assert np.allclose(traj.x[-1], sol.y[:, -1], atol=5e-7)


def test_left_domain_truncation_via_generic_path():
    # drifting cart whose extended set ends at x1 = 2
    system = ControlAffineSystem(
        n=2,
        m=1,
        f=lambda x: [1.0 + 0.0 * x[0], 0.0 * x[0]],
        g=lambda x: [[0.0], [1.0]],
    )
    output = RelDeg2Output(
        p=1,
        y=lambda x: [x[0]],
        ydot=lambda x: [1.0 + 0.0 * x[0]],
        psi=lambda y: 100.0 - y[0] * y[0],
        psi_grad=lambda y: [-2.0 * y[0]],
        in_extended_set=lambda x: x[0] < 2.0,
    )
    inst = hocbf(output, LinearClassK(1.0))
    spec = SafetyFilterSpec(desired=lambda x: np.zeros(1), gamma=np.ones(1), alpha=LinearClassK(1.0))
    traj = simulate(system, inst, spec, [0.0, 0.0], 5.0, 1e-2)
    assert traj.exit_reason == "left_domain"
    assert traj.t[-1] < 2.01
    metrics = compute_metrics(traj)
    assert metrics.exit_reason == "left_domain"
    assert not metrics.blew_up


# -- the library loop honours every argument ------------------------------------
# Each run below changes one input of the published pendulum run; the
# logged rows must follow that input, not the published one.


def _assert_rows_follow(traj, system, inst, spec):
    for k in (0, len(traj) // 2, len(traj) - 1):
        x = traj.x[k]
        assert np.array_equal(traj.u[k], safety_filter(spec, inst, system, x))
        assert traj.h[k] == inst.value(x)


def test_simulate_honours_a_modified_filter_spec(pendulum):
    inst = pendulum.make_cbf(ABC)
    spec = dataclasses.replace(
        pendulum.filter_spec(), desired=lambda x: np.array([0.5]), alpha=LinearClassK(3.0)
    )
    traj = simulate(pendulum.system, inst, spec, pendulum.x0, 1.0, 1e-3)
    _assert_rows_follow(traj, pendulum.system, inst, spec)
    # the published spec ends at (0.7368, 0.7854)
    assert np.allclose(traj.x[-1], [0.9572, 0.8940], atol=1e-4)


def test_simulate_honours_a_different_plant(pendulum):
    damped = ControlAffineSystem(
        n=2,
        m=1,
        f=lambda x: [x[1], ad.sin(x[0]) - 2.0 * x[1]],
        g=lambda x: [[0.0], [1.0]],
    )
    inst = pendulum.make_cbf(ABC)
    spec = pendulum.filter_spec()
    traj = simulate(damped, inst, spec, pendulum.x0, 1.0, 1e-3)
    _assert_rows_follow(traj, damped, inst, spec)
    assert np.allclose(traj.x[-1], [-0.2369, 0.1858], atol=1e-4)


def test_simulate_honours_a_modified_instance(pendulum):
    inst = dataclasses.replace(pendulum.make_cbf(RECBF), epsilon=0.5, theta=ReQUActivation(1.0))
    spec = pendulum.filter_spec()
    traj = simulate(pendulum.system, inst, spec, pendulum.x0, 1.0, 1e-3)
    _assert_rows_follow(traj, pendulum.system, inst, spec)
    # the published instance ends at (0.8012, 0.8766)
    assert np.allclose(traj.x[-1], [0.8704, 0.8998], atol=1e-4)
