import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbftk import autodiff as ad
from cbftk import kernels, sim
from cbftk.cbf import ABC, CBF_KINDS, RECBF, abc, hocbf
from cbftk.core import ControlAffineSystem, LinearClassK, RelDeg2Output, ReQUActivation
from cbftk.safety_filter import LinearGain, SafetyFilterSpec, safety_filter
from cbftk.sim import SimulationError, compute_metrics, rk4_step, simulate
from cbftk.systems import BicycleParams, PendulumParams, bicycle_scenario, lane_keeping_desired, pendulum_scenario
from strategies import bicycle_params, pendulum_params

HALF_PI_SQ = math.pi**2 / 4.0


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


def test_undriven_pendulum_conserves_energy(pendulum):
    energy = lambda x: 0.5 * x[1] ** 2 + math.cos(x[0])
    x = np.array([0.4, 0.3])
    e0 = energy(x)
    drift = 0.0
    for _ in range(10000):
        x = rk4_step(pendulum.system.f_vec, x, 1e-3)
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


@pytest.mark.parametrize("x0", [[0.1], [0.1, 0.2, 0.3], [[0.1, 0.2]]])
def test_simulate_refuses_an_initial_state_of_another_size(pendulum, x0):
    inst, spec = pendulum.make_cbf(ABC), pendulum.filter_spec()
    with pytest.raises(ValueError, match="x0 must have 2 components"):
        simulate(pendulum.system, inst, spec, x0, 1.0, 1e-3)
    with pytest.raises(ValueError, match="x0 must have 2 components"):
        pendulum.simulate(ABC, x0=x0, horizon=1.0)


@pytest.mark.parametrize("x0", [[math.nan, 0.0], [0.0, math.inf], [-math.inf, math.nan]])
def test_simulate_refuses_an_initial_state_that_is_not_finite(pendulum, x0):
    # a run from such a state would have no row, which compute_metrics
    # cannot summarize
    inst, spec = pendulum.make_cbf(ABC), pendulum.filter_spec()
    with pytest.raises(ValueError, match="x0 must be finite"):
        simulate(pendulum.system, inst, spec, x0, 1.0, 1e-3)
    with pytest.raises(ValueError, match="x0 must be finite"):
        pendulum.simulate(ABC, x0=x0, horizon=1.0)


@pytest.mark.parametrize(
    "horizon, dt",
    [
        (math.inf, 1e-3),
        (1.0, math.inf),
        (math.nan, 1e-3),
        (1.0, math.nan),
        (0.0, 1e-3),
        (1.0, -1e-3),
        (1e308, 1e-300),
    ],
)
def test_simulate_refuses_a_horizon_or_step_that_is_not_positive_and_finite(pendulum, horizon, dt):
    inst, spec = pendulum.make_cbf(ABC), pendulum.filter_spec()
    with pytest.raises(ValueError, match="horizon"):
        simulate(pendulum.system, inst, spec, pendulum.x0, horizon, dt)
    with pytest.raises(ValueError, match="horizon"):
        pendulum.simulate(ABC, horizon=horizon, dt=dt)


@pytest.mark.parametrize("horizon, dt", [(1e300, 1e-3), (1e10, 1e-10), (1.0, 2.0**-63)])
def test_simulate_refuses_a_step_count_no_index_holds_before_running(pendulum, horizon, dt, monkeypatch):
    def unreachable(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(sim, "_generated_step", unreachable)
    monkeypatch.setattr(kernels, "pend_simulate", unreachable)
    inst, spec = pendulum.make_cbf(ABC), pendulum.filter_spec()
    with pytest.raises(ValueError, match="steps, more than an index holds"):
        simulate(pendulum.system, inst, spec, pendulum.x0, horizon, dt)
    with pytest.raises(ValueError, match="steps, more than an index holds"):
        pendulum.simulate(ABC, horizon=horizon, dt=dt)


@pytest.mark.parametrize("threshold", [math.nan, 0.0, -1.0, -math.inf])
def test_simulate_refuses_a_blow_up_threshold_that_is_not_positive(pendulum, threshold, monkeypatch):
    def unreachable(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(sim, "_generated_step", unreachable)
    monkeypatch.setattr(kernels, "pend_simulate", unreachable)
    inst, spec = pendulum.make_cbf("hocbf"), pendulum.filter_spec()
    refused = f"blow_up_threshold must be positive, got {threshold!r}"
    with pytest.raises(ValueError, match=refused):
        simulate(pendulum.system, inst, spec, [0.1, -2.0], 1.0, 1e-3, blow_up_threshold=threshold)
    with pytest.raises(ValueError, match=refused):
        pendulum.simulate("hocbf", x0=[0.1, -2.0], horizon=1.0, blow_up_threshold=threshold)


def test_an_infinite_blow_up_threshold_turns_the_check_off(pendulum):
    # the published high-order run blows up at row 327 under the default
    inst, spec = pendulum.make_cbf("hocbf"), pendulum.filter_spec()
    library = simulate(pendulum.system, inst, spec, pendulum.x0, 0.35, 1e-3, blow_up_threshold=math.inf)
    kernel = pendulum.simulate("hocbf", horizon=0.35, blow_up_threshold=math.inf)
    for traj in (library, kernel):
        assert (traj.exit_reason, len(traj)) == ("completed", 351)
        assert np.abs(traj.u).max() > 1e3


def _peak_bytes(run):
    """The result of ``run()`` and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_run_that_stops_early_allocates_only_its_rows(pendulum):
    # a million steps, of which the published high-order run logs 328
    # before its input blows up: 13 KB of rows, against 48 MB for arrays
    # sized to the horizon
    inst, spec = pendulum.make_cbf("hocbf"), pendulum.filter_spec()
    simulate(pendulum.system, inst, spec, pendulum.x0, 0.01, 1e-3)  # traces the step
    for run in (
        lambda: pendulum.simulate("hocbf", horizon=1000.0),
        lambda: simulate(pendulum.system, inst, spec, pendulum.x0, 1000.0, 1e-3),
    ):
        traj, peak = _peak_bytes(run)
        assert (traj.exit_reason, len(traj)) == ("blow_up", 328)
        assert peak < 1e6


# -- what the kernel scenario run refuses and what it reads ---------------------


@pytest.mark.parametrize(
    "scenario",
    [pendulum_scenario(params=PendulumParams(gamma=0.0)), bicycle_scenario(params=BicycleParams(gamma2=0.0))],
)
def test_scenario_simulate_refuses_a_zero_filter_weight(scenario):
    # the kernels divide by each weight, as sim.simulate's filter spec refuses
    with pytest.raises(ValueError, match="Gamma weights must be positive"):
        scenario.simulate(ABC, horizon=0.01)


def test_scenario_simulate_keeps_running_what_it_reads(pendulum, bicycle):
    for scenario in (pendulum, bicycle):
        reference = scenario.simulate(ABC, horizon=0.2, dt=2e-3)
        assert reference.evaluation == "kernel"
        replaced = dataclasses.replace(
            scenario, window=((0.0, 1.0), (0.0, 1.0)), resolution=(5, 7), horizon=0.2, dt=2e-3
        )
        traj = replaced.simulate(ABC)
        for column in ("t", "x", "u", "h", "psi", "s"):
            assert getattr(traj, column).tobytes() == getattr(reference, column).tobytes()
        assert (len(traj), traj.exit_reason) == (len(reference), reference.exit_reason)


# each (plant, kind) traces its generated step once across the examples
_TRACED = {}


def _both_runs(scenario, kind, x0, dt):
    """Scenario.simulate and sim.simulate of ``kind`` from ``x0`` with step ``dt``."""
    if (scenario.name, kind) not in _TRACED:
        _TRACED[scenario.name, kind] = (scenario.make_cbf(kind), scenario.filter_spec())
    inst, spec = _TRACED[scenario.name, kind]
    return scenario.simulate(kind, x0=x0, horizon=0.05, dt=dt), simulate(scenario.system, inst, spec, x0, 0.05, dt)


@pytest.mark.parametrize("plant", ["pendulum", "bicycle"])
@pytest.mark.parametrize("kind", CBF_KINDS)
@settings(max_examples=4, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), dt=st.floats(2e-4, 5e-3))
def test_numpy_scalar_inputs_give_the_python_float_run(plant, kind, seed, dt, pendulum, bicycle):
    scenario = pendulum if plant == "pendulum" else bicycle
    x0 = scenario.sample_state(np.random.default_rng(seed))
    floats = _both_runs(scenario, kind, tuple(x0.tolist()), dt)
    numpy_scalars = _both_runs(scenario, kind, x0, np.float64(dt))
    for want, got in zip(floats, numpy_scalars):
        assert (got.exit_reason, len(got), got.evaluation) == (want.exit_reason, len(want), want.evaluation)
        for column in ("t", "x", "u", "h", "psi", "s"):
            assert np.asarray(getattr(got, column)).tobytes() == np.asarray(getattr(want, column)).tobytes()


# -- the generated code gives the Dual path's bytes -------------------------------


def _digest(traj) -> str:
    h = hashlib.sha256()
    for column in (traj.t, traj.x, traj.u, traj.h, traj.psi) + ((traj.s,) if traj.s is not None else ()):
        h.update(np.ascontiguousarray(column).tobytes())
    return h.hexdigest()[:32]


# exit reason, rows and digest of each published run, recorded with every
# step on numpy, h and its gradient on Duals, and the filter's dot products
# summed in index order
DUAL_RUNS = {
    ("pendulum", "hocbf", 2.0): ("blow_up", 328, "617ed50c7f4e1d5f65772afcae8e85ca"),
    ("pendulum", "recbf", 2.0): ("completed", 2001, "cb075643c4a67dec17946dabea306137"),
    ("pendulum", "backstepping", 2.0): ("completed", 2001, "b62d7484ed4a9307f16d498e79bb5bdf"),
    ("pendulum", "abc", 2.0): ("completed", 2001, "56342fe8033844057bbac8c297a55a2e"),
    ("bicycle", "hocbf", 1.0): ("completed", 1001, "3bfbd918d3568e3530d0ab073722ee95"),
    ("bicycle", "recbf", 1.0): ("completed", 1001, "f59e4d5ca379052612e362c12e76034c"),
    ("bicycle", "backstepping", 1.0): ("completed", 1001, "cbb86e44e358bba9af9ad3337b5b46f9"),
    ("bicycle", "abc", 1.0): ("completed", 1001, "9b896397e6d282fb6432ae53339fbbae"),
}


@pytest.mark.parametrize("plant, kind, horizon", list(DUAL_RUNS))
def test_published_runs_keep_the_dual_bytes(plant, kind, horizon, pendulum, bicycle):
    scenario = pendulum if plant == "pendulum" else bicycle
    traj = simulate(scenario.system, scenario.make_cbf(kind), scenario.filter_spec(), scenario.x0, horizon, 1e-3)
    assert traj.evaluation == "generated"
    assert (traj.exit_reason, len(traj), _digest(traj)) == DUAL_RUNS[plant, kind, horizon]


def test_a_published_run_keeps_its_bytes_on_another_blas_kernel(pendulum):
    # OpenBLAS's Prescott kernels have no fused multiply-add; the run is
    # summed in index order whatever numpy's @ would give
    script = (
        "import hashlib, numpy as np\n"
        "from cbftk.sim import simulate\n"
        "from cbftk.systems import pendulum_scenario\n"
        "s = pendulum_scenario()\n"
        "traj = simulate(s.system, s.make_cbf('abc'), s.filter_spec(), s.x0, 2.0, 1e-3)\n"
        "h = hashlib.sha256()\n"
        "for column in (traj.t, traj.x, traj.u, traj.h, traj.psi, traj.s):\n"
        "    h.update(np.ascontiguousarray(column).tobytes())\n"
        "print(traj.evaluation, traj.exit_reason, len(traj), h.hexdigest()[:32])\n"
    )
    paths = [os.path.dirname(os.path.dirname(sim.__file__)), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott", "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    traj = simulate(pendulum.system, pendulum.make_cbf(ABC), pendulum.filter_spec(), pendulum.x0, 2.0, 1e-3)
    assert done.stdout.split() == [traj.evaluation, traj.exit_reason, str(len(traj)), _digest(traj)]
    assert traj.evaluation == "generated"


def _assert_generated_run_equals_dual(scenario, kind, horizon):
    inst = scenario.make_cbf(kind)
    spec = scenario.filter_spec()
    traj = simulate(scenario.system, inst, spec, scenario.x0, horizon, 1e-3)
    # every step on numpy, with h and its gradient on the Dual path
    untraceable = ad.Traced(lambda xs: [float(xs[0])], 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_generated_step", lambda *_: untraceable)
        dual = simulate(scenario.system, inst, spec, scenario.x0, horizon, 1e-3)
    assert dual.evaluation.startswith("numpy: not traced")
    assert (traj.exit_reason, len(traj), _digest(traj)) == (dual.exit_reason, len(dual), _digest(dual))
    assert traj.evaluation == "generated"


@pytest.mark.parametrize("kind", CBF_KINDS)
@settings(max_examples=3, derandomize=True)
@given(params=pendulum_params)
def test_pendulum_runs_equal_dual_at_random_parameters(kind, params):
    _assert_generated_run_equals_dual(pendulum_scenario(params=params), kind, 0.3)


@pytest.mark.parametrize("kind", CBF_KINDS)
@settings(max_examples=3, derandomize=True)
@given(params=bicycle_params)
def test_bicycle_runs_equal_dual_at_random_parameters(kind, params):
    _assert_generated_run_equals_dual(bicycle_scenario(params=params), kind, 0.2)


def test_an_untraceable_output_runs_on_dual_and_says_why(pendulum):
    output = RelDeg2Output(
        p=1,
        y=lambda x: [x[0]],
        ydot=lambda x: [x[1]],
        psi=lambda y: HALF_PI_SQ - y[0] * y[0] + 0.05 * math.sin(ad.scalar(y[0])),
        psi_grad=lambda y: [-2.0 * y[0]],
    )
    inst = abc(output, LinearClassK(1.0), LinearGain(0.75), ReQUActivation(5.0))
    traj = simulate(pendulum.system, inst, pendulum.filter_spec(), pendulum.x0, 1.0, 1e-3)
    assert traj.evaluation.startswith("numpy: not traced")
    assert "float(), math.* or np.* on a traced value" in traj.evaluation
    assert "math.sin(ad.scalar(y[0]))" in traj.evaluation
    # recorded with the filter's dot products summed in index order
    assert (traj.exit_reason, len(traj)) == ("completed", 1001)
    h = hashlib.sha256()
    for column in (traj.t, traj.x, traj.u, traj.h, traj.psi, traj.s):
        h.update(np.ascontiguousarray(column).tobytes())
    assert h.hexdigest() == "08bf3550e10ef9b9931e5ad48a3231a0b45f51df47a7ff9460a3869dd7ee5fc0"


def test_an_untraceable_numpy_call_names_the_callers_line(bicycle):
    p = bicycle.params
    spec = dataclasses.replace(bicycle.filter_spec(), desired=lambda x: np.clip(lane_keeping_desired(x, p), -1.0, 1.0))
    traj = simulate(bicycle.system, bicycle.make_cbf(ABC), spec, bicycle.x0, 0.01, 1e-3)
    assert traj.evaluation.startswith("numpy: not traced")
    assert "test_sim.py:" in traj.evaluation
    assert "np.clip(lane_keeping_desired(x, p), -1.0, 1.0)" in traj.evaluation
