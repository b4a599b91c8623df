"""The scalar kernels must agree with the AD reference path."""

import ast
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import cbftk
from cbftk import kernels
from cbftk.cbf import ABC, CBF_KINDS, CbfInstance
from cbftk.kernels import KIND_CODES
from cbftk.safety_filter import SafetyFilterSpec
from cbftk.sim import simulate
from cbftk.systems import BicycleParams, PendulumParams, bicycle_scenario, pendulum_scenario
from strategies import bicycle_params, pendulum_params


@pytest.mark.parametrize("kind", CBF_KINDS)
def test_pendulum_kernel_matches_ad(kind, pendulum, rng):
    inst = pendulum.make_cbf(kind)
    code = KIND_CODES[kind]
    P = pendulum.kernel_params_for(kind)
    for _ in range(200):
        x = pendulum.sample_state(rng)
        h, g0, g1 = kernels.pend_h_grad(code, x[0], x[1], P)
        value, grad = inst.value_and_gradient(x)
        assert h == pytest.approx(value, rel=1e-13, abs=1e-13)
        assert np.allclose([g0, g1], grad, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", CBF_KINDS)
def test_bicycle_kernel_matches_ad(kind, bicycle, rng):
    inst = bicycle.make_cbf(kind)
    code = KIND_CODES[kind]
    P = bicycle.kernel_params_for(kind)
    for _ in range(200):
        x = bicycle.sample_state(rng)
        out = kernels.bike_h_grad(code, x[0], x[1], x[2], x[3], P)
        value, grad = inst.value_and_gradient(x)
        assert out[0] == pytest.approx(value, rel=1e-12, abs=1e-10)
        assert np.allclose(out[1:], grad, rtol=1e-10, atol=1e-9)


def test_pendulum_switching_matches(pendulum, rng):
    inst = pendulum.make_cbf(ABC)
    for _ in range(100):
        x = pendulum.sample_state(rng)
        assert kernels.pend_switching(x[0], x[1], pendulum.params.K) == pytest.approx(
            inst.switching(x), rel=1e-13, abs=1e-13
        )


def test_bicycle_switching_matches(bicycle, rng):
    inst = bicycle.make_cbf(ABC)
    P = bicycle.kernel_params_for(ABC)
    for _ in range(100):
        x = bicycle.sample_state(rng)
        assert kernels.bike_switching(x[0], x[1], x[2], x[3], P) == pytest.approx(
            inst.switching(x), rel=1e-11, abs=1e-10
        )


def _assert_runs_match(scenario, kind, horizon):
    """Scenario.simulate equals the library simulate on the same inputs."""
    fast = scenario.simulate(kind, horizon=horizon)
    slow = simulate(
        scenario.system, scenario.make_cbf(kind), scenario.filter_spec(), scenario.x0, horizon, 1e-3
    )
    assert fast.exit_reason == slow.exit_reason
    assert len(fast) == len(slow)
    assert np.allclose(fast.x, slow.x, rtol=0.0, atol=1e-11)
    assert np.allclose(fast.u, slow.u, rtol=1e-9, atol=1e-10)
    # |h| reaches 1e4 at drawn bicycle parameters, hence also the relative
    # bound of test_bicycle_kernel_matches_ad
    assert np.allclose(fast.h, slow.h, rtol=1e-12, atol=1e-11)
    assert (fast.s is None) == (kind != ABC) and (slow.s is None) == (kind != ABC)
    if kind == ABC:
        assert np.allclose(fast.s, slow.s, rtol=0.0, atol=1e-11)
    return fast


def _kernel_scan(scenario, kind, axes):
    """The scan kernel of a scenario: h, psi, lgh_norm, margin, s, excluded."""
    code = KIND_CODES[kind]
    P = scenario.kernel_params_for(kind)
    if scenario.name == "pendulum":
        h, psi, lgh_norm, margin, s = kernels.pend_scan(code, axes[0], axes[1], P)
        return h, psi, lgh_norm, margin, s, np.zeros(h.size, dtype=bool)
    theta, v = scenario.resolved_slice["theta"], scenario.resolved_slice["v"]
    return kernels.bike_scan(code, axes[0], axes[1], theta, v, P)


def _assert_kernel_scan_matches(scenario, kind, resolution):
    """The scan kernel equals Scenario.scan, the library grid_scan, on kept nodes."""
    scan = replace(scenario, resolution=resolution).scan(kind)
    h, psi, lgh_norm, margin, s, excluded = _kernel_scan(scenario, kind, scan.axes)
    assert np.array_equal(excluded, scan.excluded)
    # the kernel reports psi at excluded nodes, the reference NaN
    keep = ~scan.excluded
    assert np.allclose(h[keep], scan.h[keep], atol=1e-12)
    assert np.allclose(psi[keep], scan.psi[keep], atol=1e-12)
    assert np.allclose(lgh_norm[keep], scan.lgh_norm[keep], atol=1e-12)
    assert np.allclose(margin[keep], scan.margin[keep], atol=1e-11)
    assert (scan.s is None) == (kind != ABC)
    if kind == ABC:
        assert np.allclose(s[keep], scan.s[keep], atol=1e-12)


@pytest.mark.parametrize("scenario_name", ["pendulum", "bicycle"])
@pytest.mark.parametrize("kind", CBF_KINDS)
def test_kernel_trajectories_match_generic_path(scenario_name, kind, pendulum, bicycle):
    """The random-parameter property below, at the published parameters."""
    scenario = pendulum if scenario_name == "pendulum" else bicycle
    fast = _assert_runs_match(scenario, kind, 0.5)
    if kind == ABC:
        assert len(fast) == 501


def test_kernel_scan_matches_generic_path(pendulum, bicycle):
    for scenario in (pendulum, bicycle):
        for kind in CBF_KINDS:
            _assert_kernel_scan_matches(scenario, kind, (21, 21))


@pytest.mark.parametrize("kind", CBF_KINDS)
def test_scenario_simulate_runs_the_plant_of_replaced_params(kind, pendulum, bicycle):
    # with the output of the published obstacle (xi = 20) the reference
    # would end abc at psi = 116.5, the kernel at 255.6
    _assert_runs_match(replace(bicycle, params=BicycleParams(obstacle_xi=25.0)), kind, 2.0)
    _assert_runs_match(replace(pendulum, params=PendulumParams(alpha_outer_c=3.0, gamma=2.0)), kind, 1.0)


@pytest.mark.parametrize("kind", CBF_KINDS)
@settings(max_examples=8, derandomize=True)
@given(params=pendulum_params)
def test_pendulum_kernels_match_reference_at_random_parameters(kind, params):
    _assert_runs_match(pendulum_scenario(params=params), kind, 0.2)


@pytest.mark.parametrize("kind", CBF_KINDS)
@settings(max_examples=8, derandomize=True)
@given(params=bicycle_params)
def test_bicycle_kernels_match_reference_at_random_parameters(kind, params):
    _assert_runs_match(bicycle_scenario(params=params), kind, 0.2)


def _imports_kernels(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[-1] == "kernels" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = (node.module or "").split(".")
        return module[-1] == "kernels" or (
            module in ([""], ["cbftk"]) and any(alias.name == "kernels" for alias in node.names)
        )
    return False


def test_only_the_scenarios_reach_the_kernels():
    package = Path(cbftk.__file__).parent
    importers = sorted(
        path.name
        for path in package.glob("*.py")
        if any(_imports_kernels(node) for node in ast.walk(ast.parse(path.read_text())))
    )
    assert importers == ["systems.py"]
    for cls in (CbfInstance, SafetyFilterSpec):
        assert not [f.name for f in fields(cls) if "kernel" in f.name.lower()]


def test_blow_up_exit_code(pendulum):
    P = pendulum.kernel_params_for("hocbf")
    _, us, *_rest, rows, code = kernels.pend_simulate(0, 0.1, -2.0, 5000, 1e-3, P, 1e3)
    assert code == kernels.EXIT_BLOW_UP
    assert rows < 5001
    assert abs(us[rows - 1, 0]) > 1e3


def _recording(kernel, calls):
    def record(*args):
        calls.append(args)
        return kernel(*args)

    return record


@pytest.mark.parametrize("kind", CBF_KINDS)
def test_the_kernels_get_python_floats(kind, monkeypatch):
    calls = []
    monkeypatch.setattr(kernels, "pend_simulate", _recording(kernels.pend_simulate, calls))
    monkeypatch.setattr(kernels, "bike_simulate", _recording(kernels.bike_simulate, calls))
    numpy_scalars = dict(horizon=np.float64(0.01), dt=np.float64(1e-3), blow_up_threshold=np.float64(1e3))
    runs = 0
    for factory, params in (
        (pendulum_scenario, PendulumParams(gamma=np.float64(1.0), K=np.float64(0.75))),
        (bicycle_scenario, BicycleParams(wheelbase=np.float64(2.5), mu=np.float64(1.0))),
    ):
        for scenario in (factory(), factory(params=params)):
            x0 = scenario.x0.copy()
            scenario.simulate(kind, horizon=0.01)
            scenario.simulate(kind, x0=x0, **numpy_scalars)
            scenario.simulate(kind, x0=list(x0), horizon=0.01, dt=np.float32(1e-3))
            runs += 3
    assert len(calls) == runs
    for code, *args in calls:
        *scalars, n_steps, dt, P, blow_threshold = args
        assert type(code) is int and type(n_steps) is int
        assert type(P) is tuple and len(P) in (6, 17)
        assert all(type(v) is float for v in (*scalars, dt, *P, blow_threshold))


@pytest.mark.parametrize("v_hat", [1e-200, -1e-200])
@pytest.mark.parametrize("kind", ["backstepping", ABC])
def test_a_root_that_underflows_divides_as_numpy_does(v_hat, kind):
    # on the circle a = 2 (xi - xi_o) v_hat, whose square underflows, as
    # does sigma_hat bb^2: root is zero and its divisions give inf and NaN
    params = BicycleParams(v_hat=v_hat, obstacle_xi=0.0, obstacle_eta=0.0, obstacle_radius=0.25, sigma_hat=5e-324)
    P = bicycle_scenario(params=params).kernel_params_for(kind)
    x0 = (0.25, 0.0, 0.0, 1.0)
    floats = kernels.bike_kappa_grad(*x0[:2], P)
    assert floats[2] == math.copysign(math.inf, v_hat) and math.isnan(floats[3])
    run = kernels.bike_simulate(KIND_CODES[kind], *x0, 10, 1e-3, P, 1e3)
    with np.errstate(divide="ignore", invalid="ignore"):
        scalars = kernels.bike_kappa_grad(*map(np.float64, x0[:2]), np.array(P))
        numpy_run = kernels.bike_simulate(
            KIND_CODES[kind], *map(np.float64, x0), 10, np.float64(1e-3), np.array(P), 1e3
        )
    np.testing.assert_array_equal(floats, scalars)
    rows = run[5]
    assert (rows, run[6]) == numpy_run[5:]
    for got, want in zip(run[:5], numpy_run[:5]):
        np.testing.assert_array_equal(got[:rows], want[:rows])
