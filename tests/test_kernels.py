"""The compiled kernels must agree with the AD reference path."""

import ast
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cbftk
from cbftk import kernels
from cbftk.analysis import grid_scan
from cbftk.cbf import ABC, CBF_KINDS, CbfInstance
from cbftk.kernels import KIND_CODES
from cbftk.safety_filter import SafetyFilterSpec
from cbftk.sim import simulate
from cbftk.systems import BicycleParams, PendulumParams, bicycle_scenario, pendulum_scenario


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


def _assert_scans_match(scenario, kind, resolution):
    """Scenario.scan equals the library grid_scan on the same inputs."""
    scenario = replace(scenario, resolution=resolution)
    fast = scenario.scan(kind)
    slow = grid_scan(
        scenario.make_cbf(kind),
        scenario.system,
        scenario.window,
        scenario.resolution,
        state_from_axes=scenario.state_from_axes,
        alpha_outer=scenario.alpha_outer,
    )
    assert np.array_equal(fast.x, slow.x)
    assert np.array_equal(fast.excluded, slow.excluded)
    # the kernel reports psi at excluded nodes, the reference NaN
    keep = ~slow.excluded
    assert np.allclose(fast.h[keep], slow.h[keep], atol=1e-12)
    assert np.allclose(fast.psi[keep], slow.psi[keep], atol=1e-12)
    assert np.allclose(fast.lgh_norm[keep], slow.lgh_norm[keep], atol=1e-12)
    assert np.allclose(fast.margin[keep], slow.margin[keep], atol=1e-11)
    assert (fast.s is None) == (kind != ABC) and (slow.s is None) == (kind != ABC)
    if kind == ABC:
        assert np.allclose(fast.s[keep], slow.s[keep], atol=1e-12)


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
            _assert_scans_match(scenario, kind, (21, 21))


gains = st.floats(0.2, 3.0)

pendulum_params = st.builds(
    PendulumParams,
    alpha_c=gains,
    gamma=gains,
    K=st.floats(0.1, 2.0),
    mu_backstepping=st.floats(0.5, 10.0),
    mu_abc=st.floats(0.5, 10.0),
    mu_recbf=st.floats(0.5, 10.0),
    epsilon=st.floats(0.0, 4.0),
    alpha_outer_c=st.none() | gains,
)

bicycle_params = st.builds(
    BicycleParams,
    wheelbase=st.floats(1.5, 4.0),
    v_desired=st.floats(5.0, 15.0),
    v_hat=st.floats(1.0, 8.0),
    obstacle_xi=st.floats(10.0, 30.0),
    obstacle_eta=st.floats(-2.0, 2.0),
    obstacle_radius=st.floats(1.0, 6.0),
    k_eta=gains,
    k_theta=gains,
    k_v=gains,
    gamma1=gains,
    gamma2=st.floats(0.05, 2.0),
    alpha_hat_c=gains,
    sigma_hat=st.floats(1e-4, 0.1),
    mu=st.floats(0.3, 5.0),
    alpha_c=st.floats(1.0, 8.0),
    epsilon=st.floats(0.0, 4.0),
    alpha_outer_c=st.none() | st.floats(1.0, 8.0),
)


@pytest.mark.parametrize("kind", CBF_KINDS)
@settings(max_examples=8, derandomize=True)
@given(params=pendulum_params)
def test_pendulum_kernels_match_reference_at_random_parameters(kind, params):
    scenario = pendulum_scenario(params=params)
    _assert_runs_match(scenario, kind, 0.2)
    _assert_scans_match(scenario, kind, (11, 11))


@pytest.mark.parametrize("kind", CBF_KINDS)
@settings(max_examples=8, derandomize=True)
@given(params=bicycle_params)
def test_bicycle_kernels_match_reference_at_random_parameters(kind, params):
    scenario = bicycle_scenario(params=params)
    _assert_runs_match(scenario, kind, 0.2)
    _assert_scans_match(scenario, kind, (11, 11))


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


def test_fallback_mode_matches_jitted_results(tmp_path):
    """The jitted kernels and their plain-Python fallback give one answer.

    The fallback runs in a probe that hides numba before importing cbftk.
    """
    pytest.importorskip("numba")
    probe = (
        "import numpy as np\n"
        "from cbftk import kernels\n"
        "from cbftk.systems import pendulum_scenario\n"
        "sc = pendulum_scenario()\n"
        "P = sc.kernel_params_for('abc')\n"
        "xs, us, hs, psis, ss, rows, code = kernels.pend_simulate(3, -1.2, 2.6, 200, 1e-3, P, 1e3)\n"
        "np.save('STATE', xs[:rows])\n"
    )
    # The probe runs in tmp_path, where a relative PYTHONPATH resolves to nothing.
    package_root = str(Path(cbftk.__file__).resolve().parents[1])
    python_path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=python_path)
    states = {}
    for mode, prelude in (("jitted", ""), ("fallback", "import sys\nsys.modules['numba'] = None\n")):
        script = tmp_path / f"{mode}_probe.py"
        script.write_text(prelude + probe)
        proc = subprocess.run(
            [sys.executable, script.name],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        states[mode] = np.load(tmp_path / "STATE.npy")
    assert np.allclose(states["jitted"], states["fallback"], rtol=0.0, atol=1e-13)
