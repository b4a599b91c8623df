"""Config serialization: ``parse -> to_text -> parse`` is a fixed point."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbftk.cbf import CBF_KINDS
from cbftk.config import _BICYCLE_PARAM_KEYS, _PENDULUM_PARAM_KEYS, ScenarioConfig

numbers = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
positives = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)
# a drawn number is written in one of several spellings the parser accepts
spellings = st.sampled_from([repr, "{:.3g}".format, "{:e}".format, "{:.17g}".format])


def _text(draw, strategy):
    return draw(spellings)(draw(strategy))


def _window(draw):
    axes = []
    for _ in range(2):
        lo = draw(numbers)
        hi = draw(st.floats(lo, 2e6, exclude_min=True, allow_nan=False))
        axes.append(f"{lo!r}:{hi!r}")
    return ",".join(axes)


@st.composite
def assignments(draw):
    """Config text: a scenario and a drawn subset of the keys it accepts."""
    scenario = draw(st.sampled_from(["pendulum", "bicycle"]))
    n = 2 if scenario == "pendulum" else 4
    shared = {
        "cbf": lambda: ",".join(draw(st.lists(st.sampled_from(CBF_KINDS), min_size=1, max_size=4))),
        "sim.dt": lambda: _text(draw, positives),
        "sim.horizon": lambda: _text(draw, positives),
        "sim.blow_up": lambda: _text(draw, positives),
        "init.x0": lambda: ",".join(_text(draw, numbers) for _ in range(n)),
        "scan.window": lambda: _window(draw),
        "scan.resolution": lambda: ",".join(
            str(r) for r in draw(st.lists(st.integers(2, 999), min_size=1, max_size=2))
        ),
    }
    param_keys = _PENDULUM_PARAM_KEYS if scenario == "pendulum" else _BICYCLE_PARAM_KEYS
    params = {key: lambda: _text(draw, positives) for key in param_keys}
    if scenario == "bicycle":
        params["filter.gamma"] = lambda: f"{_text(draw, positives)},{_text(draw, positives)}"
        params["scan.theta"] = lambda: _text(draw, numbers)
        params["scan.v"] = lambda: _text(draw, numbers)
    makers = {**shared, **params}
    keys = draw(st.lists(st.sampled_from(sorted(makers)), unique=True))
    return "".join([f"scenario = {scenario}\n"] + [f"{key} = {makers[key]()}\n" for key in keys])


@settings(derandomize=True)
@given(assignments())
def test_parse_to_text_parse_is_a_fixed_point(text):
    first = ScenarioConfig.from_text(text)
    canonical = first.to_text()
    second = ScenarioConfig.from_text(canonical)
    assert second.to_text() == canonical
    a, b = first.build_scenario(), second.build_scenario()
    assert a.params == b.params
    assert np.array_equal(a.x0, b.x0)
    assert a.window == b.window and a.resolution == b.resolution
    assert a.resolved_slice == b.resolved_slice
    assert a.dt == b.dt and a.horizon == b.horizon
    assert second.cbfs == first.cbfs and second.blow_up_threshold == first.blow_up_threshold


DEFAULT_TEXTS = {
    "pendulum": (
        "scenario = pendulum\ncbf = abc\nsim.dt = 0.001\nsim.horizon = 10.0\nsim.blow_up = 1000.0\n"
        "init.x0 = -1.2,2.6\nscan.window = -1.5707963267948966:1.5707963267948966,-4.0:4.0\n"
        "scan.resolution = 401,401\ncbf.alpha_c = 1.0\ncbf.K = 0.75\ncbf.mu_backstepping = 1.5\n"
        "cbf.mu_abc = 5.0\ncbf.mu_recbf = 5.0\ncbf.epsilon = 2.0\nfilter.gamma = 1.0\n"
    ),
    "bicycle": (
        "scenario = bicycle\ncbf = abc\nsim.dt = 0.001\nsim.horizon = 20.0\nsim.blow_up = 1000.0\n"
        "init.x0 = 0.0,0.5,0.0,3.0\nscan.window = 0.0:40.0,-8.0:8.0\nscan.resolution = 401,401\n"
        "cbf.alpha_c = 5.0\ncbf.mu = 1.0\ncbf.epsilon = 2.0\nsystem.wheelbase = 2.5\n"
        "system.v_desired = 10.0\nsystem.v_hat = 4.0\nsystem.obstacle_xi = 20.0\n"
        "system.obstacle_eta = -0.1\nsystem.obstacle_radius = 4.0\ndesired.k_eta = 0.4\n"
        "desired.k_theta = 1.75\ndesired.k_v = 0.3\nkappa.alpha_hat_c = 1.0\nkappa.sigma_hat = 0.001\n"
        "filter.gamma = 1.0,0.15\nscan.theta = 0.0\nscan.v = 10.0\n"
    ),
}


@pytest.mark.parametrize("scenario", sorted(DEFAULT_TEXTS))
def test_default_text_is_pinned(scenario):
    assert ScenarioConfig.from_text(f"scenario = {scenario}\n").to_text() == DEFAULT_TEXTS[scenario]
