"""The generated closed-loop step gives the numpy step's bits.

``sim.simulate`` runs each step as straight-line code traced from the
filter, the plant, the RK4 stages and the logged fields.  Each run here is
compared with the same run made with every step on numpy: every logged
column by ``tobytes()``, the exit reason and the row count.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbftk import autodiff as ad
from cbftk import sim
from cbftk.cbf import ABC, BACKSTEPPING, CBF_KINDS, HOCBF, RECBF, abc, backstepping, hocbf, recbf
from cbftk.core import ControlAffineSystem, LinearClassK, RelDeg2Output, ReQUActivation
from cbftk.safety_filter import LinearGain, SafetyFilterSpec, lambda_exact
from cbftk.systems import bicycle_scenario, pendulum_scenario
from strategies import bicycle_params, pendulum_params

COLUMNS = ("t", "x", "u", "h", "psi", "s")


def _numpy_simulate(*args, **kwargs):
    """``sim.simulate`` with every step on numpy."""
    untraceable = ad.Traced(lambda xs: [float(xs[0])], 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_generated_step", lambda *_: untraceable)
        return sim.simulate(*args, **kwargs)


def _assert_same_run(system, inst, spec, x0, horizon, dt=1e-3, **kwargs):
    traj = sim.simulate(system, inst, spec, x0, horizon, dt, **kwargs)
    reference = _numpy_simulate(system, inst, spec, x0, horizon, dt, **kwargs)
    assert reference.evaluation.startswith("numpy: not traced")
    for column in COLUMNS:
        got, expected = getattr(traj, column), getattr(reference, column)
        assert (got is None) == (expected is None), column
        if got is not None:
            assert got.tobytes() == expected.tobytes(), column
    assert (traj.exit_reason, len(traj)) == (reference.exit_reason, len(reference))
    return traj


pendulum_states = st.tuples(st.floats(-1.5, 1.5), st.floats(-4.0, 4.0))
bicycle_states = st.tuples(
    st.floats(0.0, 40.0), st.floats(-8.0, 8.0), st.floats(-0.8, 0.8), st.floats(0.5, 13.0)
).filter(lambda x: (x[0] - 20.0) ** 2 + (x[1] + 0.1) ** 2 > 0.25)


@pytest.mark.parametrize("kind", CBF_KINDS)
@settings(max_examples=4, derandomize=True)
@given(params=pendulum_params, x0=pendulum_states)
def test_pendulum_step_equals_numpy(kind, params, x0):
    scenario = pendulum_scenario(params=params)
    _assert_same_run(scenario.system, scenario.make_cbf(kind), scenario.filter_spec(), x0, 0.1)


@pytest.mark.parametrize("kind", CBF_KINDS)
@settings(max_examples=4, derandomize=True)
@given(params=bicycle_params, x0=bicycle_states)
def test_bicycle_step_equals_numpy(kind, params, x0):
    scenario = bicycle_scenario(params=params)
    _assert_same_run(scenario.system, scenario.make_cbf(kind), scenario.filter_spec(), x0, 0.1)


# a plant that is not in cbftk.systems: three states, one input, the
# output's second derivative driven through a lagged state
TRIPLE = ControlAffineSystem(
    n=3,
    m=1,
    f=lambda x: [x[1], -0.5 * x[1] + x[2], -x[2] + ad.sin(x[0])],
    g=lambda x: [[0.0], [1.0], [0.0]],
)
TRIPLE_OUTPUT = RelDeg2Output(
    p=1,
    y=lambda x: [x[0]],
    ydot=lambda x: [x[1]],
    psi=lambda y: 1.0 - y[0] * y[0],
    psi_grad=lambda y: [-2.0 * y[0]],
)
TRIPLE_SPEC = SafetyFilterSpec(desired=lambda x: [0.3 * x[2] - x[0]], gamma=np.array([0.7]), alpha=LinearClassK(1.5))


def _triple_instance(kind, gain, mu):
    alpha = LinearClassK(gain)
    if kind == HOCBF:
        return hocbf(TRIPLE_OUTPUT, alpha)
    if kind == RECBF:
        return recbf(TRIPLE_OUTPUT, alpha, ReQUActivation(mu), 0.5)
    if kind == BACKSTEPPING:
        return backstepping(TRIPLE_OUTPUT, alpha, LinearGain(0.8), mu)
    return abc(TRIPLE_OUTPUT, alpha, LinearGain(0.8), ReQUActivation(mu))


@pytest.mark.parametrize("kind", CBF_KINDS)
@settings(max_examples=4, derandomize=True)
@given(
    gain=st.floats(0.3, 3.0),
    mu=st.floats(0.5, 5.0),
    x0=st.tuples(st.floats(-0.9, 0.9), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)
def test_a_plant_outside_systems_steps_as_numpy(kind, gain, mu, x0):
    _assert_same_run(TRIPLE, _triple_instance(kind, gain, mu), TRIPLE_SPEC, x0, 0.2)


@pytest.mark.parametrize("kind", CBF_KINDS)
def test_a_plant_outside_systems_runs_generated(kind):
    traj = sim.simulate(TRIPLE, _triple_instance(kind, 1.2, 2.0), TRIPLE_SPEC, [0.3, -0.5, 0.8], 0.5, 1e-3)
    assert traj.evaluation == "generated"


def test_a_blow_up_ends_the_same(pendulum):
    traj = _assert_same_run(pendulum.system, pendulum.make_cbf(HOCBF), pendulum.filter_spec(), [0.1, -2.0], 5.0)
    assert traj.exit_reason == "blow_up" and traj.evaluation == "generated"


def test_leaving_the_domain_ends_the_same():
    # a drifting cart whose extended set ends at x0 = 2
    system = ControlAffineSystem(
        n=2, m=1, f=lambda x: [1.0 + 0.0 * x[0], 0.0 * x[0]], g=lambda x: [[0.0], [1.0]]
    )
    output = RelDeg2Output(
        p=1,
        y=lambda x: [x[0]],
        ydot=lambda x: [1.0 + 0.0 * x[0]],
        psi=lambda y: 100.0 - y[0] * y[0],
        psi_grad=lambda y: [-2.0 * y[0]],
        in_extended_set=lambda x: x[0] < 2.0,
    )
    spec = SafetyFilterSpec(desired=lambda x: np.zeros(1), gamma=np.ones(1), alpha=LinearClassK(1.0))
    traj = _assert_same_run(system, hocbf(output, LinearClassK(1.0)), spec, [0.0, 0.0], 5.0, 1e-2)
    assert traj.exit_reason == "left_domain"
    assert traj.evaluation.startswith("numpy: domain guard fired at state [1.99")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflows where the state does
def test_a_state_that_overflows_ends_the_same():
    # xdot = x^2 from 1 leaves the floats in finite time; the input stays bounded
    system = ControlAffineSystem(n=2, m=1, f=lambda x: [x[0] * x[0], 0.0 * x[1]], g=lambda x: [[0.0], [1.0]])
    output = RelDeg2Output(
        p=1, y=lambda x: [x[1]], ydot=lambda x: [0.0 * x[1]], psi=lambda y: 1.0 + 0.0 * y[0], psi_grad=lambda y: [0.0 * y[0]]
    )
    spec = SafetyFilterSpec(desired=lambda x: np.zeros(1), gamma=np.ones(1), alpha=LinearClassK(1.0))
    traj = _assert_same_run(system, hocbf(output, LinearClassK(1.0)), spec, [1.0, 0.0], 2.0, 1e-2, blow_up_threshold=math.inf)
    assert traj.exit_reason == "non_finite"
    assert traj.evaluation.startswith("numpy: ")


# -- performance guard: the runs the benchmark makes stay on generated code ----


def test_custom_plant_runs_are_generated_at_every_step():
    # drawn as the custom_plant benchmark draws them: three states per
    # construction with h >= 0.05, 0.5 s at dt = 1e-3
    rng = np.random.default_rng(0)
    for scenario in (pendulum_scenario(), bicycle_scenario()):
        spec = SafetyFilterSpec(scenario.desired, scenario.gamma, scenario.alpha_outer)
        for kind in CBF_KINDS:
            inst = scenario.make_cbf(kind)
            states = []
            while len(states) < 3:
                x = scenario.sample_state(rng)
                if scenario.output.in_extended_set(x) and inst.value(x) >= 0.05:
                    states.append(x)
            for x0 in states:
                traj = sim.simulate(scenario.system, inst, spec, x0, 0.5, 1e-3)
                assert traj.evaluation == "generated", (scenario.name, kind, x0, traj.evaluation)


# -- states with tiny factors in the filter's dot products -------------------


@pytest.mark.parametrize(
    "plant, kind, x0",
    [
        ("pendulum", ABC, [1e-160, 0.0]),
        ("pendulum", RECBF, [1e-160, 0.0]),
        ("bicycle", HOCBF, [0.0, 0.0, 1e-160, 5.0]),
        ("bicycle", ABC, [0.0, 0.0, 1e-160, 5.0]),
    ],
)
def test_a_state_with_tiny_products_runs_generated(plant, kind, x0, pendulum, bicycle):
    # some factors of the filter's dot products here are about 1e-160, so
    # their products are subnormal or zero
    scenario = pendulum if plant == "pendulum" else bicycle
    traj = _assert_same_run(scenario.system, scenario.make_cbf(kind), scenario.filter_spec(), x0, 0.1)
    assert traj.evaluation == "generated"


@pytest.mark.parametrize("kind", [HOCBF, BACKSTEPPING])
def test_a_multiplier_beyond_the_floats_is_the_same_infinity_on_both_paths(kind, pendulum):
    # ||b||^2_Gamma is about 4e-320 at (1e-160, 0), so -a / ||b||^2_Gamma
    # leaves the floats: +-inf on numpy scalars, without a warning, as on
    # Python floats
    assert lambda_exact(np.float64(-1.0), np.float64(4e-320)) == math.inf
    traj = _assert_same_run(pendulum.system, pendulum.make_cbf(kind), pendulum.filter_spec(), [1e-160, 0.0], 0.1)
    assert (traj.exit_reason, len(traj), traj.evaluation) == ("completed", 101, "generated")


# -- the loop leaves a step to numpy and takes the run back -------------------
# A cart drifting at unit speed: with dt = 0.25 its position takes exactly
# the multiples of 0.25 at the steps, and 0.125 past them at the middle
# stages of RK4.


def _drifting_cart(desired):
    system = ControlAffineSystem(n=2, m=1, f=lambda x: [1.0 + 0.0 * x[0], 0.0 * x[1]], g=lambda x: [[0.0], [1.0]])
    output = RelDeg2Output(
        p=1,
        y=lambda x: [x[0]],
        ydot=lambda x: [1.0 + 0.0 * x[0]],
        psi=lambda y: 100.0 - y[0] * y[0],
        psi_grad=lambda y: [-2.0 * y[0]],
    )
    calls = []

    def counted(x):
        if x[0].__class__ is not ad.Sym:
            calls.append(x[0])
        return desired(x)

    spec = SafetyFilterSpec(desired=counted, gamma=np.ones(1), alpha=LinearClassK(1.0))
    return system, hocbf(output, LinearClassK(1.0)), spec, calls


def test_a_guard_that_fires_at_one_step_sends_only_that_step_to_numpy():
    # only the middle stages of step 6 (from 0.5) reach 0.625
    def desired(x):
        return [1.0 if ad.failed((x[0] > 0.6) & (x[0] < 0.65)) else 0.0]

    system, inst, spec, calls = _drifting_cart(desired)
    traj = sim.simulate(system, inst, spec, [-1.0, 0.0], 2.0, 0.25)
    # step 6 on numpy calls the controller at the state and at three stages
    assert calls == [0.5, 0.625, 0.625, 0.75]
    assert traj.evaluation == "numpy: check guard fired at state [0.5 0. ]"
    assert _assert_same_run(system, inst, spec, [-1.0, 0.0], 2.0, 0.25).exit_reason == "completed"
    # the middle stages of step 6 alone pushed the cart: 0.25 (2 + 2) / 6
    assert traj.x[:, 1].tolist() == [0.0] * 7 + [traj.x[7, 1]] * 2 and 0.16 < traj.x[7, 1] < 0.17


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's 1 / 0.0, which the where discards
def test_generated_code_that_raises_at_a_step_sends_only_that_step_to_numpy():
    # 1 / x0 raises at 0.0: at the last stage of step 3 and at step 4
    system, inst, spec, calls = _drifting_cart(lambda x: [ad.where(x[0] != 0.0, 1.0 / x[0], 0.0)])
    traj = sim.simulate(system, inst, spec, [-1.0, 0.0], 2.0, 0.25)
    assert calls == [-0.25, -0.125, -0.125, 0.0, 0.0, 0.125, 0.125, 0.25]
    assert traj.evaluation.startswith(
        "numpy: generated code raised ZeroDivisionError: float division by zero at state [-0.25 "
    )
    assert _assert_same_run(system, inst, spec, [-1.0, 0.0], 2.0, 0.25).exit_reason == "completed"
    assert len(traj) == 9


def test_a_blow_up_at_the_last_row_ends_the_run_as_a_blow_up(pendulum):
    # the published high-order run blows up at row 327
    system, inst, spec = pendulum.system, pendulum.make_cbf(HOCBF), pendulum.filter_spec()
    traj = _assert_same_run(system, inst, spec, pendulum.x0, 0.327)
    assert (traj.exit_reason, len(traj), traj.evaluation) == ("blow_up", 328, "generated")
    assert abs(traj.u[-1, 0]) > sim.DEFAULT_BLOW_UP_THRESHOLD
    before = _assert_same_run(system, inst, spec, pendulum.x0, 0.326)
    assert (before.exit_reason, len(before), before.evaluation) == ("completed", 327, "generated")


@pytest.mark.parametrize("plant", ["pendulum", "bicycle"])
def test_a_horizon_shorter_than_a_step_logs_one_row(plant, pendulum, bicycle):
    scenario = pendulum if plant == "pendulum" else bicycle
    inst, spec = scenario.make_cbf(ABC), scenario.filter_spec()
    traj = _assert_same_run(scenario.system, inst, spec, scenario.x0, 1e-4)
    assert (traj.exit_reason, len(traj), traj.evaluation) == ("completed", 1, "generated")
    assert traj.x.tobytes() == np.asarray(scenario.x0, dtype=float).tobytes()


def test_a_second_run_renders_and_compiles_nothing(pendulum, monkeypatch):
    # the step is traced and its loop compiled once per (instance, system,
    # spec); a run that stays generated renders no other loop and no lanes
    compiled, compile = [], ad._compiled
    monkeypatch.setattr(ad, "_compiled", lambda source, namespace: compiled.append(source) or compile(source, namespace))
    system, inst, spec = pendulum.system, pendulum.make_cbf(ABC), pendulum.filter_spec()
    first = sim.simulate(system, inst, spec, pendulum.x0, 0.1, 1e-3)
    # only the loop, with the filter of every stage inlined in its step
    assert len(compiled) == 1 and "for k in steps:" in compiled[0]
    second = sim.simulate(system, inst, spec, [0.2, 0.1], 0.2, 1e-3)
    assert len(compiled) == 1
    assert first.evaluation == second.evaluation == "generated"
    step = sim._generated_step(system, inst, spec)
    assert step._lanes is None


def _traces_held(owner) -> list:
    """The traces ``owner`` keeps, however its cache holds them."""
    found, todo = [], list(vars(owner).values())
    while todo:
        value = todo.pop()
        if isinstance(value, ad.Traced):
            found.append(value)
        elif isinstance(value, (tuple, list)):
            todo.extend(value)
        elif isinstance(value, dict):
            todo.extend(value.values())
    return found


@pytest.mark.parametrize("plant", ["pendulum", "bicycle"])
def test_a_fresh_spec_of_equal_value_reuses_the_step(plant, pendulum, bicycle, monkeypatch):
    # a scenario builds a new spec per filter_spec() call: runs with equal
    # specs trace, render and compile the step once and keep one trace
    scenario = pendulum if plant == "pendulum" else bicycle
    compiled, compile = [], ad._compiled
    monkeypatch.setattr(ad, "_compiled", lambda source, namespace: compiled.append(source) or compile(source, namespace))
    system, inst = scenario.system, scenario.make_cbf(ABC)
    runs = [sim.simulate(system, inst, scenario.filter_spec(), scenario.x0, 0.01, 1e-3) for _ in range(20)]
    assert len(compiled) == 1 and len(_traces_held(inst)) == 1
    assert {run.evaluation for run in runs} == {"generated"}
    assert len({run.u.tobytes() for run in runs}) == 1
    # a spec of other weights is another value: it traces afresh and gets
    # the run of a fresh instance, and so does the first spec after it; from
    # a state where the filter acts, the bicycle's two inputs then move
    spec = scenario.filter_spec()
    other_weights = dataclasses.replace(spec, gamma=spec.gamma * np.arange(2.0, system.m + 2.0))
    x0 = [1.0, 3.3] if plant == "pendulum" else [15.0, 0.5, 0.0, 10.0]
    inputs = []
    for i, other in enumerate((other_weights, spec)):
        got = sim.simulate(system, inst, other, x0, 0.01, 1e-3)
        assert len(compiled) == 2 + 2 * i and len(_traces_held(inst)) == 1
        fresh = sim.simulate(system, scenario.make_cbf(ABC), other, x0, 0.01, 1e-3)
        assert got.u.tobytes() == fresh.u.tobytes() and got.h.tobytes() == fresh.h.tobytes()
        inputs.append(got.u.tobytes())
    assert (inputs[0] != inputs[1]) == (system.m > 1)
