"""Traced Dual code equals the Dual path bit for bit.

The generated step of ``sim.simulate`` gets h and its gradient by tracing
``ad.value_and_grad`` on Duals whose values are traced floats.  Here the
same trace, ``ad.Traced`` over ``ad.value_and_grad`` on an object array, is
taken of each field alone and compared with the Dual path on floats; every
comparison is by ``tobytes()``, so NaN, infinities and the sign of a zero
count.  A state the code leaves to the Dual path must get the reason.
"""

import ast
import dataclasses
import math
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbftk import autodiff as ad
from cbftk import sim
from cbftk.analysis import _grid_axes, _node_array, _scan_trace, grid_scan
from cbftk.cbf import ABC, BACKSTEPPING, CBF_KINDS, hocbf
from cbftk.core import LinearClassK, RelDeg2Output, by_lanes
from cbftk.systems import BicycleParams, PendulumParams, bicycle_scenario, pendulum_scenario
from strategies import bicycle_params, pendulum_params
from test_generated_step import _assert_same_run

HALF_PI_SQ = math.pi**2 / 4.0


def _traced(field, n):
    """``ad.value_and_grad(field, x)`` at one state of ``n`` components as
    straight-line code: called with floats, it returns ``(value,
    *gradient)`` or the reason it leaves them to the Dual path."""

    def value_and_partials(xs):
        value, gradient = ad.value_and_grad(field, np.array(xs, dtype=object))
        return (value, *gradient)

    return ad.Traced(value_and_partials, n)


def _outcome(call, x):
    """Bytes of (value, gradient), or the type and message of the error."""
    try:
        value, grad = call(x)
    except Exception as exc:
        return type(exc), str(exc)
    return np.float64(value).tobytes(), np.asarray(grad, dtype=float).tobytes()


def _traced_equals_dual(run, field, x):
    """The outcome of ``run`` at ``x``, after checking that, where it is
    not a reason, it has the Dual path's bytes."""
    out = run(*x)
    if out.__class__ is tuple:
        expected = _outcome(lambda s: ad.value_and_grad(field, s), np.asarray(x, dtype=float))
        assert _outcome(lambda s: (out[0], out[1:]), x) == expected, x
    return out


def _assert_lanes_equal_calls(run, states):
    """The lanes of ``run`` over ``states`` give the bytes of each call that
    runs the code, and flag none of those states."""
    flagged, outputs = run.lanes(*np.array(states, dtype=float).T)
    columns = [np.broadcast_to(v, (len(states),)) for v in (flagged, *outputs)]
    for j, x in enumerate(states):
        out = run(*x)
        if out.__class__ is tuple:
            assert not columns[0][j], x
            assert np.array([c[j] for c in columns[1:]]).tobytes() == np.array(out, dtype=float).tobytes(), x


def _assert_bit_identical(inst, states, generated=True):
    """h and its gradient traced from ``inst.value`` give the Dual path's
    bytes at each state, alone and as lanes; ``generated`` says whether
    every state must run the code, else every state must be left to the
    Dual path, whose reasons are returned."""
    run = _traced(inst.value, len(states[0]))
    _assert_lanes_equal_calls(run, states)
    reasons = []
    for x in states:
        out = _traced_equals_dual(run, inst.value, x)
        if generated:
            assert out.__class__ is tuple, (x, out)
        else:
            assert out.__class__ is str, x
            reasons.append(out)
    return reasons


def _pendulum_special_states(params: PendulumParams):
    K = params.K
    return [
        [0.0, 1.3],  # s = -0.0: the activated partials are signed zeros
        [-0.0, -1.3],
        [0.0, 0.0],
        [-0.0, -0.0],
        [0.7, -K * 0.7],  # the ReQU kink of the activated construction, s = 0
        [-0.7, K * 0.7],
        [math.pi / 2.0, 0.0],  # psi = 0
        [1.2, 0.6],
        [-1.5, 3.9],
    ]


def _bicycle_special_states(params: BicycleParams):
    xi, eta, r = params.obstacle_xi, params.obstacle_eta, params.obstacle_radius
    return [
        [xi - 2.0 * r, eta, 0.0, 3.0],  # on the obstacle's axis: psi_grad[1] = 0
        [xi + 2.0 * r, eta + 1.0, 0.0, 3.0],  # moving away: s >= 0
        [xi - r - 1.0, eta + 0.5, 0.3, 0.0],  # at rest: zero output velocity
        [xi - r - 1.0, eta - 0.5, -0.0, -0.0],
        [xi, eta + r, 0.0, 10.0],  # on the boundary
        [xi + 0.5, eta, 0.2, 4.0],  # inside the obstacle
    ]


pendulum_states = st.lists(
    st.tuples(st.floats(-1.8, 1.8), st.floats(-5.0, 5.0)), min_size=1, max_size=6
)
bicycle_states = st.lists(
    st.tuples(st.floats(0.0, 40.0), st.floats(-8.0, 8.0), st.floats(-1.0, 1.0), st.floats(0.0, 13.0)),
    min_size=1,
    max_size=6,
)


@pytest.mark.parametrize("kind", CBF_KINDS)
@settings(max_examples=15, derandomize=True)
@given(params=pendulum_params, states=pendulum_states)
def test_pendulum_generated_equals_dual(kind, params, states):
    inst = pendulum_scenario(params=params).make_cbf(kind)
    _assert_bit_identical(inst, [*_pendulum_special_states(params), *states])


@pytest.mark.parametrize("kind", CBF_KINDS)
@settings(max_examples=15, derandomize=True)
@given(params=bicycle_params, states=bicycle_states)
def test_bicycle_generated_equals_dual(kind, params, states):
    inst = bicycle_scenario(params=params).make_cbf(kind)
    _assert_bit_identical(inst, [*_bicycle_special_states(params), *states])
    # the obstacle centre is outside the extended set: left to Dual, which raises
    centre = [params.obstacle_xi, params.obstacle_eta, 0.0, 5.0]
    assert _assert_bit_identical(inst, [centre], generated=False) == ["domain guard fired"]


@pytest.mark.parametrize("kind", CBF_KINDS)
@pytest.mark.parametrize("plant", ["pendulum", "bicycle"])
def test_steps_from_special_states_equal_numpy(plant, kind, pendulum, bicycle):
    scenario = pendulum if plant == "pendulum" else bicycle
    special = _pendulum_special_states if plant == "pendulum" else _bicycle_special_states
    inst, spec = scenario.make_cbf(kind), scenario.filter_spec()
    for x0 in special(scenario.params):
        _assert_same_run(scenario.system, inst, spec, x0, 0.01)


def test_activated_partials_are_signed_zeros_where_s_is_nonnegative(pendulum):
    # both paths agree on the zeros' signs, which differ between these states
    inst = pendulum.make_cbf(ABC)
    grads = [inst.value_and_gradient(np.array(x))[1] for x in ([0.0, 1.3], [0.0, -1.3])]
    assert [np.signbit(g).tolist() for g in grads] != [[False, False], [False, False]]
    _assert_bit_identical(inst, [[0.0, 1.3], [0.0, -1.3]])


@pytest.mark.parametrize("kind", [BACKSTEPPING, ABC])
def test_singular_point_of_the_virtual_controller_raises_as_dual(kind, bicycle):
    # admit the obstacle centre, so that the smooth virtual controller is
    # asked for its singular point
    output = dataclasses.replace(bicycle.output, in_extended_set=lambda x: True)
    inst = dataclasses.replace(bicycle.make_cbf(kind), output=output)
    p = bicycle.params
    centre = [p.obstacle_xi, p.obstacle_eta, 0.0, 5.0]
    assert _assert_bit_identical(inst, [centre], generated=False) == ["check guard fired"]
    with pytest.raises(Exception, match="singular point"):
        inst.value_and_gradient(np.array(centre))
    _assert_bit_identical(inst, [[p.obstacle_xi - 5.0, p.obstacle_eta, 0.0, 5.0]])


def _pendulum_output(psi):
    return RelDeg2Output(p=1, y=lambda x: [x[0]], ydot=lambda x: [x[1]], psi=psi, psi_grad=lambda y: [0.0])


@pytest.mark.parametrize(
    "psi, failing, guard",
    [
        (lambda y: ad.sqrt(HALF_PI_SQ - y[0] * y[0]), [2.0, 0.5], "sqrt"),
        (lambda y: 1.0 - 0.5 / (y[0] + 2.0), [-2.0, 0.5], "divide"),
        (lambda y: (y[0] + 2.0) ** 0.5, [-2.0, 0.5], "pow"),
    ],
)
def test_refused_primitives_raise_as_dual(psi, failing, guard):
    inst = hocbf(_pendulum_output(psi), LinearClassK(1.0))
    reasons = _assert_bit_identical(inst, [failing], generated=False)
    assert reasons[0].startswith(f"{guard} guard fired")
    with pytest.raises(ad.EvaluationError, match=guard):
        inst.value_and_gradient(np.array(failing))
    _assert_bit_identical(inst, [[0.3, -0.5]])


def test_a_replaced_instance_traces_its_own_fields(pendulum):
    # the generated step is cached on the instance; a replaced one traces afresh
    inst, spec = pendulum.make_cbf(ABC), pendulum.filter_spec()
    x0 = np.array([0.9, 0.4])
    before = _assert_same_run(pendulum.system, inst, spec, x0, 0.05)
    replaced = dataclasses.replace(inst, alpha=LinearClassK(3.0), kappa=dataclasses.replace(inst.kappa, gain=2.0))
    after = _assert_same_run(pendulum.system, replaced, spec, x0, 0.05)
    assert after.h[0] != before.h[0] and after.u.tobytes() != before.u.tobytes()
    again = _assert_same_run(pendulum.system, inst, spec, x0, 0.05)
    assert again.h.tobytes() == before.h.tobytes() and again.u.tobytes() == before.u.tobytes()


# -- the tracer on fields of its own --------------------------------------------


def _generated_equals_dual(field, states, n=2):
    run = _traced(field, n)
    return run, [_traced_equals_dual(run, field, x) for x in states]


EDGE_STATES = [
    [1.5, -2.0],
    [-0.0, 0.0],
    [0.0, -0.0],
    [-0.0, -0.0],
    [math.inf, 1.0],
    [-math.inf, -0.0],
    [math.nan, 2.0],
    [1e308, 1e-320],
]


def _recording(monkeypatch) -> list:
    """The sources ``ad._compiled`` compiles from now on, in order."""
    rendered, compiled = [], ad._compiled
    monkeypatch.setattr(ad, "_compiled", lambda source, namespace: rendered.append(source) or compiled(source, namespace))
    return rendered


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_only_identities_exact_in_ieee_754_are_folded(monkeypatch):
    # Dual computes 0.0 * x as x * 0.0
    def field(x):
        return (x[0] * 1.0 - 0.0) * (0.0 * x[1]) + (x[1] + 0.0) + ad.requ(x[0]) * (1.0 * x[1])

    rendered = _recording(monkeypatch)
    _, outcomes = _generated_equals_dual(field, EDGE_STATES)
    assert all(isinstance(out, tuple) for out in outcomes)
    [source] = rendered
    assert "* 1.0" not in source and "1.0 *" not in source and "- 0.0" not in source
    assert "x1 * 0.0" in source and "x1 + 0.0" in source


def test_a_select_keeps_the_sign_of_constant_zero_partials():
    # partials [0.0, 0.0] against [-0.0, -0.0]: not one constant; each
    # branch reaches both seeds, so no partial is a structural zero
    def field(x):
        return ad.maximum(x[0] * 0.0 + x[1] * 0.0 + 1.0, x[0] * -0.0 + x[1] * -0.0 + 2.0)

    _, (out,) = _generated_equals_dual(field, [[0.5, 0.5]])
    assert np.signbit(out[1:]).all()


def test_a_where_gives_a_structural_zero_the_sign_its_select_renders():
    # x1's partial of the 3 * x0 branch is a structural zero, which the
    # traced select renders as 0.0; on floats the where must take 0.0 too,
    # or -0.0 from x1 * -0.0 keeps its sign there: [3.0, -0.0] at (1, 5)
    def field(x):
        return ad.where(x[0] > 0.0, 3.0 * x[0], 2.0 * x[1]) + x[1] * -0.0

    _, outcomes = _generated_equals_dual(field, [[1.0, 5.0], [-1.0, 5.0], *EDGE_STATES])
    assert all(isinstance(out, tuple) for out in outcomes)
    assert np.array(outcomes[0][1:]).tobytes() == np.array([3.0, 0.0]).tobytes()


def test_smooth_primitives_and_branches_match():
    def field(x):
        a = ad.sin(x[0]) * ad.cos(x[1]) + ad.sqrt(x[0] * x[0] + 1.0)
        return ad.maximum(ad.relu(x[1] - x[0]), a / (x[1] * x[1] + 2.0)) ** 2.0

    _, outcomes = _generated_equals_dual(field, [*EDGE_STATES[:4], [0.3, -0.7], [-1.0, 2.0], [2.0, 2.0]])
    assert all(isinstance(out, tuple) for out in outcomes)


def test_both_branches_of_a_where_are_evaluated_first():
    # on floats both operands of a where are evaluated, so sin(inf) raises
    # where the other one is taken; the generated code must not skip it
    def function(x):
        return [ad.where(x[0] > 0.0, ad.sin(x[1]), x[0])]

    run = ad.Traced(function, 2)
    assert run(-1.0, 2.0) == (-1.0,) and run(1.0, 2.0) == (math.sin(2.0),)
    with pytest.raises(ValueError, match="math domain error"):
        function([-1.0, math.inf])
    assert run(-1.0, math.inf) == "generated code raised ValueError: math domain error"


def _discarded_division_by_a_literal_zero(x):
    return [ad.where(x[0] > 0.0, x[0] / 0.0, 1.0)]


def test_the_lanes_flag_each_state_where_a_discarded_operation_raises_on_floats():
    # each operand of a where is evaluated on floats, so 0 / 0, x / 0.0,
    # cos(inf) and sqrt(-1) raise there though the where discards them; the
    # lanes must flag exactly those states, and give the other states' bytes
    def function(x):
        return [
            ad.where(x[0] != 0.0, ad.sin(x[0]) / x[0], 1.0),
            ad.where(abs(x[1]) < 1e300, ad.cos(x[1]), 0.0),
            ad.where(x[2] >= 0.0, ad.sqrt(x[2]), 0.0),
        ]

    states = [
        [0.5, 0.5, 0.5],
        [0.0, 0.5, 0.5],
        [-0.0, 0.5, 0.5],
        [0.5, math.inf, 0.5],
        [0.5, -math.inf, 0.5],
        [0.5, 0.5, -1.0],
        [math.nan, math.nan, math.nan],
        [math.inf, 0.5, 0.5],
    ]
    expected = [False, True, True, True, True, True, False, True]
    cases = [(ad.Traced(function, 3), states, expected)]
    # a division by a literal zero raises on floats at every state
    literal = [[-1.0], [-0.5], [0.5], [math.nan]]
    cases.append((ad.Traced(_discarded_division_by_a_literal_zero, 1), literal, [True] * 4))
    for run, states, expected in cases:
        bad, _ = run.lanes(*np.array(states).T)
        raises = [run(*x).__class__ is str for x in states]
        assert raises == expected
        assert np.broadcast_to(bad, len(states)).tolist() == raises
        _assert_lanes_equal_calls(run, states)


@pytest.mark.parametrize("states", [[[-1.0, -0.5]], [[-1.0, 0.5]]])
def test_lanes_of_a_division_by_a_literal_zero_raise_at_the_first_state(states):
    # the where discards x / 0.0 at x <= 0, but on floats it raises there too
    traced = ad.Traced(_discarded_division_by_a_literal_zero, 1)
    with pytest.raises(ZeroDivisionError) as raised:
        by_lanes(traced, np.array(states), range(2))
    assert raised.value.index == 0


def test_the_lanes_flag_each_state_where_a_discarded_power_raises_on_floats():
    # 1e200 ** 2.0 overflows on floats and 0.0 ** -1.0 divides by zero, where
    # numpy gives an infinity; from an infinite operand it raises nothing
    run = ad.Traced(lambda x: [ad.where(x[0] < 1e100, x[0] ** 2.0, 0.0), ad.where(x[1] != 0.0, x[1] ** -1.0, 0.0)], 2)
    states = [[1e200, 1.0], [1.0, 0.0], [1.0, -0.0], [1.0, 1e-310], [math.inf, 1.0], [3.0, math.inf], [1e100, 1e-300]]
    bad, _ = run.lanes(*np.array(states).T)
    raises = [run(*x).__class__ is str for x in states]
    assert raises == [True, True, True, True, False, False, False]
    assert bad.tolist() == raises
    _assert_lanes_equal_calls(run, states)


@pytest.mark.parametrize(
    "function, arity, x, error",
    [
        (lambda x: (x[0] / x[1], [x[0] + 1.0])[1], 2, (1.0, 0.0), ZeroDivisionError),
        (lambda x: (x[0] ** 2.0, [x[0] + 1.0])[1], 1, (1e200,), OverflowError),
    ],
)
def test_an_unread_operation_that_raises_on_floats_is_kept(function, arity, x, error):
    # nothing reads x0 / x1 or x0 ** 2.0, but on floats they raise: a call
    # and a step of the loop must leave these arguments to the reference
    with pytest.raises(error) as raised:
        function(list(x))
    run = ad.Traced(function, arity)
    assert run(*x) == f"generated code raised {error.__name__}: {raised.value}"
    rows = array("d")
    assert run.loop(x, range(3), rows, 1, range(0), 1e3) == (0, run(*x), x[:1])
    assert len(rows) == 0
    # where nothing raises, the unread operation changes no output
    assert run(*(2.0,) * arity) == (3.0,)


def test_a_where_between_a_dual_and_a_constant_is_guarded():
    # one state gets the Dual or the constant; the latter is left to Dual
    def field(x):
        return ad.minimum(x[0], 0.5) * x[1]

    _, (inside, outside) = _generated_equals_dual(field, [[0.2, 3.0], [0.9, 3.0]])
    assert isinstance(inside, tuple)
    assert outside == "where guard fired"


@pytest.mark.parametrize(
    "field, operation",
    [
        (lambda x: math.sin(ad.scalar(x[0])) * x[1], "math.sin"),
        (lambda x: float(ad.scalar(x[0])) * x[1], "float("),
        (lambda x: x[1] * np.sin(ad.scalar(x[0])), "np.sin"),
        (lambda x: x[0] if x[0] > 0.0 else x[1], "Python if"),
    ],
)
def test_an_untraceable_field_names_the_operation(field, operation, monkeypatch):
    rendered = _recording(monkeypatch)
    run = _traced(field, 2)
    assert run.reason.startswith("not traced") and operation in run.reason
    assert run(0.4, 1.0) == run.lanes(np.zeros(1), np.zeros(1)) == run.reason
    assert rendered == []


@pytest.mark.parametrize("plant", ["pendulum", "bicycle"])
@pytest.mark.parametrize("kind", CBF_KINDS)
def test_the_step_runs_as_lanes_with_the_bits_of_its_loop(plant, kind, pendulum, bicycle):
    # the step is one flat trace, so it runs as lanes: at sampled states of
    # each published pair, every lane the lanes do not flag gives the next
    # state and the logged row of a one-step loop from its state
    scenario = pendulum if plant == "pendulum" else bicycle
    system, dt = scenario.system, 1e-3
    n = system.n
    step = sim._generated_step(system, scenario.make_cbf(kind), scenario.filter_spec())
    rng = np.random.default_rng(24)
    states = [np.asarray(scenario.x0, dtype=float), *(scenario.sample_state(rng) for _ in range(40))]
    flagged, outputs = step.lanes(*np.array(states).T, np.full(len(states), dt))
    flagged = np.broadcast_to(flagged, (len(states),))
    columns = np.array([np.broadcast_to(v, (len(states),)) for v in outputs])
    assert np.count_nonzero(~flagged) >= len(states) // 2
    for j in np.flatnonzero(~flagged):
        x, rows = states[j].tolist(), array("d")
        k, reason, state = step.loop((*x, dt), range(1), rows, n, range(n, n + system.m), math.inf)
        assert (k, reason, rows[:n].tobytes()) == (1, None, np.array(x).tobytes()), x
        assert columns[:, j].tobytes() == np.array([*state, *rows[n:]]).tobytes(), x


@pytest.mark.parametrize("plant", ["pendulum", "bicycle"])
@pytest.mark.parametrize("kind", CBF_KINDS)
def test_no_lanes_source_of_a_published_scan_repeats_a_line(plant, kind, pendulum, bicycle, monkeypatch):
    # a division by a traced value records its guard and the lanes' check
    # of its divisor, which render as one line; it is written once
    scenario = pendulum if plant == "pendulum" else bicycle
    rendered = _recording(monkeypatch)
    _scan_trace(scenario.make_cbf(kind), scenario.system, scenario.alpha_outer).lanes(*np.zeros((scenario.system.n, 1)))
    [source] = rendered
    lines = source.splitlines()
    assert len(set(lines)) == len(lines)


def _names(node, context) -> list:
    """The names ``node`` loads or deletes (``context``), in order."""
    return [n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, context)]


@pytest.mark.parametrize("plant", ["pendulum", "bicycle"])
@pytest.mark.parametrize("kind", CBF_KINDS)
def test_the_lanes_of_a_published_scan_delete_each_array_after_its_last_read(
    plant, kind, pendulum, bicycle, monkeypatch
):
    # a name read after its del would raise NameError in the lanes, which
    # sends every node to the per-state path: the bytes stay, the speed goes
    scenario = pendulum if plant == "pendulum" else bicycle
    rendered = _recording(monkeypatch)
    inst = scenario.make_cbf(kind)
    _scan_trace(inst, scenario.system, scenario.alpha_outer).lanes(*np.zeros((scenario.system.n, 1)))
    [function] = ast.parse(rendered[0]).body
    *body, returned = function.body
    assert isinstance(returned, ast.Return)
    assigned, deleted, last = set(), set(), {}
    for i, statement in enumerate(body):
        if isinstance(statement, ast.Delete):
            for name in _names(statement, ast.Del):
                assert name in assigned and name not in deleted, name
                # right after the line that last reads it (or writes it, where none does)
                assert last[name] == i - 1, name
                deleted.add(name)
            continue
        assert not deleted & set(_names(statement, ast.Load)), ast.unparse(statement)
        [target] = statement.targets
        assigned.add(target.id)
        for name in {target.id, *_names(statement, ast.Load)}:
            last[name] = i
    assert deleted and deleted == assigned - set(_names(returned, ast.Load))
    assert scenario.scan(kind).evaluation == "lanes"


def test_an_array_nothing_reads_is_deleted_after_its_own_line(monkeypatch):
    # a division is kept though unread, since it raises on floats
    rendered = _recording(monkeypatch)
    traced = ad.Traced(lambda x: [x[0] / x[1], x[0] + 1.0][1:], 2)
    bad, (total,) = traced.lanes(np.array([1.0, 2.0]), np.array([4.0, 0.0]))
    assert bad.tolist() == [False, True] and total.tolist() == [2.0, 3.0]
    assert "    t0 = x0 / x1\n    del t0\n    return (bad, ((x0 + 1.0), ))\n" in rendered[0]


def test_a_block_of_the_bicycle_abc_lanes_holds_at_most_32_arrays(bicycle):
    # 28 arrays of a block; holding every array to the return peaks at 63
    inst = bicycle.make_cbf(ABC)
    traced = _scan_trace(inst, bicycle.system, bicycle.alpha_outer)
    axes = _grid_axes(bicycle.window, bicycle.resolution)
    nodes = _node_array(axes, bicycle.state_from_axes, bicycle.output, bicycle.system.n)[0]
    block = nodes[:, : ad.BLOCK_NODES]
    assert block.shape[1] == ad.BLOCK_NODES and traced.lanes(*block[:, :1]).__class__ is tuple
    tracemalloc.start()
    try:
        found = traced.lanes(*block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(found[1]) == 5
    assert peak <= 32 * 8 * ad.BLOCK_NODES


def test_each_form_of_a_trace_is_rendered_on_first_use(monkeypatch):
    # a clean scan of a new scenario renders only lanes (of its lift and of
    # its evaluation), the same scan again nothing, and a run only its loop
    pendulum = pendulum_scenario()
    rendered = _recording(monkeypatch)
    inst = pendulum.make_cbf(ABC)
    scan = grid_scan(inst, pendulum.system, pendulum.window, (50, 50))
    assert scan.evaluation == "lanes"
    assert len(rendered) == 2 and all("return (bad, " in source for source in rendered)
    assert grid_scan(inst, pendulum.system, pendulum.window, (40, 60)).evaluation == "lanes" and len(rendered) == 2
    rendered.clear()
    traj = sim.simulate(pendulum.system, pendulum.make_cbf(ABC), pendulum.filter_spec(), pendulum.x0, 0.01, 1e-3)
    assert traj.evaluation == "generated"
    assert len(rendered) == 1 and "bad" not in rendered[0]


# -- the text of each template --------------------------------------------------


def _every_template(x):
    a, b = x
    ad.failed((a > 1e6) | (b < -1e6))
    ad.holds((b != 0.0) & (a >= -1e6), "nonzero")
    y = ad.where(a <= 0.0, -a, abs(b))
    z = ad.sin(a) / b + ad.cos(b) * (2.0 - a)
    w = ad.where(a == 1.0, a / 0.0, ad.sqrt(y))
    return [y * z, w**3.0, -1.5 * z, z < math.inf]


def test_each_template_renders_its_pinned_text(monkeypatch):
    # one trace with a select, both guard forms, divisions by a variable and
    # by a literal zero, sin, cos, sqrt, ** and a constant: its lanes, its
    # loop and the loop of one step that a call runs, text for text
    rendered = _recording(monkeypatch)
    inner = ad.Traced(_every_template, 2)
    inner.lanes(np.zeros(1), np.zeros(1))
    inner.loop((0.5, 2.0), range(1), array("d"), 2, range(2, 3), 1e3)
    assert inner(0.5, 2.0) == "generated code raised ZeroDivisionError: float division by zero"
    assert rendered == [INNER_LANES, INNER_LOOP, INNER_CALL]

INNER_LANES = """\
def generated(x0, x1):
    bad = False
    bad = bad | ((x0 > 1000000.0) | (x1 < (-1000000.0)))
    bad = bad | np.logical_not(((x1 != 0.0) & (x0 >= (-1000000.0))))
    t9 = np.where((x0 <= 0.0), (-x0), (abs(x1)))
    bad = bad | (np.isinf(x0))
    bad = bad | (x1 == 0.0)
    bad = bad | (np.isinf(x1))
    t15 = ((sin(x0)) / x1) + ((cos(x1)) * (2.0 - x0))
    bad = bad | (0.0 == 0.0)
    bad = bad | (t9 < 0.0)
    t20 = np.where((x0 == 1.0), (x0 / 0.0), (sqrt(t9)))
    t22 = np.asarray(float_pow(t20, 3.0), dtype=float)
    bad = bad | (np.isinf(t22) & np.isfinite(t20) & np.isfinite(3.0))
    del t20
    return (bad, ((t9 * t15), t22, ((-1.5) * t15), (t15 < k0), ))
"""

INNER_LOOP = """\
def generated(x0, x1, steps, extend, bound):
    try:
        for k in steps:
            if ((x0 > 1000000.0) | (x1 < (-1000000.0))): return (k, 'check', (x0, x1, ))
            if not ((x1 != 0.0) & (x0 >= (-1000000.0))): return (k, 'nonzero', (x0, x1, ))
            t6 = x0 <= 0.0
            t7 = -x0
            t8 = abs(x1)
            t9 = t7 if t6 else t8
            t15 = ((sin(x0)) / x1) + ((cos(x1)) * (2.0 - x0))
            t16 = x0 == 1.0
            t17 = x0 / 0.0
            if (t9 < 0.0): return (k, 'sqrt', (x0, x1, ))
            t19 = sqrt(t9)
            t23 = (-1.5) * t15
            y0 = (t9 * t15)
            y1 = ((t17 if t16 else t19) ** 3.0)
            extend((x0, x1, t23, (t15 < k0), ))
            if abs(t23) > bound: return (k, None, (x0, x1, ))
            x0 = y0
            x1 = y1
    except Exception as exc:
        return (k, exc.with_traceback(None), (x0, x1, ))
    return (steps.stop, None, (x0, x1, ))
"""

INNER_CALL = """\
def generated(x0, x1, steps, extend, bound):
    try:
        for k in steps:
            if ((x0 > 1000000.0) | (x1 < (-1000000.0))): return (k, 'check', ())
            if not ((x1 != 0.0) & (x0 >= (-1000000.0))): return (k, 'nonzero', ())
            t6 = x0 <= 0.0
            t7 = -x0
            t8 = abs(x1)
            t9 = t7 if t6 else t8
            t15 = ((sin(x0)) / x1) + ((cos(x1)) * (2.0 - x0))
            t16 = x0 == 1.0
            t17 = x0 / 0.0
            if (t9 < 0.0): return (k, 'sqrt', ())
            t19 = sqrt(t9)
            extend(((t9 * t15), ((t17 if t16 else t19) ** 3.0), ((-1.5) * t15), (t15 < k0), ))
    except Exception as exc:
        return (k, exc.with_traceback(None), ())
    return (steps.stop, None, ())
"""
