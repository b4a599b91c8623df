import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cbftk
from cbftk import autodiff as ad
from conftest import central_difference

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
nonzero = finite.filter(lambda v: abs(v) > 1e-3)


def test_square_gradient():
    g = ad.grad(lambda x: x[0] * x[0], np.array([3.0]))
    assert g == pytest.approx([6.0])


def test_stationary_point_of_constraint():
    field = lambda x: math.pi**2 / 4.0 - x[0] * x[0]
    g = ad.grad(field, np.array([0.0, 1.7]))
    assert g[0] == 0.0 and g[1] == 0.0


def test_seeding_picks_out_partials():
    field = lambda x: x[0] * x[1] + ad.sin(x[2])
    x = np.array([2.0, -3.0, 0.5])
    g = ad.grad(field, x)
    assert g == pytest.approx([-3.0, 2.0, math.cos(0.5)])


def test_pendulum_abc_field_matches_finite_differences():
    # activated backstepping barrier for the pendulum, K = 0.75, mu = 5
    def h(x):
        z = 2.0 * x[0] * (x[1] + 0.75 * x[0])
        return math.pi**2 / 4.0 - x[0] * x[0] - ad.requ(z) / 10.0

    x = np.array([1.0, 0.0])
    g = ad.grad(h, x)
    fd = central_difference(lambda xs: ad.scalar(h(list(xs))), x)
    assert np.all(np.abs(g - fd) / (1.0 + np.abs(g)) < 1e-6)


def requ_prime(z):
    return ad.grad(lambda v: ad.requ(v[0]), [z])[0]


def test_requ_values():
    assert ad.requ(2.0) == 4.0
    assert ad.requ(-1.0) == 0.0
    assert requ_prime(0.0) == 0.0
    assert requ_prime(3.0) == 6.0


@pytest.mark.parametrize("delta", [1e-3, 1e-6])
def test_requ_is_c1_at_zero(delta):
    assert abs(requ_prime(delta) - requ_prime(-delta)) <= 2.0 * delta


def test_requ_dual_one_sided_rule_at_zero():
    d = ad.requ(ad.Dual(0.0, np.array([1.0])))
    assert d.value == 0.0 and d.partials[0] == 0.0


def test_relu_subderivative_zero_at_kink():
    d = ad.relu(ad.Dual(0.0, np.array([1.0])))
    assert d.value == 0.0 and d.partials[0] == 0.0
    assert ad.relu(-2.0) == 0.0 and ad.relu(2.0) == 2.0


def test_chain_rule_exact_on_polynomials():
    # (x0^2 + 2 x1)^3: gradient must match the factored form bit-for-bit
    def field(x):
        inner = x[0] * x[0] + 2.0 * x[1]
        return inner * inner * inner

    x = np.array([1.5, -2.0])
    inner = x[0] * x[0] + 2.0 * x[1]
    expected = np.array([3.0 * inner * inner * 2.0 * x[0], 3.0 * inner * inner * 2.0])
    assert np.array_equal(ad.grad(field, x), expected)


@given(a=finite, b=finite, pa=finite, pb=finite)
def test_product_rule(a, b, pa, pb):
    da = ad.Dual(a, np.array([pa]))
    db = ad.Dual(b, np.array([pb]))
    out = da * db
    assert out.value == a * b
    assert out.partials[0] == a * pb + b * pa


@given(a=finite, b=nonzero, pa=finite, pb=finite)
def test_quotient_rule(a, b, pa, pb):
    da = ad.Dual(a, np.array([pa]))
    db = ad.Dual(b, np.array([pb]))
    out = da / db
    assert out.value == pytest.approx(a / b, rel=1e-15, abs=1e-300)
    # cancellation-aware bound: both forms agree to roundoff of the summands
    expected = (pa * b - a * pb) / (b * b)
    slack = 1e-13 * (abs(pa * b) + abs(a * pb)) / (b * b) + 1e-15
    assert abs(out.partials[0] - expected) <= slack


@given(a=finite, pa=finite)
def test_sum_and_difference_rules(a, pa):
    da = ad.Dual(a, np.array([pa]))
    assert (da + da).partials[0] == 2.0 * pa
    assert (da - da).partials[0] == 0.0
    assert (1.0 - da).partials[0] == -pa


def test_division_by_zero_names_primitive():
    with pytest.raises(ad.EvaluationError) as err:
        ad.Dual(1.0, np.array([1.0])) / ad.Dual(0.0, np.array([1.0]))
    assert err.value.primitive == "divide"


def test_sqrt_of_negative_names_primitive():
    with pytest.raises(ad.EvaluationError) as err:
        ad.sqrt(ad.Dual(-1.0, np.array([1.0])))
    assert err.value.primitive == "sqrt"
    with pytest.raises(ad.EvaluationError):
        ad.sqrt(-4.0)


def test_trig_and_sqrt_derivatives():
    x = np.array([0.7])
    assert ad.grad(lambda xs: ad.sin(xs[0]), x)[0] == pytest.approx(math.cos(0.7))
    assert ad.grad(lambda xs: ad.cos(xs[0]), x)[0] == pytest.approx(-math.sin(0.7))
    assert ad.grad(lambda xs: ad.sqrt(xs[0]), x)[0] == pytest.approx(0.5 / math.sqrt(0.7))


def test_minimum_maximum_away_from_ties():
    a = ad.Dual(1.0, np.array([1.0, 0.0]))
    b = ad.Dual(2.0, np.array([0.0, 1.0]))
    assert ad.minimum(a, b) is a
    assert ad.maximum(a, b) is b
    assert ad.minimum(3.0, 4.0) == 3.0


def test_a_structural_zero_is_a_positive_float_zero_in_a_public_gradient(monkeypatch):
    # x1's partial of x0 * x0 is zero by construction: +0.0 whatever x1,
    # and no product of the seed's zero in the traced gradient
    g = cbftk.grad(lambda x: x[0] * x[0], [3.0, -1.0])
    assert g.dtype == np.float64 and g.tobytes() == np.array([6.0, 0.0]).tobytes()
    rendered, compiled = [], ad._compiled
    monkeypatch.setattr(ad, "_compiled", lambda source, namespace: rendered.append(source) or compiled(source, namespace))
    traced = ad.Traced(lambda x: ad.value_and_grad(lambda z: z[0] * z[0], np.array(x, dtype=object))[1], 2)
    assert np.array(traced(3.0, -1.0)).tobytes() == g.tobytes()
    [source] = rendered
    assert "* 0.0" not in source and "extend(((x0 + x0), 0.0, ))" in source


@pytest.mark.parametrize(
    "field",
    [
        lambda z: z[0] * ad.where(z[1] > 0.0, 1.0, -1.0),
        lambda z: ad.requ(ad.where(z[1] > 0.0, 1.0, -1.0)) + z[0],
        lambda z: ad.where(z[1] > 0.0, 2.0, -1.0) - z[0] / ad.where(z[1] > 0.0, 2.0, -4.0),
    ],
    ids=["times", "plus", "minus-over"],
)
def test_a_dual_takes_a_traced_constant_as_a_constant(field):
    # a where between two constants on a traced mask gives a traced value,
    # with which a Dual's arithmetic is that of a float
    def value_and_partials(x):
        value, g = ad.value_and_grad(field, np.array(x, dtype=object))
        return [value, *g]

    traced = ad.Traced(value_and_partials, 2)
    assert traced.reason is None
    for state in ([1.5, 2.0], [1.5, -2.0], [-0.25, 0.0]):
        value, g = ad.value_and_grad(field, np.array(state))
        assert np.array(traced(*state)).tobytes() == np.array([value, *g]).tobytes()


def test_constant_field_has_zero_gradient():
    value, g = ad.value_and_grad(lambda x: 7.5, np.array([1.0, 2.0, 3.0]))
    assert value == 7.5
    assert np.array_equal(g, np.zeros(3))


def test_comparisons_branch_on_value():
    d = ad.Dual(0.5, np.array([1.0]))
    assert d > 0.0
    assert d < ad.Dual(1.0, np.array([0.0]))
    assert d == 0.5


def test_blocks_cover_the_range_in_order():
    count = 2 * ad.BLOCK_NODES + 5
    blocks = list(ad.blocks(count))
    assert [(b.start, b.stop) for b in blocks] == [
        (0, ad.BLOCK_NODES),
        (ad.BLOCK_NODES, 2 * ad.BLOCK_NODES),
        (2 * ad.BLOCK_NODES, count),
    ]
    assert list(ad.blocks(0)) == []
