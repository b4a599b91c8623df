"""``ad.dot`` gives numpy's ``@`` bit for bit, traced or not.

numpy computes the dot products and matrix-vector products of float64
arrays with fused multiply-adds; traced, ``ad.dot`` emits the same
reductions with each fused multiply-add computed exactly (Dekker's split
and ``math.fsum``).  Every comparison is by ``tobytes()``, so NaN,
infinities and the sign of a zero count.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbftk import autodiff as ad
from cbftk.sim import simulate
from cbftk.systems import pendulum_scenario

# every pair of shapes the filter and the stage derivative emit for n = 2,
# 3, 4 and m = 1, 2: hgrad . f, hgrad @ g, lgh . kd, lgh . b and g @ u
SHAPES = [
    ((1,), (1,)),
    ((2,), (2,)),
    ((3,), (3,)),
    ((4,), (4,)),
    ((2,), (2, 1)),
    ((3,), (3, 1)),
    ((4,), (4, 1)),
    ((2,), (2, 2)),
    ((4,), (4, 2)),
    ((2, 1), (1,)),
    ((3, 1), (1,)),
    ((2, 2), (2,)),
    ((4, 2), (2,)),
]

SPLIT_MIN, SPLIT_MAX = 2.0**-480, 2.0**480
EDGES = [
    0.0,
    -0.0,
    5e-324,
    -2.2250738585072014e-308,
    1e-300,
    -1e300,
    1.7976931348623157e308,
    math.inf,
    -math.inf,
    math.nan,
    1.0,
    -1.0,
]

# floats the exact split takes: both signs over the whole range, and zeros
splittable = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, SPLIT_MIN, -SPLIT_MAX]),
    st.builds(
        lambda mantissa, exponent: math.ldexp(mantissa, exponent),
        st.floats(0.5, 1.0, exclude_max=True) | st.floats(-1.0, -0.5, exclude_min=True),
        st.integers(-479, 480),
    ),
)
# any float, with the edges drawn often
anything = st.sampled_from(EDGES) | st.floats(allow_nan=True, allow_infinity=True)


def _traced_dot(shape_a, shape_b):
    size_a = math.prod(shape_a)

    def function(xs):
        a = np.array(xs[:size_a], dtype=object).reshape(shape_a)
        b = np.array(xs[size_a:], dtype=object).reshape(shape_b)
        return np.atleast_1d(np.asarray(ad.dot(a, b), dtype=object)).tolist()

    return ad.Traced(function, size_a + math.prod(shape_b))


TRACED = {shapes: _traced_dot(*shapes) for shapes in SHAPES}


def _generated_and_numpy(shapes, values):
    """The generated code's outcome and numpy's bytes for these operands."""
    shape_a, shape_b = shapes
    size_a = math.prod(shape_a)
    a = np.array(values[:size_a]).reshape(shape_a)
    b = np.array(values[size_a:]).reshape(shape_b)
    out = TRACED[shapes](*values)
    with np.errstate(all="ignore"):
        expected = np.asarray(a @ b).tobytes()
    return out, expected


def _operands(values, shapes):
    return st.lists(values, min_size=sum(math.prod(s) for s in shapes), max_size=sum(math.prod(s) for s in shapes))


def test_every_emitted_shape_is_traced():
    for shapes, traced in TRACED.items():
        assert traced.reason is None, (shapes, traced.reason)


@pytest.mark.parametrize("shapes", SHAPES, ids=str)
@settings(max_examples=100, derandomize=True)
@given(data=st.data())
def test_dot_of_splittable_operands_is_generated_and_exact(shapes, data):
    values = data.draw(_operands(splittable, shapes))
    out, expected = _generated_and_numpy(shapes, values)
    assert out.__class__ is tuple, out
    assert np.array(out, dtype=float).tobytes() == expected, values


@pytest.mark.parametrize("shapes", SHAPES, ids=str)
@settings(max_examples=100, derandomize=True)
@given(data=st.data())
def test_dot_of_any_operands_is_exact_or_left_to_numpy(shapes, data):
    values = data.draw(_operands(anything, shapes))
    out, expected = _generated_and_numpy(shapes, values)
    if out.__class__ is tuple:
        assert np.array(out, dtype=float).tobytes() == expected, values
    else:
        assert out in ("fma guard fired",) or out.startswith("generated code raised OverflowError"), out


@pytest.mark.parametrize("shapes", SHAPES, ids=str)
def test_edge_operands_are_exact_or_left_to_numpy(shapes):
    size = sum(math.prod(s) for s in shapes)
    rng = np.random.default_rng(7)
    for _ in range(300):
        values = [float(v) for v in rng.choice(np.array(EDGES), size)]
        out, expected = _generated_and_numpy(shapes, values)
        if out.__class__ is tuple:
            assert np.array(out, dtype=float).tobytes() == expected, values


@settings(max_examples=2000, derandomize=True)
@given(a=splittable, b=splittable, c=st.floats(-1e300, 1e300))
def test_exact_fma_is_correctly_rounded(a, b, c):
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    got = ad._fma(a, b, c)
    # the sign of an exact zero is left to the reductions, which make it +0.0
    assert got == float(exact)


def test_fma_differs_from_a_multiply_then_add():
    # the case numpy's length-2 dot product rounds once: not a0 b0 + a1 b1
    a, b = np.array([0.1, 0.7]), np.array([0.3, 0.9])
    assert float(a @ b) != 0.1 * 0.3 + 0.7 * 0.9
    assert ad._fma(0.7, 0.9, 0.1 * 0.3) == float(a @ b)


def test_dot_on_floats_is_numpys():
    a, b = np.array([0.1, 0.7, -0.2, 3.0]), np.arange(8.0).reshape(4, 2) / 7.0
    assert ad.dot(a, b).tobytes() == (a @ b).tobytes()
    assert ad.dot([0.1, 0.7], [0.3, 0.9]) == np.array([0.1, 0.7]) @ np.array([0.3, 0.9])


def test_a_product_without_a_known_reduction_is_refused():
    traced = _traced_dot((5,), (5, 2))
    assert traced.source is None
    assert "no known reduction does not give numpy's @ of shapes (5,) and (5, 2)" in traced.reason


def test_a_reduction_that_does_not_give_numpys_bits_is_refused(monkeypatch):
    pendulum = pendulum_scenario()
    spec = pendulum.filter_spec()
    reference = simulate(pendulum.system, pendulum.make_cbf("abc"), spec, pendulum.x0, 0.3, 1e-3)
    assert reference.evaluation == "generated"
    # pairs rounds a0 b0 + a1 b1 as fma(a0, b0, a1 b1), numpy as fma(a1, b1, a0 b0)
    monkeypatch.setattr(ad, "_reduction", lambda shape_a, shape_b: ad._pairs)
    traj = simulate(pendulum.system, pendulum.make_cbf("abc"), spec, pendulum.x0, 0.3, 1e-3)
    assert traj.evaluation.startswith(
        "numpy: not traced, Untraceable: pairs does not give numpy's @ of shapes (2,) and (2,) here"
    )
    for column in ("t", "x", "u", "h", "psi", "s"):
        assert getattr(traj, column).tobytes() == getattr(reference, column).tobytes()
    assert (traj.exit_reason, len(traj)) == (reference.exit_reason, len(reference))
