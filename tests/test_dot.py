"""``ad.dot`` sums its products in index order, on floats and traced alike.

The reference is written out here on Python floats: ``a0 b0 + a1 b1 + ...``
for a vector, each column's sum for a vector times a matrix, and each
row's sum for a matrix times a vector.  Every comparison is by
``tobytes()``, so infinities and the sign of a zero count.  A NaN counts
as a NaN of any sign and payload: IEEE 754 leaves open which NaN operand
a sum passes on, and numpy's scalar addition and Python's pass on
different ones.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbftk import autodiff as ad
from cbftk import sim
from cbftk.cbf import CBF_KINDS

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

# floats of 2^-480 to 2^480 in magnitude, and signed zeros: no product of
# two overflows or becomes subnormal
splittable = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0**-480, -(2.0**480)]),
    st.builds(
        lambda mantissa, exponent: math.ldexp(mantissa, exponent),
        st.floats(0.5, 1.0, exclude_max=True) | st.floats(-1.0, -0.5, exclude_min=True),
        st.integers(-479, 480),
    ),
)
# both signs over 600 decades, signed zeros and the edges drawn often,
# operands of one magnitude, whose sums the order rounds differently, and
# any other float
anything = st.one_of(
    st.sampled_from(EDGES),
    st.floats(-2.0, 2.0),
    st.builds(
        lambda mantissa, exponent: mantissa * 10.0**exponent,
        st.floats(-10.0, 10.0),
        st.integers(-300, 300),
    ),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _index_order(a, b) -> list:
    """The entries of ``a @ b`` summed in index order on Python floats."""

    def summed(x, y):
        total = x[0] * y[0]
        for i in range(1, len(x)):
            total = total + x[i] * y[i]
        return total

    if isinstance(b[0], list):
        return [summed(a, [row[j] for row in b]) for j in range(len(b[0]))]
    if isinstance(a[0], list):
        return [summed(row, b) for row in a]
    return [summed(a, b)]


def _traced_dot(shape_a, shape_b):
    size_a = math.prod(shape_a)

    def function(xs):
        a = np.array(xs[:size_a], dtype=object).reshape(shape_a)
        b = np.array(xs[size_a:], dtype=object).reshape(shape_b)
        return np.atleast_1d(np.asarray(ad.dot(a, b), dtype=object)).tolist()

    return ad.Traced(function, size_a + math.prod(shape_b))


TRACED = {shapes: _traced_dot(*shapes) for shapes in SHAPES}


def _bytes(values) -> bytes:
    values = np.array(values, dtype=float)
    return np.where(np.isnan(values), math.nan, values).tobytes()


def _assert_index_order(shapes, values):
    """``ad.dot`` on float arrays and the generated code both give the
    index-order sum's bytes."""
    shape_a, shape_b = shapes
    size_a = math.prod(shape_a)
    a = np.array(values[:size_a]).reshape(shape_a)
    b = np.array(values[size_a:]).reshape(shape_b)
    expected = _bytes(_index_order(a.tolist(), b.tolist()))
    with np.errstate(all="ignore"):
        assert _bytes(np.atleast_1d(ad.dot(a, b))) == expected, values
    out = TRACED[shapes](*values)
    assert out.__class__ is tuple, out
    assert _bytes(out) == expected, values


def _operands(values, shapes):
    size = sum(math.prod(s) for s in shapes)
    return st.lists(values, min_size=size, max_size=size)


def test_every_emitted_shape_is_traced():
    for shapes, traced in TRACED.items():
        assert traced.reason is None, (shapes, traced.reason)


@pytest.mark.parametrize("shapes", SHAPES, ids=str)
@settings(max_examples=100, derandomize=True)
@given(data=st.data())
def test_dot_of_splittable_operands_is_generated_and_exact(shapes, data):
    _assert_index_order(shapes, data.draw(_operands(splittable, shapes)))


@pytest.mark.parametrize("shapes", SHAPES, ids=str)
@settings(max_examples=100, derandomize=True)
@given(data=st.data())
def test_dot_of_any_operands_is_exact_or_left_to_numpy(shapes, data):
    # every operand is generated and exact: none is left to numpy
    _assert_index_order(shapes, data.draw(_operands(anything, shapes)))


@pytest.mark.parametrize("shapes", SHAPES, ids=str)
def test_edge_operands_are_exact_or_left_to_numpy(shapes):
    size = sum(math.prod(s) for s in shapes)
    rng = np.random.default_rng(7)
    for _ in range(300):
        _assert_index_order(shapes, [float(v) for v in rng.choice(np.array(EDGES), size)])


def test_dot_sums_from_the_first_index():
    # 1 + 1e16 rounds to 1e16, so only this order cancels to 0: from the
    # last index, or as 1 + (1e16 - 1e16), the sum is 1
    a, ones = [1.0, 1e16, -1e16], [1.0, 1.0, 1.0]
    assert ad.dot(a, ones) == 0.0
    assert ad.dot(a, [[1.0], [1.0], [1.0]]).tolist() == [0.0]
    assert TRACED[(3,), (3,)](*a, *ones) == (0.0,)
    assert TRACED[(3,), (3, 1)](*a, *ones) == (0.0,)


def test_dot_does_not_give_numpys_fused_multiply_add():
    # numpy's BLAS rounds this length-2 dot product once, as fma(a1, b1, a0 b0)
    # on an FMA kernel; dot rounds each product and the sum
    a, b = np.array([0.1, 0.7]), np.array([0.3, 0.9])
    assert ad.dot(a, b) == 0.1 * 0.3 + 0.7 * 0.9
    assert ad.dot([0.1, 0.7], [0.3, 0.9]) == 0.1 * 0.3 + 0.7 * 0.9


def test_no_generated_source_emulates_a_fused_multiply_add(pendulum, bicycle, monkeypatch):
    # the first call of each trace compiles its one-step loop on floats
    sources, compiled = [], ad._compiled
    monkeypatch.setattr(ad, "_compiled", lambda source, namespace: sources.append(source) or compiled(source, namespace))
    for shapes in SHAPES:
        _traced_dot(*shapes)(*[1.0] * sum(math.prod(s) for s in shapes))
    for scenario in (pendulum, bicycle):
        spec, x0 = scenario.filter_spec(), scenario.x0.tolist()
        for kind in CBF_KINDS:
            inst = scenario.make_cbf(kind)
            controller = ad.Traced(
                lambda x: sim._controlled(scenario.system, inst, spec, np.array(x, dtype=object)), scenario.system.n
            )
            controller(*x0)
            sim._generated_step(scenario.system, inst, spec)(*x0, 1e-3)
    assert len(sources) == len(SHAPES) + 2 * 2 * len(CBF_KINDS)
    for source in sources:
        assert "fsum(" not in source and "134217729.0" not in source
