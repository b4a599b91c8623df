"""Forward-mode automatic differentiation at one state.

A :class:`Dual` carries a value together with the partial derivatives with
respect to the seed variables.  Scalar fields built from the primitives
below (arithmetic, ``sin``/``cos``/``sqrt``, the rectifiers and
``minimum``/``maximum``) can be differentiated exactly with :func:`grad`;
there is no tape and no higher-order machinery.  The value is a float and
the partials a list of n; a primitive that cannot be evaluated raises
:class:`EvaluationError`.

A partial that cannot depend on its seed (a seed's off-diagonal entries,
and what only they reach) is a structural zero, which the arithmetic skips
on floats and traced alike: the sparsity of forward mode (Griewank &
Walther), so traced Dual code makes no product or sum of a seed's zeros.
All helpers accept plain floats as well, which lets the same field
definitions be evaluated with or without derivatives.

:class:`Traced` runs a function of floats once on symbolic floats
(:class:`Sym`) and records the float operations it makes, in evaluation
order, each as a variable, a template and its operands, like an equation
of a jaxpr (the trace-once approach of Tapenade and of JAX).  Dual code
traces too, on Duals whose values are Syms and whose partials are Syms,
floats and structural zeros: forward-mode AD by source transformation
(Griewank & Walther, *Evaluating Derivatives*).  The record renders two
ways, each with the traced function's bits (the dot products' too, since
:func:`dot` sums in index order on floats and traced alike, where numpy's
``@`` would give the bits of whichever BLAS kernel it loads): as numpy code
over arrays of states, one lane per element (:meth:`Traced.lanes`), and as
a loop on floats that runs the code once per step, carrying some of its
arguments from each step's outputs and appending each step's row to one
float buffer (:meth:`Traced.loop`); a call of the trace is one step of it.
Each form is a table of the templates it writes otherwise, rendered on
first use.  An operation that may raise on floats records the lanes' check
of it where traced, and is kept though unread.  The scans and the sampled
checks run their states as lanes, and the states the lanes flag on the
traced function itself (:func:`cbftk.core.by_lanes`); the closed-loop runs
of :func:`cbftk.sim.simulate` run as the loop.  Traces are kept by
:func:`cached`.  A NaN's sign and payload are not part of the contract: the
lanes may give another sign than a call or a Dual, and no published byte
depends on them, since ``"%.9g"`` writes ``nan`` for every NaN.
"""

from __future__ import annotations

import array as _array
import collections
import math
import numbers
import os
from types import SimpleNamespace

import numpy as np

__all__ = [
    "BLOCK_NODES",
    "Dual",
    "EvaluationError",
    "Sym",
    "Traced",
    "Untraceable",
    "array",
    "blocks",
    "directional",
    "dot",
    "failed",
    "holds",
    "grad",
    "value_and_grad",
    "scalar",
    "where",
    "sin",
    "cos",
    "sqrt",
    "relu",
    "requ",
    "minimum",
    "maximum",
]

# states per call of the lanes in the scans and checks; a call holds an array
# of BLOCK_NODES floats per variable still to be read (28, 1.9 MB, at the peak
# of a bicycle abc scan block).  Twice as many made the pendulum scans slower.
BLOCK_NODES = 8192


class EvaluationError(ArithmeticError):
    """A primitive could not be evaluated (e.g. 1/0 or sqrt of a negative).

    ``primitive`` names the offending operation and ``reason`` is the
    message.  ``index`` is None, or the position of the state among those
    evaluated together, where :func:`cbftk.core.by_lanes` raises it.
    """

    def __init__(self, primitive: str, message: str):
        self.primitive = primitive
        self.index = None
        self.reason = f"{primitive}: {message}"
        super().__init__(self.reason)


def _as_float(x):
    if x.__class__ is Sym:
        return x
    return float(x) if isinstance(x, numbers.Real) else None


def failed(bad) -> bool:
    """Whether a check on one state fails.

    In a trace the check becomes a guard of the generated code and passes.
    """
    if bad.__class__ is Sym:
        bad.trace.guard(_IF, bad.name, "'check'")
        return False
    return bool(bad)


def holds(ok, label="check") -> bool:
    """Whether the condition ``ok`` on one state holds.

    In a trace the condition becomes a guard of the generated code, named
    ``label``, and holds.
    """
    if ok.__class__ is Sym:
        ok.trace.guard(_IF_NOT, ok.name, repr(label))
        return True
    return bool(ok)


def _refuse(bad, primitive, message, value=None):
    """Raise EvaluationError where the check ``bad`` fails.

    ``message`` is a string, or a callable of ``value``.  In a trace the
    check becomes a guard named after ``primitive``.
    """
    if bad.__class__ is Sym:
        bad.trace.guard(_IF, bad.name, repr(primitive))
    elif bad:
        raise EvaluationError(primitive, message(value) if callable(message) else message)


class _Zero:
    """A partial that is zero by construction (the module docstring):
    ``Z + a = a``, ``a - Z = a``, ``Z - a = -a``, ``Z * a = Z``, ``Z / a =
    Z`` and ``-Z = Z``, on floats and traced alike."""

    __slots__ = ()
    __add__ = __radd__ = __rsub__ = lambda self, other: other
    __sub__ = lambda self, other: -other
    __mul__ = __rmul__ = __truediv__ = lambda self, other: self
    __neg__ = lambda self: self
    __repr__ = lambda self: "0"


_NIL = _Zero()  # the structural zero


class Dual:
    """Value plus partial derivatives with respect to the seed variables, a
    list of floats, traced values and the structural zeros (:class:`_Zero`)
    of the seeds of :func:`value_and_grad`; an array of partials becomes a
    list of floats.  A traced value that is not a Dual (a :func:`where`
    between two constants gives one) is an operand as a float is."""

    __slots__ = ("value", "partials")

    # numpy defers to the reflected operators below instead of building
    # object arrays of Duals
    __array_ufunc__ = None

    def __init__(self, value, partials):
        # the class tests keep the float path as cheap as a bare float();
        # a traced Dual keeps its Sym value, and the arithmetic passes lists
        cls = value.__class__
        self.value = value if cls is float or cls is Sym else float(value)
        self.partials = partials if partials.__class__ is list else np.asarray(partials, dtype=float).tolist()

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value, [a + b for a, b in zip(self.partials, other.partials)])
        c = _as_float(other)
        if c is None:
            return NotImplemented
        return Dual(self.value + c, self.partials)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value - other.value, [a - b for a, b in zip(self.partials, other.partials)])
        c = _as_float(other)
        if c is None:
            return NotImplemented
        return Dual(self.value - c, self.partials)

    def __rsub__(self, other):
        c = _as_float(other)
        if c is None:
            return NotImplemented
        return Dual(c - self.value, [-a for a in self.partials])

    def __mul__(self, other):
        if isinstance(other, Dual):
            u, v = self.value, other.value
            return Dual(u * v, [u * b + v * a for a, b in zip(self.partials, other.partials)])
        c = _as_float(other)
        if c is None:
            return NotImplemented
        return Dual(self.value * c, [a * c for a in self.partials])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            _refuse(other.value == 0.0, "divide", "division by a zero-valued operand")
            inv = 1.0 / other.value
            q = self.value * inv
            return Dual(q, [(a - q * b) * inv for a, b in zip(self.partials, other.partials)])
        c = _as_float(other)
        if c is None:
            return NotImplemented
        _refuse(c == 0.0, "divide", "division by zero")
        return Dual(self.value / c, [a / c for a in self.partials])

    def __rtruediv__(self, other):
        c = _as_float(other)
        if c is None:
            return NotImplemented
        _refuse(self.value == 0.0, "divide", "division by a zero-valued operand")
        inv = 1.0 / self.value
        return Dual(c * inv, _scaled(-c * inv * inv, self))

    def __pow__(self, exponent):
        if not isinstance(exponent, numbers.Real):
            return NotImplemented
        c = float(exponent)
        # a zero base needs c >= 1, a negative one an integer c
        bad = (self.value == 0.0) & (c < 1.0) | (self.value < 0.0) & (not c.is_integer())
        _refuse(bad, "pow", _pow_failure, self.value)
        return Dual(self.value**c, _scaled(c * self.value ** (c - 1.0), self))

    def __neg__(self):
        return Dual(-self.value, [-a for a in self.partials])

    def __pos__(self):
        return self

    # -- comparisons compare values ------------------------------------

    def _cmp_value(self, other):
        if isinstance(other, Dual):
            return other.value
        c = _as_float(other)
        if c is None:
            raise TypeError(f"cannot compare Dual with {type(other)!r}")
        return c

    def __lt__(self, other):
        return self.value < self._cmp_value(other)

    def __le__(self, other):
        return self.value <= self._cmp_value(other)

    def __gt__(self, other):
        return self.value > self._cmp_value(other)

    def __ge__(self, other):
        return self.value >= self._cmp_value(other)

    def __eq__(self, other):
        try:
            return self.value == self._cmp_value(other)
        except TypeError:
            return NotImplemented

    def __ne__(self, other):
        try:
            return self.value != self._cmp_value(other)
        except TypeError:
            return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"Dual({self.value!r}, {self.partials!r})"


def _pow_failure(value) -> str:
    if value == 0.0:
        return "non-differentiable power of zero"
    return "non-integer power of a negative base"


def scalar(x):
    """Value of ``x``, whether it is a Dual, a traced value or a plain number."""
    if isinstance(x, Dual):
        return x.value
    return x if x.__class__ is Sym else float(x)


def where(mask, a, b):
    """``a`` where ``mask`` holds, else ``b``.

    Both operands are evaluated before the select, so a branch that could
    raise must be built on a safe substitute first.  A traced mask selects
    in the generated code (:meth:`Sym.select`).  Between two Duals, a
    structural zero facing a partial of the other branch is a ``0.0``, as
    the select renders it, whatever the mask.
    """
    if isinstance(a, Dual) and isinstance(b, Dual):
        a, b = _facing(a, b), _facing(b, a)
    if mask.__class__ is Sym:
        return mask.select(a, b)
    return a if mask else b


def _facing(a, b):
    """``a``, with ``0.0`` for each structural zero of its partials where
    ``b``'s partial is not one."""
    if not any(p is _NIL and q is not _NIL for p, q in zip(a.partials, b.partials)):
        return a
    return Dual(a.value, [0.0 if p is _NIL and q is not _NIL else p for p, q in zip(a.partials, b.partials)])


def _scaled(k, x):
    """The partials of the Dual ``x`` times ``k``, as ``k * p``."""
    return [k * p for p in x.partials]


# -- smooth primitives ----------------------------------------------------


def _lib(v):
    """The sin/cos/sqrt for a value: ``math``'s, or the trace's on a Sym."""
    return _TRACED_MATH if v.__class__ is Sym else math


def sin(x):
    if isinstance(x, Dual):
        lib = _lib(x.value)
        return Dual(lib.sin(x.value), _scaled(lib.cos(x.value), x))
    return _lib(x).sin(x)


def cos(x):
    if isinstance(x, Dual):
        lib = _lib(x.value)
        return Dual(lib.cos(x.value), _scaled(-lib.sin(x.value), x))
    return _lib(x).cos(x)


def _sqrt_failure(value) -> str:
    if value < 0.0:
        return f"sqrt of negative value {value}"
    return "sqrt is not differentiable at 0"


def sqrt(x):
    if isinstance(x, Dual):
        v = x.value
        _refuse(v <= 0.0, "sqrt", _sqrt_failure, v)
        root = _lib(v).sqrt(v)
        twice = 2.0 * root
        return Dual(root, [a / twice for a in x.partials])
    _refuse(x < 0.0, "sqrt", _sqrt_failure, x)
    return _lib(x).sqrt(x)


# -- rectifiers ------------------------------------------------------------
#
# requ is C^1 with derivative 0 at 0 (both one-sided derivatives agree, so
# the Dual rule below is the true derivative).  relu gets subderivative 0
# at its kink; differentiating a field across a relu kink is outside the
# smoothness contract and only branch logic should rely on relu here.


def requ(x):
    """Rectified quadratic unit: x^2 for x > 0, else 0."""
    if not isinstance(x, Dual):
        return where(x > 0.0, x * x, 0.0)
    return where(
        x.value > 0.0,
        Dual(x.value * x.value, _scaled(2.0 * x.value, x)),
        Dual(0.0, [_NIL] * len(x.partials)),
    )


def relu(x):
    """Rectified linear unit: max(x, 0), subderivative 0 at the kink."""
    if isinstance(x, Dual):
        return where(x.value > 0.0, x, Dual(0.0, [_NIL] * len(x.partials)))
    return where(x > 0.0, x, 0.0)


def minimum(a, b):
    """Smaller of two operands by value; ties resolve to the first."""
    return where(scalar(a) <= scalar(b), a, b)


def maximum(a, b):
    """Larger of two operands by value; ties resolve to the first."""
    return where(scalar(a) >= scalar(b), a, b)


# -- seeding and evaluation -------------------------------------------------


def array(values) -> np.ndarray:
    """``values`` as a float array.

    In a trace, where traced values are among them, an object array of
    those and plain numbers.
    """
    try:
        return np.asarray(values, dtype=float)
    except Untraceable:
        return np.asarray(values, dtype=object)


def seed(x) -> list:
    """Dual variables for the components of the state ``x``, seeded with unit
    vectors of structural zeros off the diagonal."""
    x = array(x)
    return [Dual(x[i], [1.0 if j == i else _NIL for j in range(x.size)]) for i in range(x.size)]


def value_and_grad(field, x):
    """Evaluate a scalar field and its exact gradient at the state ``x``, an
    array (:func:`array`) with ``+0.0`` for each structural zero."""
    x = array(x)
    out = field(seed(x))
    if isinstance(out, Dual):
        return out.value, array([0.0 if p is _NIL else p for p in out.partials])
    # field did not depend on x at all
    return float(out), np.zeros(x.size)


def grad(field, x) -> np.ndarray:
    """Exact gradient of a scalar field at ``x`` (forward mode)."""
    return value_and_grad(field, x)[1]


def blocks(count: int):
    """Slices of ``range(count)`` of at most :data:`BLOCK_NODES` elements, in order."""
    for start in range(0, count, BLOCK_NODES):
        yield slice(start, min(start + BLOCK_NODES, count))


# -- dot products --------------------------------------------------------------


def directional(grad, field):
    """Sum of grad[i] * field[i] over the leading axis, in index order.

    The reduction of the safety filter, the stage derivative and the Lie
    derivatives (:func:`dot`) at one state; the scans and checks also sum
    rows of lanes with it, one array over the states per component.
    """
    total = grad[0] * field[0]
    for i in range(1, len(grad)):
        total = total + grad[i] * field[i]
    return total


def dot(a, b):
    """``a @ b`` for a vector ``b``, or a vector ``a`` and a matrix ``b``,
    summed in index order, ``a0 b0 + a1 b1 + ...`` (:func:`directional`).

    A matrix ``a`` sums its columns, ``b0 a[:, 0] + b1 a[:, 1] + ...``:
    each entry is its row's sum in index order, since a product of two
    floats does not depend on the order of its factors.  The operations
    are the same on floats and traced, so the generated code gives the
    float path's bits whatever BLAS numpy loads.
    """
    a, b = array(a), array(b)
    return directional(b, a.T) if a.ndim == 2 else directional(a, b)


# -- tracing into straight-line code -------------------------------------------

class Untraceable(TypeError):
    """A traced field needed the number behind a traced value."""


class Sym:
    """A float of a traced field: a variable of the generated code.

    Each operation with a float or another Sym appends one record to the
    trace (:class:`_Trace`): a new variable, a template such as
    ``"{} + {}"`` and the texts of the operands.  Only identities that hold
    bit for bit in IEEE 754 are folded (``x * 1.0``, ``1.0 * x``, ``x /
    1.0``, ``x - 0.0``); ``0.0 * x`` and ``x + 0.0`` are not, since they
    change NaN, infinity or the sign of a zero.  A division by a traced
    value or a literal zero, a ``sin``, a ``cos`` and a ``**`` also record
    the lanes' check of the case that raises on floats.
    """

    __slots__ = ("trace", "name")

    def __init__(self, trace, name):
        self.trace = trace
        self.name = name

    def _op(self, other, template, reflected=False):
        if other.__class__ is not Sym:
            if not isinstance(other, numbers.Real):
                return NotImplemented
            other = float(other)
            if template == "{} * {}" and other == 1.0 or template == "{} / {}" and not reflected and other == 1.0:
                return self
            if template == "{} - {}" and not reflected and other == 0.0 and math.copysign(1.0, other) > 0.0:
                return self
        a, b = self.name, self.trace.text(other)
        operands = (b, a) if reflected else (a, b)
        # a float operation that raises records the lanes' check of it here
        if template == "{} / {}" and (reflected or other.__class__ is Sym or other == 0.0):
            self.trace.guard(_ZERO, operands[1])
        result = self.trace.emit(template, operands)
        if template == "{} ** {}":
            self.trace.guard(_OVERFLOW, result.name, *operands)
        return result

    def _logic(self, other, template):
        if other.__class__ is Sym:
            return self.trace.emit(template, (self.name, other.name))
        if not isinstance(other, (bool, np.bool_)):
            return NotImplemented
        # x & True and x | False are x; x & False and x | True are constant
        return self if bool(other) == (template == "{} & {}") else bool(other)

    def __neg__(self):
        return self.trace.emit("-{}", (self.name,))

    def __abs__(self):
        return self.trace.emit("abs({})", (self.name,))

    def __bool__(self):
        raise Untraceable("a Python if, and, or or not on a traced value")

    def __float__(self):
        raise Untraceable("float(), math.* or np.* on a traced value")

    __hash__ = None

    def select(self, a, b):
        """``a`` where this traced mask holds, else ``b`` (see :func:`where`).

        On one state the Dual path returns either operand as it is, so a Dual
        and a plain value cannot share one variable of the generated code:
        the Dual side is traced, and a guard leaves the states that take the
        other side to the path that was traced.
        """
        a_dual, b_dual = isinstance(a, Dual), isinstance(b, Dual)
        if a_dual and b_dual:
            return Dual(self._pick(a.value, b.value), [self._pick(p, q) for p, q in zip(a.partials, b.partials)])
        if a_dual or b_dual:
            self.trace.guard(_IF if b_dual else _IF_NOT, self.name, "'where'")
            return a if a_dual else b
        return self._pick(a, b)

    def _pick(self, a, b):
        if a is b or a.__class__ is float and b.__class__ is float and a.hex() == b.hex() and a == b:
            return a
        text = self.trace.text
        return self.trace.emit(_SELECT, (text(a), self.name, text(b)))


# each operator's template is one string, which all its records share
for _name, _op in (("add", "+"), ("sub", "-"), ("mul", "*"), ("truediv", "/"), ("pow", "**")):
    setattr(Sym, f"__{_name}__", lambda self, other, t=f"{{}} {_op} {{}}": self._op(other, t))
    setattr(Sym, f"__r{_name}__", lambda self, other, t=f"{{}} {_op} {{}}": self._op(other, t, True))
for _name, _op in (("lt", "<"), ("le", "<="), ("gt", ">"), ("ge", ">="), ("eq", "=="), ("ne", "!=")):
    setattr(Sym, f"__{_name}__", lambda self, other, t=f"{{}} {_op} {{}}": self._op(other, t))
for _name, _op in (("and", "&"), ("or", "|")):
    setattr(Sym, f"__{_name}__", lambda self, other, t=f"{{}} {_op} {{}}": self._logic(other, t))
    setattr(Sym, f"__r{_name}__", lambda self, other, t=f"{{}} {_op} {{}}": self._logic(other, t))


def _traced_math(name):
    """``math.<name>`` on a Sym, after the lanes' check that the argument of
    a sin or cos is finite (a sqrt is guarded where traced, :func:`sqrt`)."""
    def traced(v, template=f"{name}({{}})"):
        if name != "sqrt":
            v.trace.guard(_INF, v.name)
        return v.trace.emit(template, (v.name,))

    return traced


_TRACED_MATH = SimpleNamespace(**{name: _traced_math(name) for name in ("sin", "cos", "sqrt")})

# templates the renderings pick out: a select; the guards, each returning its
# second operand's text where its condition holds; and the lanes' checks of
# operations that raise on floats
_SELECT = "{} if {} else {}"
_IF = "if {}: return {}"
_IF_NOT = "if not {}: return {}"
_ZERO = "bad = bad | ({} == 0.0)"
_INF = "bad = bad | (np.isinf({}))"
_OVERFLOW = "bad = bad | (np.isinf({}) & np.isfinite({}) & np.isfinite({}))"
# the operations that may raise on floats, kept though nothing reads them
_RAISING = frozenset(("{} / {}", "{} ** {}", "sin({})", "cos({})", "sqrt({})"))


class _Trace:
    """The lines of a generated function as records ``(name, template,
    operands)``, in order; a repeated operation or guard is recorded once.

    A record is the line ``name = template.format(*operands)``, or
    ``template.format(*operands)`` where ``name`` is None (a guard, a check
    of the lanes, or a line a rendering adds).  Each operand is the text of
    a variable, a literal or a constant (:meth:`text`).
    """

    def __init__(self):
        self.lines = []
        self.syms = {}
        self.constants = {}
        self.guards = set()

    def emit(self, template, operands) -> Sym:
        """The variable of ``template`` on the texts ``operands``."""
        sym = self.syms.get((template, operands))
        if sym is None:
            sym = self.syms[template, operands] = Sym(self, f"t{len(self.syms)}")
            self.lines.append((sym.name, template, operands))
        return sym

    def guard(self, template, *operands):
        """The line ``template`` on the texts ``operands``: a guard, which
        returns its second operand (a label's ``repr``) where its condition,
        the first, holds; or a check that the lanes OR into ``bad``, which
        a traced primitive records where it is traced."""
        record = (None, template, operands)
        if record not in self.guards:
            self.guards.add(record)
            self.lines.append(record)

    def global_name(self, value) -> str:
        """The name the generated function's globals bind to ``value``."""
        for name, bound in self.constants.items():
            if bound is value:
                return name
        name = f"k{len(self.constants)}"
        self.constants[name] = value
        return name

    def text(self, value) -> str:
        if value.__class__ is Sym:
            return value.name
        if isinstance(value, (bool, np.bool_)):
            return repr(bool(value))
        value = float(value)
        if not math.isfinite(value):
            return self.global_name(value)
        return f"({value!r})" if math.copysign(1.0, value) < 0.0 else repr(value)


_NUMPY_DIR = os.path.dirname(np.__file__) + os.sep


class Traced:
    """``function`` of ``arity`` floats as straight-line code, traced once.

    ``function`` takes a list of traced floats (:class:`Sym`) and returns a
    sequence of traced floats and constants.  The float operations it makes
    on them are recorded in evaluation order, with whatever ``function``
    calls inlined: a function it calls at several points (the filter at
    each stage of an RK4 step) is recorded at each, one operation once
    (:meth:`_Trace.emit`), so the record calls no other generated code and
    both forms render it: numpy code on the first :meth:`lanes`, and a
    loop of steps on the first :meth:`loop` of each layout.  Each
    :func:`where` on a traced mask becomes a conditional expression, and
    each check (:func:`failed`, :func:`holds`, a refused primitive) a
    guard.  Calling it with floats runs one step of :meth:`loop` that
    carries nothing and returns the tuple of outputs, as floats from the
    loop's row (a traced comparison reads ``1.0`` or ``0.0``), or a string
    saying why these arguments must take ``function`` itself on floats
    instead: a guard fired, the code raised, or ``function`` could not be
    traced, which ``reason`` then says (a ``float()``, ``math.*`` or
    ``np.*`` call or a Python ``if`` on a traced value, for example).
    """

    def __init__(self, function, arity: int):
        self.function = function
        self.reason = None
        self.outputs = 0
        self._record = self._lanes = None
        self._loops = {}
        try:
            self._record = self._recorded(function, arity)
        except Exception as exc:  # anything the trace cannot follow takes the traced path
            import traceback  # only here, to keep it out of the import time

            self.reason = f"not traced, {type(exc).__name__}: {exc}"
            # name the caller's line, not this module's or numpy's
            frames = [
                f
                for f in traceback.extract_tb(exc.__traceback__)
                if f.filename != __file__ and not f.filename.startswith(_NUMPY_DIR)
            ]
            if frames:
                f = frames[-1]
                self.reason += f" in {os.path.basename(f.filename)}:{f.lineno}: {f.line}"

    def _recorded(self, function, arity):
        """The arguments, the trace and the outputs of ``function``, as text."""
        trace = _Trace()
        args = [f"x{i}" for i in range(arity)]
        outputs = [trace.text(v) for v in function([Sym(trace, a) for a in args])]
        self.outputs = len(outputs)
        trace.syms.clear()  # each Sym refers to the trace: free them now, not at a collection
        trace.guards.clear()  # which only deduplicate while recording
        return args, trace, outputs

    def __call__(self, *args):
        rows = _array.array("d")
        reason = self.loop(args, range(1), rows, 0, range(0), math.inf)[1]
        return tuple(rows) if reason is None else reason

    def loop(self, args, steps: range, rows, carried: int, watched: range, bound: float):
        """This code called once per step of ``steps``, carrying its first
        ``carried`` arguments from each step into the next: ``(k, reason,
        state)``.

        Step k calls the code at ``args``, appends to the float buffer
        ``rows`` (an ``array('d')``) its carried arguments and its outputs
        after the first ``carried``, and then makes those first outputs the
        carried arguments of step k + 1.  The loop is rendered once per
        layout, on first use, from the record that :meth:`lanes` renders
        too.  ``reason`` is None where every step ran (k is then
        ``steps.stop``) or where an output of ``watched`` exceeded
        ``bound`` in magnitude at step k, after its row.  Otherwise step k
        did not run, and no row of it is in ``rows``: ``reason`` says why
        (a guard fired, the code raised, or it was not traced), and
        ``state`` holds the carried arguments of step k.
        """
        if self._record is None:
            return steps.start, self.reason, tuple(args[:carried])
        key = (carried, watched)
        if key not in self._loops:
            self._loops[key] = self._rendered_loop(carried, watched)
        k, reason, state = self._loops[key](*args, steps, rows.extend, bound)
        return k, None if reason is None else _stopped(reason), state

    def _rendered_loop(self, carried, watched):
        """The loop of :meth:`loop` as one Python function, compiled."""
        args, trace, outputs = self._record
        state = _tuple(args[:carried])
        # a guard returns (k, its label, the state) instead
        table = dict(_FLOATS, **{t: t.replace("return {}", f"return (k, {{}}, {state})") for t in (_IF, _IF_NOT)})
        # the carried outputs go to y0, y1, ... first, so that every float
        # operation of a step comes before its row
        logged = (*args[:carried], *outputs[carried:])
        body = [
            *trace.lines,
            *((None, f"y{i} = {{}}", (v,)) for i, v in enumerate(outputs[:carried])),
            (None, f"extend({_tuple(['{}'] * len(logged))})", logged),
            *((None, f"if abs({{}}) > bound: return (k, None, {state})", (outputs[i],)) for i in watched),
            *((None, f"{a} = y{i}", ()) for i, a in enumerate(args[:carried])),
        ]
        lines = [
            "try:",
            "    for k in steps:",
            *(f"        {line}" for line in _inlined(body, table)),
            # without its traceback, which refers to this frame
            "except Exception as exc:",
            f"    return (k, exc.with_traceback(None), {state})",
            f"return (steps.stop, None, {state})",
        ]
        return _compiled(_function_source([*args, "steps", "extend", "bound"], lines), dict(trace.constants, **_FLOAT_MATH))

    def lanes(self, *arrays):
        """This code as numpy code over ``arrays``, one lane per element:
        ``(bad, outputs)``, with ``bad`` the mask of the lanes where a guard
        fired (or False).

        Each conditional expression selects with ``np.where`` and each guard
        ORs its condition into ``bad``, so each lane makes the float
        operations of a call at its elements, numpy's ``sin``, ``cos`` and
        ``sqrt`` in place of ``math``'s, with floating-point warnings off.
        A ``**`` runs as Python's on the floats of each lane
        (:func:`_float_pow`), since numpy's power, and its square and square
        root for the exponents 2 and 0.5, round otherwise than glibc's pow.
        A lane is bad too where a call would raise on an operation whose
        result a ``where`` may discard, by its check recorded where traced
        (:class:`Sym`).  Each array is deleted after its last read.  A string
        says why it did not run: the code was not traced, or raised.
        """
        if self._lanes is None:
            if self._record is None:
                return self.reason
            args, trace, outputs = self._record
            returned = (None, f"return (bad, {_tuple(['{}'] * len(outputs))})", outputs)
            lines = _inlined([(None, "bad = False", ()), *trace.lines, returned], _LANES, free=True)
            self._lanes = _compiled(_function_source(args, lines), dict(trace.constants, np=np, **_NUMPY_MATH))
        try:
            with np.errstate(all="ignore"):
                return self._lanes(*arrays)
        except Exception as exc:  # the traced path gives the reference answer or error
            return f"lanes raised {type(exc).__name__}: {exc}"


def cached(owner, slot: str, key, make):
    """``make()``, kept in ``owner``'s ``__dict__`` (a frozen dataclass's too)
    as ``slot`` with ``key``, and made again for a ``key`` that does not
    compare equal to it by value: the one cache, the last one per slot."""
    kept = owner.__dict__.get(slot)
    if kept is None or kept[0] != key:
        kept = owner.__dict__[slot] = (key, make())
    return kept[1]


def _float_pow(base, exponent):
    """``base ** exponent`` on floats, or inf where that raises (as the lanes'
    check of an overflow reads it) and NaN where it is complex."""
    try:
        result = base**exponent
    except (OverflowError, ZeroDivisionError):
        return math.inf
    return result if result.__class__ is float else math.nan


_FLOAT_MATH = {"sin": math.sin, "cos": math.cos, "sqrt": math.sqrt}
_NUMPY_MATH = {"sin": np.sin, "cos": np.cos, "sqrt": np.sqrt, "float_pow": np.frompyfunc(_float_pow, 2, 1)}
# a rendering's table maps a template to its text in that form, or to None to
# leave the record out: the loop on floats leaves out the lanes' checks, and
# the lanes select by np.where, OR into ``bad`` the lanes each guard sends
# back and take each ``**`` from Python's, lane by lane
_FLOATS = dict.fromkeys((_ZERO, _INF, _OVERFLOW))
_LANES = {_SELECT: "np.where({1}, {0}, {2})", _IF: "bad = bad | {}", _IF_NOT: "bad = bad | np.logical_not({})"}
_LANES["{} ** {}"] = "np.asarray(float_pow({}, {}), dtype=float)"


def _tuple(texts) -> str:
    """The text of a tuple of the expressions ``texts``."""
    return f"({''.join(f'{v}, ' for v in texts)})"


def _stopped(why) -> str:
    """Why generated code left its arguments to the traced path: the label of
    the guard that fired, or the exception it raised."""
    if isinstance(why, Exception):
        return f"generated code raised {type(why).__name__}: {why}"
    return f"{why} guard fired"


def _function_source(args, lines) -> str:
    return f"def generated({', '.join(args)}):\n" + "".join(f"    {line}\n" for line in lines)


def _compiled(source, namespace):
    exec(compile(source, "<generated>", "exec"), namespace)
    return namespace["generated"]


def _inlined(records, table, free=False) -> list:
    """The lines of ``records`` in the form of ``table``, with each variable
    read once written into its reader, and without the variables nothing
    reads, unless their operation may raise on floats (:data:`_RAISING`).
    A line without a variable (a guard, a check) whose text is already
    written is left out: every variable is assigned once, so it would do
    again what it did (in the lanes, a guard of a division and its check
    of the zero divisor both render as ``bad = bad | (tN == 0.0)``).

    Every float operation kept keeps its operands; it only moves later,
    past guards, which leave the arguments to the traced path anyway.  A
    variable read in a conditional expression keeps its line, so that both
    branches are evaluated first, as on the traced path, where ``math``
    functions raise.  Where ``free``, a ``del`` follows each line but the
    last for the variables it writes or reads that no later line reads.
    """
    live, kept_records = set(), []
    for name, template, operands in reversed(records):
        text = table.get(template, template)
        if text is not None and (name is None or name in live or template in _RAISING):
            kept_records.append((name, text, operands))
            live.update(operands)
    kept_records.reverse()
    reads = collections.Counter(v for _, _, operands in kept_records for v in operands)
    kept = {v for _, template, operands in kept_records if template == _SELECT for v in operands}
    # each line with the variables it writes and reads, a pending one's too
    pending, out, written, assigned = {}, [], set(), set()
    for name, template, operands in kept_records:
        parts = [pending.pop(v, (v, {v} & assigned)) for v in operands]
        expression = template.format(*(text for text, _ in parts))
        names = {v for _, read in parts for v in read}
        if name is None:
            if expression not in written:
                written.add(expression)
                out.append((expression, names))
        elif reads[name] == 1 and name not in kept:
            pending[name] = (f"({expression})", names)
        else:
            assigned.add(name)
            out.append((f"{name} = {expression}", names | {name}))
    later, lines = set(), []
    for line, names in reversed(out):
        if free and lines and names - later:
            lines.append(f"del {', '.join(sorted(names - later, key=lambda v: (len(v), v)))}")
        later |= names
        lines.append(line)
    return lines[::-1]
