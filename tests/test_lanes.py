"""``scheme._Lanes`` against Python's own complex arithmetic.

The sweep batch runs the scheme's stages on ``_Lanes``, so each of its
operations must give every lane the bits CPython gives the same operation
on a ``complex``. Both are compared by ``repr``, which shows the last bit
and the sign of a zero. The operands are built from parts that reach the
special cases: signed zeros, the smallest subnormal, a part near overflow,
infinities and NaN, with divisors on both Smith branches. The other operand
may be a lane value, a complex, a float, an int or a float64 ndarray, each
read through ``.real`` and ``.imag``. Cases where CPython raises (a zero
divisor, an ``abs`` that overflows) are skipped.
"""

import math
import operator

import numpy as np
import pytest

from photonpurify.scheme import _Lanes

PARTS = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 5e-324, 1e308, math.inf, -math.inf, math.nan)
VALUES = [complex(re, im) for re in PARTS for im in PARTS]


def lanes(values) -> _Lanes:
    values = [complex(z) for z in values]
    return _Lanes(np.array([z.real for z in values]), np.array([z.imag for z in values]))


def lane_reprs(result: _Lanes, n: int) -> list[str]:
    re, im = (np.broadcast_to(part, n).tolist() for part in (result.real, result.imag))
    return [repr(complex(r, i)) for r, i in zip(re, im)]


def python_reprs(fn, *columns) -> list:
    # repr(fn(...)) per row, or None where CPython raises.
    out = []
    for args in zip(*columns):
        try:
            out.append(repr(fn(*args)))
        except (ZeroDivisionError, OverflowError):
            out.append(None)
    return out


def assert_same(got: list[str], want: list):
    checked = [(g, w) for g, w in zip(got, want) if w is not None]
    assert [g for g, _ in checked] == [w for _, w in checked]
    return len(checked)


@pytest.fixture(autouse=True)
def quiet_numpy():
    # _run_batch runs its lanes under the same errstate: Python's complex
    # arithmetic never warns.
    with np.errstate(all="ignore"):
        yield


OPERATORS = [operator.add, operator.sub, operator.mul, operator.truediv]


@pytest.mark.parametrize("op", OPERATORS, ids=lambda op: op.__name__)
def test_binary_operators_between_lanes(op):
    left = [a for a in VALUES for _ in VALUES]
    right = VALUES * len(VALUES)
    got = lane_reprs(op(lanes(left), lanes(right)), len(left))
    assert assert_same(got, python_reprs(op, left, right)) > 0.9 * len(left)


def float_array(x: float) -> np.ndarray:
    # A float64 operand holding x in every lane, compared with the float x.
    return np.full(len(VALUES), x)


@pytest.mark.parametrize("op", OPERATORS, ids=lambda op: op.__name__)
@pytest.mark.parametrize("kind", [complex, float, float_array], ids=["complex", "float", "ndarray"])
@pytest.mark.parametrize("lanes_first", [True, False], ids=["lanes-op-x", "x-op-lanes"])
def test_binary_operators_with_a_python_operand(op, kind, lanes_first):
    column = lanes(VALUES)
    operands = VALUES if kind is complex else list(PARTS)
    for x in operands:
        operand = kind(x)
        if lanes_first:
            got, want = op(column, operand), python_reprs(op, VALUES, [x] * len(VALUES))
        else:
            got, want = op(operand, column), python_reprs(op, [x] * len(VALUES), VALUES)
        assert isinstance(got, _Lanes)
        assert_same(lane_reprs(got, len(VALUES)), want)


def test_division_takes_each_smith_branch():
    # |real| >= |imag| scales by the real part, the rest by the imaginary.
    divisors = [complex(3.0, 1e-300), complex(1e-300, 3.0), complex(-2.0, 2.0)]
    got = lane_reprs(lanes([1.0 + 2.0j] * 3) / lanes(divisors), 3)
    assert got == [repr((1.0 + 2.0j) / d) for d in divisors]


def test_unary_operations():
    column = lanes(VALUES)
    assert lane_reprs(-column, len(VALUES)) == [repr(-z) for z in VALUES]
    assert lane_reprs(column.conjugate(), len(VALUES)) == [repr(z.conjugate()) for z in VALUES]
    got = [repr(h) for h in abs(column).tolist()]
    assert assert_same(got, python_reprs(abs, VALUES)) > 0.9 * len(VALUES)


def test_equality_with_zero():
    # ``t1 == 0`` in the batch compares lanes with the int 0.
    for zero in (0, 0.0, -0.0, 0j, np.zeros(len(VALUES))):
        assert (lanes(VALUES) == zero).tolist() == [z == 0 for z in VALUES]
