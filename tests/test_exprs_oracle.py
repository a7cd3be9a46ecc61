"""Property tests of evaluation, differentiation and printing, with sympy as the oracle.

Random expression trees are built from the smart constructors over x and y.
Denominators, logarithms and square roots get arguments bounded away from
their singularities, so every tree is finite on [-1, 1]^2.
"""

import math

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradedgeo.exprs import (
    EvaluationError, add, call, const, derive, div, evaluate_many, mul, neg, parse, powi, sub,
    var,
)

NAMES = ("x", "y")
CONSTS = (0.5, 1.5, 2.0, 3.0, 0.25, -1.5, 1.0 / 3.0)
SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

leaves = st.one_of(st.sampled_from(NAMES).map(var), st.sampled_from(CONSTS).map(const))


def _positive(e):
    return add(mul(e, e), const(1.0))


def _arithmetic(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda p: add(*p)),
        pairs.map(lambda p: sub(*p)),
        pairs.map(lambda p: mul(*p)),
        pairs.map(lambda p: div(p[0], _positive(p[1]))),
        children.map(neg),
    )


def _with_powers_and_calls(children):
    return st.one_of(
        _arithmetic(children),
        st.tuples(children, st.sampled_from((2, 3))).map(lambda p: powi(*p)),
        st.tuples(children, st.sampled_from((-1, -2))).map(lambda p: powi(_positive(p[0]), p[1])),
        st.tuples(st.sampled_from(("sin", "cos", "atan")), children).map(lambda p: call(*p)),
        children.map(lambda c: call("exp", call("sin", c))),
        children.map(lambda c: call("tan", mul(const(0.5), call("sin", c)))),
        children.map(lambda c: call("sqrt", _positive(c))),
        children.map(lambda c: call("log", _positive(c))),
    )


trees = st.recursive(leaves, _with_powers_and_calls, max_leaves=10)
points = st.tuples(
    st.floats(-1.0, 1.0, allow_nan=False), st.floats(-1.0, 1.0, allow_nan=False)
)


def _sympy(e):
    symbols = sympy.symbols(NAMES)
    return symbols, sympy.sympify(e.to_source().replace("^", "**"), locals=dict(zip(NAMES, symbols)))


def _oracle(e):
    symbols, expr = _sympy(e)
    return sympy.lambdify(symbols, expr, modules="math")


@SETTINGS
@given(trees, points)
def test_evaluation_agrees_with_sympy(e, point):
    env = dict(zip(NAMES, point))
    (got,) = evaluate_many([e], env)
    want = _oracle(e)(*point)
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


@SETTINGS
@given(trees, points)
def test_derivatives_to_order_3_agree_with_sympy(e, point):
    # sympy's derivative is evaluated with 30 significant digits at the same
    # binary point, so the reference is exact at double precision; the bound
    # is the evaluation test's, far above rounding and far below a wrong rule
    symbols, expr = _sympy(e)
    env = dict(zip(NAMES, point))
    subs = {s: sympy.Float(v, 30) for s, v in zip(symbols, point)}
    for name, symbol in zip(NAMES, symbols):
        ref = expr
        for k in (1, 2, 3):
            ref = sympy.diff(ref, symbol)
            (got,) = evaluate_many([derive(e, name, k)], env)
            want = float(ref.evalf(30, subs=subs))
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), (name, k)


@SETTINGS
@given(trees, st.lists(points, min_size=1, max_size=8))
def test_scalar_and_array_evaluation_agree_bit_for_bit(e, pts):
    xs, ys = (np.array(col) for col in zip(*pts))
    (arr,) = evaluate_many([e], {"x": xs, "y": ys})
    compared = 0
    for i, (x, y) in enumerate(pts):
        try:
            (scalar,) = evaluate_many([e], {"x": x, "y": y})
        except EvaluationError:
            continue  # a point the batch of one refuses
        assert np.float64(scalar).tobytes() == arr[i].tobytes()
        compared += 1
    assume(compared)


def test_pointwise_overflow_in_arithmetic_is_refused():
    with pytest.raises(EvaluationError, match="overflow"):
        parse("x*x", ["x"]).eval({"x": 1e200})


@SETTINGS
@given(trees, st.lists(points, min_size=1, max_size=8))
def test_array_evaluation_is_pointwise(e, pts):
    xs, ys = (np.array(col) for col in zip(*pts))
    (arr,) = evaluate_many([e], {"x": xs, "y": ys})
    for i in range(len(pts)):
        (one,) = evaluate_many([e], {"x": xs[i : i + 1], "y": ys[i : i + 1]})
        assert one.tobytes() == arr[i : i + 1].tobytes()


@SETTINGS
@given(trees)
def test_print_parse_roundtrip_is_identity(e):
    assert parse(e.to_source(), NAMES) is e
