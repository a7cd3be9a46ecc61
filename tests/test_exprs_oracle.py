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


# -- sin^2 + cos^2 = 1: the merge at construction and the fold at compile ------

U = add(mul(const(0.5), var("x")), var("y"))  # one argument for sin and cos
TRIG = (call("sin", U), call("cos", U))
trig_leaves = st.one_of(leaves, st.sampled_from(TRIG))
trig_trees = st.recursive(trig_leaves, _with_powers_and_calls, max_leaves=10)


def _polynomial(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda p: add(*p)),
        pairs.map(lambda p: sub(*p)),
        pairs.map(lambda p: mul(*p)),
        children.map(neg),
        st.tuples(children, st.sampled_from((2, 3))).map(lambda p: powi(*p)),
    )


# integer coefficients, so that sympy reduces exactly
polynomials = st.recursive(
    st.one_of(
        st.sampled_from(TRIG), st.just(var("x")), st.sampled_from((1.0, 2.0, -3.0)).map(const)
    ),
    _polynomial,
    max_leaves=8,
)


def _modulo_circle(e):
    """sympy's form of ``e`` with sin(U), cos(U) as symbols s, c, reduced modulo s^2 + c^2 - 1."""
    x, y, s, c = sympy.symbols("x y s c")
    expr = sympy.sympify(e.to_source().replace("^", "**"), locals={"x": x, "y": y})
    u = sympy.sympify(U.to_source(), locals={"x": x, "y": y})
    expr = expr.subs({sympy.sin(u): s, sympy.cos(u): c})
    return sympy.ratsimpmodprime(sympy.expand(expr), [s**2 + c**2 - 1], s, c, x)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(polynomials, polynomials)
def test_merge_keeps_the_value_modulo_the_circle(p, q):
    s, c = TRIG
    for e, want in (
        (add(mul(p, powi(c, 2)), mul(p, powi(s, 2))), p),
        (add(add(powi(c, 2), q), powi(s, 2)), add(q, const(1.0))),
    ):
        assert sympy.simplify(_modulo_circle(e) - _modulo_circle(want)) == 0
    # a pair of one monomial always merges
    assert add(powi(c, 2), powi(s, 2)) is const(1.0)
    assert mul(const(2.0), add(powi(c, 2), powi(s, 2))) is const(2.0)


def _plain_tape(roots):
    from gradedgeo import exprs

    run = exprs._Fold.run
    exprs._Fold.run = lambda self, code, out: (code, out)
    try:
        return exprs._Tape(tuple(roots))
    finally:
        exprs._Fold.run = run


@SETTINGS
@given(trig_trees, trig_trees, st.lists(points, min_size=1, max_size=8))
def test_folded_and_unfolded_tapes_agree(e, f, pts):
    from gradedgeo import exprs

    roots = (e, f, sub(e, f), add(mul(e, f), mul(f, e)))
    xs, ys = (np.array(col) for col in zip(*pts))
    env = {"x": xs, "y": ys}
    folded = exprs._Tape(roots).run(env)
    plain = _plain_tape(roots).run(env)
    for got, want in zip(folded, plain):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
