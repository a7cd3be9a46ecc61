"""Parser, differentiation and evaluation tests, with finite-difference and memo-walk oracles."""

import json
import math
import operator
import os
import subprocess
import sys

import numpy as np
import pytest

from gradedgeo import catalog, exprs, symmat
from gradedgeo.admissibility import VariationField, frames_for
from gradedgeo.exprs import (
    Add,
    Const,
    Div,
    EvaluationError,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sub,
    Var,
    as_written,
    call,
    const,
    derive,
    evaluate_many,
    parse,
    var,
)


def fd_derivative(e, name, env, h=1e-5):
    """Central difference with one Richardson step."""

    def diff(step):
        up = dict(env)
        dn = dict(env)
        up[name] = env[name] + step
        dn[name] = env[name] - step
        return (e.eval(up) - e.eval(dn)) / (2 * step)

    d1 = diff(h)
    d2 = diff(h / 2)
    return (4 * d2 - d1) / 3


def test_parse_eval_basics():
    assert parse("cos(theta)", ["x", "y", "theta", "k"]).eval({"theta": 0.0}) == 1.0
    assert parse("x*y + 2", ["x", "y"]).eval({"x": 3.0, "y": 4.0}) == 14.0
    e = parse("sin(x)^2 + cos(x)^2", ["x"])
    for x in (0.0, 0.3, -1.7, 11.0):
        assert abs(e.eval({"x": x}) - 1.0) <= 1e-15


def test_precedence():
    # power binds tighter than unary minus, which binds tighter than *
    assert parse("-x^2", ["x"]).eval({"x": 3.0}) == -9.0
    assert parse("2*x^3", ["x"]).eval({"x": 2.0}) == 16.0
    assert parse("6/2/3", []).eval({}) == 1.0
    assert parse("1 - 2 - 3", []).eval({}) == -4.0
    assert parse("x^-2", ["x"]).eval({"x": 2.0}) == 0.25


def test_derivative_examples():
    d = derive(parse("sin(x)", ["x"]), "x")
    assert d.eval({"x": 0.0}) == 1.0
    d2 = derive(parse("x^3", ["x"]), "x", order=2)
    assert d2.eval({"x": 2.0}) == 12.0
    # d/dx of x*cos(y) at (1, pi/2): frozen from the finite-difference oracle
    e = parse("x*cos(y)", ["x", "y"])
    d = derive(e, "x")
    env = {"x": 1.0, "y": math.pi / 2}
    oracle = fd_derivative(e, "x", env)
    assert abs(oracle) <= 1e-10
    assert abs(d.eval(env) - 0.0) <= 1e-15
    # a constant integer power differentiates through its own rule
    assert parse("x^-2", ["x"]).diff("x").eval({"x": 2.0}) == -0.25


def _random_expr(rng, names, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return const(round(float(rng.uniform(-2, 2)), 3))
        return var(str(rng.choice(names)))
    op = rng.integers(0, 6)
    if op <= 3:
        a = _random_expr(rng, names, depth - 1)
        b = _random_expr(rng, names, depth - 1)
        return [lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / (b * b + 0.5)][
            int(op)
        ]()
    if op == 4:
        a = _random_expr(rng, names, depth - 1)
        fn = str(rng.choice(["sin", "cos", "tan", "exp", "atan"]))
        if fn == "exp":
            a = a * 0.1
        return call(fn, a)
    a = _random_expr(rng, names, depth - 1)
    return call("sqrt", a * a + 1.0)


@pytest.mark.parametrize("seed", range(4))
def test_random_derivatives_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    names = ["x", "y", "z"]
    checked = 0
    while checked < 25:
        e = _random_expr(rng, names, depth=int(rng.integers(2, 6)))
        name = str(rng.choice(names))
        env = {n: float(rng.uniform(-1.2, 1.2)) for n in names}
        try:
            exact = e.diff(name).eval(env)
            approx = fd_derivative(e, name, env)
        except EvaluationError:
            continue
        if not (math.isfinite(exact) and math.isfinite(approx)):
            continue
        if abs(exact) > 1e3:
            continue  # steep spot: finite differences lose accuracy
        assert abs(exact - approx) <= 1e-6 * (1.0 + abs(exact))
        checked += 1


def test_differentiation_is_linear():
    rng = np.random.default_rng(7)
    names = ["x", "y"]
    for _ in range(20):
        e1 = _random_expr(rng, names, 3)
        e2 = _random_expr(rng, names, 3)
        a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        combo = (a * e1 + b * e2).diff("x")
        parts = a * e1.diff("x") + b * e2.diff("x")
        env = {n: float(rng.uniform(-1, 1)) for n in names}
        try:
            lhs, rhs = combo.eval(env), parts.eval(env)
        except EvaluationError:
            continue
        if math.isfinite(lhs) and math.isfinite(rhs):
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_print_parse_roundtrip():
    rng = np.random.default_rng(11)
    names = ["x", "y", "z"]
    for _ in range(40):
        e = _random_expr(rng, names, 4)
        text = e.to_source()
        back = parse(text, names)
        env = {n: float(rng.uniform(-1, 1)) for n in names}
        try:
            v1, v2 = e.eval(env), back.eval(env)
        except EvaluationError:
            continue
        if math.isfinite(v1):
            assert v1 == pytest.approx(v2, rel=0, abs=0)


def test_repr_of_a_large_shared_dag_is_short_and_quick():
    # to_source writes a shared DAG out as a tree; the repr must not, so a
    # failing assertion over a large root reports in bounded time and text
    import time

    imm = catalog.immersion("engel-graph", theta="0.37*x+0.29*y")
    resid, _ = catalog.engel_el_residual_exprs(imm)
    start = time.perf_counter()
    text = repr(resid)
    assert time.perf_counter() - start < 1.0
    assert len(text) < 200
    assert text.startswith(f"<{type(resid).__name__} of ") and " nodes: " in text
    # a small node shows its operations down to the depth limit
    assert repr(parse("x*y + 3/(x - 1)", ["x", "y"])) == (
        "<Add of 8 nodes: Add(Mul(x, y), Div(3, Sub(x, 1)))>"
    )
    assert repr(var("x")) == "<Var of 1 nodes: x>"


def test_third_order_derivative():
    e = parse("sin(2*x)", ["x"])
    d3 = derive(e, "x", order=3)
    # d^3/dx^3 sin(2x) = -8 cos(2x)
    assert d3.eval({"x": 0.4}) == pytest.approx(-8 * math.cos(0.8), rel=1e-14)
    with pytest.raises(ValueError):
        derive(e, "x", order=4)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("x + ", ["x"])
    assert err.value.position == 4
    with pytest.raises(ParseError, match="unknown variable"):
        parse("x + q", ["x"])
    with pytest.raises(ParseError, match="unknown function"):
        parse("sinn(x)", ["x"])
    with pytest.raises(ParseError, match="integer"):
        parse("x^2.5", ["x"])
    with pytest.raises(ParseError):
        parse("x + $", ["x"])


def test_domain_errors_raise_on_scalars():
    e = parse("log(x)", ["x"])
    with pytest.raises(EvaluationError):
        e.eval({"x": -1.0})
    with pytest.raises(EvaluationError):
        parse("1/x", ["x"]).eval({"x": 0.0})
    with pytest.raises(EvaluationError):
        parse("x", ["x"]).eval({})
    # the derivative of x/0 keeps its constant-zero denominator (0/0), so it
    # is refused when its tape is compiled instead of folding to 0
    with pytest.raises(EvaluationError, match=r"division by zero in 0/0"):
        parse("x/0", ["x"]).diff("x").eval({"x": 1.0})


def test_as_written_keeps_a_zero_denominator():
    # neither the 0 / a nor the a / a identity folds a constant-zero denominator
    for a in (var("x"), const(0.0)):
        with pytest.raises(EvaluationError, match="division by zero"):
            as_written(Div, a, const(0.0)).eval({"x": 1.0})


def test_array_evaluation_broadcasts():
    e = parse("x^2 + y", ["x", "y"])
    xs = np.array([1.0, 2.0, 3.0])
    out = e.eval({"x": xs, "y": 1.0})
    assert np.allclose(out, [2.0, 5.0, 10.0])


def test_substitute_composes():
    e = parse("sin(u) + u^2", ["u"])
    inner = parse("x*y", ["x", "y"])
    composed = e.substitute({"u": inner})
    assert composed.eval({"x": 0.5, "y": 0.8}) == pytest.approx(
        math.sin(0.4) + 0.16, rel=1e-15
    )


def test_shared_subtrees_are_interned():
    a = parse("sin(x) + cos(y)", ["x", "y"])
    b = parse("sin(x) + cos(y)", ["x", "y"])
    assert a is b


def test_evaluate_many_shares_work():
    e1 = parse("sin(x)*cos(x)", ["x"])
    e2 = parse("sin(x) + cos(x)", ["x"])
    v1, v2 = evaluate_many([e1, e2], {"x": 0.3})
    assert v1 == pytest.approx(math.sin(0.3) * math.cos(0.3))
    assert v2 == pytest.approx(math.sin(0.3) + math.cos(0.3))


def test_every_root_is_a_fresh_array_of_the_env_shape():
    x = np.linspace(0.0, 1.0, 5)
    env = {"x": x, "y": 2.0}
    c, v, w, s = evaluate_many([const(2.0), var("x"), var("y"), var("x") * var("y")], env)
    for value in (c, v, w, s):
        assert isinstance(value, np.ndarray) and value.shape == (5,)
    assert v is not x and not np.shares_memory(v, x)
    assert np.array_equal(c, np.full(5, 2.0)) and np.array_equal(v, x)
    assert np.array_equal(w, np.full(5, 2.0))
    assert const(2.0).eval({"x": x}).shape == (5,)  # no variable read, the env's shape
    assert const(2.0).eval({"x": 0.5}) == 2.0 and type(var("x").eval({"x": 0.5})) is float


def test_eval_is_the_first_row_of_evaluate_many():
    # Expr.eval runs the grid el-residual step of the benchmark's grid workload
    xs = np.linspace(-0.9, 0.9, 11)
    env = {"x": xs, "y": xs[::-1] * 0.5}
    for e in (parse("sin(x*y) + x/(y + 2) - exp(-x)^3", ["x", "y"]), const(2.0), var("y")):
        got = e.eval(env)
        assert got.shape == (11,)
        assert got.tobytes() == evaluate_many((e,), env)[0].tobytes()


def _variables_by_walk(e):
    """Reference: collect Var names over the whole sub-DAG."""
    names, stack, seen = set(), [e], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if isinstance(node, Var):
                names.add(node.name)
            stack.extend(node._args())
    return frozenset(names)


def test_variables_bottom_up_matches_walk():
    x, y, z = var("x"), var("y"), var("z")
    chain = x
    for k in range(5000):  # deeper than the recursion limit
        chain = chain * const(1.0 + k) + call("sin", chain)
    mixed = chain * y + call("exp", z * y)
    for e in (chain, mixed, mixed.diff("y"), const(2.0), y):
        assert e.variables() == _variables_by_walk(e)
    assert chain.variables() == {"x"}
    assert mixed.variables() == {"x", "y", "z"}
    # a child's set that already covers the union is shared, not copied
    assert (chain * x).variables() is chain.variables()
    # the tape's loads name the same variables
    assert exprs.variables_each([chain, const(2.0)]) == [{"x"}, frozenset()]
    assert exprs.variables_each([chain, mixed.diff("y")]) == [
        {"x"}, _variables_by_walk(mixed.diff("y"))
    ]


# -- the compiled tape against the memo walk it replaced ------------------------

_REF_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}


def _reference_evaluate(roots, env, folds=()):
    """Reference: the per-node memo walk, one value per node kept to the end.

    Scalar bindings are evaluated with numpy too: evaluation has one semantics.
    ``folds`` are a tape's certified folds ``(node, kind, other)``: the walk
    takes such a node as 0, as ``other`` or as ``-other``, as the tape does.
    """
    folded = {id(node): (kind, other) for node, kind, other in folds}

    def args(node):
        fold = folded.get(id(node))
        if fold is None:
            return node._args()
        return () if fold[0] == "zero" else (fold[1],)

    memo = {}
    for root in roots:
        stack = [root]
        while stack:
            node = stack[-1]
            if id(node) in memo:
                stack.pop()
                continue
            pending = [c for c in args(node) if id(c) not in memo]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            vals = [memo[id(c)] for c in args(node)]
            fold = folded.get(id(node))
            with np.errstate(all="ignore"):
                if fold is not None:
                    kind = fold[0]
                    value = 0.0 if kind == "zero" else vals[0] if kind == "alias" else -vals[0]
                elif isinstance(node, Const):
                    value = node.value
                elif isinstance(node, Var):
                    value = np.asarray(env[node.name], dtype=float)
                elif type(node) in _REF_OPS:
                    value = _REF_OPS[type(node)](*vals)
                elif isinstance(node, Neg):
                    value = -vals[0]
                elif isinstance(node, Pow):
                    value = np.power(vals[0], node.k)
                else:
                    value = exprs._NP_FUNCS[node.fn](vals[0])
            memo[id(node)] = value
    return [memo[id(e)] for e in roots]


def _is_values_array(values, shape) -> bool:
    """Whether ``values`` is one fresh C-contiguous float64 array of ``shape``, row i root i."""
    return (
        type(values) is np.ndarray
        and values.shape == shape
        and values.dtype == np.float64
        and values.flags.c_contiguous
        and values.flags.owndata
    )


def _same_bytes(got, want):
    return len(got) == len(want) and all(
        np.asarray(g, dtype=float).tobytes() == np.asarray(w, dtype=float).tobytes()
        for g, w in zip(got, want)
    )


@pytest.fixture(scope="module")
def catalog_roots():
    """EL residual, first-variation integrand and mean-curvature triples."""
    eg = catalog.immersion("engel-graph", theta="0.2*x+0.3*y")
    resid, _ = catalog.engel_el_residual_exprs(eg)
    fr = frames_for(eg)
    field = VariationField.from_json(
        json.dumps({"frame": "normal", "components": ["0", "(16*x*(1-x)*y*(1-y))^2"]}),
        eg.params,
    )
    integrand = (
        (fr.div_degree_d_expr(field, 4) + fr.f_linear_expr(field, 4)) / fr.theta(4)
        * fr.sqrt_detmu
    )
    rt = catalog.immersion("rt-graph", u="0.3*x+0.2*y^2")
    triples = [e for tri in frames_for(rt).mean_curvature_exprs(3) for e in tri]
    return {"el": ((resid,), eg), "fv": ((integrand,), eg), "mc": (tuple(triples), rt)}


@pytest.mark.parametrize("case", ["el", "fv", "mc"])
def test_tape_matches_memo_walk_bit_for_bit(catalog_roots, case):
    roots, imm = catalog_roots[case]
    rng = np.random.default_rng(3)
    lo, hi = zip(*imm.domain)
    pts = rng.uniform(lo, hi, size=(97, len(lo)))
    p, q = imm.params[:2]
    envs = {
        "array": {p: pts[:, 0], q: pts[:, 1]},
        "scalar": {p: float(pts[5, 0]), q: float(pts[5, 1])},
        "mixed": {p: pts[:, 0], q: float(pts[5, 1])},
    }
    folds = exprs._tape(roots).folds
    for label, env in envs.items():
        got = evaluate_many(roots, env)
        assert _same_bytes(got, _reference_evaluate(roots, env, folds)), label
        if label == "scalar":  # np.float64 bindings: the same values as floats
            env64 = dict(zip(imm.params, pts[5]))
            assert _same_bytes(evaluate_many(roots, env64), got)


def test_mixed_bindings_keep_numpy_calls_on_scalar_nodes():
    # exp, log, tan and atan of a scalar-bound variable: the memo walk used
    # numpy's functions there, which may differ from math's in the last bit
    e = parse("x*exp(y) + log(y) - tan(y)*atan(y) + x^2*y^3", ["x", "y"])
    xs = np.linspace(-1.0, 1.0, 7)
    for y in np.random.default_rng(5).uniform(0.1, 1.4, 200):
        env = {"x": xs, "y": float(y)}
        assert _same_bytes(evaluate_many([e], env), _reference_evaluate([e], env))


def test_results_survive_later_calls(catalog_roots):
    roots, imm = catalog_roots["mc"]
    pts = np.random.default_rng(4).uniform(*zip(*imm.domain), size=(33, 2))
    env1 = {"x": pts[:, 0], "y": pts[:, 1]}
    first = evaluate_many(roots, env1)
    kept = np.array(first, copy=True)
    later = [
        evaluate_many(roots, {"x": pts[::-1, 0], "y": pts[::-1, 1]}),
        evaluate_many(roots, {"x": pts[:, 1], "y": 0.25}),
    ]
    assert _same_bytes(first, kept)
    # one fresh (roots, points) array per call, sharing no memory with another call's
    assert all(_is_values_array(values, (len(roots), 33)) for values in (first, *later))
    assert not any(np.shares_memory(first, values) for values in later)


def test_tape_cache_is_bounded_and_hit_by_rebuilt_roots():
    src = "sin(x)*y + (x - y)^3/(1 + y^2)"
    e = parse(src, ["x", "y"])
    tape = exprs._tape((e,))
    assert exprs._tape((parse(src, ["x", "y"]),)) is tape
    for k in range(exprs.TAPE_CACHE_SIZE + 10):
        evaluate_many([e * const(2.0 + k)], {"x": 0.5, "y": 0.25})
        assert len(exprs._TAPES) <= exprs.TAPE_CACHE_SIZE
    assert (id(e),) not in exprs._TAPES  # least recently used, evicted


def test_array_buffers_are_recycled():
    x = var("x")
    chain = x
    for k in range(300):
        chain = call("sin", chain * const(2.0 + k)) + x
    tape = exprs._tape((chain,))
    xs = np.linspace(0.0, 1.0, 16)
    (got,) = evaluate_many([chain], {"x": xs})
    assert len(tape.code) == 900 and tape.nbufs <= 3
    assert _same_bytes([got], _reference_evaluate([chain], {"x": xs}))


def test_work_rows_start_on_a_cache_line():
    x, y = var("x"), var("y")
    tape = exprs._Tape((call("sin", x * y) + x / (y + const(2.0)),))
    offsets = []

    def spy(fn):
        def run(*args, out):
            offsets.append(out.ctypes.data % 64)
            return fn(*args, out=out)
        return run

    rows = len(tape.out)  # buffers from here on are rows of the work array
    assert any(o >= rows for *_, o in tape.code)  # the sum's operands live in work rows
    tape.code = [(spy(fn) if o >= rows else fn, a, b, dst, o) for fn, a, b, dst, o in tape.code]
    xs = np.linspace(0.0, 1.0, exprs.BLOCK_POINTS + 3)
    for _ in range(8):  # where malloc puts the array varies from call to call
        tape.run({"x": xs, "y": xs[::-1]})
    assert offsets and set(offsets) == {0}


@pytest.mark.parametrize("size", [0, 1, exprs.BLOCK_POINTS, exprs.BLOCK_POINTS + 3])
def test_blocked_run_matches_memo_walk(size):
    x, y = var("x"), var("y")
    e = call("sin", x * y) + x / (y + const(2.0)) - exprs.powi(call("exp", -x), 3)
    roots = (e, e, const(3.0), x, e * y, y)  # duplicate, constant and variable roots
    rng = np.random.default_rng(size)
    xs, ys = rng.uniform(-2.0, 2.0, size), rng.uniform(-1.0, 1.0, size)
    envs = {
        "arrays": {"x": xs, "y": ys},
        "strided": {"x": np.stack([xs, ys], axis=-1)[:, 0], "y": ys},
        "mixed": {"x": xs, "y": 0.75},
        "2-d": {"x": xs[:, None], "y": np.array([-0.5, 0.25, 1.0])},
    }
    for label, env in envs.items():
        shape = np.broadcast_shapes(*(np.shape(v) for v in env.values()))
        got = evaluate_many(roots, env)
        want = [np.broadcast_to(w, shape) for w in _reference_evaluate(roots, env)]
        assert _is_values_array(got, (len(roots), *shape)), label
        assert _same_bytes(got, want), label
        assert got[0].tobytes() == got[1].tobytes(), label  # the duplicate root's row
        assert not np.shares_memory(evaluate_many(roots, env), got), label
    # a batch of one is a one-point block on the same loop
    if size:
        point = {"x": float(xs[-1]), "y": float(ys[-1])}
        values = evaluate_many(roots, point)
        assert all(type(v) is float for v in values)
        assert _same_bytes(values, [g[-1] for g in evaluate_many(roots, envs["arrays"])])


def test_scalar_overflow_is_an_evaluation_error():
    with pytest.raises(EvaluationError, match="overflow in exp"):
        parse("exp(x)", ["x"]).eval({"x": 1000.0})
    with pytest.raises(EvaluationError, match="overflow"):
        parse("x^400", ["x"]).eval({"x": 10.0})


def test_point_refusal_prints_the_operand_of_a_row_reused_in_place():
    # on an array, log writes into the row of x - 1, whose last use it is; a
    # batch of one must still print the operand that log read
    with pytest.raises(EvaluationError, match=r"domain error in log\(-1\.0\)"):
        parse("2*log(x - 1)", ["x"]).eval({"x": 0.0})
    with pytest.raises(EvaluationError, match=r"domain error in sqrt\(-0\.5\)"):
        evaluate_many([parse("sqrt(x - 1) + y", ["x", "y"])], {"x": 0.5, "y": 1.0})


def test_numpy_scalar_bindings_are_refused_like_floats():
    imm = catalog.immersion("rt-graph", u="x")
    env = dict(zip(imm.params, np.array([0.0, 0.5])))  # binds np.float64
    with pytest.raises(EvaluationError, match="division by zero"):
        evaluate_many([parse("1/x", imm.params)], env)
    with pytest.raises(EvaluationError, match=r"domain error in log\(-1\.0\)"):
        parse("log(x - 1)", ["x"]).eval({"x": np.float64(0.0)})
    (value,) = evaluate_many([parse("x + y", imm.params)], env)
    assert type(value) is float and value == 0.5


# -- normal forms ----------------------------------------------------------------


def test_cancelling_products_fold_to_zero():
    t = var("t")
    s, c = call("sin", t), call("cos", t)
    assert s * c + c * -s is const(0.0)
    a, b, d, e = var("a"), var("b"), var("D"), var("E")
    # products of adjugate-inverse entries that cancel as monomials
    assert a / d * (-(b / d)) / e + b / d * (a / d) / e is const(0.0)
    assert exprs.sub(s * c, c * s) is const(0.0)


def test_factors_commute_and_like_terms_merge():
    a, b = var("a"), var("b")
    assert a * b is b * a
    assert a * b * a is a * (b * a)
    assert (a + b) + a is const(2.0) * a + b
    assert a * a is exprs.powi(a, 2)
    assert const(0.5) * (a + a - a) - const(0.5) * a is const(0.0)


def test_add_all_is_the_left_fold():
    # past FORM_CAP the fold makes partial sums atoms; cancelling, constant
    # and zero items on the way.  dot, ematvec and emat_mul are the same
    # fold over the products, constant factors (0, 1, -1, 1.5) among them.
    rng = np.random.default_rng(11)
    factor_rng = np.random.default_rng(12)
    x, y = var("x"), var("y")
    for n in (0, 1, 2, 17, 40):
        items = [_random_expr(rng, ["x", "y"], 2) for _ in range(n)]
        items += [x * y, -(y * x), const(0.0), const(1.5), x / y, -(x / y)]
        items += [const(float(k)) * call("sin", x * k) for k in range(1, 20)]
        rng.shuffle(items)
        fold = const(0.0)
        for e in items:
            fold = fold + e
        assert exprs.add_all(items) is fold

        factors = [const(c) for c in (0.0, 1.0, -1.0, 1.5)]
        factors += [_random_expr(factor_rng, ["x", "y"], 2) for _ in range(len(items) - 4)]
        factor_rng.shuffle(factors)
        fold = const(0.0)
        for e, f in zip(items, factors):
            fold = fold + e * f
        assert exprs.dot(items, factors) is fold
        assert exprs.dot(factors, items) is fold

        # a matrix of the items with a zero row entry, its transpose and a vector
        k = 5
        A = [items[i : i + k] for i in range(0, len(items) - k + 1, k)]
        A[0][1] = const(0.0)
        B = symmat.etranspose(A)
        vec = factors[:k]
        rows = []
        for row in A:
            fold = const(0.0)
            for a, v in zip(row, vec):
                fold = fold + a * v
            rows.append(fold)
        got = symmat.ematvec(A, vec)
        assert len(got) == len(rows) and all(map(operator.is_, got, rows))
        product = symmat.emat_mul(A, B)
        for i, row in enumerate(A):
            for j in range(len(A)):
                fold = const(0.0)
                for a, b in zip(row, B):
                    fold = fold + a * b[j]
                assert product[i][j] is fold


def test_negative_numbers_get_distinct_keys():
    # hash(-1) == hash(-2) in CPython: keys built from such numbers would tie,
    # and tied atoms would keep their argument order
    x, d = var("x"), var("D")
    assert const(-1.0)._key != const(-2.0)._key
    p1, p2 = exprs.powi(x, -1), exprs.powi(x, -2)
    assert p1._key != p2._key
    assert exprs.mul(p1, p2) is exprs.mul(p2, p1)
    q1, q2 = x / d, x / exprs.powi(d, 2)
    assert q1._key != q2._key
    assert q1 * q2 is q2 * q1
    assert (x - d)._key != (x - const(2.0) * d)._key


def test_numerator_never_cancels_a_denominator():
    x, y = var("x"), var("y")
    q = (x * y) / y
    assert isinstance(q, Div) and q is (y * x) / y
    assert q is not x
    with pytest.raises(EvaluationError, match="division by zero"):
        q.eval({"x": 1.0, "y": 0.0})  # the singularity at y = 0 is kept


def test_sin_squared_plus_cos_squared_is_one():
    u = const(0.37) * var("x") + var("y")
    s, c = call("sin", u), call("cos", u)
    x, d = var("x"), var("D")
    assert exprs.add(exprs.powi(c, 2), exprs.powi(s, 2)) is const(1.0)
    assert x * c * c + s * x * s is x
    assert const(3.0) * c * c - const(2.0) + const(3.0) * s * s is const(1.0)
    assert c * c / d + s * s / d is const(1.0) / d
    assert exprs.add_all([c * c, x, s * s]) is x + const(1.0)
    # only equal coefficients of one argument merge
    assert isinstance(const(2.0) * c * c + s * s, Add)
    assert isinstance(c * c + exprs.powi(call("sin", x), 2), Add)
    # the adjugate inverse of a rotation divides by nothing
    inverse = symmat.einverse([[c, -s], [s, c]])
    assert inverse == [[c, s], [-s, c]]


def test_differently_paired_products_compile_to_no_instructions():
    u, d = var("u"), var("D")
    s, c = call("sin", u), call("cos", u)
    e = c * (s / d) - s * (c / d)
    assert isinstance(e, Sub)  # each product keeps its pairing in the normal form
    tape = exprs._Tape((e,))
    # the root folds to the constant 0, which one copy writes into its row
    ((fn, a, b, _, _),) = tape.code
    assert fn is np.positive and b < 0 and tape.init[a] == 0.0 and type(tape.init[a]) is np.float64
    assert tape.uncertified == 0
    (got,) = evaluate_many([e], {"u": np.linspace(0.0, 3.0, 7), "D": 0.7})
    assert got.tolist() == [0.0] * 7


def _unfolded_tape(monkeypatch, roots):
    """The tape of ``roots`` compiled without the fold pass (not cached)."""
    with monkeypatch.context() as m:
        m.setattr(exprs._Fold, "run", lambda self, code, out: (code, out))
        return exprs._Tape(tuple(roots))


def test_a_rounding_residue_is_not_folded(monkeypatch):
    x = var("x")
    e = const(0.1) * x * const(3.0) - const(0.3) * x  # (0.1*3 - 0.3) x, 2^-54 x in floats
    assert e is not const(0.0)
    tape = exprs._Tape((e,))
    assert tape.folds == [] and tape.uncertified == 0
    env = {"x": np.linspace(-2.0, 2.0, 9)}
    (got,) = tape.run(env)
    (plain,) = _unfolded_tape(monkeypatch, (e,)).run(env)
    assert got.tobytes() == plain.tobytes() and np.count_nonzero(got) == 8


def test_grid_tapes_fold_certified_zeros_and_duplicates(catalog_roots, monkeypatch):
    rng = np.random.default_rng(8)
    for case in ("el", "fv"):
        roots, imm = catalog_roots[case]
        tape = exprs._tape(roots)
        plain = _unfolded_tape(monkeypatch, roots)
        kinds = sorted({kind for _, kind, _ in tape.folds})
        assert kinds == ["alias", "neg", "zero"]
        assert len(tape.code) < 0.95 * len(plain.code), (len(tape.code), len(plain.code))
        pts = rng.uniform(*zip(*imm.domain), size=(64, 2))
        env = dict(zip(imm.params, pts.T))
        for got, want in zip(tape.run(env), plain.run(env)):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * np.abs(want).max())


def test_node_class_is_the_class_of_its_layout():
    # a node built from its form gets its class before its operands exist
    rng = np.random.default_rng(5)
    for _ in range(40):
        stack = [_random_expr(rng, ["x", "y"], 4).diff("x")]
        while stack:
            node = stack.pop()
            if node._form is not None:
                assert type(node) is exprs._layout(node._form)[0]
            stack.extend(node._args())


_BUILD = """
import sys
import numpy as np
from gradedgeo import catalog, exprs, symmat
from gradedgeo.admissibility import frames_for
from gradedgeo.exprs import call, parse, var

def mean_curvature():
    rt = catalog.immersion("rt-graph", u="0.3*x+0.2*y^2")
    return [e for tri in frames_for(rt).mean_curvature_exprs(3) for e in tri]

def sums():
    x, y = var("x"), var("y")
    e = parse("sin(x)*y - 2*x*y/(1 + y^2) + 0.5*(x - y)^2", ["x", "y"])
    return [e.diff("x").diff("y"), e * call("cos", x + y) - e, e.diff("x") + e.diff("y")]

def listing(roots):
    # the DAG in post order, children by position: to_source without repetition
    index, lines = {}, []
    for root in roots:
        stack = [root]
        while stack:
            n = stack[-1]
            pending = [c for c in n._args() if c not in index]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            if n not in index:
                index[n] = len(lines)
                label = n.to_source() if not n._args() else type(n).__name__
                extra = getattr(n, "fn", getattr(n, "k", ""))
                lines.append(f"{label} {extra} {[index[c] for c in n._args()]}")
    return lines + [str(index[r]) for r in roots]

parts = {"mc": mean_curvature, "sums": sums}
built = {name: parts[name]() for name in sys.argv[1].split(",")}
roots = built["mc"] + built["sums"]
print(*(e.to_source() for e in built["sums"]))
print(*listing(roots))
env = {"x": 0.3 + 0.05 * np.arange(7), "y": 0.7 - 0.03 * np.arange(7)}
print(*(v.tobytes().hex() for v in exprs.evaluate_many(roots, env)))
"""


def test_nodes_do_not_depend_on_construction_order_or_hash_seed():
    outputs = []
    for order, seed in (("mc,sums", "0"), ("sums,mc", "1")):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(exprs.__file__).rsplit(os.sep, 1)[0], env.get("PYTHONPATH", "")]
        )
        outputs.append(subprocess.run(
            [sys.executable, "-c", _BUILD, order], env=env, capture_output=True, text=True,
            check=True,
        ).stdout)
    assert outputs[0] and outputs[0] == outputs[1]
