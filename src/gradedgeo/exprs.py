"""Differentiable expression trees over named coordinates.

Expressions are immutable and hash-consed: the constructors keep every sum
and product in a bounded normal form and intern nodes by it (see "Smart
constructors"), so equal forms are the same object, and evaluation and
differentiation caches are shared across everything built in a session.
Derivatives are exact (no finite differences) and closed under the node
set; the only power operator allowed is ``base^k`` with a constant integer
exponent, which keeps differentiation closed and avoids branch cuts.

Evaluation accepts scalar or numpy-array variable bindings and runs a
compiled tape of numpy ufuncs, cached per tuple of roots, from which the
registers an exact certificate proves 0 or +-a register below them are
folded; it has one semantics.  Array evaluation lets non-finite values
propagate and keeps only live values in memory.  Scalar bindings alone are a batch of one through the
same ufuncs, so a point's value equals its value on a grid bit for bit, and
it raises :class:`EvaluationError` on domain errors (log of a negative
number), division by zero and overflow.
"""

from __future__ import annotations

import bisect
import math
import operator
import random
import weakref

import numpy as np

__all__ = [
    "Expr",
    "Const",
    "Var",
    "ExprError",
    "ParseError",
    "EvaluationError",
    "parse",
    "derive",
    "const",
    "var",
    "add",
    "add_all",
    "dot",
    "sub",
    "mul",
    "div",
    "neg",
    "powi",
    "call",
    "as_written",
    "evaluate_many",
    "evaluate_at",
    "variables_each",
    "FUNCTION_NAMES",
]

FUNCTION_NAMES = ("sin", "cos", "tan", "exp", "log", "sqrt", "atan")

_MATH_FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "atan": math.atan,
}

_NP_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "atan": np.arctan,
}


class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationError(ExprError):
    pass


# key -> weak reference to the node: a node lives while something uses it
_POOL: "dict[tuple, weakref.KeyedRef]" = {}


def _drop(ref, pool=_POOL) -> None:
    if pool.get(ref.key) is ref:  # not yet replaced by a newer node
        del pool[ref.key]


def _interned(key, factory):
    ref = _POOL.get(key)
    node = None if ref is None else ref()
    if node is None:
        node = factory()
        _POOL[key] = weakref.KeyedRef(node, _drop, key)
    return node


def _set_key(node, *content) -> None:
    """Give a node built from its operands its structural key; it has no normal form.

    The key hashes a tuple of ints and floats: the node's kind and its
    children's keys, or its value, a variable's code points or a function's
    index.  Such hashes do not depend on ``PYTHONHASHSEED`` (only ``str`` and
    ``bytes`` hashes are salted) nor on ``id()``, so every order derived from
    keys is the same in every process and for every construction history.
    A signed number enters as its sign and its magnitude (``_signed``):
    ``hash(-1) == hash(-2)``, so -1 itself must never be hashed.
    """
    node._key = hash(content)
    node._form = None
    node._vars = None
    node._dmemo = None


def _signed(x) -> tuple:
    """A number as (sign, magnitude), whose hash is one-to-one for small ints (see ``_set_key``)."""
    return x < 0, abs(x)


class Expr:
    """Base node.  Use the module-level constructors, not the classes."""

    # ``_key``: a structural hash of the node's content (see ``_set_key``);
    # ``_form``: the normal form of a node built from one, ``None`` for an atom
    __slots__ = ("_dmemo", "_vars", "_key", "_form", "__weakref__")
    precedence = 5

    # -- structure ---------------------------------------------------------

    def __getattr__(self, name):
        # a slot still unset: the key or the operands of a node built from
        # its normal form, made on first use
        form = self._form
        if form is not None:
            if name == "_key":
                self._key = hash((10, *[(*_signed(c), mono[2]) for mono, c in form]))
                return self._key
            if name in ("a", "b", "k"):
                _expand(self)
                return object.__getattribute__(self, name)
        raise AttributeError(name)

    def _args(self) -> tuple:
        return ()

    def variables(self) -> frozenset[str]:
        """Variable names in the sub-DAG, cached on every node it visits.

        Built bottom-up (iterative post-order) from the children's cached
        sets, so each node is visited once over all calls; a child's set is
        reused as-is when it already covers the union.  A node built from its
        normal form reads the atoms of the form, so its children are not made.
        """
        stack = [self]
        while stack:
            node = stack[-1]
            if node._vars is not None:
                stack.pop()
                continue
            form = node._form
            args = node._args() if form is None else [
                atom for (num, den, _), _ in form for atom, _ in (*num, *den)
            ]
            pending = [c for c in args if c._vars is None]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            if isinstance(node, Var):
                names = frozenset((node.name,))
            else:
                names = frozenset()
                for child in args:
                    if not child._vars <= names:
                        names = child._vars if names <= child._vars else names | child._vars
            object.__setattr__(node, "_vars", names)
        return self._vars

    # -- calculus ----------------------------------------------------------

    def diff(self, name: str) -> "Expr":
        memo = getattr(self, "_dmemo", None)
        if memo is None:
            memo = {}
            object.__setattr__(self, "_dmemo", memo)
        got = memo.get(name)
        if got is None:
            if name not in self.variables():
                got = _ZERO
            else:
                got = (self._form is not None and _form_d(self._form, name)) or self._d(name)
            memo[name] = got
        return got

    def _d(self, name: str) -> "Expr":
        raise NotImplementedError

    def substitute(self, mapping: dict[str, "Expr"], written: bool = False) -> "Expr":
        """The expression with variables replaced by expressions of ``mapping``.

        Every operation is rebuilt by its smart constructor, or with
        ``written`` by ``as_written``, so that the result evaluates as this
        expression at the values of the substituted ones, bit for bit.
        """
        memo: dict[int, Expr] = {}

        def rec(node: Expr) -> Expr:
            got = memo.get(id(node))
            if got is None:
                got = node._subst(mapping, rec, written)
                memo[id(node)] = got
            return got

        return rec(self)

    def _subst(self, mapping, rec, written) -> "Expr":
        raise NotImplementedError

    # -- evaluation ----------------------------------------------------------

    def eval(self, env):
        return evaluate_many((self,), env)[0]

    # -- printing ------------------------------------------------------------

    def to_source(self) -> str:
        raise NotImplementedError

    def _wrapped(self, child: "Expr") -> str:
        text = child.to_source()
        if child.precedence < self.precedence:
            return f"({text})"
        return text

    def __repr__(self):
        # bounded, unlike ``to_source``, which writes a shared DAG out as a tree:
        # the node count and a depth-limited head
        seen, stack = {id(self)}, [self]
        while stack:
            for child in stack.pop()._args():
                if id(child) not in seen:
                    seen.add(id(child))
                    stack.append(child)
        return f"<{type(self).__name__} of {len(seen)} nodes: {_head(self, 3)}>"

    # -- operator sugar --------------------------------------------------------

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, k):
        return powi(self, k)


def _head(node: Expr, depth: int) -> str:
    """``node`` down to ``depth`` operations, each as its class (or function) and operands."""
    args = node._args()
    if not args or depth == 0:
        return "..." if args else node.to_source()
    inner = ", ".join(_head(child, depth - 1) for child in args)
    return f"{getattr(node, 'fn', type(node).__name__)}({inner})"


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, np.integer, np.floating)):
        return const(float(value))
    raise TypeError(f"cannot use {type(value).__name__} in an expression")


class Const(Expr):
    __slots__ = ("value",)
    precedence = 5

    def __init__(self, value: float):
        object.__setattr__(self, "value", value)
        _set_key(self, 0, *_signed(value))

    def _subst(self, mapping, rec, written):
        return self

    def to_source(self):
        if self.value == int(self.value) and abs(self.value) < 1e16:
            return repr(int(self.value))
        return repr(self.value)


class Var(Expr):
    __slots__ = ("name",)
    precedence = 5

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)
        _set_key(self, 1, *map(ord, name))

    def _d(self, name):
        return _ONE if name == self.name else _ZERO

    def _subst(self, mapping, rec, written):
        return mapping.get(self.name, self)

    def to_source(self):
        return self.name


class _Binary(Expr):
    __slots__ = ("a", "b")
    tag = 0

    def __init__(self, a: Expr, b: Expr):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        _set_key(self, self.tag, a._key, b._key)

    def _args(self):
        return (self.a, self.b)

    def _subst(self, mapping, rec, written):
        a, b = rec(self.a), rec(self.b)
        return as_written(type(self), a, b) if written else _CONSTRUCTORS[type(self)](a, b)


class Add(_Binary):
    __slots__ = ()
    tag = 3
    precedence = 1

    def _d(self, name):
        return add(self.a.diff(name), self.b.diff(name))

    def to_source(self):
        # parenthesize a same-precedence right operand so reparsing rebuilds
        # the identical tree (float addition is not associative)
        text_b = self.b.to_source()
        if self.b.precedence <= self.precedence:
            text_b = f"({text_b})"
        return f"{self._wrapped(self.a)} + {text_b}"


class Sub(_Binary):
    __slots__ = ()
    tag = 4
    precedence = 1

    def _d(self, name):
        return sub(self.a.diff(name), self.b.diff(name))

    def to_source(self):
        text_b = self.b.to_source()
        if self.b.precedence <= self.precedence:
            text_b = f"({text_b})"
        return f"{self._wrapped(self.a)} - {text_b}"


class Mul(_Binary):
    __slots__ = ()
    tag = 5
    precedence = 2

    def _d(self, name):
        return add(mul(self.a.diff(name), self.b), mul(self.a, self.b.diff(name)))

    def to_source(self):
        text_b = self.b.to_source()
        if self.b.precedence <= self.precedence:
            text_b = f"({text_b})"
        return f"{self._wrapped(self.a)}*{text_b}"


class Div(_Binary):
    __slots__ = ()
    tag = 6
    precedence = 2

    def _d(self, name):
        da, db = self.a.diff(name), self.b.diff(name)
        return div(sub(mul(da, self.b), mul(self.a, db)), powi(self.b, 2))

    def to_source(self):
        text_b = self.b.to_source()
        if self.b.precedence <= self.precedence:
            text_b = f"({text_b})"
        return f"{self._wrapped(self.a)}/{text_b}"


class Neg(Expr):
    __slots__ = ("a",)
    precedence = 3
    tag = 7

    def __init__(self, a: Expr):
        object.__setattr__(self, "a", a)
        _set_key(self, 7, a._key)

    def _args(self):
        return (self.a,)

    def _d(self, name):
        return neg(self.a.diff(name))

    def _subst(self, mapping, rec, written):
        return as_written(Neg, rec(self.a)) if written else neg(rec(self.a))

    def to_source(self):
        return f"-{self._wrapped(self.a)}"


class Pow(Expr):
    __slots__ = ("a", "k")
    precedence = 4
    tag = 8

    def __init__(self, a: Expr, k: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "k", k)
        _set_key(self, 8, a._key, *_signed(k))

    def _args(self):
        return (self.a,)

    def _d(self, name):
        return mul(mul(const(float(self.k)), powi(self.a, self.k - 1)), self.a.diff(name))

    def _subst(self, mapping, rec, written):
        return as_written(Pow, rec(self.a), self.k) if written else powi(rec(self.a), self.k)

    def to_source(self):
        base = self.a.to_source()
        if self.a.precedence <= self.precedence:
            base = f"({base})"
        return f"{base}^{self.k}"


class Call(Expr):
    __slots__ = ("fn", "a")
    precedence = 5

    def __init__(self, fn: str, a: Expr):
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "a", a)
        _set_key(self, 9, FUNCTION_NAMES.index(fn), a._key)

    def _args(self):
        return (self.a,)

    def _d(self, name):
        da = self.a.diff(name)
        x = self.a
        fn = self.fn
        if fn == "sin":
            outer = call("cos", x)
        elif fn == "cos":
            outer = neg(call("sin", x))
        elif fn == "tan":
            outer = add(_ONE, powi(call("tan", x), 2))
        elif fn == "exp":
            outer = self
        elif fn == "log":
            outer = div(_ONE, x)
        elif fn == "sqrt":
            outer = div(_ONE, mul(_TWO, self))
        elif fn == "atan":
            outer = div(_ONE, add(_ONE, powi(x, 2)))
        else:  # pragma: no cover
            raise ExprError(f"no derivative rule for {fn}")
        return mul(outer, da)

    def _subst(self, mapping, rec, written):
        return call(self.fn, rec(self.a))

    def to_source(self):
        return f"{self.fn}({self.a.to_source()})"


_ZERO = None  # type: ignore[assignment]
_ONE = None  # type: ignore[assignment]
_TWO = None  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# Smart constructors (constant folding + normal forms + interning)
# ---------------------------------------------------------------------------
#
# Every node that ``add``, ``sub``, ``mul``, ``div``, ``neg`` and ``powi``
# return has a bounded normal form, and nodes are interned by that form:
# value numbering modulo the commutative-ring laws (Alpern, Wegman & Zadeck,
# POPL 1988), with the coefficient map of sympy's ``Add.flatten``.
#
# * A form is a linear combination: a map from monomials to nonzero float
#   coefficients, at most ``FORM_CAP`` terms.  A monomial is a product of at
#   most ``FACTOR_CAP`` atoms with positive integer exponents, numerator and
#   denominator kept apart; the empty monomial holds the constant term.
# * Atoms are variables, calls, negative powers, and any sum or quotient
#   used as a factor (without its coefficient; a sum also without its sign
#   and common magnitude).  A product that would have more atoms keeps its
#   two factors whole, as atoms; a sum that would have more terms is built
#   as a binary node, an atom of every form that uses it.
# * What merges: like terms add and cancel (``sin(t)*cos(t) +
#   cos(t)*-sin(t)`` is 0), factors commute (``a*b`` is ``b*a``), powers of
#   one atom collect (``x*x`` is ``x^2``), signs and constants scale every
#   term, a quotient's coefficient moves out (``-(b/D)`` is ``-1 *
#   (b/D)``), and ``c*R*cos(u)^2 + c*R*sin(u)^2`` is ``c*R`` for one
#   argument node u and one monomial R, until no such pair is left
#   (``_pythagorean``; ``cos(u)^2 + sin(u)^2`` is 1, so the adjugate
#   inverse of a rotation divides by nothing).  The pair merges whole:
#   ``cos(u)^2`` alone is never rewritten as the cancellation-prone ``1 -
#   sin(u)^2``.  What never cancels: a product of atoms never distributes
#   over a sum, so ``cos(u)*(sin(u)/D) - sin(u)*(cos(u)/D)`` stays a node
#   (the tape's fold, under "Evaluation", removes it); a numerator atom
#   never cancels against a denominator atom (``x*y/y`` stays a ``Div``, so
#   it still refuses y = 0); and no node is ever folded because of its
#   numeric value.  Terms that cancel drop their factors' singularities with
#   them, as ``sub(a, a)`` always did: ``x/y - x/y`` is 0, also at y = 0.
#   ``div(a, a)`` is 1.
# * The node of a form is its canonical layout, which depends on the form
#   alone: terms and atoms are ordered by structural keys (``_set_key``; a
#   node built from a form hashes the form's coefficients and atom keys);
#   the terms of one coefficient magnitude share one multiply
#   (``0.5*(a + b - c)``); sums and products fold left; and every child is
#   the canonical node of its own form, made on first use.  Hence
#   ``parse(e.to_source()) is e``, and a node depends neither on what was
#   built before it nor on what the weak pool has dropped.
# * Measured on the grid tape of the Engel EL residual (engel-graph
#   theta = 0.37x + 0.29y), before and after the tape's fold: flattening
#   products of more than two atoms re-lays out shared sub-products and
#   grows it (``FACTOR_CAP`` 2, 3, 4: 6,607, 7,213, 7,972 instructions;
#   5,991, 6,617, 7,274 folded); a ``FORM_CAP`` of 4, 8, 12, 16, 24 or 32
#   terms gives 6,708, 6,616, 6,607, 6,607, 6,607 or 6,607 (6,092, 5,999,
#   then 5,991 folded).  Without the sin^2 + cos^2 merge it had 7,407.
# * ``add_all`` is ``add`` folded over many terms without the partial sums'
#   nodes, and ``as_written`` builds a node with no normal form.

FORM_CAP = 16  # terms of a sum; a larger sum is a binary atom
FACTOR_CAP = 2  # atoms of a monomial; a larger product keeps its two factors whole
_UNIT = ((), (), ())  # the monomial of a constant term


def _mono(num: tuple, den: tuple) -> tuple:
    """A monomial: numerator and denominator ((atom, exponent) by atom key), and its sort key.

    The sort key pairs each atom's key with its exponent, ``~e`` = -e - 1 in
    the denominator: never -1 (see ``_set_key``).
    """
    if not den:
        if len(num) == 1:
            ((a, e),) = num
            return num, den, ((a._key, e),)
        if len(num) == 2:
            (a, e), (b, f) = num
            return num, den, ((a._key, e), (b._key, f))
    return num, den, (*[(a._key, e) for a, e in num], *[(a._key, ~e) for a, e in den])


def const(value: float) -> Const:
    value = float(value)
    if not math.isfinite(value):
        raise ExprError(f"non-finite constant {value!r}")
    if value == 0.0:
        value = 0.0  # normalize -0.0
    return _interned(("c", value), lambda: Const(value))


def var(name: str) -> Var:
    return _interned(("x", name), lambda: Var(name))


def _is_const(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def _form(e: Expr) -> tuple:
    """The terms ``(monomial, coefficient)`` of ``e``, in canonical order."""
    if type(e) is Const:
        return ((_UNIT, e.value),) if e.value else ()
    form = e._form
    return form if form is not None else ((_mono(((e, 1),), ()), 1.0),)


def _term_key(term):
    """Canonical term order: magnitude 1 first, then by magnitude; the constant last.

    Within one magnitude, monomials are ordered by the keys and exponents of
    their atoms.  The order ignores signs, so negation keeps it.
    """
    mono, c = term
    m = abs(c)
    return (not mono[2], m != 1.0, m, mono[2])


def _canonical(terms) -> tuple | None:
    """The form of nonzero finite terms, or None past ``FORM_CAP`` terms."""
    terms = [t for t in terms if t[1] != 0.0]
    if len(terms) > FORM_CAP or not all(map(math.isfinite, [c for _, c in terms])):
        return None
    return tuple(sorted(terms, key=_term_key))


def _unit_group(form: tuple):
    """(m, G) with form = m * G and G's coefficients ±1, not all -1; None for mixed magnitudes."""
    m = abs(form[0][1])
    if abs(form[-1][1]) != m:  # terms are ordered by magnitude, the constant last
        return None
    positive = False
    for _, c in form:
        if c == m:
            positive = True
        elif c != -m:
            return None
    if not positive:
        m = -m
    return m, tuple((mono, c / m) for mono, c in form)


def _factor(e: Expr):
    """``e`` as one factor of a product: (coefficient, numerator, denominator)."""
    form = e._form
    if form is None:
        return (e.value, (), ()) if type(e) is Const else (1.0, ((e, 1),), ())
    if len(form) == 1:
        (num, den, _), c = form[0]
        if den:  # a quotient is an atom too, without its coefficient
            return c, (((e if c == 1.0 else _node(((form[0][0], 1.0),))), 1),), ()
        return c, num, den
    # a sum is an atom, without its sign and its common magnitude
    if form[0][1] == 1.0:  # the common case: a leading +1 needs neither
        return 1.0, ((e, 1),), ()
    group = _unit_group(form)
    if group is not None and group[0] != 1.0:
        return group[0], ((_node(group[1]), 1),), ()
    if group is None and form[0][1] < 0.0 and all(c < 0.0 for _, c in form):
        return -1.0, ((_node(tuple((mono, -c) for mono, c in form)), 1),), ()
    return 1.0, ((e, 1),), ()


def _whole(num: tuple, den: tuple) -> tuple:
    """The monomial num / den as one atom of a product."""
    if not den and len(num) == 1 and num[0][1] == 1:
        return num
    return ((_node(((_mono(num, den), 1.0),)), 1),)


def _atom_key(item) -> int:
    return item[0]._key


def _merge(p: tuple, q: tuple) -> tuple:
    """Product of two monomial parts: exponents of common atoms add."""
    if not p:
        return q
    if not q:
        return p
    if len(p) == 1 and len(q) == 1:
        (a, e), (b, f) = p[0], q[0]
        if a is b:
            return ((a, e + f),)
        return (p[0], q[0]) if a._key < b._key else (q[0], p[0])
    exps = dict(p)
    for atom, e in q:
        exps[atom] = exps.get(atom, 0) + e
    return tuple(sorted(exps.items(), key=_atom_key))


def _scaled(e: Expr, k: float) -> Expr | None:
    """The node of k * form(e), or None where a coefficient leaves the floats."""
    form = _form(e)
    if k == -1.0:
        return _node(tuple((mono, -c) for mono, c in form))
    scaled = _canonical([(mono, c * k) for mono, c in form])
    return None if scaled is None or len(scaled) < len(form) else _node(scaled)


def _sum(a: Expr, b: Expr, sign: float) -> Expr | None:
    """The node of form(a) + sign * form(b), or None past ``FORM_CAP`` terms."""
    form = _merged(_form(a), _form(b), sign)
    return None if form is None else _node(form)


def _merged(fa: tuple, fb: tuple, sign: float) -> tuple | None:
    """The form fa + sign * fb, or None past ``FORM_CAP`` terms or off the floats."""
    coefs = dict(fa)
    new = []
    for mono, c in fb:
        old = coefs.get(mono)
        if old is None:
            new.append((mono, sign * c))
        else:
            c = coefs[mono] = old + sign * c
            if not -math.inf < c < math.inf:
                return None
    if len(new) == len(fb):  # no like terms: the new ones slot into order
        if len(fa) + len(new) > FORM_CAP:
            return None
        terms = list(fa)
        for term in new:
            bisect.insort(terms, term, key=_term_key)
        return tuple(terms)
    terms = [t for t in (*coefs.items(), *new) if t[1] != 0.0]
    return None if len(terms) > FORM_CAP else tuple(sorted(terms, key=_term_key))


def _monomial(c: float, num: tuple, den: tuple) -> Expr | None:
    """The node of the one-term form c * num / den, or None if c leaves the floats."""
    if c == 0.0 or not math.isfinite(c):
        return None
    return _node(((_mono(num, den), c),))


def _node(form: tuple) -> Expr:
    """The canonical node of a form: interned by the form, laid out from it alone.

    Its children are made on first use (``_expand``), so a partial sum that
    only feeds a larger form never builds its own chain of nodes.
    """
    if len(form) == 1:
        mono, c = form[0]
        key = mono[2]
        if not key:
            return const(c)
        if c == 1.0 and len(key) == 1 and key[0][1] == 1:
            return mono[0][0][0]  # an atom is its own node
    elif not form:
        return _ZERO
    ref = _POOL.get(form)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    else:  # only merged forms are interned: a form met for the first time may merge
        merged = _pythagorean(form)
        if merged is not None:
            return _node(merged)
    cls = _kind(form)
    node = cls.__new__(cls)
    node._form = form
    node._vars = None
    node._dmemo = None
    _POOL[form] = weakref.KeyedRef(node, _drop, form)
    return node


def _pythagorean(form: tuple) -> tuple | None:
    """The form with each ``c*R*cos(u)^2 + c*R*sin(u)^2`` merged into ``c*R``, until none is left.

    ``u`` is one argument node and ``R`` one monomial, the rest of both
    terms.  None if no pair merges, or if a merged coefficient leaves the
    floats.
    """
    coefs = None
    changed = True
    while changed:
        changed = False
        for (num, den, _), c in form if coefs is None else list(coefs.items()):
            for atom, e in num:
                if e < 2 or type(atom) is not Call or atom.fn != "cos":
                    continue
                ref = _POOL.get(("f", "sin", id(atom.a)))
                sin = None if ref is None else ref()
                if sin is None:  # no live form holds sin(u)
                    continue
                rest = _times(num, atom, -2)
                partner = _mono(_times(rest, sin, 2), den)
                if coefs is None:
                    coefs = dict(form)
                if coefs.get(partner) != c:
                    continue
                del coefs[partner], coefs[_mono(num, den)]
                mono = _mono(rest, den)
                total = coefs.pop(mono, 0.0) + c
                if total:
                    coefs[mono] = total
                changed = True
                break
            if changed:
                break
    if coefs is None or len(coefs) == len(form):
        return None
    return _canonical(coefs.items())


def _times(num: tuple, atom: Expr, e: int) -> tuple:
    """The numerator ``num`` times ``atom^e``, atoms in key order."""
    exps = dict(num)
    k = exps.get(atom, 0) + e
    if k:
        exps[atom] = k
    else:
        del exps[atom]
    return tuple(sorted(exps.items(), key=_atom_key))


def _expand(node: Expr) -> None:
    """Give a node built from its form its children: canonical nodes of sub-forms."""
    cls, args = _layout(node._form)
    if cls is Pow:
        node.a, node.k = args
    elif cls is Neg:
        (node.a,) = args
    else:
        node.a, node.b = args


def _product(factors: tuple) -> Expr:
    """The node of a product of atoms with coefficient 1."""
    if len(factors) == 1 and factors[0][1] == 1:
        return factors[0][0]
    return _node(((_mono(factors, ()), 1.0),))


def _kind(form: tuple):
    """The class of a form's canonical node, without making its operands (see ``_layout``)."""
    mono, c = form[-1]
    if len(form) == 1:
        num, den, _ = mono
        if c == -1.0:
            return Div if not num else Neg
        if c != 1.0:
            return Div if not num else Mul
        if den:
            return Div
        return Pow if len(num) == 1 else Mul
    m = abs(c)
    if mono == _UNIT or m == 1.0:  # the last term alone: the constant, or a negative one first
        if mono != _UNIT:
            for _, c in form:
                if c < 0.0:
                    return Sub
        return Add if c > 0.0 else Sub
    i = len(form) - 1
    while i and abs(form[i - 1][1]) == m:
        i -= 1
    group = form[i:]
    if not i:
        return Mul
    return Add if any(c > 0.0 for _, c in group) else Sub


def _layout(form: tuple):
    """The class of a form's canonical node and its operands (``_kind`` picks the same class)."""
    if len(form) == 1:  # c * numerator / denominator, each a left fold
        mono, c = form[0]
        num, den, _ = mono
        if not num and c != 1.0:
            return Div, (const(c), _product(den))
        if c == -1.0:
            return Neg, (_node(((mono, 1.0),)),)
        if c != 1.0:
            return Mul, (const(c), _node(((mono, 1.0),)))
        if den:
            return Div, (_product(num) if num else _ONE, _product(den))
        if len(num) == 1:
            return Pow, num[0]
        return Mul, (_product(num[:-1]), _product(num[-1:]))
    # a sum: everything but the last group, then the last group.  A group is
    # the constant, all the terms of one magnitude other than 1, or one term
    # of magnitude 1: the terms of magnitude 1 fold positive ones first.
    mono, c = form[-1]
    m = abs(c)
    cut = len(form) - 1
    if mono != _UNIT and m != 1.0:
        while cut and abs(form[cut - 1][1]) == m and form[cut - 1][0] != _UNIT:
            cut -= 1
        head, tail = form[:cut], form[cut:]
    else:
        if mono != _UNIT and c > 0.0:
            for i, (_, c) in enumerate(form):
                if c < 0.0:
                    cut = i
        head, tail = form[:cut] + form[cut + 1 :], form[cut : cut + 1]
    if not head:  # one magnitude m != 1: m * (a ± b ...)
        m, unit = _unit_group(tail)
        return Mul, (const(m), _node(unit))
    if tail[-1][1] > 0.0 or any(c > 0.0 for _, c in tail):
        return Add, (_node(head), _node(tail))
    return Sub, (_node(head), _node(tuple((mono, -c) for mono, c in tail)))


def _form_d(form: tuple, name: str) -> Expr | None:
    """The derivative of a node built from ``form``, by the product rule over the atoms.

    Each term of each monomial is one monomial: the derivative of one atom
    (a factor, whole if it is a sum) times the other atoms, a denominator
    atom's exponent raised by one.  All terms merge into one form, so no
    partial derivative sum is built; past ``FORM_CAP`` terms, None.
    """
    coefs: dict = {}
    for (num, den, _), c in form:
        for i, (a, e) in enumerate(num):
            rest = (*num[:i], (a, e - 1), *num[i + 1 :]) if e > 1 else num[:i] + num[i + 1 :]
            _add_product(coefs, c * e, rest, den, a.diff(name))
        for j, (b, f) in enumerate(den):
            _add_product(coefs, -c * f, num, (*den[:j], (b, f + 1), *den[j + 1 :]), b.diff(name))
    form = _canonical(coefs.items())
    return None if form is None else _node(form)


def _add_product(coefs: dict, c: float, num: tuple, den: tuple, factor: Expr) -> None:
    """coefs += c * num / den * factor, with ``mul``'s rule past ``FACTOR_CAP``."""
    if factor is _ZERO:
        return
    cf, nf, df = _factor(factor)
    n = _merge(num, nf) if num and nf else num or nf
    d = _merge(den, df) if den and df else den or df
    if len(n) + len(d) > FACTOR_CAP:
        n, d = _merge(_whole(num, den), _whole(nf, df)), ()
    mono = _mono(n, d)
    coefs[mono] = coefs.get(mono, 0.0) + c * cf


# ---------------------------------------------------------------------------
# Nodes as written
# ---------------------------------------------------------------------------


def as_written(cls, a: Expr, b=None) -> Expr:
    """The node ``cls(a, b)`` as written, with no normal form: ``a + b``, ``a - b``,
    ``a * b``, ``a / b``, ``-a`` (``b`` unused) or ``a^b`` (``b`` the exponent).

    Only constants fold, and so do the identities 0 + a, a - 0, 0 - a,
    1 * a, -1 * a, 0 * a, a / 1, 0 / a, a - a, a / a and -(-a); a
    constant-zero denominator is never folded.  An
    expression substituted as written (``Expr.substitute``) evaluates as the
    original at the substituted values, bit for bit: the immersion's grid
    tangent map is built so that its values are those of a dense
    contraction.  The nodes are atoms of every normal form built from them.
    """
    if cls is Neg:
        if type(a) is Const:
            return const(-a.value)
        return a.a if type(a) is Neg else _interned((-Neg.tag, id(a)), lambda: Neg(a))
    if cls is Pow:
        if b in (0, 1) or type(a) is Const:
            return powi(a, b)
        return _interned((Pow.tag, id(a), b), lambda: Pow(a, b))
    if type(a) is Const and type(b) is Const and not (cls is Div and b.value == 0.0):
        return const({Add: operator.add, Sub: operator.sub, Mul: operator.mul,
                      Div: operator.truediv}[cls](a.value, b.value))
    ka = a.value if type(a) is Const else None
    kb = b.value if type(b) is Const else None
    if cls is Add:
        if ka == 0.0:
            return b
        if kb == 0.0:
            return a
    elif cls is Sub:
        if kb == 0.0:
            return a
        if ka == 0.0:
            return as_written(Neg, b)
        if a is b:
            return _ZERO
    elif cls is Mul:
        if ka == 0.0 or kb == 0.0:
            return _ZERO
        if ka == 1.0:
            return b
        if kb == 1.0:
            return a
        if ka == -1.0:
            return as_written(Neg, b)
        if kb == -1.0:
            return as_written(Neg, a)
    elif kb != 0.0:  # a / 0 stays, refused when a tape is compiled
        if kb == 1.0:
            return a
        if ka == 0.0:
            return _ZERO
        if a is b:
            return _ONE
    return _interned((-cls.tag, id(a), id(b)), lambda: cls(a, b))


def _binary(cls, a: Expr, b: Expr) -> Expr:
    """A node past ``FORM_CAP``, or one that construction must not fold: an atom."""
    if cls in (Add, Mul) and b._key < a._key:
        a, b = b, a
    return _interned((cls.tag, id(a), id(b)), lambda: cls(a, b))


def add(a: Expr, b: Expr) -> Expr:
    if type(a) is Const:
        if type(b) is Const:
            return const(a.value + b.value)
        if a.value == 0.0:
            return b
    elif type(b) is Const and b.value == 0.0:
        return a
    return _sum(a, b, 1.0) or _binary(Add, a, b)


def add_all(items) -> Expr:
    """``add`` folded over ``items`` from 0: the same node, without the partial sums' nodes."""
    return _fold(map(_form, items))


def dot(xs, ys) -> Expr:
    """``add_all`` of the products ``mul(x, y)``: the same node, without the products' nodes."""
    return _fold(
        _form(mul(x, y)) if type(x) is Const or type(y) is Const else _product_form(x, y)
        for x, y in zip(xs, ys)
    )


def _fold(forms) -> Expr:
    """The left fold of ``add`` over the nodes of ``forms``, run on the forms.

    A partial sum is made a node only where adding the next form would leave
    ``FORM_CAP`` (or the floats), and ``add`` takes that step.
    """
    form = ()
    for f in forms:
        merged = _merged(form, f, 1.0)
        if merged is None:
            form = _form(add(_node(form), _node(f)))
        else:  # each partial sum merged as ``_node`` merges it
            form = _pythagorean(merged) or merged
    return _node(form)


def sub(a: Expr, b: Expr) -> Expr:
    if type(b) is Const:
        if type(a) is Const:
            return const(a.value - b.value)
        if b.value == 0.0:
            return a
    elif type(a) is Const and a.value == 0.0:
        return neg(b)
    if a is b:
        return const(0.0)
    return _sum(a, b, -1.0) or _binary(Sub, a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if type(a) is Const or type(b) is Const:
        if type(a) is Const and type(b) is Const:
            return const(a.value * b.value)
        k, e = (a.value, b) if type(a) is Const else (b.value, a)
        if k == 0.0:
            return const(0.0)
        if k == 1.0:
            return e
        return _scaled(e, k) or _binary(Mul, a, b)  # a constant scales every term
    return _node(_product_form(a, b))


def _product_form(a: Expr, b: Expr) -> tuple:
    """The form of ``mul(a, b)`` for a and b not constants, without its node."""
    ca, na, da = _factor(a)
    cb, nb, db = _factor(b)
    num = _merge(na, nb) if na and nb else na or nb
    den = _merge(da, db) if da and db else da or db
    if len(num) + len(den) > FACTOR_CAP:  # the two factors stay whole
        num, den = _merge(_whole(na, da), _whole(nb, db)), ()
    c = ca * cb
    if c == 0.0 or not math.isfinite(c):
        return _form(_binary(Mul, a, b))
    return ((_mono(num, den), c),)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):  # before the identities, even 0/0 and a/a
        return _binary(Div, a, b)  # refused when a tape is compiled
    if _is_const(b, 1.0):
        return a
    if _is_const(a, 0.0):
        return const(0.0)
    if _is_const(a) and _is_const(b):
        return const(a.value / b.value)
    if a is b:
        return const(1.0)
    if _is_const(b):
        return _scaled(a, 1.0 / b.value) or _binary(Div, a, b)
    cb, nb, db = _factor(b)
    if db:  # inverting b would move its denominator up: b stays whole
        nb = _whole(nb, db)
    ca, na, da = _factor(a)
    den = _merge(da, nb)
    if len(na) + len(den) > FACTOR_CAP:
        na, den = _whole(na, da), nb if len(nb) == 1 else _whole(nb, ())
    return _monomial(ca / cb, na, den) or _binary(Div, a, b)


def neg(a: Expr) -> Expr:
    if _is_const(a):
        return const(-a.value)
    return _scaled(a, -1.0)


def powi(a: Expr, k: int) -> Expr:
    if not isinstance(k, (int, np.integer)):
        raise ExprError(f"exponent must be a constant integer, got {k!r}")
    k = int(k)
    if k == 0:
        return const(1.0)
    if k == 1:
        return a
    if _is_const(a):
        try:
            return const(a.value**k)
        except OverflowError:
            raise EvaluationError(f"overflow in ({a.value!r})^{k}") from None
        except ZeroDivisionError:
            raise EvaluationError("zero raised to a negative power") from None
    if k > 0:  # a negative power stays whole, an atom: it refuses like ``np.power``
        c, num, den = _factor(a)
        try:
            c = c**k
        except OverflowError:
            c = math.inf
        node = _monomial(
            c, tuple((atom, e * k) for atom, e in num), tuple((atom, e * k) for atom, e in den)
        )
        if node is not None:
            return node
    return _interned((Pow.tag, id(a), k), lambda: Pow(a, k))


def call(fn: str, a: Expr) -> Expr:
    if fn not in _MATH_FUNCS:
        raise ExprError(f"unknown function {fn!r}")
    if _is_const(a):
        try:
            return const(_MATH_FUNCS[fn](a.value))
        except OverflowError:
            raise EvaluationError(f"overflow in {fn}({a.value!r})") from None
        except ValueError:
            pass  # out of domain: leave symbolic, refused when a tape is compiled
    return _interned(("f", fn, id(a)), lambda: Call(fn, a))


_CONSTRUCTORS = {Add: add, Sub: sub, Mul: mul, Div: div}  # for ``Expr.substitute``


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

# A root tuple is compiled once into a tape: its nodes in post-order, one
# register each.  Leaves are preloaded (constants, and each ``Pow`` exponent
# as an int register) or loaded from the env (variables); every other node is
# one instruction ``(ufunc, a, b, dst, buf)`` computing
# ``regs[dst] = ufunc(regs[a], regs[b], out=bufs[buf])``, or
# ``ufunc(regs[a], out=bufs[buf])`` when ``b < 0``.  The smart constructors
# fold every node whose operands are all constants unless folding fails
# (``1/0``, ``log(-1)``), and the tape refuses those, so every instruction
# reads a variable (or a register the fold below made a constant) and
# writes an array of the env's broadcast shape.  A run fills one values
# array (roots x points), row i holding root i, over blocks of at most
# ``BLOCK_POINTS`` points.  A computed root writes straight into the row of
# the first root that holds its register; every other node writes into a
# row of one work array that the run allocates once and reuses for every
# block.  A row returns to the free list at its node's last use, before
# that instruction picks its own row, so the row count is the peak number
# of live values and memory is O(live registers x block) plus the values.
# After the blocks, a root that holds a constant or a variable is filled
# from its value or binding, and a root that repeats an earlier root's
# register is a copy of that row.  A batch of one writes no row: its
# ufuncs allocate, so a refusal can print the operands it read.
# Background: the tapes of Griewank & Walther, *Evaluating Derivatives*.
#
# Before buffers are assigned, one fold pass (``_Fold``) shrinks the
# instruction list:
#
# * Candidates.  The registers run, in tape order, at three points over
#   F_p, p = 2^61 - 1, drawn from a fixed seed: floats enter as their exact
#   rationals, sin and cos of one argument register as a point
#   (2t/(1+t^2), (1-t^2)/(1+t^2)) of the unit circle, and every other call,
#   and every register that would need 1/0, as a random value of its own.
#   A register is a candidate when its values are all 0, or equal those of
#   a register below it (its own sub-DAG, searched depth first), or their
#   negatives: random interpretation (Gulwani & Necula, POPL 2004; by
#   Schwartz-Zippel a nonzero value proves a register nonzero).  Equal
#   registers in different branches are left alone: folding one into the
#   other would make a node's value depend on the other roots it is
#   evaluated with, and a system's matrices evaluated together must equal
#   each evaluated alone, bit for bit.
# * Certificates.  A candidate folds only when a bounded exact expansion
#   proves it: integer coefficients times powers of two (every float is
#   one), numerator and denominator monomials kept apart, cos(u)^2 reduced
#   to 1 - sin(u)^2 in numerators, and registers whose expansion may pass
#   ``_CERT_TERMS`` terms as opaque atoms.  Candidates without a
#   certificate stay in the tape and are counted (``uncertified``).
# * Folds.  A certified zero becomes the constant 0, and x*0, 0/x, x+-0,
#   0-x, -0 and 0^k (k > 0) follow from it; a certified duplicate reads the
#   register below it; a certified negation is one ``negative`` of it.  Then
#   instructions no root reads are dropped.  A root folded into a constant
#   is that constant; one folded into a computed register is copied into
#   a register of its own.
# * Never folded: a node built as written (``as_written``), a call, a
#   power that stays whole, and any register for its floating-point value:
#   ``0.1*x*3 - 0.3*x`` is 2^-54 x, not 0.  A fold changes a value by
#   rounding only, and a node folds alike in every process and in every
#   root tuple.
# * Measured on engel-graph theta = 0.37x + 0.29y: the EL residual's tape
#   6,607 -> 5,991 instructions (671 -> 621 work rows; 55 candidates left
#   uncertified), the first variation's 1,268 -> 1,051 (8 left); the pass
#   takes about 25 ms on the first (35 ms in a cold process).

_BINARY_UFUNCS = {Add: np.add, Sub: np.subtract, Mul: np.multiply, Div: np.divide}
_SYMBOLS = {np.add: "+", np.subtract: "-", np.multiply: "*", np.divide: "/"}
_CALL_NAMES = {ufunc: fn for fn, ufunc in _NP_FUNCS.items()}
_CALL_UFUNCS = frozenset(_CALL_NAMES)

# A batch of one refuses what an array lets propagate as inf or NaN.
_POINT_ERRORS = {"divide": "raise", "over": "raise", "invalid": "raise", "under": "ignore"}
_ARRAY_ERRORS = {"all": "ignore"}

TAPE_CACHE_SIZE = 64  # root tuples whose tapes stay compiled
BLOCK_POINTS = 4096  # points per block of a tape run: a work row of 32 KiB
_TAPES: "dict[tuple[int, ...], _Tape]" = {}


class _Tape:
    """Post-order instruction list of one root tuple (see above)."""

    __slots__ = (
        "roots", "init", "loads", "code", "nbufs", "out", "copies", "fills", "folds",
        "uncertified",
    )

    def __init__(self, roots: tuple):
        self.roots = roots  # holds the nodes, so the cache key's ids stay valid
        index: dict = {}  # node -> register
        init: list = []  # register file template
        loads = []  # (register, variable name)
        nodes: list = []  # register -> node, None for an exponent
        code = []  # (ufunc, a, b, dst), then with its buffer appended
        exponents: dict[int, int] = {}
        for root in roots:
            stack = [root]
            while stack:
                node = stack.pop()
                if node in index:
                    continue
                kind = type(node)
                if kind is Const or kind is Var:
                    index[node] = len(init)
                    if kind is Var:
                        loads.append((len(init), node.name))
                    init.append(np.float64(node.value) if kind is Const else None)
                    nodes.append(node)
                    continue
                a = index.get(node.a)
                fn = _BINARY_UFUNCS.get(kind)
                if fn is not None:
                    b = index.get(node.b)
                    if a is None or b is None:
                        stack.append(node)
                        if a is None:
                            stack.append(node.a)
                        if b is None:
                            stack.append(node.b)
                        continue
                elif a is None:
                    stack.append(node)
                    stack.append(node.a)
                    continue
                elif kind is Pow:
                    fn = np.power
                    b = exponents.get(node.k)
                    if b is None:
                        b = exponents[node.k] = len(init)
                        init.append(node.k)
                        nodes.append(None)
                elif kind is Neg:
                    fn, b = np.negative, -1
                else:
                    fn, b = _NP_FUNCS[node.fn], -1
                if type(node.a) is Const and (kind not in _BINARY_UFUNCS or type(node.b) is Const):
                    what = "division by zero" if kind is Div else "domain error"
                    raise EvaluationError(f"{what} in {node.to_source()}")
                reg = index[node] = len(init)
                init.append(None)
                nodes.append(node)
                code.append((fn, a, b, reg))
        fold = _Fold(init, nodes)
        code, self.out = fold.run(code, [index[root] for root in roots])
        self.folds, self.uncertified = fold.folds, fold.uncertified
        last_use = [-1] * len(init)  # register -> position of the last instruction reading it
        for pos, (fn, a, b, dst) in enumerate(code):
            last_use[a] = pos
            if b >= 0:
                last_use[b] = pos
        for reg in self.out:
            last_use[reg] = len(code)  # results are never recycled
        self.init = init
        self.loads = loads
        # buffer i < len(roots) is row i of the values array, buffer
        # len(roots) + k row k of the work array; a computed register writes
        # the row of the first root that holds it
        computed = {dst for _, _, _, dst in code}
        slot: dict = {}
        copies = []
        for i, reg in enumerate(self.out):
            if reg in slot:
                copies.append((i, slot[reg]))
            elif reg in computed:
                slot[reg] = i
        self.copies = tuple(copies)  # (root, earlier root of the same register)
        # roots that hold a preloaded constant or a variable: (root, load or -1, constant)
        load_of = {reg: k for k, (reg, _) in enumerate(loads)}
        self.fills = tuple(
            (i, load_of.get(reg, -1), init[reg])
            for i, reg in enumerate(self.out) if reg not in computed
        )
        buf_of = [-1] * len(init)  # register -> its buffer while live
        free: list[int] = []
        nbufs = 0
        for pos, (fn, a, b, dst) in enumerate(code):
            # an operand read here for the last time frees its row first, so
            # the ufunc writes into a row still in cache (in place on the
            # very same memory, which elementwise ufuncs allow)
            if last_use[a] == pos and buf_of[a] >= 0:
                free.append(buf_of[a])
                buf_of[a] = -1
            if b >= 0 and last_use[b] == pos and buf_of[b] >= 0:
                free.append(buf_of[b])
                buf_of[b] = -1
            o = slot.get(dst)
            if o is None:
                if free:
                    o = free.pop()
                else:
                    o = len(self.out) + nbufs
                    nbufs += 1
            buf_of[dst] = o
            code[pos] = (fn, a, b, dst, o)
        self.code = code
        self.nbufs = nbufs

    def run(self, env):
        regs = self.init.copy()
        bindings = []
        for _, name in self.loads:
            try:
                bindings.append(env[name])
            except KeyError:
                raise EvaluationError(f"no value bound for variable {name!r}") from None
        one = not any(isinstance(v, np.ndarray) for v in env.values())
        if one:
            shape = (1,)
            flat = [np.array((value,), dtype=float) for value in bindings]
        else:
            shape = np.broadcast_shapes(*(np.shape(v) for v in env.values()))
            flat = []
            for value in bindings:
                v = np.asarray(value, dtype=float)
                flat.append((v if v.shape == shape else np.broadcast_to(v, shape)).reshape(-1))
        size = math.prod(shape)
        values = np.empty((len(self.out), *shape))  # per call: values never alias
        rows = values.reshape(len(self.out), size)
        block = min(size, BLOCK_POINTS)
        work = np.empty((self.nbufs, block))
        with np.errstate(**(_POINT_ERRORS if one else _ARRAY_ERRORS)):
            for lo in range(0, size, block or 1):
                hi = min(lo + block, size)
                if one:  # fresh outputs, so a refusal prints the operands it read
                    bufs = [None] * (len(self.out) + self.nbufs)
                else:
                    bufs = [*rows[:, lo:hi], *work[:, : hi - lo]]
                for (reg, _), v in zip(self.loads, flat):
                    regs[reg] = v[lo:hi]
                try:
                    for fn, a, b, dst, o in self.code:
                        if b < 0:
                            regs[dst] = fn(regs[a], out=bufs[o])
                        else:
                            regs[dst] = fn(regs[a], regs[b], out=bufs[o])
                except FloatingPointError as exc:
                    raise _error(exc, fn, regs[a], regs[b] if b >= 0 else None) from None
        if one:
            return [np.asarray(regs[r]).item() for r in self.out]
        for i, k, value in self.fills:
            rows[i] = flat[k] if k >= 0 else value
        for i, j in self.copies:
            rows[i] = rows[j]
        return values


def _error(exc, fn, x, y) -> EvaluationError:
    """The refusal of a batch of one whose ``fn(x)`` or ``fn(x, y)`` raised ``exc``."""
    overflow = "overflow" in str(exc)
    if fn is np.divide and not overflow:
        return EvaluationError("division by zero")
    if fn is np.power and "divide by zero" in str(exc):
        return EvaluationError("zero raised to a negative power")
    a = repr(np.asarray(x).item())
    if fn is np.power:
        what = f"({a})^{y}"
    elif y is None:
        what = f"{_CALL_NAMES[fn]}({a})"
    else:
        what = f"{a} {_SYMBOLS[fn]} {np.asarray(y).item()!r}"
    return EvaluationError(f"{'overflow' if overflow else 'domain error'} in {what}")



# ---------------------------------------------------------------------------
# Folding a tape: certified zeros and duplicates
# ---------------------------------------------------------------------------

_P = (1 << 61) - 1  # residues live in F_p, p a Mersenne prime
_FOLD_SEED = 1004  # fixed: a tape folds alike in every process
_CERT_TERMS = 64  # terms of an exact expansion; a longer one is an opaque atom
_BELOW_NODES = 16  # registers a search for an equal one below a candidate visits


def _residue(x: float) -> int:
    """The exact rational value of a float, in F_p."""
    n, d = float(x).as_integer_ratio()
    return n * pow(d, -1, _P) % _P


def _foldable(node: Expr) -> bool:
    """Whether the fold may replace ``node``: built by the smart constructors, not as written."""
    if node._form is not None:
        return True
    cls = type(node)
    if cls not in _BINARY_UFUNCS:  # calls, and powers that stay whole
        return False
    ref = _POOL.get((-cls.tag, id(node.a), id(node.b)))
    return ref is None or ref() is not node


class _Fold:
    """One fold pass over a tape's instructions, before buffers are assigned.

    Registers are visited in tape order, each with its values at three
    points over F_p (``_values``).  A register that may fold is a candidate
    when its values are all 0, or those of a register below it, or their
    negatives (``_below``).  It folds only when exact expansions of both
    agree (``_certified``); the others stay and are counted.  Everything
    here lives for one compile.
    """

    def __init__(self, init: list, nodes: list):
        self.init = init
        self.nodes = nodes
        self.rng = random.Random(_FOLD_SEED)
        # register -> its value at each of the three points (-1: an exponent)
        self.values = tuple([-1] * len(init) for _ in range(3))
        self.defs: list = [None] * len(init)  # register -> its instruction, operands resolved
        self.alias: dict = {}  # folded register -> the register it reads as
        self.zero = None  # the register of the constant 0
        self.zeros: set = set()  # registers whose value is the constant 0
        self.seen: set = set()  # values at the first point of the registers so far
        self.calls: dict = {}  # (ufunc, argument register) -> residues
        self.expansions: dict = {}  # register -> expansion, None for an opaque atom
        self.sizes: list = [1] * len(init)  # register -> bound on its expansion's terms
        self.atoms: dict = {}  # atom key -> atom number
        self.sin_of: dict = {}  # atom number of cos(u) -> that of sin(u)
        self.monos: list = []  # monomial number -> (numerator, denominator)
        self.mono_of: dict = {}  # (numerator, denominator) -> monomial number
        self.products: dict = {}  # (monomial, monomial) -> ((monomial, multiplier), ...)
        self.folds: list = []  # (node, "zero" | "alias" | "neg", node or None)
        self.uncertified = 0

    def _random(self) -> tuple:
        r = self.rng.randrange
        return r(1, _P), r(1, _P), r(1, _P)

    # -- the pass ------------------------------------------------------------

    def run(self, code: list, out: list):
        init, seen = self.init, self.seen
        V0, V1, V2 = self.values
        for r, value in enumerate(init):
            if type(value) is np.float64:
                v = _residue(value)
                self._set(r, (v, v, v))
                if not v:
                    self.zeros.add(r)
                    self.zero = r if self.zero is None else self.zero
            elif value is None and type(self.nodes[r]) is Var:
                self._set(r, self._random())
        alias, zeros, defs, sizes = self.alias, self.zeros, self.defs, self.sizes
        big = _CERT_TERMS + 1
        kept = []
        for ins in code:
            fn, a0, b0, dst = ins
            a = alias.get(a0, a0)
            b = alias.get(b0, b0) if b0 >= 0 else b0
            if a != a0 or b != b0:
                ins = (fn, a, b, dst)
            folded = None
            if a in zeros or b in zeros:
                folded = self._structural(fn, a, b, dst)
            if folded is None:
                defs[dst] = ins
                # the commonest operations inline; the values are three lists,
                # so the scan allocates no container the GC tracks
                if fn is np.multiply:
                    v0, v1, v2 = V0[a] * V0[b] % _P, V1[a] * V1[b] % _P, V2[a] * V2[b] % _P
                    size = sizes[a] * sizes[b]
                elif fn is np.add:
                    v0, v1, v2 = (V0[a] + V0[b]) % _P, (V1[a] + V1[b]) % _P, (V2[a] + V2[b]) % _P
                    size = sizes[a] + sizes[b]
                elif fn is np.subtract:
                    v0, v1, v2 = (V0[a] - V0[b]) % _P, (V1[a] - V1[b]) % _P, (V2[a] - V2[b]) % _P
                    size = sizes[a] + sizes[b]
                else:
                    v0, v1, v2 = self._values(fn, a, b)
                    if fn is np.power:
                        size = sizes[a] ** min(init[b], big) if init[b] > 0 else 1
                    else:
                        size = 1 if fn in _CALL_UFUNCS else sizes[a]
                sizes[dst] = size if size < big else big
                V0[dst], V1[dst], V2[dst] = v0, v1, v2
                if not (v0 or v1 or v2):
                    if _foldable(self.nodes[dst]):
                        folded = self._certified(dst, "zero", None)
                elif (v0 in seen or -v0 % _P in seen) and _foldable(self.nodes[dst]):
                    key = v0 | v1 << 64 | v2 << 128
                    t = self._below(dst, key, -v0 % _P | -v1 % _P << 64 | -v2 % _P << 128)
                    if t is not None:
                        kind = "alias" if self._key(t) == key else "neg"
                        folded = self._certified(dst, kind, t)
                if folded is None:
                    seen.add(v0)
            if folded is None:
                kept.append(ins)
            elif folded == "neg":
                kept.append(defs[dst])
        # a root folded into a constant or a variable is that leaf; one folded
        # into a computed register copies it into a register of its own, so
        # every computed root's row is written by an instruction of its own
        copies: dict = {}
        out = list(out)
        for i, r in enumerate(out):
            t = alias.get(r)
            if t is not None and defs[t] is None:
                out[i] = t
            elif t is not None:
                if r not in copies:
                    copies[r] = len(init)
                    init.append(None)
                    defs.append(None)
                    kept.append((np.positive, t, -1, copies[r]))
                out[i] = copies[r]
        # drop what no root reads
        live = bytearray(len(init) + 1)  # the last byte stands for b = -1
        for r in out:
            live[r] = 1
        code = []
        for ins in reversed(kept):
            if live[ins[3]]:
                code.append(ins)
                live[ins[1]] = live[ins[2]] = 1
        code.reverse()
        return code, out

    def _set(self, r: int, v: tuple) -> None:
        """Give leaf register ``r`` the values ``v``."""
        V0, V1, V2 = self.values
        V0[r], V1[r], V2[r] = v
        self.seen.add(v[0])

    def _key(self, r: int) -> int:
        """The values of register ``r`` packed into one int."""
        V0, V1, V2 = self.values
        return V0[r] | V1[r] << 64 | V2[r] << 128

    def _fold(self, dst: int, kind: str, t=None) -> str:
        """Record a fold: a zero or a duplicate reads as ``t`` from now on, a
        negation becomes the instruction ``-t``."""
        if kind == "zero":
            if self.zero is None:
                self.zero = len(self.init)
                self.init.append(np.float64(0.0))
                self.nodes.append(_ZERO)
                for column in self.values:
                    column.append(0)
                self.defs.append(None)
                self.sizes.append(1)
                self.zeros.add(self.zero)
            t = self.zero
            self.zeros.add(dst)
        if kind == "neg":
            self.defs[dst] = (np.negative, t, -1, dst)
        else:
            self.alias[dst] = t
        self.folds.append((self.nodes[dst], kind, None if kind == "zero" else self.nodes[t]))
        return kind

    def _structural(self, fn, a: int, b: int, dst: int):
        """Folds that a zero operand implies: x*0, 0/x, x+-0, 0-x, -0 and 0^k for k > 0."""
        za = a in self.zeros
        if fn is np.multiply or (za and fn in (np.divide, np.negative)):
            return self._fold(dst, "zero")
        if fn is np.power:
            return self._fold(dst, "zero") if za and self.init[b] > 0 else None
        if fn is np.add or (fn is np.subtract and not za):
            return self._fold(dst, "alias", b if za else a)
        if fn is np.subtract:
            for column, v in zip(self.values, self._values(np.negative, b, -1)):
                column[dst] = v
            self.sizes[dst] = self.sizes[b]
            return self._fold(dst, "neg", b)
        return None

    def _below(self, dst: int, key: int, neg: int):
        """The first register below ``dst`` whose values pack to ``key`` or ``neg``, or None.

        Depth first over the operands as resolved, at most ``_BELOW_NODES``
        registers: the search depends on the sub-DAG of ``dst`` alone, so a
        node folds alike in every root tuple it is evaluated in.
        """
        defs, (V0, V1, V2) = self.defs, self.values
        _, a, b, _ = defs[dst]
        stack = [a] if b < 0 or V0[b] < 0 else [b, a]
        visited = set()
        while stack and len(visited) < _BELOW_NODES:
            r = stack.pop()
            if r in visited:
                continue
            visited.add(r)
            if V0[r] | V1[r] << 64 | V2[r] << 128 in (key, neg):
                return r
            d = defs[r]
            if d is not None:
                _, a, b, _ = d
                if b >= 0 and V0[b] >= 0:
                    stack.append(b)
                stack.append(a)
        return None

    def _certified(self, dst: int, kind: str, t):
        """Fold candidate ``dst`` if exact expansions prove it ``kind`` (of ``t``)."""
        e = self._top(dst)
        if e is not None:
            e = _normal(e)
            if kind == "zero":
                ok = not e[0]
            else:  # t as an operand reads it (an atom past the bound), or expanded
                sign = 1 if kind == "alias" else -1
                ok = any(
                    f is not None and _normal(({m: sign * c for m, c in f[0].items()}, f[1])) == e
                    for f in (self._operand(t), self._top(t))
                )
            if ok:
                return self._fold(dst, kind, t)
        self.uncertified += 1
        return None

    # -- values over F_p ---------------------------------------------------------

    def _values(self, fn, a: int, b: int) -> tuple:
        """The values of ``fn`` of registers a (and b) at the three points (+ - * are inline)."""
        V0, V1, V2 = self.values
        x0, x1, x2 = V0[a], V1[a], V2[a]
        if fn is np.divide:
            y0, y1, y2 = V0[b], V1[b], V2[b]
            # a register that would need 1/0 gets a random value of its own
            r = self.rng.randrange
            return (
                x0 * pow(y0, -1, _P) % _P if y0 else r(1, _P),
                x1 * pow(y1, -1, _P) % _P if y1 else r(1, _P),
                x2 * pow(y2, -1, _P) % _P if y2 else r(1, _P),
            )
        if fn is np.negative:
            return (-x0) % _P, (-x1) % _P, (-x2) % _P
        if fn is np.power:
            k = self.init[b]
            r = self.rng.randrange
            return tuple(pow(x, k, _P) if x or k > 0 else r(1, _P) for x in (x0, x1, x2))
        # a call: sin and cos of one argument are the point
        # (2t/(1+t^2), (1-t^2)/(1+t^2)) of the unit circle; every other call
        # is a random value of its own
        key = (np.sin if fn is np.cos else fn, a)
        got = self.calls.get(key)
        if got is None:
            got = self.calls[key] = self._random()
        if fn is np.sin:
            return tuple(2 * t * pow(1 + t * t, -1, _P) % _P for t in got)
        if fn is np.cos:
            return tuple((1 - t * t) * pow(1 + t * t, -1, _P) % _P for t in got)
        return got

    # -- exact expansions --------------------------------------------------------
    #
    # An expansion (terms, E) is the sum of n * 2^E * monomial over its terms
    # {monomial number: integer n}: exact, since every float is an integer
    # times a power of two.  A monomial is (numerator, denominator), each a
    # tuple of (atom number, exponent), kept apart: a numerator atom never
    # cancels a denominator atom.  Atoms are variables, calls (by function
    # and argument register), registers whose expansion passed
    # ``_CERT_TERMS`` terms (opaque), divisors other than one numerator
    # monomial (up to sign and a power of two), and 1/n for an odd n other
    # than 1.  In a numerator, cos(u)^2 is 1 - sin(u)^2.

    def _number(self, key) -> int:
        n = self.atoms.get(key)
        if n is None:
            n = self.atoms[key] = len(self.atoms)
            if key[0] == "call" and key[1] is np.cos:
                self.sin_of[n] = self._number(("call", np.sin, key[2]))
        return n

    def _mono(self, num: tuple, den: tuple) -> int:
        key = (num, den)
        m = self.mono_of.get(key)
        if m is None:
            m = self.mono_of[key] = len(self.monos)
            self.monos.append(key)
        return m

    def _atom(self, key) -> tuple:
        return {self._mono(((self._number(key), 1),), ()): 1}, 0

    def _top(self, r: int):
        """The expansion of ``r`` from its operands as they are read (``_operand``)."""
        if self.sizes[r] <= _CERT_TERMS:
            return self._expansion(r)
        fn, a, b, _ = self.defs[r]
        if fn not in _CALL_UFUNCS:
            self._expansion(a)
            if b >= 0 and fn is not np.power:
                self._expansion(b)
        return self._expand(fn, a, b)

    def _expansion(self, reg: int):
        """The expansion of ``reg``, None for an opaque atom: a register whose
        bound (``sizes``) or whose expansion passes ``_CERT_TERMS`` terms."""
        stack = [reg]
        exps = self.expansions
        while stack:
            r = stack[-1]
            if r in exps:
                stack.pop()
                continue
            if self.sizes[r] > _CERT_TERMS:
                exps[r] = None
                stack.pop()
                continue
            d = self.defs[r]
            if d is None:  # a constant or a variable
                value = self.init[r]
                if type(value) is np.float64:
                    n, den = float(value).as_integer_ratio()
                    exps[r] = ({self._mono((), ()): n}, 1 - den.bit_length()) if n else ({}, 0)
                else:
                    exps[r] = None
                stack.pop()
                continue
            fn, a, b, _ = d
            if fn in _CALL_UFUNCS:
                pending = ()
            else:
                operands = (a,) if b < 0 or fn is np.power else (a, b)
                pending = [x for x in operands if x not in exps]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            exps[r] = self._expand(fn, a, b)
        return exps[reg]

    def _operand(self, r: int) -> tuple:
        e = self.expansions.get(r)
        return self._atom(("reg", r)) if e is None else e

    def _expand(self, fn, a: int, b: int):
        if fn in _CALL_UFUNCS:
            return self._atom(("call", fn, a))
        A = self._operand(a)
        if fn is np.negative:
            return {m: -c for m, c in A[0].items()}, A[1]
        if fn is np.power:
            k = self.init[b]
            if k < 0:
                A, k = self._inverse(A), -k
            result = A
            for _ in range(k - 1):
                if result is None:
                    break
                result = self._product(result, A)
            return result
        B = self._operand(b)
        if fn is np.add or fn is np.subtract:
            (ta, ea), (tb, eb) = A, B
            e = min(ea, eb)
            result = {m: c << (ea - e) for m, c in ta.items()}
            sign = 1 if fn is np.add else -1
            for m, c in tb.items():
                total = result.get(m, 0) + sign * (c << (eb - e))
                if total:
                    result[m] = total
                else:
                    del result[m]
            return (result, e) if len(result) <= _CERT_TERMS else None
        if fn is np.divide:
            B = self._inverse(B)
        return self._product(A, B)

    def _inverse(self, A: tuple):
        """1/A: one numerator monomial moves down; any other A is a divisor atom."""
        terms, e = A = _normal(A)
        if not terms:
            return None
        if len(terms) == 1:
            ((m, n),) = terms.items()
            num, den = self.monos[m]
            if not den:
                if n in (1, -1):
                    return {self._mono((), num): n}, -e
                odd = self._number(("odd", abs(n)))
                return {self._mono(((odd, 1),), num): 1 if n > 0 else -1}, -e
        items = sorted(terms.items())
        sign = 1 if items[0][1] > 0 else -1
        atom = self._number(("den", tuple((m, sign * n) for m, n in items)))
        return {self._mono((), ((atom, 1),)): sign}, -e

    def _product(self, A: tuple, B: tuple):
        if A is None or B is None:
            return None
        (ta, ea), (tb, eb) = A, B
        if len(ta) * len(tb) > 4 * _CERT_TERMS:
            return None
        products = self.products
        result: dict = {}
        for ma, ca in ta.items():
            for mb, cb in tb.items():
                got = products.get((ma, mb))
                if got is None:
                    got = products[ma, mb] = products[mb, ma] = self._times(ma, mb)
                c = ca * cb
                for m, k in got:
                    total = result.get(m, 0) + k * c
                    if total:
                        result[m] = total
                    else:
                        del result[m]
        return (result, ea + eb) if len(result) <= _CERT_TERMS else None

    def _times(self, ma: int, mb: int) -> tuple:
        """The monomial ma * mb as terms (monomial, multiplier), cos(u)^2 as 1 - sin(u)^2."""
        (na, da), (nb, db) = self.monos[ma], self.monos[mb]
        num, den = _mono_product(na, nb), _mono_product(da, db)
        sin_of = self.sin_of
        if not any(e >= 2 and atom in sin_of for atom, e in num):
            return ((self._mono(num, den), 1),)
        terms: dict = {}
        for num, k in self._reduced(num, 1):
            m = self._mono(num, den)
            terms[m] = terms.get(m, 0) + k
        return tuple((m, k) for m, k in terms.items() if k)

    def _reduced(self, num: tuple, k: int) -> list:
        for atom, e in num:
            sin = self.sin_of.get(atom)
            if sin is not None and e >= 2:
                rest = _mono_product(num, ((atom, -2),))
                swapped = _mono_product(rest, ((sin, 2),))
                return [*self._reduced(rest, k), *self._reduced(swapped, -k)]
        return [(num, k)]


def _normal(A: tuple) -> tuple:
    """An expansion with the common power of two of its integers moved into its exponent."""
    terms, e = A
    bits = 0
    for n in terms.values():
        bits |= n
    if not bits:
        return {}, 0
    shift = (bits & -bits).bit_length() - 1
    if shift:
        terms = {m: n >> shift for m, n in terms.items()}
    return terms, e + shift


def _mono_product(p: tuple, q: tuple) -> tuple:
    """Product of two monomial parts ((atom number, exponent) in atom order)."""
    if not p:
        return q
    if not q:
        return p
    exps = dict(p)
    for atom, e in q:
        k = exps.get(atom, 0) + e
        if k:
            exps[atom] = k
        else:
            del exps[atom]
    return tuple(sorted(exps.items()))


def _tape(roots: tuple) -> _Tape:
    key = tuple(map(id, roots))
    tape = _TAPES.pop(key, None)
    if tape is None:
        tape = _Tape(roots)
        if len(_TAPES) >= TAPE_CACHE_SIZE:
            del _TAPES[next(iter(_TAPES))]
    _TAPES[key] = tape  # most recently used last
    return tape


def evaluate_many(exprs, env):
    """Evaluate several expressions in one shared pass over the DAG.

    ``env`` maps variable name to float or ndarray; mixing is allowed and
    broadcasts.  With an array binding, returns one fresh C-contiguous
    float64 array (len(exprs), *shape) of the bindings' broadcast shape, row
    i holding expression i, that no later call writes to.  Without one,
    returns a list of floats.

    The root tuple is compiled once into a cached tape (see ``_Tape``); a
    node on constants alone that construction could not fold (``1/0``) is
    refused there, naming the node, and the registers that an exact
    certificate proves 0, or equal to a register below them or its
    negative, are folded (``_Fold``).  The tape runs over blocks of at most
    ``BLOCK_POINTS`` points, each node one numpy ufunc into a row of one work
    array recycled after the node's last use (a root into its row of the
    values), so memory is O(live registers x block) besides the values, not
    O(all nodes x points).  With an array binding, values follow numpy
    semantics (non-finite values propagate, warnings are silenced); a
    constant's row is filled with its value, a bare variable's with its
    binding, and a repeated expression's row is a copy.  Without one the env
    is a batch of one: the same ufuncs run on one-element arrays, so a
    point's value is bit for bit its value on a grid, and division by zero,
    a domain error or overflow in any operation raises
    :class:`EvaluationError`.
    """
    return _tape(tuple(exprs)).run(env)


def evaluate_at(exprs, names, points) -> np.ndarray:
    """Values of ``exprs`` at points (N, len(names)), one row per expression: (len(exprs), N).

    Column i of ``points`` binds ``names[i]``; one point is a (1, m) array.
    The points are evaluated in one tape pass, and its values array is
    returned.  The first point that holds a value that is not finite is
    evaluated again with float bindings, and its refusal (the cause:
    division by zero, a domain error, overflow) is raised naming that grid
    point.
    """
    pts = np.asarray(points, dtype=float)
    values = evaluate_many(exprs, {name: pts[:, i] for i, name in enumerate(names)})
    bad = ~np.isfinite(values).all(axis=0)
    if bad.any():
        p = tuple(map(float, pts[int(np.argmax(bad))]))
        try:
            evaluate_many(exprs, dict(zip(names, p)))
        except EvaluationError as exc:
            raise EvaluationError(f"{exc} at grid point {p}") from None
        raise EvaluationError(f"value is not finite at grid point {p}")
    return values


def variables_each(exprs) -> list[frozenset[str]]:
    """Names of the variables that each of ``exprs`` depends on, read from their tape.

    One pass over the instructions of the cached tape that ``evaluate_many``
    of the same roots runs, with a bit per variable: no walk of the DAG.
    """
    tape = _tape(tuple(exprs))
    names = [name for _, name in tape.loads]
    masks = [0] * len(tape.init)
    for bit, (reg, _) in enumerate(tape.loads):
        masks[reg] = 1 << bit
    for _, a, b, dst, _ in tape.code:
        masks[dst] = masks[a] | masks[b] if b >= 0 else masks[a]
    return [frozenset(n for bit, n in enumerate(names) if masks[r] >> bit & 1) for r in tape.out]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def parse(source: str, variables) -> Expr:
    """Parse ``source`` over the given coordinate names.

    Grammar (precedence high to low): ``^`` integer powers, unary minus,
    ``* /``, ``+ -``; parentheses and ``f(expr)`` application for
    sin, cos, tan, exp, log, sqrt, atan.  Unknown identifiers are rejected.
    """
    tokens = _tokenize(source)
    parser = _Parser(tokens, frozenset(variables), source)
    e = parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected {tok.value!r}", tok.pos)
    return e


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (src[j].isdigit() or (src[j] == "." and not seen_dot)):
                if src[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            tokens.append(_Token("num", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("ident", src[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, variables, source):
        self.tokens = tokens
        self.i = 0
        self.vars = variables
        self.source = source

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.value!r}", tok.pos)
        return tok

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            rhs = self.unary()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def unary(self) -> Expr:
        if self.peek().kind == "-":
            self.next()
            return neg(self.unary())
        return self.factor()

    def factor(self) -> Expr:
        e = self.base()
        if self.peek().kind == "^":
            self.next()
            e = powi(e, self.exponent())
        return e

    def exponent(self) -> int:
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        tok = self.expect("num")
        try:
            k = int(tok.value)
        except ValueError:
            raise ParseError("exponent must be an integer", tok.pos) from None
        return sign * k

    def base(self) -> Expr:
        tok = self.next()
        if tok.kind == "num":
            return const(float(tok.value))
        if tok.kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        if tok.kind == "ident":
            if self.peek().kind == "(":
                if tok.value not in _MATH_FUNCS:
                    raise ParseError(f"unknown function {tok.value!r}", tok.pos)
                self.next()
                arg = self.expr()
                self.expect(")")
                return call(tok.value, arg)
            if tok.value not in self.vars:
                raise ParseError(f"unknown variable {tok.value!r}", tok.pos)
            return var(tok.value)
        raise ParseError(f"unexpected {tok.value!r}", tok.pos)


def derive(e: Expr, name: str, order: int = 1) -> Expr:
    """Exact partial derivative of ``e`` with respect to ``name``."""
    if not 1 <= order <= 3:
        raise ValueError("derivative order must be between 1 and 3")
    for _ in range(order):
        e = e.diff(name)
    return e


_ZERO = const(0.0)
_ONE = const(1.0)
_TWO = const(2.0)
