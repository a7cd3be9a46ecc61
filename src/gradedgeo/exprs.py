"""Differentiable expression trees over named coordinates.

Expressions are immutable and hash-consed: structurally identical trees are
the same object, so evaluation and differentiation caches are shared across
everything built in a session.  Derivatives are exact (no finite differences)
and closed under the node set; the only power operator allowed is ``base^k``
with a constant integer exponent, which keeps differentiation closed and
avoids branch cuts.

Evaluation accepts scalar or numpy-array variable bindings and runs a
compiled tape of numpy ufuncs, cached per tuple of roots; it has one
semantics.  Array evaluation lets non-finite values propagate and keeps only
live values in memory.  Scalar bindings alone are a batch of one through the
same ufuncs, so a point's value equals its value on a grid bit for bit, and
it raises :class:`EvaluationError` on domain errors (log of a negative
number), division by zero and overflow.
"""

from __future__ import annotations

import math
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
    "sub",
    "mul",
    "div",
    "neg",
    "powi",
    "call",
    "evaluate_many",
    "variables_many",
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


_POOL: "weakref.WeakValueDictionary[tuple, Expr]" = weakref.WeakValueDictionary()


def _interned(key, factory):
    node = _POOL.get(key)
    if node is None:
        node = factory()
        _POOL[key] = node
    return node


class Expr:
    """Base node.  Use the module-level constructors, not the classes."""

    __slots__ = ("_dmemo", "_vars", "__weakref__")
    precedence = 5

    # -- structure ---------------------------------------------------------

    def _args(self) -> tuple:
        return ()

    def variables(self) -> frozenset[str]:
        """Variable names in the sub-DAG, cached on every node it visits.

        Built bottom-up (iterative post-order) from the children's cached
        sets, so each node is visited once over all calls; a child's set is
        reused as-is when it already covers the union.
        """
        stack = [self]
        while stack:
            node = stack[-1]
            if getattr(node, "_vars", None) is not None:
                stack.pop()
                continue
            args = node._args()
            pending = [c for c in args if getattr(c, "_vars", None) is None]
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
                got = self._d(name)
            memo[name] = got
        return got

    def _d(self, name: str) -> "Expr":
        raise NotImplementedError

    def substitute(self, mapping: dict[str, "Expr"]) -> "Expr":
        memo: dict[int, Expr] = {}

        def rec(node: Expr) -> Expr:
            got = memo.get(id(node))
            if got is None:
                got = node._subst(mapping, rec)
                memo[id(node)] = got
            return got

        return rec(self)

    def _subst(self, mapping, rec) -> "Expr":
        raise NotImplementedError

    # -- evaluation ----------------------------------------------------------

    def eval(self, env):
        return evaluate_many((self,), env)[0]

    def __call__(self, **env):
        return self.eval(env)

    # -- printing ------------------------------------------------------------

    def to_source(self) -> str:
        raise NotImplementedError

    def _wrapped(self, child: "Expr") -> str:
        text = child.to_source()
        if child.precedence < self.precedence:
            return f"({text})"
        return text

    def __repr__(self):
        return f"Expr[{self.to_source()}]"

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

    def _d(self, name):
        return _ZERO

    def _subst(self, mapping, rec):
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

    def _d(self, name):
        return _ONE if name == self.name else _ZERO

    def _subst(self, mapping, rec):
        return mapping.get(self.name, self)

    def to_source(self):
        return self.name


class _Binary(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a: Expr, b: Expr):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def _args(self):
        return (self.a, self.b)


class Add(_Binary):
    __slots__ = ()
    precedence = 1

    def _d(self, name):
        return add(self.a.diff(name), self.b.diff(name))

    def _subst(self, mapping, rec):
        return add(rec(self.a), rec(self.b))

    def to_source(self):
        # parenthesize a same-precedence right operand so reparsing rebuilds
        # the identical tree (float addition is not associative)
        text_b = self.b.to_source()
        if self.b.precedence <= self.precedence:
            text_b = f"({text_b})"
        return f"{self._wrapped(self.a)} + {text_b}"


class Sub(_Binary):
    __slots__ = ()
    precedence = 1

    def _d(self, name):
        return sub(self.a.diff(name), self.b.diff(name))

    def _subst(self, mapping, rec):
        return sub(rec(self.a), rec(self.b))

    def to_source(self):
        text_b = self.b.to_source()
        if self.b.precedence <= self.precedence:
            text_b = f"({text_b})"
        return f"{self._wrapped(self.a)} - {text_b}"


class Mul(_Binary):
    __slots__ = ()
    precedence = 2

    def _d(self, name):
        return add(mul(self.a.diff(name), self.b), mul(self.a, self.b.diff(name)))

    def _subst(self, mapping, rec):
        return mul(rec(self.a), rec(self.b))

    def to_source(self):
        text_b = self.b.to_source()
        if self.b.precedence <= self.precedence:
            text_b = f"({text_b})"
        return f"{self._wrapped(self.a)}*{text_b}"


class Div(_Binary):
    __slots__ = ()
    precedence = 2

    def _d(self, name):
        da, db = self.a.diff(name), self.b.diff(name)
        return div(sub(mul(da, self.b), mul(self.a, db)), powi(self.b, 2))

    def _subst(self, mapping, rec):
        return div(rec(self.a), rec(self.b))

    def to_source(self):
        text_b = self.b.to_source()
        if self.b.precedence <= self.precedence:
            text_b = f"({text_b})"
        return f"{self._wrapped(self.a)}/{text_b}"


class Neg(Expr):
    __slots__ = ("a",)
    precedence = 3

    def __init__(self, a: Expr):
        object.__setattr__(self, "a", a)

    def _args(self):
        return (self.a,)

    def _d(self, name):
        return neg(self.a.diff(name))

    def _subst(self, mapping, rec):
        return neg(rec(self.a))

    def to_source(self):
        return f"-{self._wrapped(self.a)}"


class Pow(Expr):
    __slots__ = ("a", "k")
    precedence = 4

    def __init__(self, a: Expr, k: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "k", k)

    def _args(self):
        return (self.a,)

    def _d(self, name):
        return mul(mul(const(float(self.k)), powi(self.a, self.k - 1)), self.a.diff(name))

    def _subst(self, mapping, rec):
        return powi(rec(self.a), self.k)

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

    def _subst(self, mapping, rec):
        return call(self.fn, rec(self.a))

    def to_source(self):
        return f"{self.fn}({self.a.to_source()})"


_ZERO = None  # type: ignore[assignment]
_ONE = None  # type: ignore[assignment]
_TWO = None  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# Smart constructors (constant folding + interning)
# ---------------------------------------------------------------------------

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


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return _interned(("+", id(a), id(b)), lambda: Add(a, b))


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    if a is b:
        return const(0.0)
    return _interned(("-", id(a), id(b)), lambda: Sub(a, b))


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a, -1.0):
        return neg(b)
    if _is_const(b, -1.0):
        return neg(a)
    return _interned(("*", id(a), id(b)), lambda: Mul(a, b))


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    if _is_const(a, 0.0):
        return const(0.0)
    if _is_const(a) and _is_const(b) and b.value != 0.0:
        return const(a.value / b.value)
    if a is b:
        return const(1.0)
    return _interned(("/", id(a), id(b)), lambda: Div(a, b))


def neg(a: Expr) -> Expr:
    if _is_const(a):
        return const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return _interned(("u-", id(a)), lambda: Neg(a))


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
    return _interned(("^", id(a), k), lambda: Pow(a, k))


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
# reads a variable and writes an array of the env's broadcast shape.  The
# code runs over blocks of at most ``BLOCK_POINTS`` points.  A root writes
# straight into its own result array; every other node writes into a row of
# one work array that the run allocates once and reuses for every block.
# A row returns to the free list after its node's last use, so the row
# count is the peak number of live values and memory is O(live registers x
# block) plus the results.
# Background: the tapes of Griewank & Walther, *Evaluating Derivatives*.

_BINARY_UFUNCS = {Add: np.add, Sub: np.subtract, Mul: np.multiply, Div: np.divide}
_SYMBOLS = {np.add: "+", np.subtract: "-", np.multiply: "*", np.divide: "/"}
_CALL_NAMES = {ufunc: fn for fn, ufunc in _NP_FUNCS.items()}

# A batch of one refuses what an array lets propagate as inf or NaN.
_POINT_ERRORS = {"divide": "raise", "over": "raise", "invalid": "raise", "under": "ignore"}
_ARRAY_ERRORS = {"all": "ignore"}

TAPE_CACHE_SIZE = 64  # root tuples whose tapes stay compiled
BLOCK_POINTS = 4096  # points per block of a tape run: a work row of 32 KiB
_TAPES: "dict[tuple[int, ...], _Tape]" = {}


class _Tape:
    """Post-order instruction list of one root tuple (see above)."""

    __slots__ = ("roots", "init", "loads", "code", "nbufs", "out", "leaves", "results")

    def __init__(self, roots: tuple):
        self.roots = roots  # holds the nodes, so the cache key's ids stay valid
        index: dict = {}  # node -> register
        init: list = []  # register file template
        loads = []  # (register, variable name)
        code = []  # (ufunc, a, b, dst), then with its buffer appended
        last_use: list = []  # register -> position of the last instruction reading it
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
                    last_use.append(-1)
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
                    last_use[b] = len(code)
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
                        last_use.append(-1)
                elif kind is Neg:
                    fn, b = np.negative, -1
                else:
                    fn, b = _NP_FUNCS[node.fn], -1
                if type(node.a) is Const and (kind not in _BINARY_UFUNCS or type(node.b) is Const):
                    what = "division by zero" if kind is Div else "domain error"
                    raise EvaluationError(f"{what} in {node.to_source()}")
                last_use[a] = len(code)
                reg = index[node] = len(init)
                init.append(None)
                last_use.append(-1)
                code.append((fn, a, b, reg))
        self.out = [index[root] for root in roots]
        # roots that hold a preloaded constant or the caller's own binding
        self.leaves = frozenset(index[root] for root in roots if type(root) in (Const, Var))
        for reg in self.out:
            last_use[reg] = len(code)  # results are never recycled
        self.init = init
        self.loads = loads
        # buffer k < R is the result array of the k-th of the R computed
        # roots, buffer R + i row i of the work array
        self.results = tuple(dict.fromkeys(r for r in self.out if r not in self.leaves))
        slot = {reg: k for k, reg in enumerate(self.results)}
        buf_of = [-1] * len(init)  # register -> its buffer while live
        free: list[int] = []
        nbufs = 0
        for pos, (fn, a, b, dst) in enumerate(code):
            o = slot.get(dst)
            if o is None:
                if free:
                    o = free.pop()
                else:
                    o = len(slot) + nbufs
                    nbufs += 1
            buf_of[dst] = o
            code[pos] = (fn, a, b, dst, o)
            if last_use[a] == pos and buf_of[a] >= 0:
                free.append(buf_of[a])
                buf_of[a] = -1
            if b >= 0 and last_use[b] == pos and buf_of[b] >= 0:
                free.append(buf_of[b])
                buf_of[b] = -1
        self.code = code
        self.nbufs = nbufs

    def run(self, env) -> list:
        regs = self.init.copy()
        values = []
        for reg, name in self.loads:
            try:
                values.append(env[name])
            except KeyError:
                raise EvaluationError(f"no value bound for variable {name!r}") from None
        one = not any(isinstance(v, np.ndarray) for v in env.values())
        shape = (1,) if one else np.broadcast_shapes(*(np.shape(v) for v in env.values()))
        if one:
            bound = [np.array((value,), dtype=float) for value in values]
        else:
            bound = [np.broadcast_to(np.asarray(value, dtype=float), shape) for value in values]
        flat = [v.reshape(-1) for v in bound]
        results = [np.empty(shape) for _ in self.results]  # per call: results never alias
        flat_results = [r.reshape(-1) for r in results]
        size = math.prod(shape)
        block = min(size, BLOCK_POINTS)
        work = np.empty((self.nbufs, block))
        with np.errstate(**(_POINT_ERRORS if one else _ARRAY_ERRORS)):
            for lo in range(0, size, block or 1):
                hi = min(lo + block, size)
                bufs = [*(r[lo:hi] for r in flat_results), *work[:, : hi - lo]]
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
        # a constant root is a read-only broadcast of its value (no result to
        # fill), a variable root a copy of the caller's binding
        computed = dict(zip(self.results, results))
        loaded = {reg: v for (reg, _), v in zip(self.loads, bound)}
        return [
            computed[r] if r not in self.leaves
            else np.broadcast_to(regs[r], shape) if self.init[r] is not None
            else loaded[r].copy()
            for r in self.out
        ]


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
    broadcasts.  Returns a list of values, one per expression.

    The root tuple is compiled once into a cached tape (see ``_Tape``); a
    node on constants alone that construction could not fold (``1/0``) is
    refused there, naming the node.  Every binding is a float64 array of the
    common broadcast shape.  The tape runs over blocks of at most
    ``BLOCK_POINTS`` points, each node one numpy ufunc into a row of one work
    array recycled after the node's last use (a root into its result), so
    memory is O(live registers x block) besides the results, not O(all
    nodes x points).  With an array binding, values follow numpy semantics
    (non-finite values propagate, warnings are silenced) and every result is
    an array of the bindings' broadcast shape that no later call writes to:
    a constant comes back as a read-only broadcast of its value, a bare
    variable as a copy of its binding.  Without one the env is a batch
    of one: the same ufuncs run on one-element arrays, so a point's value is
    bit for bit its value on a grid, the results come back as floats, and
    division by zero, a domain error or overflow in any operation raises
    :class:`EvaluationError`.
    """
    return _tape(tuple(exprs)).run(env)


def variables_many(exprs) -> frozenset[str]:
    """Names of the variables that ``exprs`` depend on, read from their tape.

    The union of ``Expr.variables()`` over ``exprs``, without a second walk
    of the DAG: the cached tape that ``evaluate_many`` of the same roots
    runs is compiled here if it is not yet, and refuses the same nodes.
    """
    return frozenset(name for _, name in _tape(tuple(exprs)).loads)


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
