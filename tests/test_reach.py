"""Reach: every function of the package runs under some command, or is listed with its reason.

The corpus pass (``tests/corpus.py``, one fresh process shared with the
byte and tape contracts of ``test_golden``) runs the golden commands and
``gradedgeo verify`` under a profile hook and reports the module functions
and class methods of ``gradedgeo`` that never ran.  That set must equal
``KEPT``: a function that no command reaches is deleted, or listed here
with the reason it stays.  Dataclass-generated methods are not counted
(their code is not in the module's file), nor is code that runs only at
import.

    python tests/corpus.py

prints the pass's JSON object; its ``unreached`` list is the set compared here.
"""

from __future__ import annotations

import corpus

TO_SOURCE = "prints a node, in refusal text and for parse(e.to_source()); no golden case does"
OPERATOR = "operator protocol of Expr (reflected operators, **): 1 + e works as e + 1 does"
ABSTRACT = "abstract method of Expr, which every node class overrides"
REPR = "bounded repr of a node, for reports of failing assertions (test_exprs)"

KEPT = {
    "admissibility.system_shape": "library equiregularity scan; the grid frame structure of"
    " ROADMAP item 6 replaces it",
    "area.area_singular_set": "library function in gradedgeo.__all__, named in the README",
    "area.riemannian_area": "library function in gradedgeo.__all__",
    "exprs.derive": "perfbench/tracer.py wraps it by name",
    "exprs.Expr.eval": "the benchmark's grid el-residual step runs through it"
    " (perfbench/grid_worker.py)",
    "exprs.Expr._d": ABSTRACT,
    "exprs.Expr._subst": ABSTRACT,
    "exprs.Expr.to_source": ABSTRACT,
    "exprs.Expr.__pow__": OPERATOR,
    "exprs.Expr.__radd__": OPERATOR,
    "exprs.Expr.__rsub__": OPERATOR,
    "exprs.Expr.__rtruediv__": OPERATOR,
    "exprs.Expr.__repr__": REPR,
    "exprs._head": REPR,
    "exprs.Call.to_source": TO_SOURCE,
    "exprs.Neg.to_source": TO_SOURCE,
    "exprs.Pow.to_source": TO_SOURCE,
    "exprs.Var.to_source": TO_SOURCE,
    "exprs.Neg._args": "node protocol of Neg, which only as_written builds (test_exprs)",
    "exprs.Neg._d": "node protocol of Neg, which only as_written builds (test_exprs)",
    "exprs.Pow._args": "node protocol of a negative power, parse('x^-2') (test_exprs)",
    "exprs.Pow._d": "node protocol of a negative power, parse('x^-2') (test_exprs)",
    "moving_frames._per_degree": "a decorator, which runs at import",
}


def test_every_unreached_function_is_listed_with_its_reason():
    got = set(corpus.result()["unreached"])
    assert sorted(got - set(KEPT)) == [], "reached by no command: delete it, or list its reason"
    assert sorted(set(KEPT) - got) == [], "now reached: take it off KEPT"
