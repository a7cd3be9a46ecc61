"""Reach: every function of the package runs under some command, or is listed with its reason.

A fresh process runs the golden commands (``test_golden.CASES``) and
``gradedgeo verify`` in-process under a profile hook (``cProfile``, the C
hook behind ``sys.setprofile``, at about half the cost of a Python one),
and reports the module functions and class methods of ``gradedgeo`` that
never ran.  That set must equal ``KEPT``: a function that no command reaches
is deleted, or listed here with the reason it stays.  Dataclass-generated
methods are not counted (their code is not in the module's file), nor is
code that runs only at import.

    python tests/test_reach.py

prints the unreached names, one per line.
"""

from __future__ import annotations

import os
import subprocess
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(TESTS, os.pardir, "src")

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


def _functions(owner, module):
    """The function objects defined in ``module`` among the attributes of ``owner``."""
    import functools
    import inspect

    for value in vars(owner).values():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if isinstance(value, property):
            yield from (f for f in (value.fget, value.fset, value.fdel) if f is not None)
        elif isinstance(value, functools.cached_property):
            yield value.func
        elif inspect.isfunction(value) and value.__code__.co_filename == module.__file__:
            yield value


def unreached() -> list[str]:
    """Qualified names (module.qualname) of the package functions the commands never run."""
    import cProfile
    import importlib
    import inspect
    import pkgutil
    import tempfile

    import gradedgeo
    from test_golden import CASES, run, write_fields

    names = {}
    for info in pkgutil.iter_modules(gradedgeo.__path__):
        module = importlib.import_module(f"gradedgeo.{info.name}")
        owners = [module] + [
            obj for obj in vars(module).values()
            if inspect.isclass(obj) and obj.__module__ == module.__name__
        ]
        for owner in owners:
            for fn in _functions(owner, module):
                code = fn.__code__
                names[code.co_filename, code.co_firstlineno, code.co_name] = (
                    f"{info.name}.{fn.__qualname__}"
                )
    here = os.getcwd()
    profile = cProfile.Profile()
    with tempfile.TemporaryDirectory() as directory:
        write_fields(directory)
        os.chdir(directory)
        profile.enable()
        try:
            for command in [*CASES.values(), "verify"]:
                run(command)
        finally:
            profile.disable()
            os.chdir(here)
    profile.create_stats()
    return sorted(name for key, name in names.items() if key not in profile.stats)


def test_every_unreached_function_is_listed_with_its_reason():
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        capture_output=True, text=True, timeout=600, check=False,
    )
    assert done.returncode == 0, done.stderr
    got = set(done.stdout.split())
    assert sorted(got - set(KEPT)) == [], "reached by no command: delete it, or list its reason"
    assert sorted(set(KEPT) - got) == [], "now reached: take it off KEPT"


def main() -> None:
    sys.path[:0] = [os.path.normpath(SRC), TESTS]
    print("\n".join(unreached()))


if __name__ == "__main__":
    main()
