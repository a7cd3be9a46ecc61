"""Spans around gradedgeo's public functions, installed from outside the package.

``Tracer.install()`` replaces the public functions and methods of the traced
modules, and every alias other gradedgeo modules imported with ``from .x
import y``, by wrappers that record a span: name, parent span, op id, start,
end.  Spans stay in memory until ``dump``.  Time the tracer spends counting
DAG nodes is excluded from every open span, so it shows only as tracing
overhead, not as layer time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from functools import cached_property
from time import perf_counter

import numpy as np

# Modules whose public functions and public methods of public classes are
# wrapped wholesale.  ``exprs`` is handled by name: its smart constructors run
# millions of times and are not layers.
WHOLE_MODULES = ("immersion", "area", "moving_frames", "admissibility", "variation", "catalog")


def count_nodes(roots) -> int:
    """Nodes reachable from ``roots`` (shared nodes counted once)."""
    seen = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._args())
    return len(seen)


def _points(env) -> int:
    return int(np.prod(np.broadcast_shapes(*(np.shape(v) for v in env.values()))))


def _evaluate_attrs(args, kwargs, result):
    exprs = args[0] if args else kwargs["exprs"]
    env = args[1] if len(args) > 1 else kwargs["env"]
    return {"nodes": count_nodes(exprs), "points": _points(env)}


def _el_residual_attrs(args, kwargs, result):
    return {"nodes": count_nodes([result[0]])}


def _theta_gradient_attrs(args, kwargs, result):
    return {"nodes": count_nodes([result])}


def _jacobian_attrs(args, kwargs, result):
    imm = args[0]
    return {
        "nodes": count_nodes([e for row in result for e in row]),
        "component_nodes": count_nodes(imm.components),
    }


def _frames_hit(args, kwargs):
    admissibility = sys.modules["gradedgeo.admissibility"]
    imm = args[0]
    cached = admissibility._FRAMES_CACHE.get(id(imm))
    return {"hit": cached is not None and cached.imm is imm}


ATTRS = {
    "exprs.evaluate": _evaluate_attrs,
    "catalog.engel_el_residual_exprs": _el_residual_attrs,
    "catalog.engel_theta_gradient_expr": _theta_gradient_attrs,
    "immersion.jacobian_exprs": _jacobian_attrs,
}
PRE = {"admissibility.frames_for": _frames_hit}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, op, name, t0, t1, excluded_s, nested, attrs)
        self.op = 0
        self._stack = []
        self._active = {}
        self._next = 1
        self._excluded = 0.0
        self._patches = []

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name, fn, outer_only=False):
        tracer = self
        attrs_of = ATTRS.get(name)
        pre_of = PRE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = tracer._active.get(name, 0)
            if outer_only and depth:
                return fn(*args, **kwargs)
            sid = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1] if tracer._stack else 0
            attrs = pre_of(args, kwargs) if pre_of else None
            tracer._stack.append(sid)
            tracer._active[name] = depth + 1
            excluded0 = tracer._excluded
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(sid, parent, name, t0, excluded0, depth, {"error": type(exc).__name__})
                raise
            more = (lambda: attrs_of(args, kwargs, result)) if attrs_of else None
            tracer._close(sid, parent, name, t0, excluded0, depth, attrs, more)
            return result

        return traced

    def _close(self, sid, parent, name, t0, excluded0, depth, attrs, more=None):
        """End a span; ``more()`` computes attributes outside every span's time."""
        t1 = perf_counter()
        self._stack.pop()
        self._active[name] = depth
        w0 = perf_counter()
        if more:
            attrs = {**(attrs or {}), **more()}
        self.spans.append(
            (sid, parent, self.op, name, t0, t1, self._excluded - excluded0, depth > 0, attrs)
        )
        self._excluded += perf_counter() - w0

    def _patch(self, owner, key, new):
        self._patches.append((owner, key, owner.__dict__[key] if isinstance(owner, type)
                              else getattr(owner, key)))
        setattr(owner, key, new)

    def _wrap_function(self, owner, key, name, outer_only=False):
        original = getattr(owner, key)
        wrapped = self._wrap(name, original, outer_only)
        self._patch(owner, key, wrapped)
        # aliases made by ``from .module import name`` and lists holding it
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("gradedgeo") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original and mod is not owner:
                    self._patch(mod, attr, wrapped)
                elif isinstance(value, list) and any(v is original for v in value):
                    self._patches.append((value, None, list(value)))
                    value[:] = [wrapped if v is original else v for v in value]

    def install(self) -> None:
        """Wrap the traced layers of an already imported gradedgeo."""
        import gradedgeo  # noqa: F401  (imports every module below)

        names = set()

        def claim(name):
            if name in names:
                raise RuntimeError(f"two traced functions share the span name {name}")
            names.add(name)
            return name

        exprs = importlib.import_module("gradedgeo.exprs")
        self._wrap_function(exprs, "parse", claim("exprs.parse"))
        self._wrap_function(exprs, "derive", claim("exprs.derive"))
        self._wrap_function(exprs, "evaluate_many", claim("exprs.evaluate"))
        self._wrap_function(exprs.Expr, "diff", claim("exprs.diff"), outer_only=True)

        for short in WHOLE_MODULES:
            mod = importlib.import_module(f"gradedgeo.{short}")
            for public in mod.__all__:
                obj = getattr(mod, public)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    self._wrap_function(mod, public, claim(f"{short}.{public}"))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for key, member in list(vars(obj).items()):
                        if not key.startswith("_") and inspect.isfunction(member):
                            self._wrap_function(obj, key, claim(f"{short}.{key}"))

        immersion = importlib.import_module("gradedgeo.immersion")
        prop = immersion.Immersion.__dict__["jacobian_exprs"]
        traced_prop = cached_property(self._wrap(claim("immersion.jacobian_exprs"), prop.func))
        traced_prop.__set_name__(immersion.Immersion, "jacobian_exprs")
        self._patch(immersion.Immersion, "jacobian_exprs", traced_prop)

        cli = importlib.import_module("gradedgeo.cli")
        for key in [k for k in vars(cli) if k.startswith("cmd_")]:
            self._wrap_function(cli, key, claim("cli." + key[4:].replace("_", "-")))
        verify = importlib.import_module("gradedgeo.verify")
        for key in [k for k in vars(verify) if k.startswith("check_")]:
            self._wrap_function(verify, key, claim("verify." + key[6:]))
        self._wrap_function(verify, "run_checks", claim("verify.run_checks"))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if key is None:
                owner[:] = original
            else:
                setattr(owner, key, original)

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "spans": self.spans}, fh)


# -- aggregation ----------------------------------------------------------------

def summarize(spans) -> dict:
    """Per span name: calls, outermost inclusive seconds, self seconds, attrs.

    A span's time is its duration minus the tracer's own work inside it; its
    self time also leaves out its direct children.  Inclusive time counts only
    spans without an ancestor of the same name, so recursion is not counted
    twice.
    """
    own = {}
    child_time = {}
    for sid, parent, _op, _name, t0, t1, excluded, _nested, _attrs in spans:
        own[sid] = (t1 - t0) - excluded
        child_time[parent] = child_time.get(parent, 0.0) + own[sid]
    out = {}
    for sid, _parent, _op, name, _t0, _t1, _excl, nested, attrs in spans:
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "attrs": []})
        row["calls"] += 1
        if not nested:
            row["s"] += own[sid]
        row["self_s"] += own[sid] - child_time.get(sid, 0.0)
        if attrs:
            row["attrs"].append(attrs)
    return out


def ancestors_named(spans, name: str) -> set:
    """Ids of spans that have an ancestor (or are) called ``name``."""
    parent_of = {s[0]: s[1] for s in spans}
    hits = {s[0] for s in spans if s[3] == name}
    inside = set()
    for sid in parent_of:
        cur = sid
        while cur:
            if cur in hits:
                inside.add(sid)
                break
            cur = parent_of.get(cur, 0)
    return inside


def merge(summaries) -> dict:
    total = {}
    for summary in summaries:
        for name, row in summary.items():
            acc = total.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "attrs": []})
            acc["calls"] += row["calls"]
            acc["s"] += row["s"]
            acc["self_s"] += row["self_s"]
            acc["attrs"].extend(row["attrs"])
    return total
