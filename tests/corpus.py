"""One fresh-process pass over the golden corpus: the byte, reach and tape contracts.

``python tests/corpus.py`` runs every ``test_golden.CASES`` command (``AGAIN``
first, the rest in name order) and then ``gradedgeo verify``, each through
``cli.main`` in this one process, under ``cProfile`` (the C hook behind
``sys.setprofile``, at about half the cost of a Python one) and with a hook
on ``exprs._Tape.__init__``.  Then it runs ``AGAIN`` once more, after the
corpus and ``verify`` have filled the interning pool and the tape cache.
It prints one JSON object:

* ``texts``: each command's golden text (exit status, stdout, stderr and
  warnings), keyed by case name, and ``verify``'s under ``"verify"``.  A
  command that raises past ``cli.main`` has the traceback as its text, so
  one broken command fails one case;
* ``unreached``: the module functions and class methods of ``gradedgeo``
  that no command ran.  Dataclass-generated methods are not counted (their
  code is not in the module's file), nor is code that runs only at import;
* ``tapes``: one line per compiled tape, in compile order: the case that
  compiled it (``verify`` for the checks), its instruction count, its work
  rows (``nbufs``), a digest of its code (ufunc names and ``(a, b, dst)``,
  the loads and the roots) and a digest of its constants (``float.hex``).
  A constant that a different libm rounds otherwise moves the second
  digest alone;
* ``again``: the text and the tape lines of the second run of ``AGAIN``.
  ``exprs._pythagorean`` reads which nodes are alive, so a layout could
  depend on what earlier commands left alive; these must equal its first
  run's.

``result()`` starts that process once per test session and returns the
object.  The process inherits the hash seed, so a table that depends on it
shows up as a failing tape test.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import traceback
import warnings

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(TESTS, os.pardir, "src")

AGAIN = "bench-el-residual"  # its tape holds the sin^2 + cos^2 merges


def run(command: str) -> str:
    """One command through ``cli.main`` in the current directory, as its golden text."""
    from gradedgeo import cli

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = cli.main(shlex.split(command))
            except SystemExit as exc:
                status = exc.code
            except Exception:  # one broken command fails its own case only
                status = f"raised\n{traceback.format_exc()}"
    warned = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return (
        f"$ gradedgeo {command}\nexit {status}\n--- stdout\n{out.getvalue()}"
        f"--- stderr\n{err.getvalue()}--- warnings\n{warned}"
    )


def write_fields(directory: str) -> None:
    from test_golden import FIELDS

    for name, spec in FIELDS.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(spec, fh)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def tape_entry(tape) -> str:
    """Instruction count, work rows, code digest and constants digest of a compiled tape."""
    code = [(fn.__name__, a, b, dst) for fn, a, b, dst, _ in tape.code]
    consts = [(reg, float.hex(float(v))) for reg, v in enumerate(tape.init) if v is not None]
    return f"{len(code)} {tape.nbufs} {_digest((code, tape.loads, tape.out))} {_digest(consts)}"


def _functions(owner, module):
    """The function objects defined in ``module`` among the attributes of ``owner``."""
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


def _package_functions() -> dict:
    """(file, first line, name) of each package function's code -> module.qualname."""
    import importlib
    import inspect
    import pkgutil

    import gradedgeo

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
    return names


def corpus_pass() -> dict:
    """The corpus, ``verify`` and ``AGAIN`` again in this process: the JSON object above."""
    import cProfile
    import tempfile

    from gradedgeo import exprs
    from test_golden import CASES

    names = _package_functions()
    made: list[str] = []
    init = exprs._Tape.__init__

    def hooked(tape, roots):
        init(tape, roots)
        made.append(tape_entry(tape))

    def one(label: str, command: str) -> tuple[str, list[str]]:
        text = run(command)
        lines = [f"{label} {entry}" for entry in made]
        made.clear()
        return text, lines

    texts, tapes = {}, []
    here = os.getcwd()
    profile = cProfile.Profile()
    exprs._Tape.__init__ = hooked
    with tempfile.TemporaryDirectory() as directory:
        write_fields(directory)
        os.chdir(directory)
        profile.enable()
        try:
            for name in sorted(CASES, key=lambda name: name != AGAIN):
                texts[name], lines = one(name, CASES[name])
                tapes += lines
            texts["verify"], lines = one("verify", "verify")
            tapes += lines
            text, lines = one(AGAIN, CASES[AGAIN])
        finally:
            profile.disable()
            exprs._Tape.__init__ = init
            os.chdir(here)
    profile.create_stats()
    unreached = sorted(name for key, name in names.items() if key not in profile.stats)
    return {
        "texts": texts, "unreached": unreached, "tapes": tapes,
        "again": {"text": text, "tapes": lines},
    }


@functools.cache
def _fresh_process() -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        capture_output=True, text=True, timeout=600, check=False,
    )


def result() -> dict:
    """``corpus_pass()`` from one fresh process, started once per test session."""
    done = _fresh_process()
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def main() -> None:
    sys.path[:0] = [os.path.normpath(SRC), TESTS]
    print(json.dumps(corpus_pass()))


if __name__ == "__main__":
    main()
