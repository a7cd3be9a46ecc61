"""One traced cold ``gradedgeo`` process.

    python3 perfbench/child.py SPANS_FILE OP_ID -- <gradedgeo arguments>

Imports gradedgeo (timed, untraced), wraps its layers, runs the command line
with the given arguments and writes the spans to SPANS_FILE on exit.  Stdout
and the exit code are those of ``gradedgeo``.
"""

import sys
from time import perf_counter


def main(argv) -> int:
    spans_file, op_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py SPANS_FILE OP_ID -- ARGS...")
    t0 = perf_counter()
    import gradedgeo.cli

    import_s = perf_counter() - t0
    # imported after the timed import: it imports numpy, which gradedgeo.cli
    # would otherwise find already loaded
    from tracer import Tracer

    tracer = Tracer()
    tracer.op = int(op_id)
    tracer.install()
    try:
        return gradedgeo.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        tracer.dump(spans_file, {"op": tracer.op, "import_s": import_s})


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
