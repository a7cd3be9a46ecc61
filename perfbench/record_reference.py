"""Record the outputs of every seeded input as ``reference.json``.

    python3 perfbench/record_reference.py

Run from the root of a gradedgeo checkout, at the commit whose outputs are
the reference.  Runs every cli variant as a cold process, every grid step
of every variant in this process, and one ``gradedgeo verify``.
"""

import json
import os
import sys
from hashlib import sha256

import cases
import run

sys.path.insert(0, run.SRC)

from grid_worker import Grid  # noqa: E402  (needs gradedgeo on the path)


def cli_entry(kind: str, k: int) -> dict:
    argv = [run.PY, "-m", "gradedgeo.cli", *cases.cli_argv(kind, k, run.RUN_DIR)]
    code, stdout, _, _ = run.run_child(argv, 120)
    if code != 0:
        raise SystemExit(f"{kind}[{k}] failed")
    return {"sha256": sha256(stdout).hexdigest(), "leaves": cases.leaves(cases.parse_json_output(stdout))}


def main() -> int:
    os.makedirs(run.RUN_DIR, exist_ok=True)
    cases.write_fields(run.RUN_DIR)
    ref = {"cli": {}, "grid": {}}
    for kind in cases.CLI_KINDS:
        ref["cli"][kind] = [cli_entry(kind, k) for k in range(cases.VARIANTS)]
    grids = [Grid(k) for k in range(cases.VARIANTS)]
    for step in cases.GRID_STEPS:
        ref["grid"][step] = [{"leaves": cases.leaves(g.run(step))} for g in grids]
    _, stdout, _, _ = run.run_child([run.PY, "-m", "gradedgeo.cli", "verify"], 600)
    cases.check_verify(stdout)
    ref["verify"] = {"sha256": sha256(stdout).hexdigest()}
    with open(cases.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(key)}: {json.dumps(val)}" for key, val in ref.items()) + "\n}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
