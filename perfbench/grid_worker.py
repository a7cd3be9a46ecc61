"""Long-lived worker of the ``grid`` workload.

    python3 perfbench/grid_worker.py VARIANT [SPANS_FILE]

Reads one request per line on stdin and answers one JSON line on stdout:

    setup            build the seeded immersions and frames, run every step once
    step NAME OP_ID  run one array-mode step, answer its seconds and output
    untrace/retrace  take the tracer's wrappers out / put them back
    exit             write the spans (when traced) and stop

With SPANS_FILE the tracer is installed before set-up, so set-up is traced too.
"""

import json
import sys
import traceback
from time import perf_counter

import cases
from tracer import Tracer


class Grid:
    def __init__(self, k: int):
        from gradedgeo import catalog
        from gradedgeo.admissibility import VariationField
        from gradedgeo.area import QuadratureGrid

        a, b = cases.A[k], cases.B[k]
        self.engel = catalog.immersion("engel-graph", theta=f"{a}*x")
        self.engel_euclidean = catalog.immersion("engel-graph", theta=f"{a}*x", metric="euclidean")
        self.rt = catalog.immersion("rt-graph", u=f"{a}*x")
        self.h1 = catalog.immersion("h1xh1-surface", u=f"{cases.C[k]}*s^2")
        self.ruled = catalog.immersion("engel-graph", theta=f"{a}*x+{b}*y")
        self.field = VariationField.from_json(cases.field_json(k), self.ruled.params)
        self.resid, _ = catalog.engel_el_residual_exprs(self.ruled)
        box = self.engel.domain
        self.area_grid = QuadratureGrid(box, cases.GRID_AREA)
        self.limit_grid = QuadratureGrid(box, cases.GRID_LIMIT)
        self.fv_grid = QuadratureGrid(box, cases.GRID_FV)
        el_grid = QuadratureGrid(box, cases.GRID_EL)
        self.el_env = {nm: el_grid.points[:, i] for i, nm in enumerate(self.ruled.params)}
        self.el_points = len(el_grid)

    def run(self, step: str) -> dict:
        # imported per call: names bound at module level here would miss the
        # tracer's wrappers, which patch gradedgeo's modules only
        import numpy as np
        from gradedgeo.area import area_degree, scaling_limit_probe
        from gradedgeo.immersion import degree_scan
        from gradedgeo.variation import first_variation

        if step == "area-engel":
            return {"value": area_degree(self.engel, 4, self.area_grid).value}
        if step == "area-engel-euclidean":
            return {"value": area_degree(self.engel_euclidean, 4, self.area_grid).value}
        if step == "area-rt":
            return {"value": area_degree(self.rt, 3, self.area_grid).value}
        if step == "gr-limit":
            probe = scaling_limit_probe(self.engel, 4, self.limit_grid, cases.R_SEQ)
            return {"limit": probe.limit, "converged": probe.converged, "v": list(probe.values)}
        if step == "degree-scan":
            rep = degree_scan(self.h1, cases.GRID_SCAN)
            return {"degree": rep.degree, "singular_count": rep.singular_count, "lsc_ok": rep.lsc_ok}
        if step == "first-variation":
            return {"value": first_variation(self.ruled, self.field, self.fv_grid, 4)}
        if step == "el-residual":
            vals = np.broadcast_to(self.resid.eval(self.el_env), (self.el_points,))
            return {"max_abs": float(np.max(np.abs(vals))), "sum_abs": float(np.sum(np.abs(vals)))}
        raise KeyError(step)


def main(argv) -> int:
    k = int(argv[0])
    spans_file = argv[1] if len(argv) > 1 else None
    import gradedgeo  # noqa: F401

    tracer = Tracer() if spans_file else None
    if tracer:
        tracer.install()
    grid = None
    for line in sys.stdin:
        cmd, *args = line.split()
        reply = {"ok": True}
        if cmd == "setup":
            grid = Grid(k)
            for step in cases.GRID_STEPS:
                grid.run(step)
        elif cmd == "step":
            if tracer:
                tracer.op = int(args[1])
            t0 = perf_counter()
            try:
                out = grid.run(args[0])
            except Exception:  # a failed op is reported and counted, not fatal
                reply = {"ok": False, "error": traceback.format_exc()}
            else:
                reply.update(s=perf_counter() - t0, out=out)
        elif cmd == "untrace":
            tracer.uninstall()
        elif cmd == "retrace":
            tracer.install()
        elif cmd == "exit":
            break
        else:
            reply = {"ok": False, "error": f"unknown request {cmd!r}"}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    if tracer:
        tracer.uninstall()
        tracer.dump(spans_file, {"op": 0})
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
