"""gradedgeo benchmark: times the program from outside and checks every output.

    python3 perfbench/run.py --workload cli|grid --seed N --seconds S --trace 0|1

Run from the root of a source checkout; gradedgeo is imported from ``src/``.
Both workloads are closed loops with one client: the next op starts when the
previous one has ended, and at most one child process runs at a time.

``cli``   one op is one fresh ``python3 -m gradedgeo.cli <subcommand>``
          process; rounds of the eight README subcommands other than verify,
          shuffled, on seeded catalog coefficients and field bumps.
``grid``  one long-lived worker (``grid_worker.py``); set-up builds the
          seeded immersions and frames and runs every step once; one op is
          one array-mode step on a 48^2 to 256^2 grid.

``--trace 0`` measures for ``--seconds`` (whole rounds) and prints the
end-to-end metrics.  ``--trace 1`` runs one untraced and one traced round
instead, with gradedgeo's layers wrapped (``tracer.py``), and prints the
per-layer metrics; the cli traced round ends with one cold ``gradedgeo
verify``.  The spans are written to ``.bench_run/trace-<workload>-<seed>.json``.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import threading
from hashlib import sha256
from time import perf_counter

import cases
import tracer

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
HERE = os.path.dirname(os.path.abspath(__file__))
PY = sys.executable

SETUP_REPEATS = 5
OP_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0  # every run must end within 180 s

TIMED_LAYERS = (
    "immersion.ortho_tangent_grid",
    "immersion.minors_grid",
    "immersion.degree_scan",
    "area.area_degree",
    "area.scaling_limit_probe",
    "area.integrate_values",
    "moving_frames.normal_system",
    "moving_frames.adapted_system",
    "moving_frames.mean_curvature_exprs",
    "catalog.immersion",
    "catalog.engel_el_residual_exprs",
    "catalog.engel_theta_gradient_expr",
    "variation.critical_residual_exprs",
    "admissibility.residual",
    "admissibility.is_strongly_regular",
    "variation.mean_curvature",
    "variation.first_variation",
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Failure(Exception):
    pass


def run_child(argv, timeout: float):
    """Run one child to its end: (exit code, stdout, wall s, peak RSS MB)."""
    out_path = os.path.join(RUN_DIR, "child.out")
    err_path = os.path.join(RUN_DIR, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    if proc.returncode != 0:
        with open(err_path, "rb") as fh:
            tail = fh.read()[-2000:].decode("utf-8", "replace")
        sys.stderr.write(f"exit {proc.returncode}: {' '.join(argv[-8:])}\n{tail}\n")
    return proc.returncode, stdout, wall, usage.ru_maxrss / 1024.0


def tail_stat(samples):
    """Highest percentile with at least 10 samples beyond it: (value, pct, n)."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


class Run:
    """Counts, timings and checks of one benchmark run."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(seed)
        self.ref = cases.load_reference()
        self.attempted = 0
        self.failed = 0
        self.identical = 0
        self.op_s = []
        self.traced_op_s = []
        self.rss_mb = 0.0
        self.setup_s = []
        self.span_files = []
        self.started = perf_counter()

    def record(self, ok: bool, what: str, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            sys.stderr.write(f"FAILED {what}: {why}\n")

    # -- cli ----------------------------------------------------------------------

    def cli_op(self, kind: str, k: int, traced: bool) -> float:
        argv = cases.cli_argv(kind, k, RUN_DIR)
        if traced:
            spans = os.path.join(RUN_DIR, f"spans-{len(self.span_files)}.json")
            self.span_files.append(spans)
            cmd = [PY, os.path.join(HERE, "child.py"), spans, str(self.attempted + 1), "--", *argv]
        else:
            cmd = [PY, "-m", "gradedgeo.cli", *argv]
        code, stdout, wall, rss = run_child(cmd, OP_TIMEOUT_S)
        self.rss_mb = max(self.rss_mb, rss)
        ref = self.ref["cli"][kind][k]
        try:
            if code != 0:
                raise cases.CheckError(f"exit code {code}")
            cases.check_cli(kind, k, stdout, ref)
        except cases.CheckError as exc:
            self.record(False, f"{kind}[{k}]", str(exc))
        else:
            self.record(True, kind)
        self.identical += sha256(stdout).hexdigest() == ref["sha256"]
        return wall

    def cli_setup(self) -> None:
        """One cold ``import gradedgeo.cli``, the set-up every cli op pays."""
        code, _, wall, _ = run_child([PY, "-c", "import gradedgeo.cli"], OP_TIMEOUT_S)
        if code != 0:
            raise Failure("gradedgeo.cli does not import")
        self.setup_s.append(wall)

    def cli_timed(self, seconds: float) -> float:
        # set-up is sampled before every round, so its median spans the run
        # as the op times do
        cases.write_fields(RUN_DIR)
        elapsed = 0.0
        while elapsed < seconds or len(self.setup_s) < SETUP_REPEATS:
            self.cli_setup()
            t0 = perf_counter()
            for kind, k in cases.cli_ops(self.rng, 1):
                self.op_s.append(self.cli_op(kind, k, traced=False))
            elapsed += perf_counter() - t0
        return elapsed

    def cli_traced(self) -> None:
        cases.write_fields(RUN_DIR)
        ops = cases.cli_ops(self.rng, 1)
        self.op_s = [self.cli_op(kind, k, traced=False) for kind, k in ops]
        self.traced_op_s = [self.cli_op(kind, k, traced=True) for kind, k in ops]
        spans = os.path.join(RUN_DIR, f"spans-{len(self.span_files)}.json")
        self.span_files.append(spans)
        budget = RUN_LIMIT_S - (perf_counter() - self.started)
        code, stdout, _, rss = run_child(
            [PY, os.path.join(HERE, "child.py"), spans, str(self.attempted + 1), "--", "verify"],
            budget,
        )
        self.rss_mb = max(self.rss_mb, rss)
        try:
            if code != 0:
                raise cases.CheckError(f"exit code {code}")
            cases.check_verify(stdout)
            with open(spans, encoding="utf-8") as fh:
                ran = {span[3] for span in json.load(fh)["spans"]}
            missing = [c for c in cases.VERIFY_CHECKS if f"verify.{c}" not in ran]
            if missing:
                raise cases.CheckError(f"check_* functions that did not run: {missing}")
        except cases.CheckError as exc:
            self.record(False, "verify", str(exc))
        else:
            self.record(True, "verify")
        self.identical += sha256(stdout).hexdigest() == self.ref["verify"]["sha256"]

    # -- grid ---------------------------------------------------------------------

    def grid_worker(self, k: int, spans_file=None):
        argv = [PY, os.path.join(HERE, "grid_worker.py"), str(k)]
        if spans_file:
            argv.append(spans_file)
        err = open(os.path.join(RUN_DIR, "worker.err"), "wb")
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=err, env=child_env(), cwd=ROOT)
        err.close()
        return proc

    @staticmethod
    def ask(proc, request: str) -> dict:
        proc.stdin.write((request + "\n").encode())
        proc.stdin.flush()
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(OP_TIMEOUT_S):
                raise Failure(f"grid worker did not answer {request!r}")
        line = proc.stdout.readline()
        if not line:
            raise Failure(f"grid worker died on {request!r}; see .bench_run/worker.err")
        return json.loads(line)

    def stop_worker(self, proc) -> float:
        """Ask the worker to exit, reap it, return its peak RSS in MB."""
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            try:
                proc.stdin.write(b"exit\n")
                proc.stdin.close()
            except BrokenPipeError:  # the worker has died already
                pass
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return usage.ru_maxrss / 1024.0

    def grid_op(self, proc, step: str, k: int) -> float | None:
        reply = self.ask(proc, f"step {step} {self.attempted + 1}")
        if not reply["ok"]:
            self.record(False, f"grid {step}", reply["error"])
            return None
        try:
            cases.check_grid(step, k, reply["out"], self.ref["grid"][step][k])
        except cases.CheckError as exc:
            self.record(False, f"grid {step}[{k}]", str(exc))
        else:
            self.record(True, step)
        return reply["s"]

    def grid_round(self, proc, k: int, order) -> list[float]:
        times = [self.grid_op(proc, step, k) for step in order]
        return [t for t in times if t is not None]

    def grid_timed(self, seconds: float) -> float:
        # SETUP_REPEATS workers in turn, each set up from scratch and then
        # serving an equal share of the run, so set-up is sampled across it
        k = self.rng.randrange(cases.VARIANTS)
        elapsed = 0.0
        for segment in range(1, SETUP_REPEATS + 1):
            t0 = perf_counter()
            proc = self.grid_worker(k)
            try:
                self.ask(proc, "setup")
                self.setup_s.append(perf_counter() - t0)
                t0 = perf_counter()
                while elapsed + perf_counter() - t0 < seconds * segment / SETUP_REPEATS:
                    order = list(cases.GRID_STEPS)
                    self.rng.shuffle(order)
                    self.op_s.extend(self.grid_round(proc, k, order))
                elapsed += perf_counter() - t0
            finally:
                self.rss_mb = max(self.rss_mb, self.stop_worker(proc))
        return elapsed

    def grid_traced(self) -> None:
        k = self.rng.randrange(cases.VARIANTS)
        spans = os.path.join(RUN_DIR, "spans-0.json")
        self.span_files.append(spans)
        proc = self.grid_worker(k, spans)
        try:
            self.ask(proc, "setup")
            order = list(cases.GRID_STEPS)
            self.rng.shuffle(order)
            self.ask(proc, "untrace")
            self.op_s = self.grid_round(proc, k, order)
            self.ask(proc, "retrace")
            self.traced_op_s = self.grid_round(proc, k, order)
        finally:
            self.rss_mb = self.stop_worker(proc)

    # -- metrics ------------------------------------------------------------------

    def end_to_end(self, elapsed: float) -> dict:
        if not self.op_s:
            raise Failure("no op completed")
        tail, pct, n = tail_stat(self.op_s)
        print(f"op_s.tail is p{pct:.1f} of n={n} ops")
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "op_s.p50": (statistics.median(self.op_s), "s"),
            "op_s.tail": (tail, "s"),
            "ops_per_s": (len(self.op_s) / elapsed, "1/s"),
            "peak_rss_mb": (self.rss_mb, "MB"),
        }

    def per_layer(self) -> dict:
        summaries = []
        dumps = []
        for path in self.span_files:
            if not os.path.exists(path):  # the child died; its op is already failed
                continue
            with open(path, encoding="utf-8") as fh:
                dump = json.load(fh)
            os.remove(path)
            dumps.append(dump)
            summaries.append(tracer.summarize(dump["spans"]))
        with open(os.path.join(RUN_DIR, f"trace-{self.workload}-{self.seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(dumps, fh)
        total = tracer.merge(summaries)
        row = lambda name: total.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "attrs": []})

        def max_attr(name, key):
            return max((a.get(key, 0) for a in row(name)["attrs"]), default=0)

        evaluate = row("exprs.evaluate")
        node_points = sum(a["nodes"] * a["points"] for a in evaluate["attrs"])
        # the descended immersion: largest Jacobian built inside the
        # stationarity-residual check
        descended = {"nodes": 0, "component_nodes": 0}
        for dump in dumps:
            inside = tracer.ancestors_named(dump["spans"], "verify.el_residual")
            for sid, _p, _op, name, *_rest, attrs in dump["spans"]:
                if name == "immersion.jacobian_exprs" and sid in inside and attrs \
                        and attrs.get("nodes", 0) > descended["nodes"]:
                    descended = attrs
        frames = row("admissibility.frames_for")
        hits = sum(1 for a in frames["attrs"] if a.get("hit"))
        imports = [d["import_s"] for d in dumps if "import_s" in d]
        overhead = (statistics.median(self.traced_op_s) - statistics.median(self.op_s)
                    if self.traced_op_s and self.op_s else 0.0)

        m = {
            "exprs.diff.s": (row("exprs.diff")["s"], "s"),
            "exprs.diff.calls": (row("exprs.diff")["calls"], "count"),
            "exprs.evaluate.s": (evaluate["s"], "s"),
            "exprs.evaluate.calls": (evaluate["calls"], "count"),
            "exprs.evaluate.node_points": (node_points, "count"),
            "exprs.evaluate.ns_per_node_point": (
                1e9 * evaluate["s"] / node_points if node_points else 0.0, "ns"),
            "exprs.parse.s": (row("exprs.parse")["s"], "s"),
            "dag.el_residual.nodes": (max_attr("catalog.engel_el_residual_exprs", "nodes"), "count"),
            "dag.theta_gradient.nodes": (max_attr("catalog.engel_theta_gradient_expr", "nodes"), "count"),
            "dag.descended_components.nodes": (descended["component_nodes"], "count"),
            "dag.descended_jacobian.nodes": (descended["nodes"], "count"),
        }
        for name in TIMED_LAYERS:
            m[f"{name}.s"] = (row(name)["s"], "s")
            m[f"{name}.self_s"] = (row(name)["self_s"], "s")
        m["admissibility.frames_for.hit_ratio"] = (
            hits / frames["calls"] if frames["calls"] else 0.0, "ratio")
        m["cli.import.s"] = (statistics.median(imports) if imports else 0.0, "s")
        for sub in cases.SUBCOMMANDS:
            m[f"cli.{sub}.s"] = (row(f"cli.{sub}")["s"], "s")
        for check in cases.VERIFY_CHECKS:
            m[f"verify.{check}.s"] = (row(f"verify.{check}")["s"], "s")
        m["cli.bytes_identical"] = (self.identical, "count")
        m["fail_frac"] = (self.failed / self.attempted, "ratio")
        m["trace.overhead_s"] = (overhead, "s")
        return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("cli", "grid"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gradedgeo", "cli.py")):
        sys.stderr.write("run from the root of a gradedgeo checkout (src/gradedgeo missing)\n")
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)
    run = Run(args.workload, args.seed)
    try:
        if args.trace:
            run.cli_traced() if args.workload == "cli" else run.grid_traced()
            metrics = run.per_layer()
        else:
            elapsed = (run.cli_timed if args.workload == "cli" else run.grid_timed)(args.seconds)
            metrics = run.end_to_end(elapsed)
    except Failure as exc:
        sys.stderr.write(f"benchmark aborted: {exc}\n")
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
