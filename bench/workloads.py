"""The benchmark's workloads: what one client call runs and how it is checked.

Each workload is driven by one client in a closed loop: run.py calls
call(i) for i = 0, 1, ... and starts call i+1 only when call i has
returned.  A call returns one TaskRecord per task it ran (a solve, a
sweep cell or a CLI check) plus the bytes of its output CSVs, which
run.py hashes over the first `digest_calls` calls.

    recover       planted noiseless instances built and solved through
                  solvers.solve on the README net (8, 250, 600), cycling CS (m=150), DEN and PR
                  (m=300).  Propagation-bound: about six layer sweeps per
                  iteration, no geometry or conditions work.
    spiked-sweep  `gpnet experiment` over a SPIKED_WISHART sigma grid on
                  (6, 200, 400) with two pool workers.  Bound by the
                  n_out x n_out outer residual and per-cell instance
                  builds, not by propagation.
    conditions    `gpnet conditions` on the k=4 d=3 recipe net plus
                  `gpnet check-patterns --rows 20 --cols 30 --ell 3`.
                  Dense geometry (spectral norms, Q matrices) and the
                  condition estimators; the solver never runs.

Correctness checks are plain functions of a task's output so that tests
can feed them deliberately wrong results.
"""

from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
import csv
import io
import math
import os
import time

import numpy as np

from gpnet import cli, harness, net as gnet, solvers

REL_ERR_TOL = 1e-5


@dataclass(frozen=True)
class TaskRecord:
    seconds: float
    ok: bool
    note: str = ""


def planted_error(weights, kind, final_x, y_star):
    """Relative signal error of a solve, recomputed without gpnet.

    PR observes |A G(x)| and cannot tell G(x*) from -G(x*), so its error
    is sign-aware, as in the acceptance test.
    """
    g = np.asarray(final_x, dtype=np.float64)
    for w in weights:
        g = np.maximum(w @ g, 0.0)
    ny = float(np.linalg.norm(y_star))
    err = float(np.linalg.norm(g - y_star))
    if kind == "PR":
        err = min(err, float(np.linalg.norm(g + y_star)))
    return err / ny


def check_recovery(err):
    """'' when a noiseless solve recovered its signal, else the reason."""
    if not math.isfinite(err):
        return f"non-finite relative error {err!r}"
    if err > REL_ERR_TOL:
        return f"relative signal error {err!r} above {REL_ERR_TOL!r}"
    return ""


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def check_sweep_csv(text, expected_cells):
    """Per-cell failure notes of an experiment CSV, keyed by (value, seed).

    A cell fails when it is marked failed=1 or reports a non-finite error;
    a missing or extra row fails the whole call (key None).
    """
    rows = _csv_rows(text)
    notes = {}
    got = {(float(r["sweep_value"]), int(r["seed"])) for r in rows}
    if got != set(expected_cells) or len(rows) != len(expected_cells):
        notes[None] = f"expected cells {sorted(expected_cells)}, got {sorted(got)}"
    for r in rows:
        key = (float(r["sweep_value"]), int(r["seed"]))
        errs = (float(r["final_signal_err"]), float(r["final_latent_err"]))
        if r["failed"] != "0":
            notes[key] = "cell failed"
        elif not all(math.isfinite(e) for e in errs):
            notes[key] = f"non-finite errors {errs}"
    return notes


def check_conditions_csv(text):
    """'' when every statistic of a condition report is finite."""
    rows = _csv_rows(text)
    if not rows:
        return "empty report"
    bad = [f"{r['condition']}/{r['layer']}/{r['statistic']}={r['value']}"
           for r in rows if not math.isfinite(float(r["value"]))]
    return f"non-finite statistics: {', '.join(bad)}" if bad else ""


def check_pattern_csv(text, rows):
    """'' when an ell=3 count over `rows` generic rows is rows^2 - rows + 2.

    m generic central planes cut R^3 into exactly m^2 - m + 2 chambers.
    """
    want = rows * rows - rows + 2
    counts = [float(r["value"]) for r in _csv_rows(text)
              if r["condition"] == "PATTERN_COUNT" and r["statistic"] == "count"]
    if counts != [float(want)]:
        return f"pattern count {counts} != {want}"
    return check_conditions_csv(text)


def run_cli(argv):
    """cli.main with its chatter captured; returns (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().strip()


def _read(path):
    with open(path, "rb") as f:
        return f.read()


# ---------------------------------------------------------------------------


class Recover:
    """Planted noiseless solves cycling CS, DEN and PR on one net.

    A task builds one planted instance and solves it.  Instance seeds
    come from a pool of 100 per kind, every one of which recovers to
    REL_ERR_TOL on this net; --seed shuffles each kind's pool, so a run
    solves a seed-dependent selection in a seed-dependent order.  The pool
    leaves out PR seed 59: like a few percent of PR instances (the
    acceptance gate lets 2 of 10 miss), it never recovers and runs the
    full t_max, which says nothing about speed and would fail the run.
    """

    name = "recover"
    dims = (8, 250, 600)
    net_seed = 0
    kinds = (("CS", 150), ("DEN", None), ("PR", 300))
    pool = range(100)
    not_recovering = {"PR": (59,)}
    digest_calls = 6
    trace_calls = 6
    trace_jobs = None
    solver = dict(c_step=0.2, t_max=5000)

    def __init__(self, seed, work_dir, jobs):
        self.seed = int(seed)

    def setup(self):
        self.net = gnet.sample_gaussian_net(self.dims, self.net_seed)
        rng = np.random.default_rng(self.seed)
        per_kind = []
        for kind, m in self.kinds:
            seeds = [s for s in self.pool if s not in self.not_recovering.get(kind, ())]
            per_kind.append([(kind, m, int(s)) for s in rng.permutation(seeds)])
        self.tasks = [t for row in zip(*per_kind) for t in row]

    def teardown(self):
        pass

    def warmup(self):
        kind, m, inst_seed = self.tasks[0]
        inst = solvers.make_instance(kind, self.net, m=m, seed=inst_seed)
        solvers.solve(inst, solvers.SolverConfig(c_step=self.solver["c_step"],
                                                 t_max=20, seed=inst_seed))

    def call(self, i):
        kind, m, inst_seed = self.tasks[i % len(self.tasks)]
        start = time.perf_counter()
        try:
            inst = solvers.make_instance(kind, self.net, m=m, seed=inst_seed)
            tr = solvers.solve(inst, solvers.SolverConfig(seed=inst_seed, **self.solver))
        except Exception as e:  # a divergence or crash is a failed task
            return [TaskRecord(time.perf_counter() - start, False, repr(e))], b""
        seconds = time.perf_counter() - start
        err = planted_error(self.net.weights, kind, tr.final_x, inst.y_star)
        note = check_recovery(err)
        return [TaskRecord(seconds, not note, note)], tr.csv_text().encode()


class SpikedSweep:
    """`gpnet experiment` calls over a SPIKED_WISHART sigma grid."""

    name = "spiked-sweep"
    dims = (6, 200, 400)
    sigmas = (0.0, 0.05, 0.1, 0.2)
    seeds_per_call = 2
    n_samples = 2000
    solver = dict(c_step=1.0, t_max=300)
    digest_calls = 1
    trace_calls = 1
    trace_jobs = 1  # the traced run keeps every cell span in one process
    cell_time_key = "bench_cell_s"

    def __init__(self, seed, work_dir, jobs):
        self.seed = int(seed)
        self.work_dir = work_dir
        self.jobs = jobs

    def setup(self):
        # Per-cell task times come from a timer around harness.run_cell,
        # which the pool workers inherit by fork; the rows it tags are
        # captured where the CLI receives them.  Neither changes the CSVs.
        run_cell = harness.run_cell
        key = self.cell_time_key

        def timed_run_cell(*args, **kwargs):
            start = time.perf_counter()
            row = run_cell(*args, **kwargs)
            return dict(row, **{key: time.perf_counter() - start})

        run_experiment = cli.run_experiment
        captured = self.captured = []

        def capturing_run_experiment(*args, **kwargs):
            rows, summary = run_experiment(*args, **kwargs)
            captured.append(rows)
            return rows, summary

        harness.run_cell = timed_run_cell
        cli.run_experiment = capturing_run_experiment
        self._restore = ((harness, "run_cell", run_cell),
                         (cli, "run_experiment", run_experiment))

    def teardown(self):
        for mod, attr, fn in self._restore:
            setattr(mod, attr, fn)

    def warmup(self):
        pass

    def cells(self, i):
        seeds = [1000 * self.seed + self.seeds_per_call * i + s
                 for s in range(self.seeds_per_call)]
        return seeds, [(float(v), s) for v in self.sigmas for s in seeds]

    def config_text(self, i, out):
        seeds, _ = self.cells(i)
        return (
            "[experiment]\nname = spiked-sweep\nkind = SPIKED_WISHART\n"
            "sweep = sigma\n"
            f"values = {', '.join(repr(v) for v in self.sigmas)}\n"
            f"seeds = {', '.join(str(s) for s in seeds)}\n"
            f"[net]\ndims = {', '.join(str(n) for n in self.dims)}\n"
            f"seed = {self.seed}\n"
            f"[instance]\nn_samples = {self.n_samples}\n"
            f"[solver]\nc_step = {self.solver['c_step']!r}\n"
            f"t_max = {self.solver['t_max']}\n"
            f"[output]\npath = {out}\n")

    def call(self, i):
        _, cells = self.cells(i)
        cfg = os.path.join(self.work_dir, f"sweep-{i}.ini")
        out = os.path.join(self.work_dir, f"sweep-{i}.csv")
        with open(cfg, "w") as f:
            f.write(self.config_text(i, out))
        del self.captured[:]
        start = time.perf_counter()
        code, err = run_cli(["experiment", "--config", cfg, "--jobs", str(self.jobs)])
        wall = time.perf_counter() - start
        if code != 0 or len(self.captured) != 1:
            note = f"experiment exited {code}: {err}"
            return [TaskRecord(wall, False, note) for _ in cells], b""
        text = _read(out)
        summary = _read(harness.summary_path_for(out))
        notes = check_sweep_csv(text.decode(), cells)
        times = {(float(r["sweep_value"]), int(r["seed"])): r[self.cell_time_key]
                 for r in self.captured[0]}
        records = []
        for c in cells:
            note = notes.get(c) or notes.get(None) or ("" if c in times else "untimed")
            records.append(TaskRecord(times.get(c, wall), not note, note))
        return records, text + summary


class Conditions:
    """`gpnet conditions` on the recipe net plus exact pattern counts."""

    name = "conditions"
    recipe = "k=4 d=3"
    suite = ("--samples", "10", "--pairs", "5")
    pattern_rows = 20
    pattern_cols = 30
    # two suites per pattern count, so the median task is a suite
    cycle = ("conditions", "conditions", "check-patterns")
    digest_calls = 3
    trace_calls = 3
    trace_jobs = None

    def __init__(self, seed, work_dir, jobs):
        self.seed = int(seed)
        self.work_dir = work_dir

    def setup(self):
        pass

    def teardown(self):
        pass

    def warmup(self):
        out = os.path.join(self.work_dir, "warmup.csv")
        run_cli(["conditions", "--recipe", self.recipe, "--samples", "1",
                 "--pairs", "1", "--out", out])
        os.remove(out)

    def argv(self, i):
        command = self.cycle[i % len(self.cycle)]
        seed = str(1000 * self.seed + i)
        out = os.path.join(self.work_dir, f"{command}-{i}.csv")
        if command == "conditions":
            return command, out, [command, "--recipe", self.recipe,
                                  "--net-seed", str(self.seed), *self.suite,
                                  "--seed", seed, "--out", out]
        return command, out, [command, "--rows", str(self.pattern_rows),
                              "--cols", str(self.pattern_cols), "--ell", "3",
                              "--seed", seed, "--out", out]

    def call(self, i):
        command, out, argv = self.argv(i)
        start = time.perf_counter()
        code, err = run_cli(argv)
        seconds = time.perf_counter() - start
        if code != 0:
            return [TaskRecord(seconds, False, f"{command} exited {code}: {err}")], b""
        data = _read(out)
        os.remove(out)
        if command == "conditions":
            note = check_conditions_csv(data.decode())
        else:
            note = check_pattern_csv(data.decode(), self.pattern_rows)
        return [TaskRecord(seconds, not note, note)], data


WORKLOADS = {w.name: w for w in (Recover, SpikedSweep, Conditions)}

# Sizes for the benchmark's own tests: the same code paths in a few seconds.
SMOKE = {
    "recover": dict(pool=range(1), digest_calls=3, trace_calls=3),
    "spiked-sweep": dict(dims=(3, 20, 40), sigmas=(0.0, 0.1), seeds_per_call=1,
                         n_samples=100, solver=dict(c_step=1.0, t_max=30)),
    "conditions": dict(suite=("--samples", "2", "--pairs", "1"), pattern_rows=8,
                       pattern_cols=12),
}


def smoke(cls):
    """The workload class at smoke size."""
    return type(cls.__name__, (cls,), SMOKE[cls.name])
