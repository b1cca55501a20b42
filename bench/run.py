"""Layered benchmark for gpnet.

    python3 bench/run.py --workload recover --seed 1 --seconds 35 --trace 0
    python3 -m pytest -q bench          # the benchmark's own tests

Runs one workload (recover, spiked-sweep or conditions; see workloads.py)
from the gpnet sources under src/ of the checkout it sits in.  --seed
makes the workload's inputs.  One client drives the workload in a closed
loop for --seconds seconds, every task's output is checked, and the last
line of stdout is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 measures untraced and reports the end-to-end metrics:

    setup_s      median, over SETUP_PROBES fresh processes, of the time from
                 spawning one to its first task being ready (imports, net
                 sampling, anything built in advance)
    tasks_per_s  tasks completed per second, median over THROUGHPUT_SLICES
                 consecutive slices of the timed phase
    task_p50_s   median task time
    task_tail_s  task time at the highest percentile with TAIL_BEYOND tasks
                 beyond it (the percentile goes to the report file)
    peak_rss_mb  peak resident memory of the workload's processes

A task is one solve, one sweep cell or one CLI check; a task that raises
or fails its check counts in "failed".

--trace 1 runs a fixed list of tasks untraced and under the outside-in
span tracer of spans.py, alternately and twice each, and reports the
per-layer call counts, self times and counters of the last traced pass,
plus the tracing overhead: the fastest traced pass minus the fastest
untraced one.

What is not a metric (environment, output SHA-256 digests, the tail
percentile, the failure fraction and notes) goes to
bench/out/<workload>-seed<N>-trace<T>.json, and a traced run's spans to
bench/out/<workload>-seed<N>.spans.csv.gz.

At most two compute threads run, BLAS threads included: recover uses one
process with one BLAS thread, conditions one process with two, and
spiked-sweep two pool workers with one BLAS thread each (fewer when the
machine has one core).
"""

import argparse
import hashlib
import json
import os
from pathlib import Path
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("recover", "spiked-sweep", "conditions")
SETUP_PROBES = 8
TRACE_REPEATS = 2  # untraced and traced phases alternate; each keeps its fastest
TAIL_BEYOND = 10
THROUGHPUT_SLICES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("task_p50_s", "s"),
    ("task_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)

LAYERS = ("net", "geometry", "solvers", "conditions", "harness", "cli", "rng")
CALLS = ("net.forward", "net.preactivations", "net.apply_masked_t",
         "net.linear_path", "solvers.loss", "solvers.subgradient",
         "geometry.spectral_norm", "geometry.q_matrix",
         "conditions.masked_gram_deviation", "conditions.r2wdc_tuple_value",
         "conditions.pattern_count_exact", "harness.run_cell", "rng.sub_rng")
SELF_TIMES = ("net.forward", "net.preactivations", "net.apply_masked_t",
              "net.linear_path", "net.sample_gaussian_net", "solvers.loss",
              "solvers.subgradient", "solvers.solve", "solvers.make_instance",
              "geometry.spectral_norm", "geometry.q_matrix",
              "geometry.angle_profile", "conditions.masked_gram_deviation",
              "conditions.r2wdc_tuple_value", "conditions.lambda_concentration",
              "conditions.norm_angle_report", "conditions.pattern_count_exact",
              "harness.run_cell", "harness.run_experiment", "cli.main",
              "rng.sub_rng")
COUNTERS = (
    ("net.layer_passes", "count"),
    ("solvers.iterations", "count"),
    ("solvers.negations", "count"),
    ("solvers.step_tol_frac", "ratio"),
    ("solvers.layer_passes_per_iter", "sweeps/iter"),
    ("geometry.dense_decomps", "count"),
    ("conditions.r2wdc.skipped_frac", "ratio"),
    ("harness.cells_failed_frac", "ratio"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)
PER_LAYER = (tuple((f"{name}.calls", "count") for name in CALLS)
             + tuple((f"{name}.self_s", "s") for name in SELF_TIMES)
             + tuple((f"{layer}.self_s", "s") for layer in LAYERS)
             + COUNTERS)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny problem sizes, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def compute_plan(workload):
    """(BLAS threads per process, pool workers) within two compute threads.

    recover keeps one BLAS thread: its matrix-vector products are too
    small to gain from a second one, and threaded ones measured slower
    and less steady.
    """
    cores = min(2, os.cpu_count() or 1)
    if workload == "spiked-sweep":
        return 1, cores
    if workload == "recover":
        return 1, 1
    return cores, 1


def import_program():
    """Put the checkout's src/ first on the path and import gpnet from it."""
    if not (SRC / "gpnet" / "__init__.py").is_file():
        sys.exit(f"error: no gpnet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gpnet
    if Path(gpnet.__file__).resolve().parent != SRC / "gpnet":
        sys.exit(f"error: imported gpnet from {gpnet.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def closed_loop(wl, seconds=None, calls=None):
    """Run wl.call(0), wl.call(1), ... back to back.

    Stops after `calls` calls, or once `seconds` have passed and the
    digest calls are done.  Returns the task records, the output sha256
    and, per call, (seconds since start when it returned, tasks ok).
    """
    records = []
    marks = []
    digest = hashlib.sha256()
    i = 0
    start = time.perf_counter()
    while True:
        recs, out = wl.call(i)
        records.extend(recs)
        marks.append((time.perf_counter() - start, sum(r.ok for r in recs)))
        if i < wl.digest_calls:
            digest.update(out)
        i += 1
        if calls is not None:
            if i >= calls:
                break
        elif i >= wl.digest_calls and marks[-1][0] >= seconds:
            break
    return records, digest.hexdigest(), marks


def throughput(marks):
    """Median over THROUGHPUT_SLICES consecutive slices of the calls of
    tasks completed per second, so that a burst of load from outside the
    benchmark moves one slice rather than the result."""
    n = len(marks)
    k = min(THROUGHPUT_SLICES, n)
    edges = [round(j * n / k) for j in range(k + 1)]
    rates = []
    for a, b in zip(edges, edges[1:]):
        begin = marks[a - 1][0] if a else 0.0
        rates.append(sum(ok for _, ok in marks[a:b]) / (marks[b - 1][0] - begin))
    return statistics.median(rates)


def measure_setup(args, probes):
    """Seconds from spawning a fresh process to its first task being
    ready, for each of `probes` processes run one after another."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        times.append(time.perf_counter() - start)
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {err}")
    return times


def tail(times):
    """(value, percentile, tasks beyond) of the highest percentile with
    at least TAIL_BEYOND tasks beyond it; the maximum if there are too
    few tasks."""
    s = sorted(times)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def peak_rss_mb():
    """Peak resident set of this process or any child it waited for (pool
    workers and setup probes); ru_maxrss is in KiB on Linux."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "gpnet").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_info(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}
    return {"name": blas.get("name", "unknown"),
            "version": blas.get("version", "unknown")}


def environment(args, threads, jobs):
    import numpy as np
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "blas_threads": threads,
        "pool_workers": jobs,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def run_untraced(args, wl_cls, work_dir, jobs):
    # half the setup probes run before the timed phase and half after, so
    # that their median spans the run's machine load
    setup_runs = measure_setup(args, SETUP_PROBES // 2)
    wl = wl_cls(args.seed, work_dir, jobs)
    wl.setup()
    try:
        wl.warmup()
        records, digest, marks = closed_loop(wl, seconds=args.seconds)
    finally:
        wl.teardown()
    setup_runs += measure_setup(args, SETUP_PROBES - SETUP_PROBES // 2)
    times = [r.seconds for r in records]
    ok = sum(r.ok for r in records)
    tail_s, tail_pct, beyond = tail(times)
    metrics = {
        "setup_s": statistics.median(setup_runs),
        "tasks_per_s": throughput(marks),
        "task_p50_s": statistics.median(times),
        "task_tail_s": tail_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {
        "setup_runs_s": setup_runs,
        "timed_s": marks[-1][0],
        "tasks_per_s_overall": ok / marks[-1][0],
        "tasks": len(records),
        "fail_frac": (len(records) - ok) / len(records),
        "task_tail": {"percentile": tail_pct, "tasks": len(records),
                      "beyond": beyond},
        "output_sha256": digest,
        "digest_calls": wl.digest_calls,
    }
    return records, metrics, details, True


def run_task_list(wl_cls, args, work_dir, jobs, tracer=None):
    """Set up the workload and run its fixed trace task list once, under
    `tracer` if one is given; returns (records, output sha256, seconds)."""
    start = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        wl = wl_cls(args.seed, work_dir, jobs)
        wl.setup()
        try:
            records, digest, _ = closed_loop(wl, calls=wl.trace_calls)
        finally:
            wl.teardown()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return records, digest, time.perf_counter() - start


def per_layer_metrics(tracer, untraced_s, traced_s):
    c = tracer.counters
    m = {f"{name}.calls": tracer.calls(name) for name in CALLS}
    m.update({f"{name}.self_s": tracer.self_s(name) for name in SELF_TIMES})
    m.update({f"{layer}.self_s": tracer.layer_self_s(layer) for layer in LAYERS})

    def ratio(num, den):
        return num / den if den else 0.0

    m.update({
        "net.layer_passes": c["net.layer_passes"],
        "solvers.iterations": c["solvers.iterations"],
        "solvers.negations": c["solvers.negations"],
        "solvers.step_tol_frac": ratio(c["solvers.step_tol_stops"],
                                       c["solvers.solves"]),
        "solvers.layer_passes_per_iter": ratio(c["solvers.iteration_sweeps"],
                                               c["solvers.subgradients_in_solve"]),
        "geometry.dense_decomps": c["geometry.dense_decomps"],
        "conditions.r2wdc.skipped_frac": ratio(
            c["conditions.r2wdc.skipped"],
            tracer.calls("conditions.r2wdc_tuple_value")),
        "harness.cells_failed_frac": ratio(c["harness.cells_failed"],
                                           tracer.calls("harness.run_cell")),
        "trace.untraced_wall_s": untraced_s,
        "trace.traced_wall_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    })
    return m


def run_traced(args, wl_cls, work_dir, jobs):
    from spans import Tracer

    trace_jobs = wl_cls.trace_jobs or jobs
    warm = wl_cls(args.seed, work_dir, trace_jobs)
    warm.setup()
    try:
        warm.warmup()
    finally:
        warm.teardown()
    records, traced, digests = [], [], {}
    untraced_s, traced_s = [], []
    for rep in range(TRACE_REPEATS):
        recs, digests[f"untraced_jobs{trace_jobs}_{rep}"], seconds = run_task_list(
            wl_cls, args, work_dir, trace_jobs)
        records += recs
        untraced_s.append(seconds)
        tracer = Tracer()
        traced, digests[f"traced_jobs{trace_jobs}_{rep}"], seconds = run_task_list(
            wl_cls, args, work_dir, trace_jobs, tracer)
        records += traced
        traced_s.append(seconds)
    if trace_jobs != jobs:
        recs, digests[f"untraced_jobs{jobs}"], _ = run_task_list(
            wl_cls, args, work_dir, jobs)
        records += recs
    same = len(set(digests.values())) == 1
    spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.csv.gz"
    tracer.write(spans_path)
    untraced, traced_wall = min(untraced_s), min(traced_s)
    metrics = per_layer_metrics(tracer, untraced, traced_wall)
    details = {
        "tasks": len(traced),
        "output_sha256": digests,
        "digests_equal": same,
        "trace_overhead": {"untraced_s": untraced_s, "traced_s": traced_s,
                           "overhead_s": traced_wall - untraced,
                           "overhead_frac": (traced_wall - untraced) / untraced},
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return records, metrics, details, same


def main(argv=None):
    args = parse_args(argv)
    threads, jobs = compute_plan(args.workload)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    import_program()
    import workloads

    wl_cls = workloads.WORKLOADS[args.workload]
    if args.smoke:
        wl_cls = workloads.smoke(wl_cls)
    if args.setup_probe:
        wl = wl_cls(args.seed, None, jobs)
        wl.setup()
        print("ready", flush=True)
        wl.teardown()
        return 0

    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir()
    try:
        run = run_traced if args.trace else run_untraced
        records, metrics, details, consistent = run(args, wl_cls, str(work_dir), jobs)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    notes = [r.note for r in records if not r.ok]
    units = dict(PER_LAYER if args.trace else END_TO_END)
    result = {
        "correct": consistent and not notes,
        "attempted": len(records),
        "failed": len(notes),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    report = dict(result, environment=environment(args, threads, jobs),
                  details=details, failure_notes=notes[:20])
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"tasks={len(records)} failed={len(notes)} report={report_path.relative_to(ROOT)}")
    if not args.trace:
        t = details["task_tail"]
        print(f"task_tail_s is p{t['percentile']:.1f} of {t['tasks']} tasks "
              f"({t['beyond']} beyond); fail_frac={details['fail_frac']}")
    print(f"output_sha256={details['output_sha256']}")
    for note in notes[:5]:
        print(f"failure: {note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
