"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest -q bench
"""

import csv
import io
import json
import math
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from gpnet import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in want}
    for m in want:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in want)


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for name in ("run.py", "workloads.py", "spans.py"):
        (tmp_path / "bench" / name).write_bytes((HERE / name).read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "recover", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_has_ten_tasks_beyond_it():
    value, percentile, beyond = run.tail([float(t) for t in range(1, 41)])
    assert (value, percentile, beyond) == (30.0, 75.0, 10)


# -- each correctness check rejects a deliberately wrong result -------------

def test_recovery_check():
    assert workloads.check_recovery(3e-11) == ""
    assert workloads.check_recovery(1.1e-5) != ""
    assert workloads.check_recovery(float("nan")) != ""


def test_phase_retrieval_error_is_sign_aware():
    weights = [np.eye(3)]
    x = np.array([1.0, 2.0, 3.0])
    assert workloads.planted_error(weights, "PR", x, -x) == 0.0
    assert workloads.planted_error(weights, "CS", x, -x) == 2.0


def _sweep_csv(failed_cell=None, drop_cell=None):
    lines = ["sweep_value,seed,final_signal_err,final_latent_err,iters,"
             "negations,failed"]
    for cell in [(0.0, 5), (0.1, 5)]:
        if cell == drop_cell:
            continue
        failed = int(cell == failed_cell)
        err = "nan" if failed else "0.01"
        lines.append(f"{cell[0]!r},{cell[1]},{err},{err},300,0,{failed}")
    return "\n".join(lines) + "\n"


def test_sweep_check():
    cells = [(0.0, 5), (0.1, 5)]
    assert workloads.check_sweep_csv(_sweep_csv(), cells) == {}
    assert set(workloads.check_sweep_csv(_sweep_csv(failed_cell=(0.1, 5)),
                                         cells)) == {(0.1, 5)}
    assert None in workloads.check_sweep_csv(_sweep_csv(drop_cell=(0.0, 5)), cells)


def _cli_csv(tmp_path, argv):
    out = tmp_path / "out.csv"
    code, err = workloads.run_cli(argv + ["--out", str(out)])
    assert code == 0, err
    return out.read_text()


def _replace_value(text, statistic, value):
    rows = list(csv.DictReader(io.StringIO(text)))
    for r in rows:
        if r["statistic"] == statistic:
            r["value"] = value
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    w.writeheader()
    w.writerows(rows)
    return buf.getvalue()


def test_pattern_count_check(tmp_path):
    text = _cli_csv(tmp_path, ["check-patterns", "--rows", "8", "--cols", "12",
                               "--ell", "3", "--seed", "2"])
    assert workloads.check_pattern_csv(text, 8) == ""
    assert workloads.check_pattern_csv(_replace_value(text, "count", "57.0"), 8) != ""


def test_conditions_check(tmp_path):
    text = _cli_csv(tmp_path, ["conditions", "--recipe", "k=4 d=3",
                               "--samples", "2", "--pairs", "1"])
    assert workloads.check_conditions_csv(text) == ""
    assert workloads.check_conditions_csv(
        _replace_value(text, "gram_gap_max", "nan")) != ""


def test_cli_is_restored_after_a_sweep(tmp_path):
    wl = workloads.smoke(workloads.SpikedSweep)(1, str(tmp_path), 1)
    before = cli.run_experiment
    wl.setup()
    try:
        records, out = wl.call(0)
    finally:
        wl.teardown()
    assert cli.run_experiment is before
    assert all(r.ok for r in records) and len(records) == 2
    assert out.startswith(b"sweep_value,seed,")
