import concurrent.futures
import csv
import io
import math
import os

import numpy as np
import pytest

from gpnet.cli import main
from gpnet.conditions import log_piece_count_bounds
from gpnet.errors import ValidationError
from gpnet.harness import (ExperimentSpec, _cell_dims, experiment_csv_text,
                           parse_experiment_config, run_cell,
                           run_condition_suite, run_experiment,
                           summary_csv_text, summary_path_for)
from gpnet.net import contractive_example_dims, load_net, sample_gaussian_net
from gpnet.solvers import SolverConfig


CONFIG = """
[experiment]
name = smoke
kind = CS
sweep = m
values = 100, 200
seeds = 0:3

[net]
dims = 8, 250, 600
seed = 11

[instance]
eta_norm = 0.1

[solver]
c_step = 0.2
t_max = 300

[output]
path = smoke.csv
"""


def small_spec(**over):
    base = dict(name="t", kind="DEN", sweep_axis="sigma",
                sweep_values=(0.0, 0.05), seeds=(0, 1), dims=(4, 40, 30),
                net_seed=2, solver=SolverConfig(t_max=120))
    base.update(over)
    return ExperimentSpec(**base)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_config_full_roundtrip():
    spec = parse_experiment_config(CONFIG)
    assert spec.name == "smoke"
    assert spec.kind == "CS"
    assert spec.sweep_axis == "m"
    assert spec.sweep_values == (100, 200)
    assert spec.seeds == tuple(range(3))
    assert spec.dims == (8, 250, 600)
    assert spec.net_seed == 11
    assert spec.eta_norm == 0.1
    assert spec.solver.c_step == 0.2
    assert spec.solver.t_max == 300
    assert spec.out == "smoke.csv"


def test_config_seed_list_matches_range():
    a = parse_experiment_config(CONFIG.replace("0:3", "0, 1, 2"))
    b = parse_experiment_config(CONFIG)
    assert a.seeds == b.seeds


def test_config_recipe_dims():
    spec = parse_experiment_config(
        CONFIG.replace("dims = 8, 250, 600", "recipe = k=4 d=3 c_bar=2"))
    assert spec.dims == contractive_example_dims(4, 3, c_bar=2.0).dims


@pytest.mark.parametrize("mangle", [
    lambda c: c.replace("[experiment]", "[whatever]"),
    lambda c: c.replace("kind = CS", ""),
    lambda c: c.replace("sweep = m", "sweep = banana"),
    lambda c: c.replace("values = 100, 200", "values = abc"),
    lambda c: c.replace("seeds = 0:3", "seeds = 3:3"),
    lambda c: c.replace("dims = 8, 250, 600", "recipe = q=1"),
    lambda c: c.replace("[net]\ndims = 8, 250, 600\nseed = 11", "[net]\nseed = 11"),
])
def test_config_rejects_malformed(mangle):
    with pytest.raises(ValidationError):
        parse_experiment_config(mangle(CONFIG))


BAD_RECIPES = ("k=abc d=3", "k=inf d=3", "k=nan d=3", "k=4.7 d=3", "k=4 d=3.5",
               "k=4 d=3 c_bar=inf")


@pytest.mark.parametrize("recipe", BAD_RECIPES)
def test_config_rejects_bad_recipe_values(recipe):
    with pytest.raises(ValidationError, match="recipe"):
        parse_experiment_config(
            CONFIG.replace("dims = 8, 250, 600", f"recipe = {recipe}"))


@pytest.mark.parametrize("recipe", BAD_RECIPES)
def test_cli_rejects_bad_recipe_values(recipe, capsys):
    assert main(["conditions", "--recipe", recipe, "--samples", "1",
                 "--pairs", "1"]) == 1
    assert "recipe" in capsys.readouterr().err


def test_spec_validates_fields():
    with pytest.raises(ValidationError):
        small_spec(kind="NOPE")
    with pytest.raises(ValidationError):
        small_spec(sweep_values=())
    with pytest.raises(ValidationError):
        small_spec(seeds=())
    with pytest.raises(ValidationError):
        small_spec(sweep_axis="alpha")


# ---------------------------------------------------------------------------
# sweep mechanics
# ---------------------------------------------------------------------------

def test_cell_dims_per_axis():
    spec = small_spec(sweep_axis="width")
    assert _cell_dims(spec, 25) == (4, 25, 25)
    spec = small_spec(sweep_axis="depth")
    assert _cell_dims(spec, 4) == (4, 40, 40, 40, 40)
    spec = small_spec(sweep_axis="sigma")
    assert _cell_dims(spec, 0.3) == (4, 40, 30)


def test_single_cell_single_row():
    spec = small_spec(sweep_values=(0.0,), seeds=(5,))
    rows, summary = run_experiment(spec)
    assert len(rows) == 1 and len(summary) == 1
    assert rows[0]["seed"] == 5
    assert rows[0]["failed"] == 0
    assert summary[0]["cells"] == 1


def test_run_cell_deterministic():
    spec = small_spec()
    a = run_cell(spec, 0.05, 1)
    b = run_cell(spec, 0.05, 1)
    assert a == b


def test_rows_sorted_by_value_then_seed():
    spec = small_spec(sweep_values=(0.05, 0.0), seeds=(1, 0))
    rows, _ = run_experiment(spec)
    coords = [(r["sweep_value"], r["seed"]) for r in rows]
    assert coords == sorted(coords)


def test_failed_cells_marked_not_fatal():
    # depth 1 with this step size multiplies the iterate out of range while
    # depth 3 contracts, so the grid mixes failed and healthy cells
    spec = ExperimentSpec(name="split", kind="DEN", sweep_axis="depth",
                          sweep_values=(1, 3), seeds=(0, 1), dims=(8, 40),
                          net_seed=4, solver=SolverConfig(c_step=8.0, t_max=500))
    rows, summary = run_experiment(spec)
    by_value = {v: [r for r in rows if r["sweep_value"] == v] for v in (1.0, 3.0)}
    assert all(r["failed"] == 1 and math.isnan(r["final_signal_err"])
               for r in by_value[1.0])
    assert all(r["failed"] == 0 and r["final_signal_err"] < 1.0
               for r in by_value[3.0])
    s = {row["sweep_value"]: row for row in summary}
    assert s[1.0]["failed"] == 2 and math.isnan(s[1.0]["signal_err_median"])
    assert s[3.0]["failed"] == 0


def test_summary_quartiles_match_percentile():
    spec = small_spec(seeds=tuple(range(5)))
    rows, summary = run_experiment(spec)
    for s in summary:
        errs = [r["final_signal_err"] for r in rows
                if r["sweep_value"] == s["sweep_value"]]
        q1, med, q3 = np.percentile(errs, [25, 50, 75])
        assert s["signal_err_q1"] == q1
        assert s["signal_err_median"] == med
        assert s["signal_err_q3"] == q3


def test_parallel_equals_serial():
    spec = small_spec()
    r1, s1 = run_experiment(spec, jobs=1)
    r2, s2 = run_experiment(spec, jobs=2)
    assert experiment_csv_text(r1) == experiment_csv_text(r2)
    assert summary_csv_text(s1) == summary_csv_text(s2)


def test_jobs_clamped_to_cells_and_cpus(monkeypatch):
    # a fake pool that records its size and maps serially: no process starts
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    spec = small_spec(solver=SolverConfig(t_max=5))  # 4 cells
    serial = experiment_csv_text(run_experiment(spec, jobs=1)[0])
    for jobs, want in ((10 ** 9, 3), (2, 2)):
        rows, _ = run_experiment(spec, jobs=jobs)
        assert sizes.pop() == want
        assert experiment_csv_text(rows) == serial
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    run_experiment(spec, jobs=10 ** 9)
    assert sizes == [4]


def test_experiment_csv_parses_back():
    spec = small_spec(sweep_values=(0.0,), seeds=(0, 1))
    rows, summary = run_experiment(spec)
    parsed = list(csv.DictReader(io.StringIO(experiment_csv_text(rows))))
    assert len(parsed) == len(rows)
    for raw, r in zip(parsed, rows):
        assert float(raw["sweep_value"]) == r["sweep_value"]
        assert int(raw["seed"]) == r["seed"]
        assert float(raw["final_signal_err"]) == r["final_signal_err"]
        assert int(raw["failed"]) == r["failed"]


def test_summary_path_naming():
    assert summary_path_for("a/b.csv") == "a/b_summary.csv"
    assert summary_path_for("plain") == "plain_summary"


# ---------------------------------------------------------------------------
# condition suite
# ---------------------------------------------------------------------------

def test_suite_structure_and_log_bounds():
    net = sample_gaussian_net((4, 60, 50), 3)
    reps = run_condition_suite(net, samples=8, seed=7, pairs=4)
    kinds = [r.kind for r in reps]
    assert kinds == ["WDC", "WDC", "R2WDC", "R2WDC", "NORM_ANGLE",
                     "LAMBDA_CONC", "PATTERN_COUNT"]
    pat = reps[-1]
    assert pat.eps_by_layer == log_piece_count_bounds((4, 60, 50))


def test_suite_depth_one_single_layer():
    net = sample_gaussian_net((2, 8), 0)
    reps = run_condition_suite(net, samples=10, seed=1, pairs=3)
    for r in reps:
        if r.kind in ("WDC", "R2WDC"):
            assert r.layers == (1,)
    assert [r.kind for r in reps].count("WDC") == 1


def test_log_piece_bound_two_evaluations_agree():
    # k = 4 with two layers of width 100: the bound is 8 (1 + log 25)
    got = log_piece_count_bounds((4, 100, 100))[1]
    independent = 2.0 * 4.0 * (1.0 + math.log(100.0 / 4.0))
    assert got == pytest.approx(independent, abs=1e-12)


def test_suite_includes_recipe_margins():
    rec = contractive_example_dims(4, 2, c_bar=2.0)
    net = sample_gaussian_net(rec.dims, 0)
    reps = run_condition_suite(net, samples=5, seed=2, pairs=3, recipe=rec)
    pat = reps[-1]
    assert pat.per_layer["recipe_expansivity_margin"] == rec.expansivity_margin
    assert pat.aux["recipe_alpha"] == rec.alpha
    assert all(m >= 0.0 for m in rec.width_margin)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_gen_net_roundtrip(tmp_path, capsys):
    out = tmp_path / "net.bin"
    assert main(["gen-net", "--dims", "4,40,30", "--net-seed", "2",
                 "--out", str(out)]) == 0
    assert load_net(out).dims == (4, 40, 30)
    assert "dims=(4, 40, 30)" in capsys.readouterr().out


def test_cli_recipe_prints_dims(tmp_path, capsys):
    out = tmp_path / "recipe.csv"
    assert main(["recipe", "--k", "4", "--d", "3", "--out", str(out)]) == 0
    assert "dims=(4, 426, 341, 256)" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "layer,width,expansivity_margin,width_margin"
    assert len(lines) == 4


def test_cli_solve_writes_trace(tmp_path, capsys):
    net = tmp_path / "net.bin"
    trace = tmp_path / "trace.csv"
    main(["gen-net", "--dims", "4,40,30", "--out", str(net)])
    rc = main(["solve", "--net", str(net), "--kind", "DEN", "--t-max", "150",
               "--seed", "3", "--trace-stride", "50", "--out", str(trace)])
    assert rc == 0
    assert "kind=DEN" in capsys.readouterr().out
    head = trace.read_text().splitlines()[0]
    assert head == "iter,f,latent_err,signal_err,negated"


def test_cli_check_commands_write_reports(tmp_path):
    net = tmp_path / "net.bin"
    main(["gen-net", "--dims", "4,40,30", "--out", str(net)])
    for args, name in [
            (["check-wdc", "--net", str(net), "--samples", "10"], "w.csv"),
            (["check-r2wdc", "--net", str(net), "--samples", "5",
              "--layer", "2"], "r.csv"),
            (["check-rric", "--net", str(net), "--m", "60",
              "--samples", "10"], "rr.csv"),
            (["check-patterns", "--rows", "7", "--cols", "9", "--ell", "2"],
             "p.csv"),
            (["conditions", "--net", str(net), "--samples", "5",
              "--pairs", "3"], "c.csv")]:
        out = tmp_path / name
        assert main(args + ["--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("condition,layer,statistic,value,target")
        assert len(text.splitlines()) > 1


def test_cli_experiment_runs_config(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    out = tmp_path / "exp.csv"
    cfg.write_text(CONFIG.replace("t_max = 300", "t_max = 50")
                         .replace("values = 100, 200", "values = 100")
                         .replace("seeds = 0:3", "seeds = 0:2")
                         .replace("path = smoke.csv", f"path = {out}"))
    assert main(["experiment", "--config", str(cfg), "--jobs", "1"]) == 0
    assert "2 cells, 0 failed" in capsys.readouterr().out
    assert out.read_text().startswith(",".join(
        ("sweep_value", "seed", "final_signal_err", "final_latent_err",
         "iters", "negations", "failed")))
    assert (tmp_path / "exp_summary.csv").exists()


def test_cli_rerun_byte_identical(tmp_path):
    net = tmp_path / "net.bin"
    main(["gen-net", "--dims", "4,40,30", "--out", str(net)])
    out = tmp_path / "r.csv"
    args = ["check-wdc", "--net", str(net), "--samples", "15", "--seed", "9",
            "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    out.unlink()
    assert main(args) == 0
    assert out.read_bytes() == first


def test_cli_exit_codes(tmp_path, capsys):
    net = tmp_path / "net.bin"
    main(["gen-net", "--dims", "4,40,30", "--out", str(net)])
    # validation: two net sources at once
    assert main(["solve", "--net", str(net), "--dims", "4,4",
                 "--kind", "CS", "--m", "10"]) == 1
    # validation: bad flag value through argparse
    assert main(["check-wdc", "--net", str(net), "--layer", "nine"]) == 1
    # divergence
    assert main(["solve", "--net", str(net), "--kind", "CS", "--m", "50",
                 "--c-step", "1e9", "--t-max", "60"]) == 2
    # missing input file
    assert main(["solve", "--net", str(tmp_path / "nope.bin"),
                 "--kind", "CS", "--m", "10"]) == 3
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_rejects_bad_sizes_and_stride(tmp_path, capsys):
    for rows, cols in (("0", "5"), ("-2", "5"), ("5", "0")):
        assert main(["check-patterns", "--rows", rows, "--cols", cols]) == 1
    out = tmp_path / "trace.csv"
    assert main(["solve", "--dims", "4,20,10", "--kind", "DEN", "--t-max", "3",
                 "--trace-stride", "-5", "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.count("error:") == 4
