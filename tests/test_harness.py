import argparse
import concurrent.futures
from contextlib import redirect_stderr, redirect_stdout
import csv
import dataclasses
import inspect
import io
import math
import multiprocessing
import os
import re
import sys

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from gpnet import blas, cli, harness, net as gnet
from gpnet.cli import main
from gpnet.conditions import log_piece_count_bounds, run_condition_suite
from gpnet.errors import InfeasibleError, ValidationError
from gpnet.harness import (ExperimentSpec, _cell_dims, experiment_csv_text,
                           parse_experiment_config, run_cell, run_experiment,
                           summary_csv_text, summary_path_for)
from gpnet.net import contractive_example_dims, load_net, sample_gaussian_net
from gpnet.solvers import INSTANCE_ARGS, SOLVER_ARGS, SolverConfig, make_instance


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
    assert dict(spec.instance) == {"eta_norm": 0.1}
    assert spec.solver.c_step == 0.2
    assert spec.solver.t_max == 300
    assert spec.out == "smoke.csv"


def test_config_defaults_come_from_the_spec():
    text = CONFIG.replace("[instance]\neta_norm = 0.1\n", "")
    text = text.replace("[solver]\nc_step = 0.2\nt_max = 300\n", "")
    text = text.replace("seed = 11\n", "")
    spec = parse_experiment_config(text)
    assert spec.solver == SolverConfig()
    assert dict(spec.instance) == {}
    assert spec.net_seed == 0


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


# a typo must not leave its option at the default (tmax would keep t_max = 1000)
UNKNOWN_KEYS = [
    ("t_max = 300", "tmax = 8000", "[solver] tmax"),
    ("eta_norm = 0.1", "eta_norm = 0.1\nsigmaa = 3", "[instance] sigmaa"),
    ("seed = 11", "seed = 11\nwidth = 40", "[net] width"),
    ("seeds = 0:3", "seeds = 0:3\nseed = 4", "[experiment] seed"),
    ("path = smoke.csv", "path = smoke.csv\nout = x.csv", "[output] out"),
    ("[solver]", "[solvers]", "[solvers]"),
    ("[experiment]", "[DEFAULT]\nt_max = 8000\n[experiment]", "[DEFAULT] t_max"),
]


@pytest.mark.parametrize("old,new,where", UNKNOWN_KEYS, ids=[
    w.strip("[]").replace("] ", "-") for *_, w in UNKNOWN_KEYS])
def test_config_rejects_unknown_sections_and_keys(old, new, where):
    assert old in CONFIG
    with pytest.raises(ValidationError, match=r"^unknown .*" + re.escape(where)):
        parse_experiment_config(CONFIG.replace(old, new, 1))


def test_cli_rejects_unknown_config_key_before_running(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the sweep ran")
    monkeypatch.setattr(cli, "run_experiment", no_run)
    cfg = tmp_path / "exp.ini"
    cfg.write_text(CONFIG.replace("t_max = 300", "tmax = 8000"))
    out = tmp_path / "o.csv"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: unknown key [solver] tmax;")
    assert not out.exists()


def test_config_net_takes_dims_or_recipe_not_both():
    # neither may silently win over the other
    with pytest.raises(ValidationError, match=r"exactly one of dims and recipe"):
        parse_experiment_config(CONFIG.replace("seed = 11", "seed = 11\nrecipe = k=4 d=3"))


def test_spec_rejects_m_for_kinds_without_sensing_matrix():
    for kind in ("DEN", "SPIKED_WISHART", "SPIKED_WIGNER"):
        for over in (dict(sweep_axis="m", sweep_values=(10, 20)), dict(instance={"m": 50})):
            with pytest.raises(ValidationError, match="m is only for"):
                small_spec(kind=kind, **over)
    for kind in ("CS", "PR"):
        assert dict(small_spec(kind=kind, instance={"m": 50}).instance) == {"m": 50}


def test_config_rejects_m_sweep_for_den():
    # DEN has no sensing matrix, so each m value would rerun the same cells
    text = CONFIG.replace("kind = CS", "kind = DEN").replace(
        "values = 100, 200", "values = 10, 20").replace("seeds = 0:3", "seeds = 0:2")
    with pytest.raises(ValidationError, match="m is only for"):
        parse_experiment_config(text)


def test_cli_solve_rejects_m_for_den(tmp_path, capsys):
    with pytest.raises(ValidationError, match="m is only for"):
        make_instance("DEN", sample_gaussian_net((4, 20, 10), 0), m=50)
    out = tmp_path / "trace.csv"
    assert main(["solve", "--dims", "4,20,10", "--kind", "DEN", "--m", "50",
                 "--t-max", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: m is only for")
    assert not out.exists()


# The instance arguments each kind takes, written out as the spec the
# table in gpnet.solvers must follow, and what a kind cannot do without.
KIND_TAKES = {"CS": ("m", "eta", "eta_norm", "sigma"),
              "PR": ("m", "eta", "eta_norm", "sigma"),
              "DEN": ("eta", "eta_norm", "sigma"),
              "SPIKED_WISHART": ("sigma", "n_samples"),
              "SPIKED_WIGNER": ("sigma",)}
KIND_NEEDS = {"CS": {"m": 8}, "PR": {"m": 8}, "DEN": {},
              "SPIKED_WISHART": {"n_samples": 30}, "SPIKED_WIGNER": {}}
ARG_CASES = [(kind, (arg,)) for kind in KIND_TAKES
             for arg in ("m", "eta", "eta_norm", "sigma", "n_samples")]
ARG_CASES += [(kind, pair) for kind in KIND_TAKES
              for pair in (("eta", "eta_norm"), ("eta", "sigma"), ("eta_norm", "sigma"))]


@pytest.mark.parametrize("kind,args", ARG_CASES,
                         ids=[f"{kind}-{'+'.join(args)}" for kind, args in ARG_CASES])
def test_instance_arguments_follow_the_kind_table(kind, args, tmp_path, capsys):
    # an argument the kind does not read, or a second noise source, is an
    # error in make_instance, ExperimentSpec and gpnet solve alike
    values = {"m": 6, "eta": np.zeros(8 if "m" in KIND_TAKES[kind] else 10),
              "eta_norm": 0.1, "sigma": 0.1, "n_samples": 20}
    given = KIND_NEEDS[kind] | {a: values[a] for a in args}
    untaken = [a for a in args if a not in KIND_TAKES[kind]]
    if untaken:
        errors = [f"{a} is only for the kinds "
                  f"{tuple(k for k in KIND_TAKES if a in KIND_TAKES[k])}, not {kind}"
                  for a in untaken]
    elif len(args) > 1:
        errors = [f"{' and '.join(order)} are two noise sources; give at most one of "
                  "eta, eta_norm and a nonzero sigma" for order in (args, args[::-1])]
    else:
        errors = []
    net = sample_gaussian_net((4, 20, 10), 0)
    if errors:
        with pytest.raises(ValidationError) as exc:
            make_instance(kind, net, seed=0, **given)
        assert str(exc.value) in errors
    else:
        make_instance(kind, net, seed=0, **given)
    if "eta" in args:  # neither a config nor the command line can give eta
        return
    spec_args = dict(kind=kind, sweep_axis="width", sweep_values=(20, 30),
                     dims=(4, 20, 10), instance=given)
    argv = ["solve", "--dims", "4,20,10", "--kind", kind, "--t-max", "1",
            "--out", str(tmp_path / "trace.csv")]
    for a, v in given.items():
        argv += [f"--{a.replace('_', '-')}", str(v)]
    if errors:
        with pytest.raises(ValidationError) as exc:
            small_spec(**spec_args)
        assert str(exc.value) in errors
        assert main(argv) == 1
        assert capsys.readouterr().err.removeprefix("error: ").rstrip("\n") in errors
        assert not (tmp_path / "trace.csv").exists()
    else:
        small_spec(**spec_args)
        assert main(argv) == 0


def test_sigma_sweep_over_eta_norm_is_rejected_before_any_cell(tmp_path, capsys,
                                                                monkeypatch):
    # each sigma would rerun the eta_norm cells, so the spec refuses the grid
    def no_run(*args, **kwargs):
        raise AssertionError("the sweep ran")
    monkeypatch.setattr(cli, "run_experiment", no_run)
    monkeypatch.setattr(harness, "run_cell", no_run)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_run)
    den = CONFIG.replace("kind = CS", "kind = DEN").replace("sweep = m", "sweep = sigma") \
        .replace("values = 100, 200", "values = 0.0, 0.1")
    for kind in ("CS", "PR"):
        sensed = den.replace("kind = DEN", f"kind = {kind}").replace(
            "eta_norm", "m = 50\neta_norm")
        with pytest.raises(ValidationError, match="sigma and eta_norm are two noise"):
            parse_experiment_config(sensed)
    cfg = tmp_path / "exp.ini"
    cfg.write_text(den)
    out = tmp_path / "o.csv"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: sigma and eta_norm are two noise")
    assert not out.exists()
    # a sigma sweep alone, and one value of sigma = 0 beside eta_norm, still parse
    assert parse_experiment_config(den.replace("eta_norm = 0.1", "")).sweep_axis == "sigma"
    assert dict(parse_experiment_config(den.replace("0.0, 0.1", "0.0")).instance) == {
        "eta_norm": 0.1}


_DEN_SIGMA = (("kind = CS", "kind = DEN"), ("sweep = m", "sweep = sigma"),
              ("eta_norm = 0.1", ""))
# (ExperimentSpec overrides of small_spec, config edits or None, the error)
UNBUILDABLE_GRIDS = [
    # the sweep would replace the given value in every cell
    (dict(instance={"sigma": 0.3}),
     _DEN_SIGMA[:2] + (("eta_norm = 0.1", "sigma = 0.3"),
                       ("values = 100, 200", "values = 0.0, 0.1")),
     "sigma is swept, so it must not also be given, got sigma = 0.3"),
    # a given sigma of 0 used to pass as the spec's default and run
    (dict(instance={"sigma": 0.0}),
     _DEN_SIGMA[:2] + (("eta_norm = 0.1", "sigma = 0"),
                       ("values = 100, 200", "values = 0.0, 0.1")),
     "sigma is swept, so it must not also be given, got sigma = 0.0"),
    (dict(kind="CS", sweep_axis="m", sweep_values=(10, 20), instance={"m": 50}),
     (("eta_norm = 0.1", "eta_norm = 0.1\nm = 50"),),
     "m is swept, so it must not also be given, got m = 50"),
    # no cell could build its instance
    (dict(kind="CS", sweep_axis="width", sweep_values=(20, 30)),
     (("sweep = m", "sweep = width"), ("values = 100, 200", "values = 20, 30")),
     "kind CS needs m"),
    (dict(kind="PR", sweep_axis="width", sweep_values=(20, 30)),
     (("kind = CS", "kind = PR"), ("sweep = m", "sweep = width"),
      ("values = 100, 200", "values = 20, 30")),
     "kind PR needs m"),
    (dict(kind="SPIKED_WISHART"),
     _DEN_SIGMA[1:] + (("kind = CS", "kind = SPIKED_WISHART"),
                       ("values = 100, 200", "values = 0.0, 0.1")),
     "kind SPIKED_WISHART needs n_samples"),
    (dict(sweep_values=(-0.1, 0.1)), _DEN_SIGMA + (("values = 100, 200", "values = -0.1, 0.1"),),
     "sigma must be finite and nonnegative, got -0.1"),
    (dict(sweep_values=(math.nan,)), None, "sigma must be finite and nonnegative, got nan"),
    (dict(kind="CS", sweep_axis="m", sweep_values=(0, 10)),
     (("values = 100, 200", "values = 0, 100"),), "m must be an integer >= 1, got 0"),
    # every cell would hand make_instance a keyword it does not take, None too
    (dict(instance={"mm": 1}), None, "mm is not an instance argument"),
    (dict(instance={"mm": None}), None, "mm is not an instance argument"),
    # eta's shape depends on each cell's n_out, so a spec cannot share one
    (dict(sweep_axis="depth", sweep_values=(2, 1), instance={"eta": np.zeros(30)}), None,
     "eta is not an instance argument"),
]


@pytest.mark.parametrize("over,edits,error", UNBUILDABLE_GRIDS, ids=[
    "sigma-given-and-swept", "sigma-zero-given-and-swept", "m-given-and-swept",
    "CS-without-m", "PR-without-m", "SPIKED_WISHART-without-n_samples", "negative-sigma",
    "nan-sigma", "zero-m", "unknown-instance-argument", "unknown-instance-argument-none",
    "eta-in-a-spec"])
def test_unbuildable_grids_are_rejected_before_any_cell(over, edits, error, tmp_path,
                                                        capsys, monkeypatch):
    # these used to run, dropping the given value or failing in the first cell
    with pytest.raises(ValidationError) as exc:
        small_spec(**over)
    assert str(exc.value) == error
    if edits is None:  # a config cannot give a nan value or an unknown key
        return

    def no_run(*args, **kwargs):
        raise AssertionError("a cell ran")
    monkeypatch.setattr(cli, "run_experiment", no_run)
    monkeypatch.setattr(harness, "run_cell", no_run)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_run)
    text = CONFIG
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / "exp.ini"
    cfg.write_text(text)
    out = tmp_path / "o.csv"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


def test_spec_instance_is_fixed_when_built():
    # the checked mapping is kept as pairs, so no cell sees a value that
    # the spec did not check; None gives nothing, as in make_instance
    width = dict(sweep_axis="width", sweep_values=(20, 30))
    given = {"eta_norm": 0.1, "m": None}
    spec = small_spec(**width, instance=given)
    given["sigma"] = -1.0
    assert spec.instance == (("eta_norm", 0.1),)
    assert hash(spec) == hash(small_spec(**width, instance={"eta_norm": 0.1}))
    with pytest.raises(TypeError):
        spec.instance["eta_norm"] = 0.2
    assert small_spec(instance={"sigma": None}).instance == ()


@pytest.mark.parametrize("kind,sigma,more", [
    ("SPIKED_WISHART", "1e155", ["--n-samples", "1"]), ("SPIKED_WIGNER", "1e308", [])])
def test_cli_solve_overflowing_sigma_exits_1(kind, sigma, more, tmp_path, capsys):
    # sigma ** 2 used to raise a bare OverflowError, and sigma H to warn first
    out = tmp_path / "trace.csv"
    assert main(["solve", "--kind", kind, "--dims", "2,3", "--sigma", sigma, *more,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: instance m_obs contains non-finite entries\n"
    assert not out.exists()


def test_cli_solve_on_an_overflowing_net_exits_1(tmp_path, capsys):
    # the planted signal's forward pass used to warn before the error
    small = sample_gaussian_net((2, 3, 4), 0)
    path = tmp_path / "big.net"
    gnet.save_net(gnet.GenerativeNet(dims=small.dims, weights=tuple(
        1e200 * w for w in small.weights)), path)
    assert main(["solve", "--net", str(path), "--kind", "DEN"]) == 1
    assert capsys.readouterr().err == "error: instance b contains non-finite entries\n"


def test_cli_solve_rejects_a_zero_planted_signal(tmp_path, capsys):
    # G(x_star) = 0 here, so the relative signal error used to print nan
    out = tmp_path / "trace.csv"
    assert main(["solve", "--dims", "1,1", "--kind", "DEN", "--seed", "1",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: the planted signal G(x_star) is zero")
    assert not out.exists()


def test_zero_signal_cells_are_failed_and_left_out_of_the_summary():
    spec = small_spec(kind="CS", sweep_axis="m", sweep_values=(1, 2), seeds=(0, 1, 2),
                      dims=(1, 1), net_seed=0, solver=SolverConfig(t_max=20))
    rows, summary = run_experiment(spec, jobs=1)
    net = sample_gaussian_net(spec.dims, spec.net_seed)
    for r in rows:
        inst = make_instance("CS", net, m=int(r["sweep_value"]), seed=r["seed"])
        zero = not inst.y_star.any()
        assert r["failed"] == int(zero)
        assert math.isnan(r["final_signal_err"]) == zero
    assert 0 < sum(r["failed"] for r in rows) < len(rows)
    for s in summary:
        assert 0 < s["failed"] < s["cells"]
        assert all(math.isfinite(s[q]) for q in ("signal_err_q1", "signal_err_median",
                                                 "signal_err_q3", "latent_err_median"))


def test_instance_and_solver_arguments_are_declared_once():
    # make_instance, SolverConfig, the solve flags and the INI keys all
    # follow the two tables in gpnet.solvers, so none can gain an argument
    # that the others miss
    instance_kw = [p.name for p in inspect.signature(make_instance).parameters.values()
                   if p.kind is p.KEYWORD_ONLY and p.name not in ("x_star", "eta", "seed")]
    assert instance_kw == list(INSTANCE_ARGS)
    solver_fields = [f.name for f in dataclasses.fields(SolverConfig)
                     if f.name not in ("x0", "seed")]
    assert solver_fields == list(SOLVER_ARGS)
    assert {k: SolverConfig.__annotations__[k] for k in SOLVER_ARGS} == SOLVER_ARGS
    # test_cli_surface_is_pinned holds the parser to CLI_SURFACE
    other = {"net", "dims", "recipe", "net_seed", "seed", "out", "kind", "trace_stride",
             "help"}
    assert {dest: kind for dest, kind, _, _ in CLI_SURFACE["solve"].values()
            if dest not in other} == INSTANCE_ARGS | SOLVER_ARGS
    assert harness._INI_KEYS["instance"] is INSTANCE_ARGS
    assert harness._INI_KEYS["solver"] is SOLVER_ARGS


def test_spec_rejects_a_solver_seed():
    # run_cell gives each cell its own solver seed, so a given one did nothing
    with pytest.raises(ValidationError, match=r"solver\.seed must not be given, got 7"):
        small_spec(solver=SolverConfig(t_max=5, seed=7))
    assert small_spec(solver=SolverConfig(t_max=5, seed=0)).solver.seed == 0


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_experiment_overflowing_sigma_exits_1(jobs, tmp_path, capsys):
    text = CONFIG
    for old, new in (("kind = CS", "kind = SPIKED_WISHART"), ("sweep = m", "sweep = sigma"),
                     ("values = 100, 200", "values = 0.1, 1e200"), ("seeds = 0:3", "seeds = 0"),
                     ("dims = 8, 250, 600", "dims = 2, 3"),
                     ("eta_norm = 0.1", "n_samples = 1")):
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / "exp.ini"
    cfg.write_text(text)
    out = tmp_path / "o.csv"
    assert main(["experiment", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 1
    assert capsys.readouterr().err == "error: instance m_obs contains non-finite entries\n"
    assert not out.exists()


_HUGE = str(10 ** 20)


@pytest.mark.parametrize("args", [
    ["solve", "--dims", "2,3", "--kind", "CS", "--m", _HUGE, "--t-max", "1"],
    ["solve", "--dims", "2,3", "--kind", "SPIKED_WISHART", "--n-samples", _HUGE,
     "--t-max", "1"],
    ["check-rric", "--dims", "2,3", "--m", _HUGE, "--samples", "1"],
    ["experiment", "--jobs", "1"],
    ["experiment", "--jobs", "2"],
], ids=["solve-CS", "solve-SPIKED_WISHART", "check-rric", "experiment-jobs1",
        "experiment-jobs2"])
def test_cli_matrix_beyond_the_address_space_exits_1(args, tmp_path, capsys):
    # numpy rejects such a shape with a ValueError of its own, not a MemoryError
    out = tmp_path / "o.csv"
    if args[0] == "experiment":
        text = CONFIG
        for old, new in (("sweep = m", "sweep = sigma"),
                         ("values = 100, 200", "values = 0, 0.1"),
                         ("seeds = 0:3", "seeds = 0"), ("dims = 8, 250, 600", "dims = 2, 3"),
                         ("eta_norm = 0.1", f"m = {_HUGE}")):
            assert old in text
            text = text.replace(old, new)
        cfg = tmp_path / "exp.ini"
        cfg.write_text(text)
        args = args + ["--config", str(cfg)]
    assert main(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert f"{_HUGE} x 3" in err and "address space" in err
    assert not out.exists()


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


def test_config_takes_percent_literally():
    text = CONFIG.replace("name = smoke", "name = 100% noise").replace(
        "path = smoke.csv", "path = out_%d.csv")
    spec = parse_experiment_config(text)
    assert spec.name == "100% noise"
    assert spec.out == "out_%d.csv"


def test_spec_takes_a_numpy_array_of_sweep_values():
    spec = small_spec(sweep_values=np.linspace(0.0, 0.1, 3))
    assert spec.sweep_values == (0.0, 0.05, 0.1)
    with pytest.raises(ValidationError, match="nonempty"):
        small_spec(sweep_values=np.array([]))
    with pytest.raises(ValidationError, match="repeat"):
        small_spec(sweep_values=np.zeros(2))


@pytest.mark.parametrize("over", [
    dict(sweep_values=(0.0, 0.0)),
    dict(sweep_values=(0.05, 0, 0.05)),
    dict(sweep_axis="m", sweep_values=(100, 100.0)),
    dict(seeds=(0, 1, 0)),
])
def test_spec_rejects_repeats(over):
    with pytest.raises(ValidationError, match="repeat"):
        small_spec(**over)


def test_cli_rejects_repeated_values(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(CONFIG.replace("sweep = m", "sweep = sigma").replace(
        "values = 100, 200", "values = 0.0, 0.0"))
    out = tmp_path / "o.csv"
    assert main(["experiment", "--config", str(cfg), "--out", str(out),
                 "--jobs", "1"]) == 1
    assert "repeat" in capsys.readouterr().err
    assert not out.exists()


def test_spec_counts_must_be_integers_and_cells_need_valid_dims():
    for axis in ("m", "width", "depth"):
        with pytest.raises(ValidationError, match="integers"):
            small_spec(sweep_axis=axis, sweep_values=(2.5,))
    # the spec never builds cell dims, so a huge depth is only a number here
    small_spec(sweep_axis="depth", sweep_values=(10 ** 9,))
    for axis, value in (("width", 0), ("width", -3), ("depth", 0), ("depth", -1)):
        spec = small_spec(sweep_axis=axis, sweep_values=(value,))
        with pytest.raises(ValidationError, match="integer >= 1"):
            run_cell(spec, float(value), 0)


# ---------------------------------------------------------------------------
# sweep mechanics
# ---------------------------------------------------------------------------

def test_cell_dims_per_axis():
    spec = small_spec(sweep_axis="width", sweep_values=(25,))
    assert _cell_dims(spec, 25) == (4, 25, 25)
    spec = small_spec(sweep_axis="depth", sweep_values=(4,))
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
    # a fake pool that records its size, runs its worker initializer here
    # and maps serially: no process starts
    sizes = []
    found = blas.blas_threads() is not None

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs, mp_context=None):
            sizes.append(max_workers)
            if "fork" in multiprocessing.get_all_start_methods():
                assert mp_context.get_start_method() == "fork"
            # the workers fork warm: the first cell's net is built, so
            # numpy.random is imported, before the pool exists
            assert list(harness._NET) == [(spec.dims, spec.net_seed)]
            assert harness._NET[spec.dims, spec.net_seed] == sample_gaussian_net(
                spec.dims, spec.net_seed)
            assert "numpy.random" in sys.modules
            if found:
                blas.set_blas_threads(2)
            initializer(*initargs)
            assert blas.blas_threads() == (1 if found else None)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    spec = small_spec(solver=SolverConfig(t_max=5))  # 4 cells
    with blas.one_blas_thread():  # puts the caller's count back
        serial = experiment_csv_text(run_experiment(spec, jobs=1)[0])
        assert harness._NET == {}
        for jobs, want in ((10 ** 9, 3), (2, 2)):
            rows, _ = run_experiment(spec, jobs=jobs)
            assert sizes.pop() == want
            assert experiment_csv_text(rows) == serial
            assert harness._NET == {}  # no net outlives the call
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        run_experiment(spec, jobs=10 ** 9)
    assert sizes == [4]
    assert harness._NET == {}


def test_spawn_pool_gives_the_serial_rows():
    # a cell is a pure function of its arguments, so a worker that inherits
    # nothing (no warm net, no rebound run_cell) computes the same row
    spec = small_spec(seeds=(0,), solver=SolverConfig(t_max=40))  # two DEN cells
    cells = [(spec, float(v), 0) for v in spec.sweep_values]
    serial = [run_cell(*cell) for cell in cells]
    harness._NET.clear()
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=2, mp_context=multiprocessing.get_context("spawn")) as pool:
        spawned = list(pool.map(harness._star_args, cells))
    assert experiment_csv_text(spawned) == experiment_csv_text(serial)


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_rejects_jobs_below_one(jobs, tmp_path, capsys):
    # these used to run serially and exit 0; the library's rule is in COUNT_SITES
    cfg = tmp_path / "exp.ini"
    cfg.write_text(CONFIG)
    out = tmp_path / "o.csv"
    assert main(["experiment", "--config", str(cfg), "--out", str(out),
                 "--jobs", jobs]) == 1
    assert f"jobs must be an integer >= 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_cell_net_reuse_holds_one_net():
    try:
        a = harness._cell_net((4, 40, 30), 2)
        assert harness._cell_net((4, 40, 30), 2) is a
        b = harness._cell_net((4, 25, 25), 2)
        assert list(harness._NET) == [((4, 25, 25), 2)]
        assert b == sample_gaussian_net((4, 25, 25), 2)
        c = harness._cell_net((4, 25, 25), 3)
        assert list(harness._NET) == [((4, 25, 25), 3)]
        assert c == sample_gaussian_net((4, 25, 25), 3) and not c == b
    finally:
        harness._NET.clear()


@pytest.mark.parametrize("over", [
    # sigma = 0 cells skip the Wishart noise draw
    dict(kind="SPIKED_WISHART", sweep_values=(0.1, 0.0, 0.05), dims=(4, 100, 200),
         instance={"n_samples": 200}),
    # every width needs its own net, so a reused one would show
    dict(sweep_axis="width", sweep_values=(30, 20, 40)),
])
def test_parallel_equals_serial_equals_fresh_nets(over):
    spec = small_spec(seeds=(0, 1, 2), solver=SolverConfig(c_step=1.0, t_max=150), **over)
    fresh = []
    for v in sorted(map(float, spec.sweep_values)):
        for s in spec.seeds:
            harness._NET.clear()
            fresh.append(run_cell(spec, v, s))
    harness._NET.clear()
    serial, serial_summary = run_experiment(spec, jobs=1)
    parallel, parallel_summary = run_experiment(spec, jobs=2)
    assert experiment_csv_text(serial) == experiment_csv_text(parallel) \
        == experiment_csv_text(fresh)
    assert summary_csv_text(serial_summary) == summary_csv_text(parallel_summary)
    assert not any(r["failed"] for r in serial)


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
    # a dot outside the file name is no extension
    assert summary_path_for("./results") == "./results_summary"
    assert summary_path_for("out.d/run") == "out.d/run_summary"
    assert summary_path_for(".hidden") == ".hidden_summary"


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

# Every option of every subcommand: {option strings: (dest, type, default,
# required)}.  Written out per command, so a default that one command's
# declaration leaks into another's shows here.
_HELP = {("-h", "--help"): ("help", None, argparse.SUPPRESS, False)}
_NET_SOURCE = {("--net",): ("net", None, None, False),
               ("--dims",): ("dims", None, None, False),
               ("--recipe",): ("recipe", None, None, False),
               ("--net-seed",): ("net_seed", int, 0, False)}
_SEED_OUT = {("--seed",): ("seed", int, 0, False), ("--out",): ("out", None, None, False)}
CLI_SURFACE = {
    "gen-net": _HELP | _NET_SOURCE | {("--out",): ("out", None, None, True)},
    "recipe": _HELP | {("--recipe",): ("recipe", None, None, True),
                       ("--out",): ("out", None, None, False)},
    "solve": _HELP | _NET_SOURCE | _SEED_OUT | {
        ("--kind",): ("kind", None, None, True),
        ("--m",): ("m", int, None, False), ("--sigma",): ("sigma", float, None, False),
        ("--eta-norm",): ("eta_norm", float, None, False),
        ("--n-samples",): ("n_samples", int, None, False),
        ("--c-step",): ("c_step", float, None, False),
        ("--t-max",): ("t_max", int, None, False),
        ("--rel-step-tol",): ("rel_step_tol", float, None, False),
        ("--trace-stride",): ("trace_stride", int, 1, False)},
    "check-wdc": _HELP | _NET_SOURCE | _SEED_OUT | {
        ("--layer",): ("layer", int, 0, False), ("--samples",): ("samples", int, 200, False)},
    "check-r2wdc": _HELP | _NET_SOURCE | _SEED_OUT | {
        ("--layer",): ("layer", int, 0, False), ("--samples",): ("samples", int, 200, False)},
    "check-rric": _HELP | _NET_SOURCE | _SEED_OUT | {
        ("--m",): ("m", int, None, True), ("--samples",): ("samples", int, 200, False)},
    "check-patterns": _HELP | _SEED_OUT | {
        ("--rows",): ("rows", int, None, True), ("--cols",): ("cols", int, None, True),
        ("--ell",): ("ell", int, 2, False)},
    "conditions": _HELP | _NET_SOURCE | _SEED_OUT | {
        ("--samples",): ("samples", int, 50, False), ("--pairs",): ("pairs", int, None, False)},
    "experiment": _HELP | {("--config",): ("config", None, None, True),
                           ("--out",): ("out", None, None, False),
                           ("--jobs",): ("jobs", int, None, False)},
}


def test_cli_surface_is_pinned():
    parser = cli.build_parser()
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(CLI_SURFACE)
    for name, p in sub.choices.items():
        got = {tuple(a.option_strings): (a.dest, a.type, a.default, a.required)
               for a in p._actions}
        assert len(got) == len(p._actions), name
        assert got == CLI_SURFACE[name], name


def test_cli_gen_net_roundtrip(tmp_path, capsys):
    out = tmp_path / "net.bin"
    assert main(["gen-net", "--dims", "4,40,30", "--net-seed", "2",
                 "--out", str(out)]) == 0
    assert load_net(out).dims == (4, 40, 30)
    assert "dims=(4, 40, 30)" in capsys.readouterr().out


def test_cli_recipe_prints_dims(tmp_path, capsys):
    out = tmp_path / "recipe.csv"
    assert main(["recipe", "--recipe", "k=4 d=3", "--out", str(out)]) == 0
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


def test_cli_check_patterns_records_its_seed(tmp_path):
    # W and the basis come from --seed, and the report says so
    out = tmp_path / "p.csv"
    assert main(["check-patterns", "--rows", "5", "--cols", "7", "--ell", "2",
                 "--seed", "7", "--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert rows and {r["seed"] for r in rows} == {"7"}


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
    # validation: a fractional width, and one no weight matrix can hold
    assert main(["gen-net", "--dims", "8,250.5,600", "--out", str(net)]) == 1
    assert "--dims" in capsys.readouterr().err
    assert main(["gen-net", "--dims", "8,1e300", "--out", str(net)]) == 1
    assert "address space" in capsys.readouterr().err
    # validation: an infinite step size or step tolerance, as the INI rejects them
    for flag, field in (("--c-step", "c_step"), ("--rel-step-tol", "rel_step_tol")):
        assert main(["solve", "--net", str(net), "--kind", "CS", "--m", "10",
                     flag, "inf"]) == 1
        assert field in capsys.readouterr().err
    # validation: a kind run without the count it needs names the flag
    for kind, flag in (("SPIKED_WISHART", "n_samples"), ("CS", "m"), ("PR", "m")):
        assert main(["solve", "--net", str(net), "--kind", kind, "--t-max", "3"]) == 1
        assert capsys.readouterr().err == f"error: kind {kind} needs {flag}\n"


def test_cli_rejects_bad_sizes_and_stride(tmp_path, capsys):
    for rows, cols in (("0", "5"), ("-2", "5"), ("5", "0")):
        assert main(["check-patterns", "--rows", rows, "--cols", cols]) == 1
    out = tmp_path / "trace.csv"
    for stride in ("0", "-5"):
        assert main(["solve", "--dims", "4,20,10", "--kind", "DEN", "--t-max", "3",
                     "--trace-stride", stride, "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.count("error:") == 5


def test_cli_check_patterns_limits_rows_before_drawing(monkeypatch, capsys):
    def no_draw(*args):
        raise AssertionError("check-patterns drew W before checking its rows")

    monkeypatch.setattr(cli, "sub_rng", no_draw)
    assert main(["check-patterns", "--rows", "21", "--cols", str(10 ** 9)]) == 1
    assert "--rows" in capsys.readouterr().err
    assert main(["check-patterns", "--rows", "20", "--cols", str(10 ** 9)]) == 1
    assert "--cols" in capsys.readouterr().err


class _NoMemory:
    """A generator whose draws fail as numpy's do when a size cannot be held."""

    def standard_normal(self, shape):
        raise MemoryError(f"Unable to allocate an array with shape {shape}")


@pytest.mark.parametrize("args", [["gen-net", "--dims", "4,1000000000,1000000000"],
                                  ["experiment", "--jobs", "1"]],
                         ids=["gen-net", "experiment"])
def test_cli_memory_error_exits_1(tmp_path, monkeypatch, capsys, args):
    # the patched draw raises where numpy would, so nothing is allocated
    monkeypatch.setattr(gnet, "sub_rng", lambda *a: _NoMemory())
    cfg = tmp_path / "exp.ini"
    cfg.write_text(CONFIG)
    out = tmp_path / "out"
    if args[0] == "experiment":
        args = args + ["--config", str(cfg)]
    assert main(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and "Traceback" not in err
    assert not out.exists()


def test_cli_trace_stride_thins_csv(tmp_path):
    args = ["solve", "--dims", "4,20,10", "--kind", "DEN", "--t-max", "95",
            "--rel-step-tol", "0", "--seed", "1", "--out"]
    texts = {}
    for stride in (None, "1", "20"):
        out = tmp_path / f"trace-{stride}.csv"
        flags = [] if stride is None else ["--trace-stride", stride]
        assert main(args + [str(out)] + flags) == 0
        texts[stride] = out.read_bytes()
    assert texts["1"] == texts[None]
    head, *rows = texts[None].decode().splitlines()
    assert len(rows) == 96
    kept = [r for r in rows[:-1] if int(r.split(",")[0]) % 20 == 0] + rows[-1:]
    assert texts["20"].decode().splitlines() == [head] + kept
    assert [r.split(",")[0] for r in kept] == ["0", "20", "40", "60", "80", "95"]


NEGATIVE_SEED_CONFIG = CONFIG.replace("t_max = 300", "t_max = 5").replace(
    "values = 100, 200", "values = 100")


@pytest.mark.parametrize("args,config", [
    (["solve", "--dims", "4,20,10", "--kind", "DEN", "--seed", "-1"], None),
    (["solve", "--dims", "4,20,10", "--kind", "DEN", "--net-seed", "-1"], None),
    ([], NEGATIVE_SEED_CONFIG.replace("seeds = 0:3", "seeds = -2:1")),
    ([], NEGATIVE_SEED_CONFIG.replace("seed = 11", "seed = -5")),
])
def test_cli_rejects_negative_seeds(tmp_path, capsys, args, config):
    out = tmp_path / "o.csv"
    if config is not None:
        cfg = tmp_path / "exp.ini"
        cfg.write_text(config)
        args = ["experiment", "--config", str(cfg), "--jobs", "1"]
    assert main(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("args,code", [
    (["c_bar=0.01"], 0),
    (["c_bar=1e-30"], 2),
    (["c_bar=inf"], 1),
    (["c_bar=1e308"], 2),
    (["alpha_floor=1"], 1),
])
def test_cli_recipe_extreme_scales(tmp_path, capsys, args, code):
    out = tmp_path / "recipe.csv"
    recipe = " ".join(["k=4", "d=3"] + args)
    assert main(["recipe", "--recipe", recipe, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error:") and not out.exists()
    else:
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == 3
        for r in rows:
            assert float(r["expansivity_margin"]) >= 0.0
            assert float(r["width_margin"]) >= 0.0


def test_cli_recipe_flag_with_tiny_scale_exits_before_sampling(capsys):
    assert main(["conditions", "--recipe", "k=4 d=3 c_bar=1e-30"]) == 2
    assert capsys.readouterr().err.startswith("error:")


_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1e-30, 0.01, 2.0, 1e30, 1e300,
                     1.7e308, math.inf, -math.inf, math.nan, -1.0]),
    st.floats(allow_nan=True, allow_infinity=True))


def _cli_outcome(argv):
    # an uncaught exception would propagate out of main and fail the test
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert (code == 0) or err.startswith("error:")
    assert (code != 0) or not re.search(r"\bnan\b", out.getvalue())  # no silent NaN
    return code


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 6), d=st.integers(2, 5), c_bar=_EDGE_FLOATS)
def test_cli_recipe_fuzz_ends_in_an_exit_code(k, d, c_bar):
    # `recipe` only computes widths; it never samples a net from them
    _cli_outcome(["recipe", "--recipe", f"k={k} d={d} c_bar={c_bar!r}"])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(), net_seed=st.integers())
def test_cli_solve_seed_fuzz_ends_in_an_exit_code(seed, net_seed):
    _cli_outcome(["solve", "--dims", "3,8,6", "--kind", "DEN", "--t-max", "2",
                  "--seed", str(seed), "--net-seed", str(net_seed)])


_KIND_COUNTS = {"CS": ["--m", "12"], "PR": ["--m", "12"], "DEN": [],
                "SPIKED_WISHART": ["--n-samples", "20"], "SPIKED_WIGNER": []}


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(_KIND_COUNTS)), t_max=st.integers(0, 5),
       floats=st.dictionaries(st.sampled_from(("c-step", "sigma", "eta-norm",
                                               "rel-step-tol")), _EDGE_FLOATS))
def test_cli_solve_float_fuzz_ends_in_an_exit_code(kind, t_max, floats):
    # huge noise drives the no-flip certificate's overflow test; the
    # --flag=value form passes negative values as values
    _cli_outcome(["solve", "--dims", "3,8,6", "--kind", kind, *_KIND_COUNTS[kind],
                  "--t-max", str(t_max), *(f"--{f}={v!r}" for f, v in floats.items())])


def _sizes(*extremes):
    return st.one_of(st.integers(-2, 40), st.sampled_from(extremes))


@settings(max_examples=30, deadline=None)
@given(data=st.data(), command=st.sampled_from(("check-patterns", "solve")))
def test_cli_size_fuzz_ends_in_an_exit_code(data, command, tmp_path_factory):
    # sizes above the caps are rejected before any draw, so no example
    # allocates more than the 16 MB of a 20 x 10^5 check-patterns draw
    if command == "check-patterns":
        argv = ["check-patterns",
                "--rows", data.draw(_sizes(0, 20, 21, 10 ** 9)),
                "--cols", data.draw(_sizes(0, 10 ** 5, 10 ** 5 + 1, 10 ** 9)),
                "--ell", data.draw(st.integers(-1, 4)),
                "--seed", data.draw(st.integers(-2, 2 ** 64))]
    else:
        # tiny nets, where G(x_star) is often zero, on every kind
        dims = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
        kind = data.draw(st.sampled_from(sorted(_KIND_COUNTS)))
        argv = ["solve", "--dims", ",".join(map(str, dims)), "--kind", kind]
        if _KIND_COUNTS[kind]:  # the count the kind needs
            argv += [_KIND_COUNTS[kind][0], data.draw(_sizes(0, 10 ** 4, 10 ** 20))]
        argv += ["--t-max", data.draw(_sizes(0, 300)),
                 "--trace-stride", data.draw(_sizes(0, 10 ** 9)),
                 "--out", str(tmp_path_factory.mktemp("fuzz") / "trace.csv")]
    _cli_outcome(list(map(str, argv)))


@settings(max_examples=30, deadline=None)
@given(data=st.data(),
       command=st.sampled_from(("check-wdc", "check-r2wdc", "check-rric", "conditions")))
def test_cli_condition_sample_fuzz_ends_in_an_exit_code(data, command):
    # nothing caps a sample count, so only small ones are drawn
    argv = [command, "--dims", "3,8,6", "--samples", data.draw(st.integers(-2, 3))]
    if command == "check-rric":
        argv += ["--m", 12]
    elif command in ("check-wdc", "check-r2wdc"):
        argv += ["--layer", data.draw(st.one_of(st.integers(-2, 4), st.just(10 ** 9)))]
    elif command == "conditions":
        argv += ["--pairs", data.draw(st.integers(-2, 3))]
    _cli_outcome(list(map(str, argv)))


@settings(max_examples=30, deadline=None)
@given(dims=st.lists(st.integers(1, 3), min_size=2, max_size=3),
       seed=st.integers(0, 2 ** 32), net_seed=st.integers(0, 2 ** 32))
def test_cli_conditions_tiny_net_fuzz_ends_in_an_exit_code(dims, seed, net_seed,
                                                           tmp_path_factory):
    # tiny nets collapse latents and repeat range points; a suite that
    # finishes reports finite values only
    out = tmp_path_factory.mktemp("fuzz") / "conditions.csv"
    code = _cli_outcome(["conditions", "--dims", ",".join(map(str, dims)), "--samples", "3",
                         "--pairs", "3", "--seed", str(seed), "--net-seed", str(net_seed),
                         "--out", str(out)])
    if code == 0:
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert all(math.isfinite(float(r["value"])) for r in rows)


_INI_TOKENS = st.one_of(
    st.integers(-999, 999).map(str),
    st.floats(-999, 999).map(lambda f: f"{f:.3g}"),
    st.sampled_from(["nan", "inf", "-inf", "0.5", "2.5", "1e3", "%", "100%", "%d",
                     "%(x)s", "abc", ""]))
# a token list, the same list with its first token repeated, or a range
_INI_VALUES = st.lists(_INI_TOKENS, min_size=1, max_size=3).flatmap(
    lambda toks: st.sampled_from([", ".join(toks), ", ".join(toks + toks[:1]),
                                  f"{toks[0]}:{toks[-1]}"]))
_GOOD_INI = {"name": "fuzz", "kind": "CS", "values": "100, 200", "seeds": "0:3",
             "dims": "8, 250, 600", "seed": "11", "m": "150", "sigma": "0.1",
             "t_max": "300", "path": "out.csv"}


@settings(max_examples=30, deadline=None)
@given(sweep=st.sampled_from(("m", "sigma", "width", "depth", "%")),
       key=st.sampled_from(sorted(_GOOD_INI) + ["recipe"]), value=_INI_VALUES)
def test_config_fuzz_parses_or_rejects(sweep, key, value):
    # one key of a good config takes a fuzzed value.  Parse only: no cell
    # runs, so nothing is drawn at the parsed sizes.
    ini = dict(_GOOD_INI, **{key: value})
    net = f"recipe = d=2 k={value}" if key == "recipe" else "dims = {dims}"
    text = ("[experiment]\nname = {name}\nkind = {kind}\nsweep = " + sweep
            + "\nvalues = {values}\nseeds = {seeds}\n[net]\n" + net + "\nseed = {seed}\n"
            "[instance]\nm = {m}\nsigma = {sigma}\n[solver]\nt_max = {t_max}\n"
            "[output]\npath = {path}\n").format(**ini)
    try:
        spec = parse_experiment_config(text)
    except (ValidationError, InfeasibleError):
        return
    assert isinstance(spec, ExperimentSpec)
    # values are taken literally, % included, up to surrounding blanks
    assert (spec.name, spec.out) == (ini["name"].strip(), ini["path"].strip())
    assert len(set(map(float, spec.sweep_values))) == len(spec.sweep_values)
    assert len(set(spec.seeds)) == len(spec.seeds)


@pytest.mark.parametrize("old,new,where", [
    ("values = 100, 200", "values = inf", "[experiment] values"),
    ("values = 100, 200", "values = 100, nan", "[experiment] values"),
    ("values = 100, 200", "values = 100, 200.5", "[experiment] values"),
    ("seeds = 0:3", "seeds = 0:abc", "[experiment] seeds"),
    ("seeds = 0:3", "seeds = 0, 1.5", "[experiment] seeds"),
    ("dims = 8, 250, 600", "dims = 8, 250.5, 600", "[net] dims"),
    ("seed = 11", "seed = abc", "[net] seed"),
    ("seed = 11", "seed = 1e3", "[net] seed"),
    ("seeds = 0:3", "seeds = 1e400", "[experiment] seeds"),
    ("eta_norm = 0.1", "eta_norm = 0.1\nm = abc", "[instance] m"),
    ("eta_norm = 0.1", "eta_norm = 0.1\nn_samples = 1e3", "[instance] n_samples"),
    ("eta_norm = 0.1", "eta_norm = 0.1\nsigma = inf", "[instance] sigma"),
    ("eta_norm = 0.1", "eta_norm = nan", "[instance] eta_norm"),
    ("c_step = 0.2", "c_step = fast", "[solver] c_step"),
    ("t_max = 300", "t_max = abc", "[solver] t_max"),
    ("t_max = 300", "t_max = 1e3", "[solver] t_max"),
    ("t_max = 300", "t_max = 300\nrel_step_tol = nan", "[solver] rel_step_tol"),
])
def test_cli_rejects_bad_config_numbers(tmp_path, capsys, old, new, where):
    cfg = tmp_path / "exp.ini"
    assert old in CONFIG
    cfg.write_text(CONFIG.replace(old, new, 1))
    assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o.csv"),
                 "--jobs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and where in err
    assert "Traceback" not in err
    assert not (tmp_path / "o.csv").exists()


def test_solver_config_rejects_nan_step_tolerance(capsys):
    with pytest.raises(ValidationError, match="rel_step_tol"):
        SolverConfig(rel_step_tol=math.nan)
    assert main(["solve", "--dims", "4,20,10", "--kind", "DEN", "--t-max", "3",
                 "--rel-step-tol", "nan"]) == 1
    assert "rel_step_tol" in capsys.readouterr().err
