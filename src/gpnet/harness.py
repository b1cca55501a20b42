"""Seeded experiment sweeps and condition suites with stable CSV output.

An experiment is a grid (sweep value) x (seed).  Each cell builds its
net and instance deterministically from the cell coordinates, so cells
can run in any order, on any number of workers, and still produce the
same bytes; rows are emitted sorted by (sweep value, seed).  Divergent
cells are marked failed instead of aborting the grid.

Config files use INI syntax:

    [experiment]
    name = noise-sweep
    kind = CS
    sweep = m                ; one of m, sigma, width, depth
    values = 100, 200, 400, 800
    seeds = 0:20             ; half-open range, or an explicit list 0, 5, 9

    [net]
    dims = 8, 250, 600       ; or recipe = k=4 d=3 c_bar=2 alpha_floor=1
    seed = 11

    [instance]               ; any of m, sigma, eta_norm, n_samples
    m = 150
    eta_norm = 0.1

    [solver]                 ; any of c_step, t_max, rel_step_tol
    c_step = 0.2
    t_max = 1000

    [output]
    path = results.csv

Sweep semantics: m and sigma replace the instance parameter; width
swaps every hidden width for the value; depth rebuilds dims as the
first hidden width repeated value times.  Reported errors are relative
to the planted latent and signal norms.
"""

from dataclasses import dataclass, replace
import concurrent.futures
import configparser
import io
import math
import os

import numpy as np

from .conditions import (ConditionReport, _fmt, lambda_concentration, lipschitz_check,
                         convexity_direction_check, log_piece_count_bounds,
                         norm_angle_report, r2wdc_deviation, wdc_deviation)
from .errors import DivergenceError, ValidationError
from .net import contractive_example_dims, sample_gaussian_net
from .rng import DOMAIN_SAMPLE, sub_rng, unit_vector
from .solvers import KINDS, SolverConfig, make_instance, solve

SWEEP_AXES = ("m", "sigma", "width", "depth")

EXPERIMENT_COLUMNS = ("sweep_value", "seed", "final_signal_err",
                      "final_latent_err", "iters", "negations", "failed")
SUMMARY_COLUMNS = ("sweep_value", "cells", "failed", "signal_err_q1",
                   "signal_err_median", "signal_err_q3", "latent_err_median")


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one sweep; everything a cell needs to rebuild
    its problem from scratch."""

    name: str
    kind: str
    sweep_axis: str
    sweep_values: tuple
    seeds: tuple
    dims: tuple
    net_seed: int = 0
    m: int | None = None
    sigma: float = 0.0
    eta_norm: float | None = None
    n_samples: int | None = None
    solver: SolverConfig = SolverConfig()
    out: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown kind {self.kind!r}")
        if self.sweep_axis not in SWEEP_AXES:
            raise ValidationError(f"sweep must be one of {SWEEP_AXES}")
        if not self.sweep_values:
            raise ValidationError("values must be nonempty")
        if not self.seeds:
            raise ValidationError("seeds must be nonempty")
        if len(self.dims) < 2:
            raise ValidationError("net dims must list (k, n_1, ...)")


def _cell_dims(spec, value):
    if spec.sweep_axis == "width":
        w = int(value)
        if w < 1:
            raise ValidationError("width sweep values must be positive")
        return (spec.dims[0],) + (w,) * (len(spec.dims) - 1)
    if spec.sweep_axis == "depth":
        d = int(value)
        if d < 1:
            raise ValidationError("depth sweep values must be positive")
        return (spec.dims[0],) + (spec.dims[1],) * d
    return spec.dims


def run_cell(spec, value, seed):
    """One (value, seed) cell; returns a row dict.  Deterministic in its
    arguments only."""
    dims = _cell_dims(spec, value)
    net = sample_gaussian_net(dims, spec.net_seed)
    m = spec.m
    sigma = spec.sigma
    if spec.sweep_axis == "m":
        m = int(value)
    elif spec.sweep_axis == "sigma":
        sigma = float(value)
    cfg = replace(spec.solver, seed=int(seed))
    try:
        inst = make_instance(spec.kind, net, m=m, sigma=sigma,
                             eta_norm=spec.eta_norm, n_samples=spec.n_samples,
                             seed=int(seed))
        tr = solve(inst, cfg)
    except DivergenceError as e:
        return {"sweep_value": value, "seed": int(seed),
                "final_signal_err": float("nan"), "final_latent_err": float("nan"),
                "iters": e.iteration, "negations": 0, "failed": 1}
    return {"sweep_value": value, "seed": int(seed),
            "final_signal_err": tr.final_rel_signal_err,
            "final_latent_err": tr.final_rel_latent_err,
            "iters": tr.n_steps, "negations": len(tr.negations), "failed": 0}


def _star_args(args):
    return run_cell(*args)


def run_experiment(spec, jobs=1):
    """Run the sweep grid; returns (rows, summary) sorted by (value, seed).

    jobs > 1 fans cells over a process pool of at most one worker per cell
    and per CPU; results are identical to the serial run because each cell
    is a pure function of (spec, value, seed).
    """
    cells = sorted((float(v), int(s)) for v in spec.sweep_values for s in spec.seeds)
    jobs = max(1, min(int(jobs), len(cells), default_jobs()))
    if jobs == 1:
        rows = [run_cell(spec, v, s) for v, s in cells]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_star_args, [(spec, v, s) for v, s in cells]))

    summary = []
    for v in sorted(set(c[0] for c in cells)):
        here = [r for r in rows if r["sweep_value"] == v]
        good = [r for r in here if not r["failed"]]
        if good:
            se = np.asarray([r["final_signal_err"] for r in good])
            le = np.asarray([r["final_latent_err"] for r in good])
            q1, med, q3 = (float(q) for q in np.percentile(se, [25, 50, 75]))
            lmed = float(np.median(le))
        else:
            q1 = med = q3 = lmed = float("nan")
        summary.append({"sweep_value": v, "cells": len(here),
                        "failed": sum(r["failed"] for r in here),
                        "signal_err_q1": q1, "signal_err_median": med,
                        "signal_err_q3": q3, "latent_err_median": lmed})
    return rows, summary


def _table_text(columns, rows):
    buf = io.StringIO()
    buf.write(",".join(columns) + "\n")
    for r in rows:
        buf.write(",".join(_fmt(r[c]) for c in columns) + "\n")
    return buf.getvalue()


def experiment_csv_text(rows):
    return _table_text(EXPERIMENT_COLUMNS, rows)


def summary_csv_text(summary):
    return _table_text(SUMMARY_COLUMNS, summary)


def summary_path_for(path):
    path = str(path)
    root, dot, ext = path.rpartition(".")
    if dot:
        return f"{root}_summary.{ext}"
    return path + "_summary"


def write_experiment_csvs(rows, summary, path):
    with open(path, "w", newline="") as f:
        f.write(experiment_csv_text(rows))
    with open(summary_path_for(path), "w", newline="") as f:
        f.write(summary_csv_text(summary))


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _parse_numbers(text):
    out = []
    for tok in text.replace(";", ",").split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            f = float(tok)
        except ValueError:
            raise ValidationError(f"bad number {tok!r} in config") from None
        out.append(int(f) if f == int(f) else f)
    return tuple(out)


def _parse_seeds(text):
    text = text.strip()
    if ":" in text:
        lo, _, hi = text.partition(":")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise ValidationError(f"bad seed range {text!r}") from None
        if hi <= lo:
            raise ValidationError(f"empty seed range {text!r}")
        return tuple(range(lo, hi))
    return tuple(int(v) for v in _parse_numbers(text))


def _parse_recipe(text):
    """DimsRecipe from 'k=4 d=3 c_bar=2 alpha_floor=1' (spaces or commas)."""
    kv = {}
    for tok in text.replace(",", " ").split():
        key, eq, val = tok.partition("=")
        if not eq:
            raise ValidationError(f"bad recipe token {tok!r}, expected key=value")
        try:
            value = float(val)
        except ValueError:
            raise ValidationError(f"bad recipe value {tok!r}") from None
        if not math.isfinite(value):
            raise ValidationError(f"recipe value {tok!r} is not finite")
        kv[key.strip()] = value
    extra = set(kv) - {"k", "d", "c_bar", "alpha_floor"}
    if extra:
        raise ValidationError(f"unknown recipe keys {sorted(extra)}")
    if "k" not in kv or "d" not in kv:
        raise ValidationError("recipe needs at least k and d")
    for key in ("k", "d"):
        if kv[key] != int(kv[key]):
            raise ValidationError(f"recipe {key} must be an integer, got {kv[key]!r}")
    return contractive_example_dims(k=int(kv["k"]), d=int(kv["d"]),
                                    c_bar=kv.get("c_bar", 2.0),
                                    alpha_floor=kv.get("alpha_floor", 1.0))


def parse_experiment_config(text):
    """Parse the INI grammar documented at module top into an ExperimentSpec."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ValidationError(f"bad config: {e}") from None
    if "experiment" not in cp:
        raise ValidationError("config needs an [experiment] section")
    exp = cp["experiment"]
    for key in ("kind", "sweep", "values", "seeds"):
        if key not in exp:
            raise ValidationError(f"[experiment] needs {key}")

    if "net" not in cp:
        raise ValidationError("config needs a [net] section")
    netsec = cp["net"]
    if "dims" in netsec:
        dims = tuple(int(v) for v in _parse_numbers(netsec["dims"]))
    elif "recipe" in netsec:
        dims = _parse_recipe(netsec["recipe"]).dims
    else:
        raise ValidationError("[net] needs dims or recipe")

    inst = cp["instance"] if "instance" in cp else {}
    sol = cp["solver"] if "solver" in cp else {}
    solver = SolverConfig(
        c_step=float(sol.get("c_step", 0.2)),
        t_max=int(sol.get("t_max", 1000)),
        rel_step_tol=float(sol.get("rel_step_tol", 1e-12)))

    out = None
    if "output" in cp and "path" in cp["output"]:
        out = cp["output"]["path"]

    def opt_int(sec, key):
        return int(sec[key]) if key in sec else None

    return ExperimentSpec(
        name=exp.get("name", "experiment"),
        kind=exp["kind"].strip(),
        sweep_axis=exp["sweep"].strip(),
        sweep_values=_parse_numbers(exp["values"]),
        seeds=_parse_seeds(exp["seeds"]),
        dims=dims,
        net_seed=int(netsec.get("seed", 0)),
        m=opt_int(inst, "m"),
        sigma=float(inst.get("sigma", 0.0)),
        eta_norm=float(inst["eta_norm"]) if "eta_norm" in inst else None,
        n_samples=opt_int(inst, "n_samples"),
        solver=solver,
        out=out)


# ---------------------------------------------------------------------------
# condition suite
# ---------------------------------------------------------------------------

def run_condition_suite(net, samples, seed, eps_ref=0.2, pairs=25, recipe=None):
    """All net-only condition checks bundled into one report list.

    Per layer: classic and range-restricted gram deviations over
    `samples` draws.  Over `pairs` Gaussian latent pairs: worst-case
    norm/angle statistics, linearization concentration, and (on a nearby
    second point) difference ratios and the descent-direction residual.
    A final PATTERN_COUNT report carries the log affine-piece bounds per
    partial depth, plus the width-recipe margins when recipe is given.
    """
    samples = int(samples)
    pairs = int(pairs)
    if samples < 1 or pairs < 1:
        raise ValidationError("samples and pairs must be >= 1")
    d = net.depth
    eps = float(eps_ref)
    reports = []
    for i in range(1, d + 1):
        reports.append(wdc_deviation(net.weights[i - 1], samples, seed, layer=i))
    for i in range(1, d + 1):
        reports.append(r2wdc_deviation(net, i, samples, seed))

    ang_max = np.zeros(d)
    ratio_min = np.full(d, np.inf)
    ratio_max = np.zeros(d)
    lip_max = np.zeros(d)
    inner_min = math.inf
    htilde_max = 0.0
    gram_max = 0.0
    sqnorm_max = 0.0
    conv_max = 0.0
    band_low = band_high = None
    for j in range(pairs):
        rng = sub_rng(seed, DOMAIN_SAMPLE, j)
        x = rng.standard_normal(net.k)
        y = rng.standard_normal(net.k)
        near = x + 0.05 * float(np.linalg.norm(x)) * unit_vector(rng, net.k)
        na = norm_angle_report(net, x, y, eps_ref=eps)
        ang_max = np.maximum(ang_max, na.eps_by_layer)
        ratio_min = np.minimum(ratio_min, na.per_layer["norm_sq_ratio"])
        ratio_max = np.maximum(ratio_max, na.per_layer["norm_sq_ratio"])
        band_low = na.per_layer["band_low"]
        band_high = na.per_layer["band_high"]
        inner_min = min(inner_min, na.aux["inner_scaled"])
        htilde_max = max(htilde_max, na.aux["htilde_gap"])
        lc = lambda_concentration(net, x, y, eps_ref=eps)
        gram_max = max(gram_max, lc.aux["gram_gap"])
        sqnorm_max = max(sqnorm_max, lc.aux["sq_norm_scaled"])
        lip = lipschitz_check(net, x, near, eps_ref=eps)
        lip_max = np.maximum(lip_max, lip.ratios)
        conv_max = max(conv_max, convexity_direction_check(net, x, near))

    layers = tuple(range(1, d + 1))
    reports.append(ConditionReport(
        kind="NORM_ANGLE", layers=layers, eps_by_layer=tuple(ang_max),
        headline="angle_residual", samples=pairs, seed=int(seed),
        per_layer={"norm_sq_ratio_min": tuple(ratio_min),
                   "norm_sq_ratio_max": tuple(ratio_max),
                   "band_low": band_low, "band_high": band_high,
                   "lipschitz_ratio_max": tuple(lip_max)},
        aux={"inner_scaled_min": inner_min, "htilde_gap_max": htilde_max},
        targets={"angle_residual": 4.0 * math.sqrt(eps),
                 "lipschitz_ratio_max": 1.2,
                 "inner_scaled_min": 1.0 / (4.0 * math.pi),
                 "htilde_gap_max": 24.0 * d ** 3 * math.sqrt(eps)}))
    reports.append(ConditionReport(
        kind="LAMBDA_CONC", samples=pairs, seed=int(seed),
        aux={"gram_gap_max": gram_max, "sq_norm_scaled_max": sqnorm_max,
             "convexity_residual_max": conv_max},
        targets={"gram_gap_max": 4.0 * eps * d, "sq_norm_scaled_max": 13.0 / 12.0,
                 "convexity_residual_max": 1.0 / 16.0 + 0.05}))

    aux = {}
    per_layer = {}
    if recipe is not None:
        aux["recipe_alpha"] = recipe.alpha
        per_layer["recipe_expansivity_margin"] = recipe.expansivity_margin
        per_layer["recipe_width_margin"] = recipe.width_margin
    reports.append(ConditionReport(
        kind="PATTERN_COUNT", layers=layers,
        eps_by_layer=log_piece_count_bounds(net.dims),
        headline="log_piece_bound", samples=0, seed=int(seed),
        per_layer=per_layer, aux=aux))
    return reports


def default_jobs():
    return os.cpu_count() or 1
