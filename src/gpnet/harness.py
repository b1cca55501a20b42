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
import math
from operator import itemgetter
import os

import numpy as np

from .conditions import (ConditionReport, _csv_text, _write_text, lambda_concentration,
                         lipschitz_check, convexity_direction_check, log_piece_count_bounds,
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


def experiment_csv_text(rows):
    return _csv_text(EXPERIMENT_COLUMNS, map(itemgetter(*EXPERIMENT_COLUMNS), rows))


def summary_csv_text(summary):
    return _csv_text(SUMMARY_COLUMNS, map(itemgetter(*SUMMARY_COLUMNS), summary))


def summary_path_for(path):
    path = str(path)
    root, dot, ext = path.rpartition(".")
    if dot:
        return f"{root}_summary.{ext}"
    return path + "_summary"


def write_experiment_csvs(rows, summary, path):
    _write_text(path, experiment_csv_text(rows))
    _write_text(summary_path_for(path), summary_csv_text(summary))


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _number(text, where, kind=float):
    """text read as a finite int or float; a ValidationError naming where
    (the INI section and key) otherwise."""
    text = text.strip()
    try:
        value = kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValidationError(f"{where} must be {what}, got {text!r}") from None
    if kind is float and not math.isfinite(value):
        raise ValidationError(f"{where} must be finite, got {text!r}")
    return value


def _ini_fields(cp, section, **kinds):
    """{key: value} for each key of kinds that [section] of cp gives, each
    value read by _number as that key's kind (int or float)."""
    given = cp[section] if section in cp else {}
    return {key: _number(given[key], f"[{section}] {key}", kind)
            for key, kind in kinds.items() if key in given}


def _parse_numbers(text, where):
    out = []
    for tok in text.replace(";", ",").split(","):
        if tok.strip():
            f = _number(tok, where)
            out.append(int(f) if f == int(f) else f)
    return tuple(out)


def _parse_ints(text, where):
    values = _parse_numbers(text, where)
    if not all(isinstance(v, int) for v in values):
        raise ValidationError(f"{where} must list integers, got {text.strip()!r}")
    return values


def _parse_seeds(text):
    where = "[experiment] seeds"
    text = text.strip()
    if ":" in text:
        lo, _, hi = text.partition(":")
        lo, hi = _number(lo, where, int), _number(hi, where, int)
        if hi <= lo:
            raise ValidationError(f"empty seed range {text!r}")
        return tuple(range(lo, hi))
    return _parse_ints(text, where)


def _parse_recipe(text):
    """DimsRecipe from 'k=4 d=3 c_bar=2 alpha_floor=1' (spaces or commas)."""
    kv = {}
    for tok in text.replace(",", " ").split():
        key, eq, val = tok.partition("=")
        if not eq:
            raise ValidationError(f"bad recipe token {tok!r}, expected key=value")
        kv[key] = _number(val, f"recipe {key}")
    extra = set(kv) - {"k", "d", "c_bar", "alpha_floor"}
    if extra:
        raise ValidationError(f"unknown recipe keys {sorted(extra)}")
    if "k" not in kv or "d" not in kv:
        raise ValidationError("recipe needs at least k and d")
    for key in ("k", "d"):
        if kv[key] != int(kv[key]):
            raise ValidationError(f"recipe {key} must be an integer, got {kv[key]!r}")
    return contractive_example_dims(**kv)


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
        dims = _parse_ints(netsec["dims"], "[net] dims")
    elif "recipe" in netsec:
        dims = _parse_recipe(netsec["recipe"]).dims
    else:
        raise ValidationError("[net] needs dims or recipe")

    solver = SolverConfig(**_ini_fields(cp, "solver", c_step=float, t_max=int,
                                        rel_step_tol=float))
    given = _ini_fields(cp, "instance", m=int, sigma=float, eta_norm=float,
                        n_samples=int)
    if "seed" in netsec:
        given["net_seed"] = _number(netsec["seed"], "[net] seed", int)

    out = None
    if "output" in cp and "path" in cp["output"]:
        out = cp["output"]["path"]

    sweep = exp["sweep"].strip()
    # m, width and depth are counts; only sigma takes fractional values
    parse_values = _parse_numbers if sweep == "sigma" else _parse_ints
    return ExperimentSpec(
        name=exp.get("name", "experiment"),
        kind=exp["kind"].strip(),
        sweep_axis=sweep,
        sweep_values=parse_values(exp["values"], "[experiment] values"),
        seeds=_parse_seeds(exp["seeds"]),
        dims=dims,
        **given,
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
    eps = float(eps_ref)
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValidationError(f"eps_ref must be finite and positive, got {eps_ref!r}")
    d = net.depth
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
    for j in range(pairs):
        rng = sub_rng(seed, DOMAIN_SAMPLE, j)
        x = rng.standard_normal(net.k)
        y = rng.standard_normal(net.k)
        near = x + 0.05 * float(np.linalg.norm(x)) * unit_vector(rng, net.k)
        na = norm_angle_report(net, x, y, eps_ref=eps)
        ang_max = np.maximum(ang_max, na.eps_by_layer)
        ratio_min = np.minimum(ratio_min, na.per_layer["norm_sq_ratio"])
        ratio_max = np.maximum(ratio_max, na.per_layer["norm_sq_ratio"])
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
                   "band_low": na.per_layer["band_low"],
                   "band_high": na.per_layer["band_high"],
                   "lipschitz_ratio_max": tuple(lip_max)},
        aux={"inner_scaled_min": inner_min, "htilde_gap_max": htilde_max},
        targets={"angle_residual": na.targets["angle_residual"],
                 "lipschitz_ratio_max": lip.bound,
                 "inner_scaled_min": na.targets["inner_scaled"],
                 "htilde_gap_max": na.targets["htilde_gap"]}))
    reports.append(ConditionReport(
        kind="LAMBDA_CONC", samples=pairs, seed=int(seed),
        aux={"gram_gap_max": gram_max, "sq_norm_scaled_max": sqnorm_max,
             "convexity_residual_max": conv_max},
        targets={"gram_gap_max": lc.targets["gram_gap"],
                 "sq_norm_scaled_max": lc.targets["sq_norm_scaled"],
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
