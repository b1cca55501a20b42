"""Seeded experiment sweeps with stable CSV output.

An experiment is a grid (sweep value) x (seed).  Each cell builds its
net and instance deterministically from the cell coordinates, so cells
can run in any order, on any number of workers, and still produce the
same bytes; rows are emitted sorted by (sweep value, seed).  A cell that
diverges, or whose planted signal G(x_star) is zero (no relative signal
error is defined), is marked failed instead of aborting the grid; the
summary quantiles read only the cells that did not fail.

Config files use INI syntax:

    [experiment]
    name = noise-sweep
    kind = CS
    sweep = m                ; one of m, sigma, width, depth
    values = 100, 200, 400, 800
    seeds = 0:20             ; half-open range, or an explicit list 0, 5, 9

    [net]
    dims = 8, 250, 600       ; or recipe = k=4 d=3 c_bar=2
    seed = 11

    [instance]               ; those of solvers.INSTANCE_ARGS the kind takes
    m = 150
    eta_norm = 0.1

    [solver]                 ; any of solvers.SOLVER_ARGS
    c_step = 0.2
    t_max = 1000

    [output]
    path = results.csv

Sweep semantics (one SWEEP_AXES row each): m and sigma replace the
instance parameter; width swaps every hidden width for the value; depth
rebuilds dims as the first hidden width repeated value times.  Values
are read literally, % included, and repeated sweep values or seeds are
rejected.  So are an unknown section or key, a [net] with both or
neither of dims and recipe, an instance argument (key or sweep) that
the kind does not take, a kind without the m or n_samples it needs,
two noise sources (a sigma sweep over an eta_norm), and an [instance]
m or sigma (0 too) that the sweep would replace.  Reported errors are
relative to the planted latent and signal norms.
"""

from collections.abc import Callable
from dataclasses import dataclass, replace
import concurrent.futures
import configparser
import math
from operator import itemgetter
import os
from typing import NamedTuple

import numpy as np

from .blas import blas_threads, set_blas_threads
from .conditions import _csv_text
from .errors import DivergenceError, ValidationError, check_count
from .net import check_dims, contractive_example_dims, sample_gaussian_net
from .solvers import (INSTANCE_ARGS, SOLVER_ARGS, SolverConfig, _instance_row,
                      make_instance, solve)


class _Axis(NamedTuple):
    """A sweep axis: whether its values must be integers, the cell dims from
    the spec's dims and a value, and the make_instance argument a value
    sets (None for none)."""

    integral: bool
    dims: Callable
    arg: str | None


SWEEP_AXES = {
    "m": _Axis(True, lambda dims, v: dims, "m"),
    "sigma": _Axis(False, lambda dims, v: dims, "sigma"),
    "width": _Axis(True, lambda dims, v: dims[:1] + (int(v),) * (len(dims) - 1), None),
    "depth": _Axis(True, lambda dims, v: dims[:1] + dims[1:2] * int(v), None),
}

EXPERIMENT_COLUMNS = ("sweep_value", "seed", "final_signal_err",
                      "final_latent_err", "iters", "negations", "failed")
SUMMARY_COLUMNS = ("sweep_value", "cells", "failed", "signal_err_q1",
                   "signal_err_median", "signal_err_q3", "latent_err_median")


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one sweep; everything a cell needs to rebuild
    its problem from scratch.  instance maps INSTANCE_ARGS keys to what
    every cell hands make_instance, and is kept as pairs without None."""

    name: str
    kind: str
    sweep_axis: str
    sweep_values: tuple
    seeds: tuple
    dims: tuple
    net_seed: int = 0
    instance: tuple = ()
    solver: SolverConfig = SolverConfig()
    out: str | None = None

    def __post_init__(self):
        axis = SWEEP_AXES.get(self.sweep_axis)
        if axis is None:
            raise ValidationError(f"sweep must be one of {tuple(SWEEP_AXES)}")
        object.__setattr__(self, "sweep_values", tuple(self.sweep_values))
        object.__setattr__(self, "seeds",
                           tuple(check_count(s, "seed", least=0) for s in self.seeds))
        object.__setattr__(self, "net_seed", check_count(self.net_seed, "net_seed", least=0))
        if not self.sweep_values or not self.seeds:
            raise ValidationError("values and seeds must be nonempty")
        if axis.integral and not all(float(v).is_integer() for v in self.sweep_values):
            raise ValidationError(f"[experiment] values must be integers for sweep = "
                                  f"{self.sweep_axis}, got {self.sweep_values}")
        # a repeat would run the same cells twice and count them twice
        if len(set(map(float, self.sweep_values))) < len(self.sweep_values) \
                or len(set(self.seeds)) < len(self.seeds):
            raise ValidationError("sweep values and seeds must not repeat")
        object.__setattr__(self, "dims", check_dims(self.dims))
        if unknown := [a for a in dict(self.instance) if a not in INSTANCE_ARGS]:
            raise ValidationError(f"{unknown[0]} is not an instance argument")
        instance = {a: v for a, v in dict(self.instance).items() if v is not None}
        object.__setattr__(self, "instance", tuple(instance.items()))
        for v in self.sweep_values:  # checks the kind, and each cell's arguments
            _instance_row(self.kind, _instance_args(self, v))
        # a value given for the swept argument would be replaced in every cell
        if axis.arg in instance:
            raise ValidationError(f"{axis.arg} is swept, so it must not also be given, "
                                  f"got {axis.arg} = {instance[axis.arg]!r}")
        # likewise the solver seed, which run_cell replaces by each cell's seed
        if self.solver.seed != SolverConfig.seed:
            raise ValidationError("each cell's seed is its solver seed, so solver.seed "
                                  f"must not be given, got {self.solver.seed!r}")


def _cell_dims(spec, value):
    return SWEEP_AXES[spec.sweep_axis].dims(spec.dims, value)


def _instance_args(spec, value):
    """The make_instance arguments of the cells at the sweep value."""
    arg = SWEEP_AXES[spec.sweep_axis].arg
    return dict(spec.instance) | ({} if arg is None else {arg: value})


# the last net a cell of this process used, keyed on (cell dims, net_seed);
# run_experiment fills it before its pool forks and empties it on return
_NET = {}


def _cell_net(dims, net_seed):
    """sample_gaussian_net(dims, net_seed), reused while the key repeats."""
    key = (dims, net_seed)
    net = _NET.get(key)
    if net is None:
        _NET.clear()  # one entry, so a width sweep holds one net at a time
        net = _NET[key] = sample_gaussian_net(dims, net_seed)
    return net


def run_cell(spec, value, seed):
    """One (value, seed) cell; returns a row dict.  Deterministic in its
    arguments only: the net is rebuilt from (cell dims, net_seed), or taken
    from the process's one-entry reuse when the last cell had the same."""
    net = _cell_net(_cell_dims(spec, value), spec.net_seed)
    inst = make_instance(spec.kind, net, seed=seed, **_instance_args(spec, value))
    failed = {"sweep_value": value, "seed": seed, "final_signal_err": float("nan"),
              "final_latent_err": float("nan"), "iters": 0, "negations": 0, "failed": 1}
    if not inst.y_star.any():  # G(x_star) = 0 has no relative signal error
        return failed
    try:
        tr = solve(inst, replace(spec.solver, seed=seed))
    except DivergenceError as e:
        return failed | {"iters": e.iteration}
    return {"sweep_value": value, "seed": seed,
            "final_signal_err": tr.final_rel_signal_err,
            "final_latent_err": tr.final_rel_latent_err,
            "iters": tr.n_steps, "negations": len(tr.negations), "failed": 0}


def _star_args(args):
    return run_cell(*args)


def run_experiment(spec, jobs=None):
    """Run the sweep grid; returns (rows, summary) sorted by (value, seed).

    jobs (default one per CPU) > 1 fans cells over a process pool of at
    most one worker per cell and per CPU; results are identical to the
    serial run because each cell is a pure function of (spec, value,
    seed).  Each worker runs one BLAS thread, so the workers do not
    contend for cores; the serial run keeps the caller's count.

    The first cell's net is built here, before the pool forks, which also
    imports numpy.random, and the OpenBLAS handle is resolved here too.
    The workers inherit all three, so no first cell starts cold.  The pool
    asks for fork wherever the platform has it, whatever the default start
    method; under another one the rows are the same, only colder.  The net
    is dropped on return.
    """
    cpus = os.cpu_count() or 1
    jobs = cpus if jobs is None else check_count(jobs, "jobs")
    cells = sorted((float(v), s) for v in spec.sweep_values for s in spec.seeds)
    jobs = min(jobs, len(cells), cpus)
    try:
        _cell_net(_cell_dims(spec, cells[0][0]), spec.net_seed)
        if jobs == 1:
            rows = [run_cell(spec, v, s) for v, s in cells]
        else:
            blas_threads()  # finds the OpenBLAS once, for every worker's initializer
            # imported here, as the pool itself is: a serial run loads no multiprocessing
            import multiprocessing
            start = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=jobs, initializer=set_blas_threads, initargs=(1,),
                    mp_context=multiprocessing.get_context(start)) as pool:
                rows = list(pool.map(_star_args, [(spec, v, s) for v, s in cells]))
    finally:
        _NET.clear()

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
    """path with _summary before the file name's extension, if it has one."""
    root, ext = os.path.splitext(str(path))
    return f"{root}_summary{ext}"


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


# the keys each section may give; [instance] and [solver] map theirs to a type
_INI_KEYS = {"experiment": {"name", "kind", "sweep", "values", "seeds"},
             "net": {"dims", "recipe", "seed"}, "output": {"path"},
             "instance": INSTANCE_ARGS, "solver": SOLVER_ARGS}


def _ini_fields(cp, section, kinds):
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
    """DimsRecipe from 'k=4 d=3 c_bar=2' (spaces or commas; c_bar optional)."""
    kv = {}
    for tok in text.replace(",", " ").split():
        key, eq, val = tok.partition("=")
        if not eq:
            raise ValidationError(f"bad recipe token {tok!r}, expected key=value")
        kv[key] = _number(val, f"recipe {key}")
    extra = set(kv) - {"k", "d", "c_bar"}
    if extra:
        raise ValidationError(f"unknown recipe keys {sorted(extra)}")
    if "k" not in kv or "d" not in kv:
        raise ValidationError("recipe needs at least k and d")
    return contractive_example_dims(**kv)


def parse_experiment_config(text):
    """Parse the INI grammar documented at module top into an ExperimentSpec."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                   interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ValidationError(f"bad config: {e}") from None
    if cp.defaults():  # [DEFAULT] keys would be copied into every section
        raise ValidationError(f"unknown key [DEFAULT] {min(cp.defaults())}")
    for section in cp.sections():
        if section not in _INI_KEYS:
            raise ValidationError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _INI_KEYS[section]:
                raise ValidationError(f"unknown key [{section}] {key}; the section takes "
                                      f"{', '.join(sorted(_INI_KEYS[section]))}")
    if "experiment" not in cp:
        raise ValidationError("config needs an [experiment] section")
    exp = cp["experiment"]
    for key in ("kind", "sweep", "values", "seeds"):
        if key not in exp:
            raise ValidationError(f"[experiment] needs {key}")

    if "net" not in cp:
        raise ValidationError("config needs a [net] section")
    netsec = cp["net"]
    if ("dims" in netsec) == ("recipe" in netsec):
        raise ValidationError("[net] takes exactly one of dims and recipe")
    if "dims" in netsec:
        dims = _parse_ints(netsec["dims"], "[net] dims")
    else:
        dims = _parse_recipe(netsec["recipe"]).dims

    solver = SolverConfig(**_ini_fields(cp, "solver", SOLVER_ARGS))
    instance = _ini_fields(cp, "instance", INSTANCE_ARGS)
    given = {"net_seed": _number(netsec["seed"], "[net] seed", int)} \
        if "seed" in netsec else {}
    out = cp["output"].get("path") if "output" in cp else None

    return ExperimentSpec(
        name=exp.get("name", "experiment"),
        kind=exp["kind"].strip(),
        sweep_axis=exp["sweep"].strip(),
        sweep_values=_parse_numbers(exp["values"], "[experiment] values"),
        seeds=_parse_seeds(exp["seeds"]),
        dims=dims,
        **given,
        instance=instance,
        solver=solver,
        out=out)
