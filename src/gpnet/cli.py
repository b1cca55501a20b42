"""Command line front end.

Subcommands: gen-net, solve, check-wdc, check-r2wdc, check-rric,
check-patterns, conditions, experiment, recipe.  Every command is a pure
function of its flags, so rerunning with the same flags rewrites the
same bytes.  Exit codes: 0 success, 1 validation error, 2 divergence or
infeasibility, 3 I/O error.
"""

import argparse
import math
import sys

import numpy as np

from .conditions import (log_piece_count_bounds, pattern_count_exact,
                         r2wdc_deviation, reports_csv_text, rric_deviation,
                         wdc_deviation, write_reports_csv)
from .errors import DivergenceError, InfeasibleError, ValidationError
from .harness import (_parse_recipe, default_jobs, parse_experiment_config,
                      run_condition_suite, run_experiment, summary_path_for,
                      write_experiment_csvs)
from .net import contractive_example_dims, load_net, sample_gaussian_net, save_net
from .rng import DOMAIN_INSTANCE, DOMAIN_SAMPLE, sub_rng
from .solvers import KINDS, SolverConfig, make_instance, solve


class _Parser(argparse.ArgumentParser):
    """argparse that reports flag problems through the validation exit code
    instead of calling sys.exit."""

    def error(self, message):
        raise ValidationError(message)


def _parse_dims(text):
    try:
        dims = tuple(int(tok) for tok in text.replace(";", ",").split(",") if tok.strip())
    except ValueError:
        raise ValidationError(f"bad dims {text!r}") from None
    if len(dims) < 2:
        raise ValidationError("dims must list at least (k, n_1)")
    return dims


def _add_net_source(p):
    p.add_argument("--net", help="path to a saved network file")
    p.add_argument("--dims", help="comma separated dims, e.g. 8,250,600")
    p.add_argument("--recipe", help="contractive recipe, e.g. 'k=4 d=3 c_bar=2'")
    p.add_argument("--net-seed", type=int, default=0,
                   help="seed for sampling when --dims/--recipe is used")


def _net_from_args(args):
    given = [name for name in ("net", "dims", "recipe")
             if getattr(args, name, None) is not None]
    if len(given) != 1:
        raise ValidationError("give exactly one of --net, --dims, --recipe")
    if args.net is not None:
        net = load_net(args.net)
        recipe = None
    elif args.dims is not None:
        net = sample_gaussian_net(_parse_dims(args.dims), args.net_seed)
        recipe = None
    else:
        recipe = _parse_recipe(args.recipe)
        net = sample_gaussian_net(recipe.dims, args.net_seed)
    return net, recipe


def _write_text(path, text):
    with open(path, "w", newline="") as f:
        f.write(text)


# ---------------------------------------------------------------------------
# subcommand actions
# ---------------------------------------------------------------------------

def _cmd_gen_net(args):
    net, _ = _net_from_args(args)
    save_net(net, args.out)
    print(f"wrote net dims={net.dims} depth={net.depth} to {args.out}")
    return 0


def _cmd_recipe(args):
    rec = contractive_example_dims(k=args.k, d=args.d, c_bar=args.c_bar,
                                   alpha_floor=args.alpha_floor)
    print(f"dims={rec.dims} alpha={rec.alpha!r} escalated={rec.alpha_escalated} "
          f"contractive_layers={rec.contractive_layers}")
    if args.out:
        lines = ["layer,width,expansivity_margin,width_margin"]
        for i in range(rec.d):
            lines.append(f"{i + 1},{rec.dims[i + 1]},"
                         f"{float(rec.expansivity_margin[i])!r},"
                         f"{float(rec.width_margin[i])!r}")
        _write_text(args.out, "\n".join(lines) + "\n")
        print(f"wrote margins to {args.out}")
    return 0


def _cmd_solve(args):
    net, _ = _net_from_args(args)
    if args.kind not in KINDS:
        raise ValidationError(f"unknown kind {args.kind!r}")
    inst = make_instance(args.kind, net, m=args.m, sigma=args.sigma,
                         eta_norm=args.eta_norm, n_samples=args.n_samples,
                         seed=args.seed)
    cfg = SolverConfig(c_step=args.c_step, t_max=args.t_max,
                       rel_step_tol=args.rel_step_tol, seed=args.seed,
                       trace_stride=args.trace_stride)
    tr = solve(inst, cfg)
    print(f"kind={args.kind} steps={tr.n_steps} stop={tr.stop_reason} "
          f"negations={len(tr.negations)} "
          f"rel_signal_err={tr.final_rel_signal_err!r} "
          f"rel_latent_err={tr.final_rel_latent_err!r}")
    if args.out:
        tr.to_csv(args.out)
        print(f"wrote trace to {args.out}")
    return 0


def _layer_list(args, net):
    if args.layer == 0:
        return list(range(1, net.depth + 1))
    if not 1 <= args.layer <= net.depth:
        raise ValidationError(f"layer must be in 1..{net.depth} or 0 for all")
    return [args.layer]


def _cmd_check_wdc(args):
    net, _ = _net_from_args(args)
    reports = [wdc_deviation(net.weights[i - 1], args.samples, args.seed, layer=i)
               for i in _layer_list(args, net)]
    worst = max(r.max_eps for r in reports)
    print(f"wdc max deviation {worst!r} over {args.samples} pairs per layer")
    if args.out:
        write_reports_csv(reports, args.out)
        print(f"wrote report to {args.out}")
    return 0


def _cmd_check_r2wdc(args):
    net, _ = _net_from_args(args)
    reports = [r2wdc_deviation(net, i, args.samples, args.seed)
               for i in _layer_list(args, net)]
    worst = max(r.max_eps for r in reports)
    skipped = sum(r.skipped for r in reports)
    print(f"r2wdc max deviation {worst!r} over {args.samples} tuples per layer "
          f"(skipped {skipped})")
    if args.out:
        write_reports_csv(reports, args.out)
        print(f"wrote report to {args.out}")
    return 0


def _cmd_check_rric(args):
    net, _ = _net_from_args(args)
    if args.m < 1:
        raise ValidationError("m must be >= 1")
    rng = sub_rng(args.seed, DOMAIN_INSTANCE, 1)
    a = rng.standard_normal((args.m, net.n_out)) / math.sqrt(args.m)
    rep = rric_deviation(a, net, args.samples, args.seed)
    print(f"rric max deviation {rep.max_eps!r} over {args.samples} pairs "
          f"(skipped {rep.skipped})")
    if args.out:
        write_reports_csv([rep], args.out)
        print(f"wrote report to {args.out}")
    return 0


def _cmd_check_patterns(args):
    if args.ell not in (1, 2, 3):
        raise ValidationError("ell must be 1, 2 or 3")
    if args.rows < 1 or args.cols < 1:
        raise ValidationError("--rows and --cols must be >= 1")
    rng = sub_rng(args.seed, DOMAIN_SAMPLE, 0)
    w = rng.standard_normal((args.rows, args.cols))
    basis = rng.standard_normal((args.cols, args.ell))
    pc = pattern_count_exact(w, basis)
    print(f"patterns={pc.count} comb_bound={pc.comb_bound} "
          f"log_bound={pc.log_bound!r}")
    if args.out:
        write_reports_csv([pc.to_report()], args.out)
        print(f"wrote report to {args.out}")
    return 0


def _cmd_conditions(args):
    net, recipe = _net_from_args(args)
    reports = run_condition_suite(net, args.samples, args.seed,
                                  eps_ref=args.eps_ref, pairs=args.pairs,
                                  recipe=recipe)
    text = reports_csv_text(reports)
    n_rows = text.count("\n") - 1
    print(f"collected {n_rows} condition rows on dims={net.dims}")
    if args.out:
        _write_text(args.out, text)
        print(f"wrote report to {args.out}")
    return 0


def _cmd_experiment(args):
    try:
        with open(args.config) as f:
            text = f.read()
    except FileNotFoundError:
        raise ValidationError(f"config file {args.config} not found") from None
    spec = parse_experiment_config(text)
    out = args.out or spec.out
    if out is None:
        raise ValidationError("no output path: pass --out or set [output] path")
    rows, summary = run_experiment(spec, jobs=args.jobs)
    write_experiment_csvs(rows, summary, out)
    failed = sum(r["failed"] for r in rows)
    print(f"{spec.name}: {len(rows)} cells, {failed} failed; "
          f"wrote {out} and {summary_path_for(out)}")
    return 0


def build_parser():
    parser = _Parser(prog="gpnet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-net", help="sample a network and save it")
    _add_net_source(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_net)

    p = sub.add_parser("recipe", help="contractive width recipe and margins")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--c-bar", type=float, default=2.0)
    p.add_argument("--alpha-floor", type=float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_recipe)

    p = sub.add_parser("solve", help="build one instance and run the solver")
    _add_net_source(p)
    p.add_argument("--kind", required=True, help="|".join(KINDS))
    p.add_argument("--m", type=int)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--eta-norm", type=float)
    p.add_argument("--n-samples", type=int)
    p.add_argument("--c-step", type=float, default=0.2)
    p.add_argument("--t-max", type=int, default=1000)
    p.add_argument("--rel-step-tol", type=float, default=1e-12)
    p.add_argument("--trace-stride", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the iterate trace CSV here")
    p.set_defaults(func=_cmd_solve)

    for name, fn in (("check-wdc", _cmd_check_wdc),
                     ("check-r2wdc", _cmd_check_r2wdc)):
        p = sub.add_parser(name, help="masked-Gram deviation per layer")
        _add_net_source(p)
        p.add_argument("--layer", type=int, default=0, help="0 means all layers")
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out")
        p.set_defaults(func=fn)

    p = sub.add_parser("check-rric", help="measurement-Gram deviation on "
                                          "output differences")
    _add_net_source(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check_rric)

    p = sub.add_parser("check-patterns", help="exact activation-pattern count "
                                              "of a random matrix over a slice")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check_patterns)

    p = sub.add_parser("conditions", help="full condition suite on one net")
    _add_net_source(p)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--pairs", type=int, default=25)
    p.add_argument("--eps-ref", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_conditions)

    p = sub.add_parser("experiment", help="run a sweep described by a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="override the config's output path")
    p.add_argument("--jobs", type=int, default=default_jobs())
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DivergenceError, InfeasibleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
