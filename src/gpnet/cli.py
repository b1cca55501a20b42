"""Command line front end.

Subcommands: gen-net, solve, check-wdc, check-r2wdc, check-rric,
check-patterns, conditions, experiment, recipe.  Every command is a pure
function of its flags, so rerunning with the same flags rewrites the
same bytes.  Exit codes: 0 success, 1 validation error or an input too
large to allocate, 2 divergence or infeasibility, 3 I/O error.
"""

import argparse
import sys

from .conditions import (_PATTERN_MAX_ROWS, _csv_text, _write_text, pattern_count_exact,
                         r2wdc_deviation, reports_csv_text, rric_deviation,
                         run_condition_suite, wdc_deviation)
from .errors import DivergenceError, InfeasibleError, ValidationError, check_count
from .harness import (_parse_ints, _parse_recipe, experiment_csv_text,
                      parse_experiment_config, run_experiment, summary_csv_text,
                      summary_path_for)
from .net import load_net, sample_gaussian_net, save_net
from .rng import DOMAIN_SAMPLE, sub_rng
from .solvers import (INSTANCE_ARGS, KINDS, SOLVER_ARGS, SolverConfig, _instance_row,
                      make_instance, sensing_matrix, solve)

_PATTERN_MAX_COLS = 10 ** 5  # a 20 x 10^5 draw is 16 MB
_RECIPE_HELP = "contractive recipe, e.g. 'k=4 d=3 c_bar=2'"


class _Parser(argparse.ArgumentParser):
    """argparse that reports flag problems through the validation exit code
    instead of calling sys.exit."""

    def error(self, message):
        raise ValidationError(message)


def _given(args, *names):
    """{name: value} for the flags among names that the command line set."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def _net_from_args(args):
    if len(_given(args, "net", "dims", "recipe")) != 1:
        raise ValidationError("give exactly one of --net, --dims, --recipe")
    if args.net is not None:
        return load_net(args.net), None
    if args.dims is not None:
        return sample_gaussian_net(_parse_ints(args.dims, "--dims"), args.net_seed), None
    recipe = _parse_recipe(args.recipe)
    return sample_gaussian_net(recipe.dims, args.net_seed), recipe


def _write_out(args, text, what):
    """Write text to --out, when given, and say so."""
    if args.out:
        _write_text(args.out, text)
        print(f"wrote {what} to {args.out}")


# ---------------------------------------------------------------------------
# subcommand actions
# ---------------------------------------------------------------------------

def _cmd_gen_net(args):
    net, _ = _net_from_args(args)
    save_net(net, args.out)
    print(f"wrote net dims={net.dims} depth={net.depth} to {args.out}")
    return 0


def _cmd_recipe(args):
    rec = _parse_recipe(args.recipe)
    print(f"dims={rec.dims} alpha={rec.alpha!r} escalated={rec.alpha_escalated} "
          f"contractive_layers={rec.contractive_layers}")
    header = ("layer", "width", "expansivity_margin", "width_margin")
    rows = zip(range(1, rec.d + 1), rec.dims[1:], rec.expansivity_margin,
               rec.width_margin)
    _write_out(args, _csv_text(header, rows), "margins")
    return 0


def _cmd_solve(args):
    check_count(args.trace_stride, "--trace-stride")
    given = _given(args, *INSTANCE_ARGS)
    _instance_row(args.kind, given)  # before the net is sampled
    net, _ = _net_from_args(args)
    inst = make_instance(args.kind, net, seed=args.seed, **given)
    if not inst.y_star.any():
        raise ValidationError("the planted signal G(x_star) is zero, so its relative "
                              "error is undefined; try another --seed or net")
    cfg = SolverConfig(seed=args.seed, **_given(args, *SOLVER_ARGS))
    tr = solve(inst, cfg)
    print(f"kind={args.kind} steps={tr.n_steps} stop={tr.stop_reason} "
          f"negations={len(tr.negations)} "
          f"rel_signal_err={tr.final_rel_signal_err!r} "
          f"rel_latent_err={tr.final_rel_latent_err!r}")
    _write_out(args, tr.csv_text(args.trace_stride), "trace")
    return 0


def _layer_list(args, net):
    if args.layer == 0:
        return list(range(1, net.depth + 1))
    if not 1 <= args.layer <= net.depth:
        raise ValidationError(f"layer must be in 1..{net.depth} or 0 for all")
    return [args.layer]


def _report(args):
    """Print the line of args.build's (reports, line); write the reports to --out."""
    reports, line = args.build(args)
    print(line)
    _write_out(args, reports_csv_text(reports), "report")
    return 0


def _wdc(args):
    net, _ = _net_from_args(args)
    reports = [wdc_deviation(net.weights[i - 1], args.samples, args.seed, layer=i)
               for i in _layer_list(args, net)]
    worst = max(r.max_eps for r in reports)
    return reports, f"wdc max deviation {worst!r} over {args.samples} pairs per layer"


def _r2wdc(args):
    net, _ = _net_from_args(args)
    reports = [r2wdc_deviation(net, i, args.samples, args.seed)
               for i in _layer_list(args, net)]
    worst = max(r.max_eps for r in reports)
    skipped = sum(r.skipped for r in reports)
    return reports, (f"r2wdc max deviation {worst!r} over {args.samples} tuples per "
                     f"layer (skipped {skipped})")


def _rric(args):
    net, _ = _net_from_args(args)
    a = sensing_matrix(args.m, net.n_out, args.seed)
    rep = rric_deviation(a, net, args.samples, args.seed)
    return [rep], (f"rric max deviation {rep.max_eps!r} over {args.samples} pairs "
                   f"(skipped {rep.skipped})")


def _patterns(args):
    if args.ell not in (1, 2, 3):
        raise ValidationError("ell must be 1, 2 or 3")
    if not (1 <= args.rows <= _PATTERN_MAX_ROWS and 1 <= args.cols <= _PATTERN_MAX_COLS):
        raise ValidationError(f"--rows must be in 1..{_PATTERN_MAX_ROWS} and "
                              f"--cols in 1..{_PATTERN_MAX_COLS}")
    rng = sub_rng(args.seed, DOMAIN_SAMPLE, 0)
    w = rng.standard_normal((args.rows, args.cols))
    basis = rng.standard_normal((args.cols, args.ell))
    pc = pattern_count_exact(w, basis)
    return [pc.to_report(args.seed)], (f"patterns={pc.count} comb_bound={pc.comb_bound} "
                                       f"log_bound={pc.log_bound!r}")


def _conditions(args):
    net, recipe = _net_from_args(args)
    reports = run_condition_suite(net, args.samples, args.seed, recipe=recipe,
                                  **_given(args, "pairs"))
    n_rows = sum(1 for r in reports for _ in r.rows())
    return reports, f"collected {n_rows} condition rows on dims={net.dims}"


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
    rows, summary = run_experiment(spec, **_given(args, "jobs"))
    _write_text(out, experiment_csv_text(rows))
    _write_text(summary_path_for(out), summary_csv_text(summary))
    failed = sum(r["failed"] for r in rows)
    print(f"{spec.name}: {len(rows)} cells, {failed} failed; "
          f"wrote {out} and {summary_path_for(out)}")
    return 0


def build_parser():
    parser = _Parser(prog="gpnet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    # parents; argparse shares their actions, so no command may change their defaults
    source = _Parser(add_help=False)  # the net source
    source.add_argument("--net", help="path to a saved network file")
    source.add_argument("--dims", help="comma separated dims, e.g. 8,250,600")
    source.add_argument("--recipe", help=_RECIPE_HELP)
    source.add_argument("--net-seed", type=int, default=0,
                        help="seed for sampling when --dims/--recipe is used")
    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    seeded.add_argument("--out", help="write the CSV here")
    checked = _Parser(add_help=False, parents=[source, seeded])
    checked.add_argument("--samples", type=int, default=200)

    p = sub.add_parser("gen-net", help="sample a network and save it", parents=[source])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_net)

    p = sub.add_parser("recipe", help="contractive width recipe and margins")
    p.add_argument("--recipe", required=True, help=_RECIPE_HELP)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_recipe)

    p = sub.add_parser("solve", help="build one instance and run the solver",
                       parents=[source, seeded])
    p.add_argument("--kind", required=True, help="|".join(KINDS))
    for key, kind in (INSTANCE_ARGS | SOLVER_ARGS).items():
        p.add_argument("--" + key.replace("_", "-"), type=kind)
    p.add_argument("--trace-stride", type=int, default=1,
                   help="write every stride-th trace row, plus the last")
    p.set_defaults(func=_cmd_solve)

    for name, build in (("check-wdc", _wdc), ("check-r2wdc", _r2wdc)):
        p = sub.add_parser(name, help="masked-Gram deviation per layer", parents=[checked])
        p.add_argument("--layer", type=int, default=0, help="0 means all layers")
        p.set_defaults(func=_report, build=build)

    p = sub.add_parser("check-rric", parents=[checked],
                       help="measurement-Gram deviation on output differences")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_report, build=_rric)

    p = sub.add_parser("check-patterns", parents=[seeded],
                       help="exact activation-pattern count of a random matrix over a slice")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--ell", type=int, default=2)
    p.set_defaults(func=_report, build=_patterns)

    # its own --samples, as a default set on checked's would reach every check
    p = sub.add_parser("conditions", help="full condition suite on one net",
                       parents=[source, seeded])
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--pairs", type=int)
    p.set_defaults(func=_report, build=_conditions)

    p = sub.add_parser("experiment", help="run a sweep described by a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="override the config's output path")
    p.add_argument("--jobs", type=int, help="worker processes (default: one per CPU)")
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
    except MemoryError as e:  # numpy's message names the size it could not allocate
        print(f"error: {e or 'out of memory'}", file=sys.stderr)
        return 1
    except (DivergenceError, InfeasibleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
