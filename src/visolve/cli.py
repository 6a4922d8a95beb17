"""Command line interface: `gen`, `run`, and `compare` subcommands.

Exit codes: 0 on success, 2 on configuration errors, 3 when a run aborts on
non-finite values.
"""

from __future__ import annotations

import argparse
import sys

from . import harness, problems, solvers
from .solvers import NumericalDivergence


def _parse_seeds(text):
    seeds = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def _parse_q(text):
    return tuple(int(t) for t in text.split(",") if t.strip())


def _add_instance_flags(p):
    p.add_argument("--instance", help="instance file path, or a generator name")
    p.add_argument("--gen", dest="generator", choices=harness.GENERATORS,
                   help="generator name (alternative to --instance)")
    p.add_argument("--n", type=int, help="rows of the payoff matrix")
    p.add_argument("--m", type=int, help="columns of the payoff matrix")
    p.add_argument("--seed", type=int, default=0, help="instance generator seed")
    p.add_argument("--family", type=int, help="symmetric-matrix family (1 or 2)")
    p.add_argument("--alpha-exp", type=float, help="symmetric-matrix exponent")
    p.add_argument("--grid", type=int, help="segmentation grid side")
    p.add_argument("--regions", type=int, help="segmentation label count")


def _add_run_flags(p):
    p.add_argument("--config", help="flat key=value config file; flags override it")
    p.add_argument("--algo", help="comma-separated algorithm tags "
                                  f"(choose from {', '.join(solvers.ALGORITHMS)})")
    p.add_argument("--seeds", default="0", help="run seeds, e.g. 0-9 or 0,3,7")
    p.add_argument("--budget", type=int, help="total sampled-evaluation budget")
    p.add_argument("--eval-every", type=int, help="recording cadence in sampled evaluations")
    p.add_argument("--q", default="0,1,2", help="averaging exponents for compare columns")
    p.add_argument("--p", type=float, help="snapshot probability override")
    p.add_argument("--alpha", type=float, help="anchoring weight override")
    p.add_argument("--gamma", type=float, help="step-size safety factor override")
    p.add_argument("--tau-scale", type=float, default=1.0,
                   help="multiplier on the theoretical step size")
    p.add_argument("--out", default=".", help="output directory (or file for compare)")


def _instance_params(args):
    params = {}
    for key in ("n", "m", "family", "grid", "regions"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    if getattr(args, "alpha_exp", None) is not None:
        params["alpha_exp"] = args.alpha_exp
    params["seed"] = args.seed
    return params


def _instance_name(args, errors):
    name = args.instance or args.generator
    if not name:
        errors.append("no instance: pass --instance FILE or --gen NAME")
    return name


def _load_config_defaults(argv, parser):
    """Make the keys of the --config file the parser's defaults; a key that
    names no flag is a configuration error."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return
    actions = {action.dest: action for action in parser._actions}
    unknown = []
    with open(known.config) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, raw = line.partition("=")
            action = actions.get(key.strip().replace("-", "_"))
            if action is None:
                unknown.append(f"unknown key {key.strip()!r} in config file {known.config}")
                continue
            raw = raw.strip()
            action.default = action.type(raw) if action.type else raw
    if unknown:
        raise harness.ConfigError(unknown)


def _build_config(args):
    errors = []
    name = _instance_name(args, errors)
    if not args.algo:
        errors.append("no algorithms: pass --algo tag[,tag...]")
    if args.budget is None:
        errors.append("no budget: pass --budget EVALS")
    if errors:
        raise harness.ConfigError(errors)
    return harness.RunConfig(
        instance=name,
        algorithms=[a.strip() for a in args.algo.split(",") if a.strip()],
        seeds=_parse_seeds(args.seeds),
        budget=args.budget,
        eval_every=args.eval_every,
        tau_scale=args.tau_scale,
        p=args.p,
        alpha=args.alpha,
        gamma=args.gamma,
        q_exponents=_parse_q(args.q),
        out=args.out,
        instance_params=_instance_params(args),
    )


def cmd_gen(args):
    errors = []
    name = _instance_name(args, errors)
    if not args.out:
        errors.append("no output file: pass --out FILE")
    if errors:
        raise harness.ConfigError(errors)
    problem, _, label = harness.build_instance(name, **_instance_params(args))
    problems.save_instance(args.out, problem)
    if problem.structure is not None:
        n, m = problem.structure.A.shape
        fro = problem.structure.frobenius_norm()
    else:
        n = m = problem.dim
        fro = float((problem.M ** 2).sum() ** 0.5)
    print(f"{label}: {n} x {m}, frobenius={fro:.6g}, spectral={problem.spectral_norm():.6g}, "
          f"wrote {args.out}")
    return 0


def cmd_run(args):
    cfg = _build_config(args)
    written = harness.run_command(cfg)
    for path in written:
        print(path)
    return 0


def cmd_compare(args):
    cfg = _build_config(args)
    out = args.out if args.out.endswith(".csv") else None
    if out is not None:
        cfg.out = "."
    path = harness.compare_command(cfg, out_path=out)
    print(path)
    return 0


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = argparse.ArgumentParser(prog="visolve",
                                     description="solvers and benchmarks for affine "
                                                 "variational inequalities and matrix games")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("generator_pos", nargs="?", choices=harness.GENERATORS,
                       metavar="generator", help="generator name")
    _add_instance_flags(p_gen)
    p_gen.add_argument("--alpha", dest="alpha_exp_alias", type=float,
                       help="alias for --alpha-exp on gen")
    p_gen.add_argument("--out", default="instance.vif", help="output file")

    run_parsers = {}
    for cmd in ("run", "compare"):
        run_parsers[cmd] = sub.add_parser(cmd, help=f"{cmd} algorithms on an instance")
        _add_instance_flags(run_parsers[cmd])
        _add_run_flags(run_parsers[cmd])

    try:
        for cmd, p_cmd in run_parsers.items():
            if cmd in argv:
                _load_config_defaults(argv, p_cmd)
        args = parser.parse_args(argv)
        if getattr(args, "generator_pos", None) and not args.instance and not args.generator:
            args.generator = args.generator_pos
        if getattr(args, "alpha_exp_alias", None) is not None and args.alpha_exp is None:
            args.alpha_exp = args.alpha_exp_alias
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "run":
            return cmd_run(args)
        return cmd_compare(args)
    except harness.ConfigError as err:
        print(err, file=sys.stderr)
        return 2
    except NumericalDivergence as err:
        print(f"aborted: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
