"""Command line interface: `gen`, `run`, and `compare` subcommands.

Exit codes: 0 on success, 2 on configuration errors, 3 when runs turn
non-finite; the files of the other runs are written and printed first.
"""

from __future__ import annotations

import argparse
import sys

from . import harness, problems, solvers


def _parse_seeds(text):
    seeds = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, hi = (int(t) for t in part.split("-", 1))
            if lo > hi:
                raise ValueError(f"reversed seed range {part}")
            seeds.extend(range(lo, hi + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def _parse_q(text):
    return tuple(int(t) for t in text.split(",") if t.strip())


def _parsed(parse, flag, text, errors):
    """parse(text), or None with a message in errors when the text does not parse."""
    try:
        return parse(text)
    except ValueError:
        errors.append(f"bad value {text!r} for {flag}")
        return None


def _add_instance_flags(p):
    p.add_argument("--instance", help="instance file path, or a generator name")
    p.add_argument("--gen", dest="generator", choices=harness.GENERATORS,
                   help="generator name (alternative to --instance)")
    p.add_argument("--n", type=int, help="rows of the payoff matrix")
    p.add_argument("--m", type=int, help="columns of the payoff matrix")
    p.add_argument("--seed", type=int, help="instance generator seed")
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
    p.add_argument("--out", default=".", help="output directory (compare: or a .csv file)")


def _instance_params(args):
    """The generator parameters given on the command line, named as in harness.GENERATORS."""
    keys = dict.fromkeys(key for _, takes, _ in harness.GENERATORS.values() for key in takes)
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def _instance_name(args, errors):
    names = [name for name in (args.instance, args.generator, getattr(args, "generator_pos", None))
             if name]
    if len(names) != 1:
        errors.append("name exactly one instance, with --instance FILE or --gen NAME; "
                      f"got {', '.join(names) or 'none'}")
        return None
    return names[0]


def _load_config_defaults(argv, parser):
    """Make the keys of the --config file the parser's defaults; an unreadable
    file, a key that names no flag or a badly typed value is a config error."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return
    try:
        with open(known.config) as f:
            lines = f.read().splitlines()
    except (OSError, UnicodeError) as err:
        raise harness.ConfigError([f"cannot read config file {known.config}: {err}"]) from None
    actions = {action.dest: action for action in parser._actions}
    errors = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, raw = (t.strip() for t in line.partition("="))
        action = actions.get(key.replace("-", "_"))
        if action is None:
            errors.append(f"unknown key {key!r} in config file {known.config}")
            continue
        try:
            action.default = action.type(raw) if action.type else raw
        except ValueError:
            errors.append(f"bad value {raw!r} for key {key!r} in config file {known.config}")
    if errors:
        raise harness.ConfigError(errors)


def _build_config(args):
    errors = []
    name = _instance_name(args, errors)
    if not args.algo:
        errors.append("no algorithms: pass --algo tag[,tag...]")
    if args.budget is None:
        errors.append("no budget: pass --budget EVALS")
    seeds = _parsed(_parse_seeds, "--seeds", args.seeds, errors)
    q_exponents = _parsed(_parse_q, "--q", args.q, errors)
    if errors:
        raise harness.ConfigError(errors)
    return harness.RunConfig(
        instance=name,
        algorithms=[a.strip() for a in args.algo.split(",") if a.strip()],
        seeds=seeds,
        budget=args.budget,
        eval_every=args.eval_every,
        tau_scale=args.tau_scale,
        p=args.p,
        alpha=args.alpha,
        gamma=args.gamma,
        q_exponents=q_exponents,
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
    try:
        problems.save_instance(args.out, problem)
    except OSError as err:
        raise harness.ConfigError(
            [f"cannot write instance file {args.out}: {err.strerror}"]) from None
    n, m = (problem.dim,) * 2 if problem.structure is None else problem.structure.A.shape
    print(f"{label}: {n} x {m}, frobenius={problem.lipschitz_bound():.6g}, "
          f"spectral={problem.spectral_norm():.6g}, wrote {args.out}")
    return 0


def cmd_sweep(args):
    """`run` or `compare`: print every file the sweep wrote."""
    command = harness.run_command if args.command == "run" else harness.compare_command
    for path in command(_build_config(args)):
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
    p_gen.add_argument("--alpha", dest="alpha_exp", type=float, help="alias for --alpha-exp on gen")
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
        if args.command == "gen":
            return cmd_gen(args)
        return cmd_sweep(args)
    except harness.ConfigError as err:
        print(err, file=sys.stderr)
        return 2
    except harness.DivergedRuns as err:
        for path in err.written:
            print(path)
        print(err, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
