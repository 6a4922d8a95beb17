"""Experiment driver: build instances, sweep algorithms over seeds, write
per-seed and aggregate CSV traces.

Seeds run one after another in the calling thread. The solver steps are
Python-bound and hold the interpreter lock, so a thread per seed only adds
switching: on a 2-core host (numpy 2.4.6) the pb1000-vr benchmark sweep
took 1.85 s serially against 2.30 s with a thread per seed, and
seg32-sparse 1.56 s against 1.96 s (median wall times of 3 alternating
pairs, serial faster in every pair, identical output bytes).
"""

from __future__ import annotations

import dataclasses
import functools
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import problems, solvers
from .metrics import AVERAGE_COLUMNS, GapTrace, write_table
from .oracles import default_components


class ConfigError(ValueError):
    """All configuration problems reported in one shot."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(f"- {e}" for e in self.errors))


class DivergedRuns(RuntimeError):
    """Runs of a sweep turned non-finite. Raised once the sweep has run
    every (algorithm, seed) and written the files of the others, which
    ``written`` lists; the message names every run that diverged and what
    was left out for it."""

    def __init__(self, lines, written):
        super().__init__("runs turned non-finite:\n" + "\n".join(f"- {line}" for line in lines))
        self.written = written


# name -> (builder, {parameter: (type, default)}, label format). A default
# that names an earlier parameter takes its value. A builder returns the
# problem, or the problem and its known solution set.
GENERATORS = {
    "pb": (problems.policeman_burglar, {"n": (int, 100), "seed": (int, 0)}, "pb{n}-s{seed}"),
    "nemirovski": (problems.nemirovski,
                   {"n": (int, 100), "family": (int, 1), "alpha_exp": (float, 1.0)},
                   "nem{family}-{n}"),
    "uniform": (problems.uniform_random, {"n": (int, 100), "m": (int, "n"), "seed": (int, 0)},
                "uni{n}x{m}-s{seed}"),
    "ws-example": (problems.ws_example, {}, "ws-example"),
    "matching-pennies": (problems.matching_pennies, {}, "pennies"),
    "segmentation": (problems.synthetic_segmentation,
                     {"grid": (int, 8), "regions": (int, 2), "seed": (int, 0)},
                     "seg{grid}x{grid}h{regions}-s{seed}"),
}


def build_instance(name, **params):
    """Instantiate a named generator or load an instance file; a parameter
    the generator does not take (a file takes none) is a ConfigError.

    Returns (problem, known_solution_set_or_None, label).
    """
    if name in GENERATORS:
        build, takes, label = GENERATORS[name]
    elif os.path.exists(name):
        build, takes = functools.partial(problems.load_instance, name), {}
        label = os.path.splitext(os.path.basename(name))[0]
    else:
        raise ConfigError([f"unknown generator or missing instance file: {name!r}"])
    if unknown := [key for key in params if key not in takes]:
        raise ConfigError([f"{name} takes {', '.join(takes) or 'no parameters'}, "
                           f"not {', '.join(unknown)}"])
    values = {}
    for key, (kind, default) in takes.items():
        values[key] = kind(params.get(key, values.get(default, default)))
    try:
        built = build(**values)
    except ValueError as err:  # a parameter out of range, or a malformed file the message names
        raise ConfigError([str(err)]) from None
    except OSError as err:
        raise ConfigError([f"cannot read instance file {name}: {err.strerror}"]) from None
    problem, known = built if isinstance(built, tuple) else (built, None)
    return problem, known, label.format(**values) if name in GENERATORS else label


@dataclass
class RunConfig:
    """One sweep: an instance, one or more algorithms, a list of seeds."""

    instance: str
    algorithms: list
    seeds: list
    budget: int
    eval_every: int | None = None
    tau_scale: float = 1.0
    p: float | None = None
    alpha: float | None = None
    gamma: float | None = None
    q_exponents: tuple = (0, 1, 2)
    out: str = "."
    instance_params: dict = field(default_factory=dict)

    def resolved_eval_every(self):
        return self.eval_every if self.eval_every else max(1, self.budget // 50)

    def validate(self, problem, command="compare"):
        """Raise ConfigError naming every setting that ``command``, "run" or
        "compare", cannot take on ``problem``."""
        errors = []
        if not self.algorithms:
            errors.append("no algorithms selected")
        errors += solvers.setting_errors(problem, self.algorithms, self.tau_scale,
                                         self.budget, self.eval_every)
        if not self.seeds:
            errors.append("seed list is empty")
        if negative := sorted({seed for seed in self.seeds if seed < 0}):
            errors.append(f"--seeds must be non-negative, got {', '.join(map(str, negative))}")
        for what, items in (("algorithm", self.algorithms), ("seed", self.seeds),
                            ("averaging exponent", self.q_exponents)):
            if repeated := sorted(item for item, n in Counter(items).items() if n > 1):
                errors.append(f"{what} list repeats {', '.join(map(str, repeated))}")
        overrides = [k for k in ("p", "alpha", "gamma") if getattr(self, k) is not None]
        for given, users in ((overrides, solvers.VARIANCE_REDUCED),
                             (["tau-scale"] if self.tau_scale != 1.0 else [], solvers.STEP_SIZED)):
            if given and not set(users) & set(self.algorithms):
                errors.append(f"{', '.join(given)} given without {' or '.join(users)}, "
                              "the only algorithms that use them")
        if set(solvers.VARIANCE_REDUCED) & set(self.algorithms):
            if self.p is not None and "svrg-eg" not in self.algorithms:
                errors.append("p given without svrg-eg, the only algorithm that uses it")
            try:
                _svrg_params(problem, self)
            except ValueError as err:
                errors.append(str(err))
        if command == "run" and tuple(self.q_exponents) != RunConfig.q_exponents:
            errors.append(f"--q applies to compare only, got {list(self.q_exponents)} on run")
        if any(q not in AVERAGE_COLUMNS for q in self.q_exponents):
            errors.append(f"averaging exponents must each be 0, 1 or 2, "
                          f"got {list(self.q_exponents)}")
        if errors:
            raise ConfigError(errors)


def _svrg_params(problem, cfg):
    """make_solver's suggested parameters with the config's overrides."""
    return solvers.SvrgParams.suggested(default_components(problem), problem.lipschitz_bound(),
                                        p=cfg.p, alpha=cfg.alpha, gamma=cfg.gamma)


def run_seeds(problem, algorithm, cfg, known=None):
    """Run every seed, one after another in the calling thread, and return
    ``{seed: outcome}`` in seed order: the GapTrace of a seed that completed,
    or the NumericalDivergence of one that turned non-finite.

    An algorithm that draws no random numbers runs once, for the first seed:
    every seed would retrace it bit for bit, so each gets that outcome with
    its own seed in the trace's ``meta`` or in the error.
    """
    params = _svrg_params(problem, cfg) if algorithm in solvers.VARIANCE_REDUCED else None
    tau_scale = cfg.tau_scale if algorithm in solvers.STEP_SIZED else 1.0
    eval_every = cfg.resolved_eval_every()

    def outcome(seed):
        try:
            return solvers.run(problem, algorithm, cfg.budget, seed, eval_every,
                               params=params, tau_scale=tau_scale, known=known)
        except solvers.NumericalDivergence as err:
            return err

    if algorithm not in solvers.DETERMINISTIC:
        return {seed: outcome(seed) for seed in cfg.seeds}
    first = outcome(cfg.seeds[0])
    trace = first if isinstance(first, GapTrace) else first.trace
    copy = lambda seed: (None if trace is None
                         else dataclasses.replace(trace, meta={**trace.meta, "seed": seed}))
    if trace is first:
        return {seed: copy(seed) for seed in cfg.seeds}
    return {seed: solvers.NumericalDivergence(algorithm, first.iteration, seed, copy(seed))
            for seed in cfg.seeds}


def _seed_mean_std(stack):
    """Mean and sample std over the seeds (rows) of a stack; where every seed
    holds the same value they are that value and 0, as the mean of equal
    floats is not always that float."""
    same = (stack == stack[0]).all(axis=0)
    std = stack.std(axis=0, ddof=1) if len(stack) > 1 else 0.0
    return np.where(same, stack[0], stack.mean(axis=0)), np.where(same, 0.0, std)


def aggregate(traces):
    """Per-checkpoint mean and sample std across seeds (:func:`_seed_mean_std`).
    Traces are aligned by checkpoint index on their common prefix; every
    column of the per-seed files gets a _mean and _std counterpart."""
    traces = list(traces)
    rows = min(len(t) for t in traces)
    out = {}
    for name in traces[0].columns:
        stack = np.stack([np.asarray(t.column(name), dtype=np.float64)[:rows] for t in traces])
        out[f"{name}_mean"], out[f"{name}_std"] = _seed_mean_std(stack)
    return out


def _sweep(cfg, command, algorithm_files, sweep_files=lambda label: []):
    """The loop of `run` and `compare`: build the instance and validate the
    config for ``command``, then run every algorithm's seeds
    (:func:`run_seeds`). ``algorithm_files(label, algorithm, outcomes,
    complete)``, where ``complete`` says that no seed diverged, and then
    ``sweep_files(label)`` write files and return their paths, which the
    sweep returns. Once they are written, :class:`DivergedRuns` names every
    seed that diverged and says what its algorithm was left without."""
    problem, known, label = build_instance(cfg.instance, **cfg.instance_params)
    cfg.validate(problem, command)
    left_out = "aggregate" if command == "run" else "columns"
    written, diverged = [], []
    for algo in cfg.algorithms:
        outcomes = run_seeds(problem, algo, cfg, known if command == "run" else None)
        if failed := [seed for seed, o in outcomes.items() if not isinstance(o, GapTrace)]:
            diverged += [*(str(outcomes[seed]) for seed in failed),
                         f"no {left_out} for {algo}: seed{'s' * (len(failed) > 1)} "
                         f"{', '.join(map(str, failed))} diverged"]
        written += algorithm_files(label, algo, outcomes, not failed)
    written += sweep_files(label)
    if diverged:
        raise DivergedRuns(diverged, written)
    return written


def run_command(cfg):
    """The `run` entry: per-seed CSVs plus an aggregate CSV per algorithm.

    Returns the list of files written. A seed that diverges gets a
    ``_partial`` file of the rows recorded before it, when they pass
    GapTrace's checks, and its algorithm gets no aggregate; once every run
    is written, :class:`DivergedRuns` names them.
    """
    def files(label, algo, outcomes, complete):
        os.makedirs(cfg.out, exist_ok=True)
        written = []
        for seed, outcome in outcomes.items():
            trace = outcome if isinstance(outcome, GapTrace) else outcome.trace
            if trace is not None:
                partial = "" if trace is outcome else "_partial"
                written.append(os.path.join(cfg.out, f"{label}_{algo}_seed{seed}{partial}.csv"))
                trace.to_csv(written[-1])
        if complete:
            written.append(os.path.join(cfg.out, f"{label}_{algo}_aggregate.csv"))
            write_table(written[-1], aggregate(outcomes.values()))
        return written

    return _sweep(cfg, "run", files)


def compare_command(cfg):
    """The `compare` entry: seed-mean gaps of every (algorithm, mode) pair in
    one wide CSV aligned by nearest checkpoint on the cadence grid, which
    ends at the budget.

    ``cfg.out`` names the CSV itself when it ends in ``.csv``; otherwise it
    is the directory of ``<label>_compare.csv``. Returns the list of files
    written, as :func:`run_command` does. An algorithm with a seed that
    diverges gets no columns; the others are written, and then
    :class:`DivergedRuns` names the runs that diverged.
    """
    def grid():
        step = cfg.resolved_eval_every()
        return np.minimum(np.arange(step, cfg.budget + step, step), cfg.budget)

    columns = {}

    def gather(label, algo, outcomes, complete):
        if complete:
            traces, at = list(outcomes.values()), grid()[:, None]
            nearest = [np.abs(t.evals[None, :] - at).argmin(axis=1) for t in traces]
            for mode in ["gap_last"] + [AVERAGE_COLUMNS[q] for q in cfg.q_exponents]:
                per_seed = np.stack([np.asarray(t.column(mode))[idx]
                                     for t, idx in zip(traces, nearest)])
                columns[f"{algo}_{mode.replace('gap_', '')}"] = _seed_mean_std(per_seed)[0]
        return []

    def write(label):
        if not columns:
            return []
        out_path = (cfg.out if cfg.out.endswith(".csv")
                    else os.path.join(cfg.out, f"{label}_compare.csv"))
        os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
        write_table(out_path, {"evals": grid().astype(np.float64), **columns})
        return [out_path]

    return _sweep(cfg, "compare", gather, write)
