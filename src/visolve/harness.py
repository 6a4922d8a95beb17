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

import os
from dataclasses import dataclass, field

import numpy as np

from . import problems, solvers
from .oracles import default_components


class ConfigError(ValueError):
    """All configuration problems reported in one shot."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(f"- {e}" for e in self.errors))


_MODE_COLUMNS = {0: "gap_uniform", 1: "gap_linear", 2: "gap_quadratic"}

GENERATORS = ("pb", "nemirovski", "uniform", "ws-example", "matching-pennies", "segmentation")


def build_instance(name, **params):
    """Instantiate a named generator or load an instance file.

    Returns (problem, known_solution_set_or_None, label).
    """
    if name == "pb":
        n, seed = int(params.get("n", 100)), int(params.get("seed", 0))
        return problems.policeman_burglar(n, seed), None, f"pb{n}-s{seed}"
    if name == "nemirovski":
        n = int(params.get("n", 100))
        family = int(params.get("family", 1))
        alpha_exp = float(params.get("alpha_exp", 1.0))
        return problems.nemirovski(n, family, alpha_exp), None, f"nem{family}-{n}"
    if name == "uniform":
        n = int(params.get("n", 100))
        m = int(params.get("m", n))
        seed = int(params.get("seed", 0))
        return problems.uniform_random(n, m, seed), None, f"uni{n}x{m}-s{seed}"
    if name == "ws-example":
        problem, known = problems.ws_example()
        return problem, known, "ws-example"
    if name == "matching-pennies":
        problem, known = problems.matching_pennies()
        return problem, known, "pennies"
    if name == "segmentation":
        grid = int(params.get("grid", 8))
        regions = int(params.get("regions", 2))
        seed = int(params.get("seed", 0))
        return (problems.synthetic_segmentation(grid, regions, seed), None,
                f"seg{grid}x{grid}h{regions}-s{seed}")
    if os.path.exists(name):
        label = os.path.splitext(os.path.basename(name))[0]
        return problems.load_instance(name), None, label
    raise ConfigError([f"unknown generator or missing instance file: {name!r}"])


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

    def validate(self, problem=None):
        errors = []
        if not self.algorithms:
            errors.append("no algorithms selected")
        for algo in self.algorithms:
            if algo not in solvers.ALGORITHMS:
                errors.append(f"unknown algorithm {algo!r} (choose from {solvers.ALGORITHMS})")
            elif problem is not None and (reason := solvers.unmet_requirement(problem, algo)):
                errors.append(reason)
        if not self.seeds:
            errors.append("seed list is empty")
        if problem is not None and self.budget < default_components(problem):
            errors.append(f"budget {self.budget} is below one full evaluation "
                          f"({default_components(problem)})")
        if self.eval_every is not None and self.eval_every < 1:
            errors.append("evaluation cadence must be at least 1")
        if self.tau_scale <= 0:
            errors.append("tau-scale must be positive")
        if any(q not in _MODE_COLUMNS for q in self.q_exponents):
            errors.append(f"averaging exponents must each be 0, 1 or 2, "
                          f"got {list(self.q_exponents)}")
        if errors:
            raise ConfigError(errors)


def _svrg_params(problem, cfg):
    if cfg.p is None and cfg.alpha is None and cfg.gamma is None:
        return None  # solver picks the suggested parameters
    N = default_components(problem)
    return solvers.SvrgParams.suggested(
        N, problem.lipschitz_bound(), tau_scale=cfg.tau_scale,
        gamma=0.99 if cfg.gamma is None else cfg.gamma, p=cfg.p, alpha=cfg.alpha)


def run_seeds(problem, algorithm, cfg, known=None):
    """One GapTrace per seed, run one after another in the calling thread."""
    params = _svrg_params(problem, cfg) if algorithm in ("svrg-eg", "dl-svrg-eg") else None
    eval_every = cfg.resolved_eval_every()
    return {seed: solvers.run(problem, algorithm, cfg.budget, seed, eval_every,
                              params=params, tau_scale=cfg.tau_scale, known=known)
            for seed in cfg.seeds}


def aggregate(traces):
    """Per-checkpoint mean and sample standard deviation across seeds.

    Traces are aligned by checkpoint index on their common prefix; every
    column of the per-seed files gets a _mean and _std counterpart.
    """
    traces = list(traces)
    rows = min(len(t) for t in traces)
    columns = traces[0].columns
    out = {}
    for name in columns:
        stack = np.stack([np.asarray(t.column(name), dtype=np.float64)[:rows] for t in traces])
        out[f"{name}_mean"] = stack.mean(axis=0)
        out[f"{name}_std"] = stack.std(axis=0, ddof=1) if len(traces) > 1 else np.zeros(rows)
    return out


def write_table(path, table):
    names = list(table.keys())
    length = len(next(iter(table.values())))
    with open(path, "w") as f:
        f.write(",".join(names) + "\n")
        for k in range(length):
            f.write(",".join(f"{table[name][k]:.17g}" for name in names) + "\n")


def run_command(cfg):
    """The `run` entry: per-seed CSVs plus an aggregate CSV per algorithm.

    Returns the list of files written.
    """
    problem, known, label = build_instance(cfg.instance, **cfg.instance_params)
    cfg.validate(problem)
    os.makedirs(cfg.out, exist_ok=True)
    written = []
    for algo in cfg.algorithms:
        traces = run_seeds(problem, algo, cfg, known)
        for seed, trace in traces.items():
            path = os.path.join(cfg.out, f"{label}_{algo}_seed{seed}.csv")
            trace.to_csv(path)
            written.append(path)
        agg_path = os.path.join(cfg.out, f"{label}_{algo}_aggregate.csv")
        write_table(agg_path, aggregate(traces.values()))
        written.append(agg_path)
    return written


def compare_command(cfg, out_path=None):
    """The `compare` entry: seed-mean gaps of every (algorithm, mode) pair in
    one wide CSV aligned on the cadence grid by nearest checkpoint."""
    problem, known, label = build_instance(cfg.instance, **cfg.instance_params)
    cfg.validate(problem)
    eval_every = cfg.resolved_eval_every()
    grid = np.arange(eval_every, cfg.budget + 1, eval_every, dtype=np.int64)
    table = {"evals": grid.astype(np.float64)}
    modes = ["gap_last"] + [_MODE_COLUMNS[q] for q in cfg.q_exponents]
    for algo in cfg.algorithms:
        traces = list(run_seeds(problem, algo, cfg, known).values())
        for mode in modes:
            per_seed = []
            for t in traces:
                idx = np.abs(t.evals[None, :] - grid[:, None]).argmin(axis=1)
                per_seed.append(np.asarray(t.column(mode))[idx])
            tag = mode.replace("gap_", "")
            table[f"{algo}_{tag}"] = np.stack(per_seed).mean(axis=0)
    out_path = out_path or os.path.join(cfg.out, f"{label}_compare.csv")
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    write_table(out_path, table)
    return out_path
