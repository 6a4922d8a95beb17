"""Time the checkpoints of `visolve.run` and count their operator calls.

    python3 tools/checkpoint_bench.py LABEL=SRC_DIR [LABEL=SRC_DIR ...] > BENCH.json

Each SRC_DIR is the `src` directory of a checkout, so a parent and a change
are measured by the same script on the same machine. Every round runs one
child process per checkout, in alternating order from round to round
(`alternating.py`). For every applicable algorithm on the 1000 x 1000
pursuit game of the benchmark (instance seed 2023) and the 32 x 32
labeling game with 2 regions, a child runs `visolve.run` (seed 0) twice at
the same budget: once with about 20 checkpoints and once with a single
checkpoint at the budget. The checkpoints the first run adds cost the
difference of the two runs:

* `us_per_checkpoint`: the difference of the wall times (each the fastest
  of 5 runs) over the difference of the row counts, so it is the net cost
  of a checkpoint, saved operator calls in the next step included;
* `calls_per_checkpoint`: the same ratio of the calls to
  `AffineVI.operator`;
* `us_per_iteration`: the single-checkpoint run's wall time over the
  solver's iterations, which shows what pushing the averages costs.

The budgets give each dense checkpoint steps of its own: 20 steps' charge
for `eg`, `pda`, `oomd-l2`, `oomd-entropy` and `rm+`, with a checkpoint at
every step; N (paid at construction) plus 20 x 40 cheap steps for
`svrg-eg`, whose snapshot probability is cut to 1e-9 so that no refresh
charge of N jumps over the checkpoints, with a checkpoint every 40 steps;
N plus 20 epochs for `dl-svrg-eg`, whose inner length is cut to K = 8 so
that an epoch takes about as long as a full-operator step, with a
checkpoint at every epoch. A checkpoint reads neither p nor K. The
output is one JSON object: the environment (as the byte gate's header names
it, plus the core count) and, per checkout, instance and algorithm, the
median and quartiles over the rounds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time

import alternating

ROUNDS = 10
REPEATS = 5
CHECKPOINTS = 20
SVRG_STEPS = 40    # svrg-eg steps between checkpoints
DL_INNER = 8


def _instances(vs):
    return {"pb1000": vs.policeman_burglar(1000, 2023),
            "seg32": vs.synthetic_segmentation(32, 2, 0)}


def _plan(vs, problem, algo):
    """(budget, dense cadence, params) of one algorithm's two runs."""
    N = vs.default_components(problem)
    suggested = vs.SvrgParams.suggested(N, problem.lipschitz_bound())
    if algo == "svrg-eg":
        cadence = 2 * SVRG_STEPS
        return N + CHECKPOINTS * cadence, cadence, dataclasses.replace(suggested, p=1e-9)
    if algo == "dl-svrg-eg":
        epoch = N + 2 * DL_INNER
        return N + CHECKPOINTS * epoch, epoch, dataclasses.replace(suggested, K=DL_INNER)
    step = 2 * N if algo == "eg" else N
    return CHECKPOINTS * step, step, None


def _counted_run(vs, problem, algo, budget, cadence, params):
    """Rows, operator calls and iterations of one run."""
    calls, solvers = [0], []
    operator, make_solver = problem.operator, vs.solvers.make_solver

    def counted_operator(z):
        calls[0] += 1
        return operator(z)

    def kept_solver(*args, **kwargs):
        solvers.append(make_solver(*args, **kwargs))
        return solvers[-1]

    problem.operator, vs.solvers.make_solver = counted_operator, kept_solver
    try:
        trace = vs.run(problem, algo, budget, 0, cadence, params=params)
    finally:
        del problem.operator
        vs.solvers.make_solver = make_solver
    return len(trace), calls[0], solvers[0].iteration


def _fastest_run(vs, problem, algo, budget, cadence, params):
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        vs.run(problem, algo, budget, 0, cadence, params=params)
        best = min(best, time.perf_counter() - t0)
    return best


def child(src):
    """One round for one checkout: every applicable (instance, algorithm)."""
    sys.path.insert(0, src)
    import visolve as vs

    out = {}
    for name, problem in _instances(vs).items():
        problem.spectral_norm()
        rows = {}
        for algo in vs.ALGORITHMS:
            if not vs.applicable(problem, algo):
                continue
            budget, cadence, params = _plan(vs, problem, algo)
            dense = _counted_run(vs, problem, algo, budget, cadence, params)
            sparse = _counted_run(vs, problem, algo, budget, budget, params)
            extra = dense[0] - sparse[0]
            t_dense = _fastest_run(vs, problem, algo, budget, cadence, params)
            t_sparse = _fastest_run(vs, problem, algo, budget, budget, params)
            rows[algo] = {"checkpoints": dense[0],
                          "calls_per_checkpoint": (dense[1] - sparse[1]) / extra,
                          "us_per_checkpoint": 1e6 * (t_dense - t_sparse) / extra,
                          "us_per_iteration": 1e6 * t_sparse / sparse[2]}
        out[name] = rows
    return out


def main(argv):
    rounds = alternating.run_rounds(__file__, alternating.checkouts(argv), ROUNDS)
    report = {"environment": alternating.environment(), "rounds": ROUNDS, "repeats": REPEATS,
              "checkouts": {}}
    for label, runs in rounds.items():
        table = {}
        for name, algos in runs[0].items():
            table[name] = {}
            for algo, first in algos.items():
                row = {"checkpoints": first["checkpoints"],
                       "calls_per_checkpoint": first["calls_per_checkpoint"]}
                for key in ("us_per_checkpoint", "us_per_iteration"):
                    row.update(alternating.spread([run[name][algo][key] for run in runs], key))
                table[name][algo] = row
        report["checkouts"][label] = table
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        print(json.dumps(child(os.path.abspath(sys.argv[2]))))
    else:
        main(sys.argv)
