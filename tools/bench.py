"""Benchmark cases that compare checkouts of visolve on one machine.

    python3 tools/bench.py CASE LABEL=SRC_DIR [LABEL=SRC_DIR ...] > BENCH.json

Each SRC_DIR is the `src` directory of a checkout, so a parent and a change
are measured by the same script on the same machine; one checkout gives a
trajectory. Every round runs one child process per checkout,

    python3 -m bench --child CASE SRC_DIR ROUND WORKDIR    (in tools/)

which measures that checkout and prints one JSON object. The order of the
checkouts flips from round to round, so neither one always runs first on a
host whose speed drifts. WORKDIR is a temporary directory the rounds share.

The report is one JSON object: the environment (as the byte gate's header
names it, plus the core count), the rounds, and per checkout the children's
figures in their nesting. A timed figure becomes its median and quartiles
over the rounds (`{key}_median`, `{key}_q1`, `{key}_q3`); any other figure is
kept once when the rounds agree and as a list of rounds when they do not.
With two checkouts, `wins_of_second` counts per timed figure the rounds in
which the second reads better than the first: higher for `run_ok_ratio`,
lower for every other figure; a figure that the second checkout lacks in
some round gets no count, and a case without timed figures (`loc`) gets no
`wins_of_second`.

The cases:

* `checkpoint` (10 rounds): for every applicable algorithm on the
  1000 x 1000 pursuit game of the benchmark (instance seed 2023) and the
  32 x 32 labeling game with 2 regions, `visolve.run` (seed 0) twice at one
  budget, with about 20 checkpoints and with one at the budget. The
  checkpoints the first run adds cost the difference:
  `us_per_checkpoint` (wall times, each the fastest of 5 runs) and
  `calls_per_checkpoint` (calls to `AffineVI.operator`), over the
  difference of the row counts; `us_per_iteration` is the one-checkpoint
  run's wall time over its iterations. Each dense checkpoint gets steps of
  its own: 20 steps' charge for the deterministic solvers, a checkpoint per
  step; N plus 20 x 40 cheap steps for `svrg-eg` at p = 1e-9, so no refresh
  jumps over a checkpoint, a checkpoint every 40 steps; N plus 20 epochs
  for `dl-svrg-eg` at K = 8, a checkpoint per epoch.
* `spectral-norm` (6 rounds): the fastest of 5 `spectral_norm(A)` calls in
  ms on the labeling games of 4 x 4, 8 x 8 and 32 x 32 grids with 2
  regions, the 30 x 30 pursuit game of the byte gate (instance seed 1) and
  the benchmark's 1000 x 1000 one. Round 0 adds the products with A or A'
  of one call, the estimate `sigma` and its `rel_error` against the largest
  singular value from numpy's SVD (scipy's `svds` with tol=0 for the
  32 x 32 game, whose dense SVD takes seconds).
* `epoch-memory` (12 rounds): `visolve.run(game, "dl-svrg-eg", 4 * N,
  r % 2, N // 2)` in round r, the pb1000-vr sweep's run, on the benchmark's
  pursuit game loaded from a file: `peak_rss_mb` after the run,
  `setup_rss_mb` before it (after the imports and the load) and `run_s`.
  A separate process writes the file once, because a process inherits the
  peak resident set of the one that starts it and generating the game in
  the child would set its peak before the run.
* `setup` (10 rounds): what perfbench's `setup_s` times on pb1000-vr, the
  load of the benchmark's pursuit game from a file (written as for
  `epoch-memory`) and `make_solver` of `svrg-eg` and `dl-svrg-eg` on it,
  as `setup_ms`, the median of 21 after one untimed; then, on one more
  loaded game, the tracemalloc peak of each `make_solver` in that order
  (`svrg-eg_peak_mb`, `dl-svrg-eg_peak_mb`), so the second shows what the
  first leaves it to build.
* `e2e` (3 rounds): the checkout's own `perfbench/run.py --workload all
  --seed 0 --seconds 30`, keeping per workload its six end-to-end metrics
  and, per algorithm it runs, the traced wall `us_per_eval` (per charged
  unit) and `step_us_p50`; then acceptance criteria 4, 7 and 12, each a
  child `pytest` of the checkout's `tests/test_acceptance.py`, with its
  `wall_s` and `exit_code` (criterion 4 is a known failure, so a failing
  criterion is recorded, not fatal). A round took about 5 minutes on 2 cores.
* `step` (10 rounds): on the pursuit games of 30, 100 and 1000 houses
  (instance seed 2023), after 200 warm-up steps, the fastest of 3 runs of
  2000 steps, as `step_us` per step, of `svrg-eg`, `dl-svrg-eg` and `eg`;
  `dl-svrg-eg` runs whole epochs of K = N/2 inner steps, the snapshot's
  refresh included (warm-up and timed runs of 200 // K and 2000 // K
  epochs, at least one each), and its figures are per inner step; then
  2000 more steps with every projection
  that takes a guess timed and sorted by route: a hit of the guess, a hit
  after retries, or the sort (`hit_calls`, `retry_calls`, `sort_calls`, and
  the median `hit_us`, `retry_us`, `sort_us` of a route that ran). A
  checkout whose guess is a point has no retries. Then on the 32 x 32
  labeling game with 2 regions (seed 0), whose 1024 simplex blocks of 2
  entries take the closed form on the two columns of a (1024, 2) matrix,
  the same `step_us` of `svrg-eg` and `pda`, and 2000 more steps with every
  projection onto those blocks timed (`column_calls` and the median
  `column_us`). Last, on the same game with 3 regions (`seg32h3`) and with
  4 (`seg32h4`), whose 1024 blocks of 3 or 4 entries are the rows of one
  matrix, the same `step_us` of `svrg-eg` and `pda` and the routes of their
  projections that take a guess: `pda` projects its labels with one, so its
  hits certify 1024 blocks at a time, and `svrg-eg` projects the product of
  those blocks and a box, which hands the blocks a guess of their own and
  the box none. A checkout whose blocks of 3 take no guess counts no
  routes there. A round took about 35 s.
* `loc` (1 round): the code lines of every module under SRC_DIR, by path
  (`modules`), and their sum (`code_lines`). A code line is a line that a
  token other than a comment spans, outside every docstring, so comments,
  blank lines and docstrings are left out; a string that is not a
  docstring counts on every line it spans.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
import tokenize
import tracemalloc
from typing import Callable

from fixed_matrix import environment as _gate_environment

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HIGHER_IS_BETTER = {"run_ok_ratio"}


def _visolve(src):
    sys.path.insert(0, src)
    import visolve

    return visolve


# checkpoint ---------------------------------------------------------------

REPEATS = 5
CHECKPOINTS = 20
SVRG_STEPS = 40    # svrg-eg steps between checkpoints
DL_INNER = 8


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


def checkpoint_child(src, r, workdir):
    vs = _visolve(src)
    out = {}
    for name, problem in {"pb1000": vs.policeman_burglar(1000, 2023),
                          "seg32": vs.synthetic_segmentation(32, 2, 0)}.items():
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


# spectral-norm ------------------------------------------------------------

CALLS = 5


def _largest_singular_value(A):
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    if sp.issparse(A) and min(A.shape) > 1000:
        return float(spla.svds(A, k=1, tol=0, return_singular_vectors=False)[0])
    dense = A.toarray() if sp.issparse(A) else A
    return float(np.linalg.svd(dense, compute_uv=False)[0])


def spectral_norm_child(src, r, workdir):
    vs = _visolve(src)
    instances = {"seg4": vs.synthetic_segmentation(4, 2, 0).structure.A,
                 "seg8": vs.synthetic_segmentation(8, 2, 0).structure.A,
                 "seg32": vs.synthetic_segmentation(32, 2, 0).structure.A,
                 "pb30": vs.policeman_burglar(30, 1).structure.A,
                 "pb1000": vs.policeman_burglar(1000, 2023).structure.A}
    out = {name: {"ms": 1e3 * min(timeit.repeat(lambda: vs.spectral_norm(A), number=1,
                                                repeat=CALLS))}
           for name, A in instances.items()}
    if r == 0:  # after the timing, which importing pytest and scipy.optimize would slow
        sys.path.insert(1, os.path.join(ROOT, "tests"))  # after src: conftest imports visolve
        from conftest import CountedProducts

        for name, A in instances.items():
            counted = CountedProducts(A)
            sigma = vs.spectral_norm(counted)
            exact = _largest_singular_value(A)
            out[name].update(products=counted.count[0], sigma=sigma,
                             rel_error=abs(sigma - exact) / exact)
    return out


# epoch-memory -------------------------------------------------------------

SAVE = ("import sys; sys.path.insert(0, sys.argv[1]); import visolve as vs; "
        "vs.save_instance(sys.argv[2], vs.policeman_burglar(1000, 2023))")


def _peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pb1000_file(src, workdir):
    """The benchmark's pursuit game as an instance file, written once per
    bench run by a separate process (see `epoch-memory`)."""
    path = os.path.join(workdir, "pb1000.vif")
    if not os.path.exists(path):
        subprocess.run([sys.executable, "-c", SAVE, src, path], check=True)
    return path


def epoch_memory_child(src, r, workdir):
    path = _pb1000_file(src, workdir)
    vs = _visolve(src)
    game = vs.load_instance(path)
    N = vs.default_components(game)
    setup = _peak_mb()
    t0 = time.perf_counter()
    vs.run(game, "dl-svrg-eg", 4 * N, r % 2, N // 2)
    return {"run_s": time.perf_counter() - t0, "peak_rss_mb": _peak_mb(), "setup_rss_mb": setup}


# setup --------------------------------------------------------------------

SETUPS = 21
VR_ALGORITHMS = ("svrg-eg", "dl-svrg-eg")


def setup_child(src, r, workdir):
    path = _pb1000_file(src, workdir)
    vs = _visolve(src)

    def setup():
        game = vs.load_instance(path)
        for algo in VR_ALGORITHMS:
            vs.make_solver(game, algo, seed=0)

    setup()  # imports and first-call caches
    out = {"setup_ms": 1e3 * statistics.median(timeit.repeat(setup, number=1, repeat=SETUPS))}
    game = vs.load_instance(path)
    for algo in VR_ALGORITHMS:
        tracemalloc.start()
        try:
            vs.make_solver(game, algo, seed=0)
            out[f"{algo}_peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
    return out


# e2e ----------------------------------------------------------------------

PERFBENCH = ("--workload", "all", "--seed", "0", "--seconds", "30")
END_TO_END = ("setup_s", "sweep_s", "time_to_gap_s", "final_gap", "peak_rss_mb", "run_ok_ratio")
PER_ALGORITHM = ("us_per_eval", "step_us_p50")
CRITERIA = (4, 7, 12)


def e2e_child(src, r, workdir):
    root = os.path.dirname(src)
    done = subprocess.run([sys.executable, os.path.join(root, "perfbench", "run.py"),
                           *PERFBENCH], cwd=root, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    out = {"perfbench": {key: result[key] for key in ("correct", "attempted", "failed")},
           "workloads": {}, "criteria": {}}
    for key, metric in result["metrics"].items():
        *path, leaf = key.split(".")
        # the traced run reports zero for the algorithms a workload does not run
        if leaf in END_TO_END or (leaf in PER_ALGORITHM and metric["value"]):
            node = out["workloads"]
            for part in path:
                node = node.setdefault(part, {})
            node[leaf] = metric["value"]
    for c in CRITERIA:
        t0 = time.perf_counter()
        code = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               "tests/test_acceptance.py", "-k", f"criterion_{c:02d}"],
                              cwd=root, env={**os.environ, "PYTHONPATH": src},
                              stdout=sys.stderr).returncode
        out["criteria"][str(c)] = {"wall_s": time.perf_counter() - t0, "exit_code": code}
    return out


# step ---------------------------------------------------------------------

STEP_SIZES = (30, 100, 1000)
STEP_ALGORITHMS = ("svrg-eg", "dl-svrg-eg", "eg")
SEG_ALGORITHMS = ("svrg-eg", "pda")
STEPS = 2000       # timed steps of each solver
STEP_REPEATS = 3
ROUTES = ("hit", "retry", "sort")


def _stepper(vs, problem, algo):
    """A solver on the problem, past about 200 warm-up steps, as
    ``(run, taken)``: ``run()`` takes about STEPS more steps, ``taken`` of
    them. A `dl-svrg-eg` step is a whole epoch of K = N/2 inner steps, the
    snapshot's refresh included, counts as K steps and runs at least once. Its inner step alone, repeated, would
    keep its snapshot where the run started, where the warm projections
    retry far more often than in a run."""
    solver = vs.make_solver(problem, algo, seed=0)
    inner = solver.params.K if algo == "dl-svrg-eg" else 1

    def steps(count):
        for _ in range(max(1, count // inner)):
            solver.step()

    steps(200)
    return (lambda: steps(STEPS)), max(1, STEPS // inner) * inner


def _warm_routes(vs, run):
    """Run the steps with every projection that takes a guess timed, and
    sorted by the route it took: a hit of the guess, a hit after retries
    (the guess then holds another support) or the sort. A checkout whose
    guess is a point has no retries."""
    sets = vs.sets
    support_projection, project = sets._support_projection, sets.FeasibleSet.project
    routes = {route: [] for route in ROUTES}
    taken = []

    def sorted_route(rows, guess):
        before = getattr(guess, "support", None)
        x = support_projection(rows, guess)
        taken.append("sort" if x is None else
                     "retry" if before is not None and guess.support is not before else "hit")
        return x

    def timed(self, v, guess=None):
        if guess is None:
            return project(self, v)
        taken.clear()
        t0 = time.perf_counter()
        x = project(self, v, guess)
        if taken:           # a set that ignores the guess takes no route
            routes[taken[0]].append(time.perf_counter() - t0)
        return x

    sets._support_projection, sets.FeasibleSet.project = sorted_route, timed
    try:
        run()
    finally:
        sets._support_projection, sets.FeasibleSet.project = support_projection, project
    out = {}
    for route, durations in routes.items():
        out[f"{route}_calls"] = len(durations)
        if durations:
            out[f"{route}_us"] = 1e6 * statistics.median(durations)
    return out


def _column_projections(vs, run):
    """Run the steps with every projection onto a product of simplexes
    timed, as `SimplexProduct._project` makes it, whether the set is
    projected alone or as a part of a product; on the labeling game with 2
    regions every such projection takes the closed form for blocks of 2."""
    cls = vs.sets.SimplexProduct
    project = cls._project
    durations = []

    def timed(self, v, guess=None):
        t0 = time.perf_counter()
        x = project(self, v, guess)
        durations.append(time.perf_counter() - t0)
        return x

    cls._project = timed
    try:
        run()
    finally:
        cls._project = project
    return {"column_calls": len(durations), "column_us": 1e6 * statistics.median(durations)}


def step_child(src, r, workdir):
    vs = _visolve(src)
    out = {}
    cases = [(f"pb{n}", vs.policeman_burglar(n, 2023), algo, _warm_routes)
             for n in STEP_SIZES for algo in STEP_ALGORITHMS]
    seg32 = vs.synthetic_segmentation(32, 2, 0)
    cases += [("seg32", seg32, algo, _column_projections) for algo in SEG_ALGORITHMS]
    for regions in (3, 4):
        game = vs.synthetic_segmentation(32, regions, 0)
        cases += [(f"seg32h{regions}", game, algo, _warm_routes) for algo in SEG_ALGORITHMS]
    for name, problem, algo, projections in cases:
        run, taken = _stepper(vs, problem, algo)
        best = min(timeit.repeat(run, number=1, repeat=STEP_REPEATS))
        out.setdefault(name, {})[algo] = {"step_us": 1e6 * best / taken,
                                          **projections(vs, run)}
    return out


# loc ----------------------------------------------------------------------

NOT_CODE = frozenset({tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                      tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER})
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source):
    """The code lines of a Python source (bytes): the lines that its tokens
    span, leaving out comments, blank lines and the string that opens a
    module, class or function body, its docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and node.body and isinstance(node.body[0], ast.Expr):
            doc = node.body[0].value
            if isinstance(doc, ast.Constant) and isinstance(doc.value, str):
                docstrings.add((doc.lineno, doc.col_offset))
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in NOT_CODE and token.start not in docstrings:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def loc_child(src, r, workdir):
    modules = {}
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, "rb") as f:
                    modules[os.path.relpath(path, src)] = code_lines(f.read())
    return {"modules": modules, "code_lines": sum(modules.values())}


# the driver and the report ------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Case:
    child: Callable    # (SRC_DIR, round, WORKDIR) -> the round's figures
    rounds: int
    timed: frozenset
    header: dict = dataclasses.field(default_factory=dict)


CASES = {
    "checkpoint": Case(checkpoint_child, 10, frozenset({"us_per_checkpoint", "us_per_iteration"}),
                       {"repeats": REPEATS}),
    "spectral-norm": Case(spectral_norm_child, 6, frozenset({"ms"})),
    "epoch-memory": Case(epoch_memory_child, 12,
                         frozenset({"peak_rss_mb", "setup_rss_mb", "run_s"})),
    "setup": Case(setup_child, 10, frozenset({"setup_ms", *(f"{algo}_peak_mb"
                                                             for algo in VR_ALGORITHMS)}),
                  {"setups": SETUPS}),
    "e2e": Case(e2e_child, 3, frozenset({*END_TO_END, *PER_ALGORITHM, "wall_s"}),
                {"perfbench": " ".join(PERFBENCH), "criteria": list(CRITERIA)}),
    "step": Case(step_child, 10, frozenset({"step_us", "column_us",
                                           *(f"{route}_us" for route in ROUTES)}),
                 {"steps": STEPS, "repeats": STEP_REPEATS}),
    "loc": Case(loc_child, 1, frozenset()),
}


def run_rounds(case, sources, workdir):
    """{label: [the child's figures, one per round]}. A child runs this file
    with -m: run by its path, it leaves about 0.7 MB more resident in the
    child, which `epoch-memory` reads."""
    here = os.path.dirname(os.path.abspath(__file__))
    runs = {label: [] for label in sources}
    for r in range(CASES[case].rounds):
        for label in list(sources) if r % 2 == 0 else list(reversed(sources)):
            done = subprocess.run([sys.executable, "-m", "bench", "--child", case,
                                   sources[label], str(r), workdir], cwd=here,
                                  stdout=subprocess.PIPE, text=True, check=True)
            runs[label].append(json.loads(done.stdout))
    return runs


def summarize(rounds, timed):
    """One checkout's figures over its rounds, nested as a round nests them."""
    out = {}
    for key, first in rounds[0].items():
        values = [run[key] for run in rounds if key in run]
        if isinstance(first, dict):
            out[key] = summarize(values, timed)
        elif key in timed:
            q1, median, q3 = statistics.quantiles(values, n=4)
            out.update({f"{key}_median": median, f"{key}_q1": q1, f"{key}_q3": q3})
        else:
            out[key] = first if all(v == first for v in values) else values
    return out


def wins(pairs, timed):
    """Per timed figure, the rounds in which the second of each pair reads better."""
    out = {}
    for key, first in pairs[0][0].items():
        if isinstance(first, dict):
            out[key] = wins([(a[key], b[key]) for a, b in pairs], timed)
        elif key in timed and all(key in b for _, b in pairs):
            out[key] = sum(b[key] > a[key] if key in HIGHER_IS_BETTER else b[key] < a[key]
                           for a, b in pairs)
    return out


def report(runs, timed):
    """Each checkout's summary and, with two checkouts and timed figures,
    the wins of the second."""
    out = {"checkouts": {label: summarize(rounds, timed) for label, rounds in runs.items()}}
    if len(runs) == 2 and timed:
        out["wins_of_second"] = wins(list(zip(*runs.values())), timed)
    return out


def main(argv):
    if len(argv) < 3 or argv[1] not in CASES or not all("=" in arg for arg in argv[2:]):
        sys.exit(f"usage: {argv[0]} {{{','.join(CASES)}}} LABEL=SRC_DIR [LABEL=SRC_DIR ...]")
    case = CASES[argv[1]]
    sources = {label: os.path.abspath(src) for label, src in (a.split("=", 1) for a in argv[2:])}
    with tempfile.TemporaryDirectory() as workdir:
        runs = run_rounds(argv[1], sources, workdir)
    # read only now: a child inherits this process's peak resident set
    env = [line[2:] for line in _gate_environment()] + [f"cores {os.cpu_count()}"]
    print(json.dumps({"environment": env, "rounds": case.rounds, **case.header,
                      **report(runs, case.timed)}, indent=1))


if __name__ == "__main__":
    if len(sys.argv) == 6 and sys.argv[1] == "--child":
        _, _, case, src, r, workdir = sys.argv
        print(json.dumps(CASES[case].child(src, int(r), workdir)))
    else:
        main(sys.argv)
