"""The benchmark's workloads, and the inputs each one derives from a seed.

Each workload is one fixed ``visolve run`` or ``visolve compare`` sweep plus
a time-to-gap run of its headline algorithm through ``visolve.run``. The
benchmark seed picks the instance; the solver seeds are part of each sweep's
configuration. They are fixed because ``svrg-eg`` flips its snapshot coin
from the run seed: at the sweep budget of 4 N the number of refreshes is
about Poisson(1.5), each costs N charged units, and so the number of cheap
steps inside the budget swings by more than half from one run seed to the
next. Seeded that way, the sweep's wall time would measure the coin, not the
code.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

PB_N = 1000
PB_BASE_SEED = 2023        # wealth draw of the one pursuit game every pb seed relabels
SEG_GRID = 32
SEG_REGIONS = 2
# Every algorithm tag the package offers; the traced run reports solver
# metrics for each, zero for those a workload does not run.
ALL_ALGORITHMS = ("svrg-eg", "dl-svrg-eg", "eg", "pda", "oomd-l2", "oomd-entropy", "rm+")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str            # "run" or "compare"
    algorithms: tuple
    run_seeds: tuple
    budget: int             # sweep budget in charged units
    eval_every: int
    headline: str
    target: float           # last-iterate gap the headline run stops at
    ttg_seeds: int          # run seeds 0..ttg_seeds-1 of the time-to-gap runs
    ttg_budget: int
    ttg_eval_every: int
    blas_probe: bool = False   # scale times with the BLAS speed probe too (speed.py)

    @property
    def family(self):
        return "pb" if self.name.startswith("pb") else "seg"


WORKLOADS = {w.name: w for w in (
    Workload(
        name="pb1000-vr",
        why=("The cheap variance-reduced step dominates: two simplex projections, one "
             "draw, one VR estimate and three averaging pushes per step; the full "
             "operator runs only at snapshot refreshes (p = 2/N). Two run seeds fill "
             "the harness thread pool at its two workers."),
        command="run", algorithms=("svrg-eg", "dl-svrg-eg"), run_seeds=(0, 1),
        budget=4 * PB_N, eval_every=PB_N // 2, headline="svrg-eg", target=0.1,
        ttg_seeds=12, ttg_budget=60 * PB_N, ttg_eval_every=PB_N // 4),
    Workload(
        name="pb1000-full",
        why=("The dense BLAS operator dominates; no rng or oracle call happens and one "
             "run seed bypasses the thread pool, so sampling, oracle and pool changes "
             "must leave it unchanged. It shares its instance and gap target with "
             "pb1000-vr, so both views of the paper's claim read side by side."),
        command="run", algorithms=("eg", "pda", "oomd-l2", "oomd-entropy", "rm+"),
        run_seeds=(0,), budget=200 * PB_N, eval_every=4 * PB_N, headline="eg",
        target=0.1, ttg_seeds=1, ttg_budget=200 * PB_N, ttg_eval_every=2 * PB_N,
        blas_probe=True),
    Workload(
        name="seg32-sparse",
        why=("The same modules used differently: sparse CSR slices densified on every "
             "sample, a 1024-block simplex product and a box projection, a duality gap "
             "whose support function loops over the blocks in Python at a dense "
             "checkpoint cadence, and the compare alignment path. It is generated in "
             "process, not loaded from a file, because save_instance densifies sparse "
             "payoffs: a reloaded seg32 would be a dense 2048 x 4096 instance of about "
             "160 MB on a different oracle path."),
        command="compare", algorithms=("svrg-eg", "pda"), run_seeds=(0, 1),
        budget=2 * 4096, eval_every=512, headline="pda", target=125.0,
        ttg_seeds=1, ttg_budget=12 * 4096, ttg_eval_every=512),
)}


def metric_tag(algorithm):
    """Algorithm tag as it appears in metric names (``rm+`` -> ``rm-plus``)."""
    return algorithm.replace("+", "-plus")


def house_permutations(seed):
    """Row and column relabelings of the pursuit game for a benchmark seed,
    from the raw PCG64 stream, which NumPy keeps stable across versions."""
    bits = np.random.PCG64(np.random.SeedSequence([int(seed), PB_N]))
    return np.argsort(bits.random_raw(PB_N), kind="stable"), \
        np.argsort(bits.random_raw(PB_N), kind="stable")


def pursuit_instance(vs, seed):
    """The pb1000 game with its houses relabeled by the seed's permutations.

    Every seed gives a different file and different sampling paths, while the
    game, and so the work to reach a gap, stays the same: relabeling rows and
    columns of a matrix game permutes its iterates and leaves every gap as it
    is. Drawing new wealths per seed instead moves the evaluations that
    ``eg`` needs to reach the target by 10 to 15 % between seeds.
    """
    A = vs.policeman_burglar(PB_N, PB_BASE_SEED).structure.A
    rows, cols = house_permutations(seed)
    return vs.AffineVI.bilinear(np.ascontiguousarray(A[rows][:, cols]))


@dataclass
class Inputs:
    """What one workload run feeds the program."""

    instance_args: list     # CLI flags naming the instance
    label: str              # file label the harness derives from the instance
    load: object            # zero-argument callable that builds the problem


def prepare(vs, wl, seed, workdir):
    """Write or describe the workload's instance for a benchmark seed."""
    if wl.family == "pb":
        path = os.path.join(workdir, f"pb{PB_N}.vif")
        vs.save_instance(path, pursuit_instance(vs, seed))
        return Inputs(["--instance", path], f"pb{PB_N}", lambda: vs.load_instance(path))
    label = f"seg{SEG_GRID}x{SEG_GRID}h{SEG_REGIONS}-s{seed}"
    return Inputs(["--gen", "segmentation", "--grid", str(SEG_GRID),
                   "--regions", str(SEG_REGIONS), "--seed", str(seed)], label,
                  lambda: vs.synthetic_segmentation(SEG_GRID, SEG_REGIONS, seed))


def sweep_argv(wl, inputs, outdir):
    """Command line of the workload's sweep."""
    out = os.path.join(outdir, f"{inputs.label}_compare.csv") if wl.command == "compare" \
        else outdir
    argv = [wl.command, *inputs.instance_args, "--algo", ",".join(wl.algorithms),
            "--seeds", ",".join(str(s) for s in wl.run_seeds), "--budget", str(wl.budget),
            "--eval-every", str(wl.eval_every), "--out", out]
    if wl.command == "compare":
        argv += ["--q", "0,1,2"]
    return argv
