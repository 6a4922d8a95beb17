"""Produce benchmark CSVs through the harness (what the CLI does).

Equivalent shell commands:

    visolve gen pb --n 12 --seed 1 --out pb12.vif
    visolve run --instance pb12.vif --algo svrg-eg,eg --seeds 0-4 \
        --budget 2400 --eval-every 120 --out traces/
    visolve compare --instance pb12.vif --algo svrg-eg,eg,rm+ --seeds 0-4 \
        --budget 2400 --eval-every 240 --out compare.csv

Per-seed files carry evals,gap_last,gap_uniform,gap_linear,gap_quadratic
(plus dist_theta when the solution set is known); the aggregate file holds
per-checkpoint means and sample standard deviations across seeds. All
numbers are printed with 17 significant digits, so reading them back loses
nothing, and rerunning a configuration reproduces the bytes exactly. The
files go to a temporary directory that is removed when the script ends.
"""

import pathlib
import tempfile

from visolve.harness import RunConfig, compare_command, run_command

with tempfile.TemporaryDirectory(prefix="visolve-demo-") as tmp:
    workdir = pathlib.Path(tmp)
    cfg = RunConfig(instance="pb", instance_params={"n": 12, "seed": 1},
                    algorithms=["svrg-eg", "eg"], seeds=[0, 1, 2, 3, 4],
                    budget=2400, eval_every=120, out=str(workdir / "traces"))

    print("== run: per-seed traces and aggregates ==")
    for path in run_command(cfg):
        print(" ", path)

    print("\n== compare: one wide CSV across algorithms and averaging modes ==")
    cfg.algorithms = ["svrg-eg", "eg", "rm+"]
    cfg.eval_every = 240
    cfg.out = str(workdir / "compare.csv")  # a .csv name is the file itself, not a directory
    path, = compare_command(cfg)
    print(" ", path)
    with open(path) as f:
        print("  header:", f.readline().strip())
        print("  first row:", f.readline().strip()[:100], "...")
