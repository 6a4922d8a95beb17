"""Digest the CSVs of a fixed matrix of `visolve` runs.

The matrix runs every applicable algorithm, seeds 0-2, on eight instances
(the 30 x 30 pursuit game with instance seed 1 at budget 3000 and cadence
60, the 2-D known-segment instance at budget 200 and cadence 10, the 4 x 4
labeling game with 2 and with 3 regions at budget 4000 and cadence 100, a
12-dimensional monotone affine VI over a box at budget 1200 and cadence 60,
a 2-D affine VI over a box cut by a halfspace at budget 200 and cadence 10,
and the 5 x 7 uniform game with instance seed 0 at budget 1200 and cadence
60, the one game whose two simplexes differ in size and so project as
padded rows, and a 5 x 7 game over two simplexes with both linear terms, <bx, x>
and <by, y>, at budget 1200 and cadence 60, the one instance whose dual
linear term by is nonzero and so gates its sign in F). It runs the pursuit
game once more with `--tau-scale 3 --gamma 0.7`, so the step multiplier, a
parameter override and the order in which a multiplier that is not a power
of two enters the step are gated too, and the 2-D VI over the cut box once
more with `--p 0.5 --alpha 0.5`, into `halfboxvr/`: at the suggested p = 1
and alpha = 0 of d = 2 the variance-reduced runs refresh the snapshot every
step and some seeds write the same bytes, so this run is the one that gates
the p and alpha overrides on a plain VI. It runs the 8 x 8 pursuit game
with instance seed 1 at budget 320 and cadence 24, into `offgrid/`, the one
budget that is not a multiple of its cadence, so the row of the step that
meets the budget is gated. It adds a `compare` with `--q 0,1,2` of every
applicable algorithm on the 30 x 30 pursuit game, written to a named `.csv`
file, and on the 2-region labeling game, the 2-D known-segment instance and
the 8 x 8 pursuit game, written into a directory, so both `--out` rules, a
`compare` on an instance with a known solution set and a compare grid that
ends at the budget are gated.
The two affine VIs and the game with linear terms are written with
`save_instance` and run through `--instance`, so the gate covers the
instance file format. So is the 2-region labeling game, whose sparse payoff
a file stores as CSR arrays: its run from the file, into `segfile/`, must
write the same bytes as its run from the generator, into `seg/`. Unlike the 2-D known-segment instance, whose traces
are all zero and whose iterates all lie on the diagonal, the 12-dimensional
VI's residuals stay above zero at the budget, and the 2-D VI's steps leave
the halfspace off the diagonal, so they gate the active branch of its
projection; its last iterates reach the solution vertex, but its averaged
residuals stay above zero. Every run goes through `cli.main` into a
temporary directory; the output is one `sha256  relative/path` line per CSV,
sorted by path, after a header of `#` lines that names the Python, numpy
and scipy versions, the BLAS build and the CPU, because each can change the
order of a sum: a BLAS kernel, or the builtin `sum()` of floats, which is
compensated from Python 3.12.

    python3 tools/fixed_matrix.py [SRC_DIR] > digests.txt

SRC_DIR is the `src` directory of the checkout to run (default: the one
beside this script), so two checkouts can be compared with `diff`.
`fixed_matrix.txt` beside this script holds the digests of the current
tree; `tests/test_fixed_matrix.py` checks them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import platform
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

AFFINE_FILE = "affine12.vif"
HALFBOX_FILE = "halfbox2.vif"
LINEAR_FILE = "linear5x7.vif"
SEG_FILE = "seg4x4h2-s0.vif"  # the label of the `seg` run, so the CSV names match

# (output subdirectory, generator or instance file, generator flags, budget, cadence)
RUNS = (
    ("pb", "pb", {"n": 30, "seed": 1}, 3000, 60),
    ("ws", "ws-example", {}, 200, 10),
    ("seg", "segmentation", {"grid": 4}, 4000, 100),
    ("seg3", "segmentation", {"grid": 4, "regions": 3}, 4000, 100),
    ("affine", AFFINE_FILE, {}, 1200, 60),
    ("halfbox", HALFBOX_FILE, {}, 200, 10),
    ("scaled", "pb", {"n": 30, "seed": 1}, 3000, 60),
    ("uni", "uniform", {"n": 5, "m": 7, "seed": 0}, 1200, 60),
    ("linear", LINEAR_FILE, {}, 1200, 60),
    ("segfile", SEG_FILE, {}, 4000, 100),
    ("halfboxvr", HALFBOX_FILE, {}, 200, 10),
    ("offgrid", "pb", {"n": 8, "seed": 1}, 320, 24),
)

# Flags a run above adds to its `run` command.
EXTRA_FLAGS = {"scaled": ["--tau-scale", "3", "--gamma", "0.7"],
               "halfboxvr": ["--p", "0.5", "--alpha", "0.5"]}

# `compare --out` of a run above: a file when it ends in .csv, else a directory.
COMPARE_OUT = {"pb": os.path.join("cmp", "pb30_compare.csv"), "seg": "cmp", "ws": "cmp",
               "offgrid": "cmp"}


def affine_box_instance(vs):
    """F(z) = Mz + q over the box [-1/2, 1/2]^12, with M = 0.1 B'B + (C - C')
    monotone (the smallest eigenvalue of M + M' is about 6e-4) and B, C, q
    seeded uniform draws."""
    from visolve.rng import StableRng

    d = 12
    rng = StableRng(7)
    B = rng.uniform(d * d).reshape(d, d) - 0.5
    C = rng.uniform(d * d).reshape(d, d) - 0.5
    q = 2.0 * (rng.uniform(d) - 0.5)
    return vs.AffineVI(0.1 * B.T @ B + C - C.T, q, vs.Box(-0.5, 0.5, dim=d))


def halfspace_box_instance(vs):
    """F(z) = Mz + q with M = [[1/2, 1], [-1, 1/2]] (M + M' = I) and
    q = (-2, -1) over {0 <= z <= 1, z1 + 2 z2 <= 1.6}; the halfspace is
    active at the solution, which lies off the diagonal."""
    M = [[0.5, 1.0], [-1.0, 0.5]]
    return vs.AffineVI(M, [-2.0, -1.0], vs.HalfspaceBox(0.0, 1.0, [1.0, 2.0], 1.6))


def linear_game_instance(vs):
    """The game min_x max_y x'Ay + <bx, x> + <by, y> over two simplexes,
    with the 5 x 7 payoff A and the terms bx and by seeded uniform draws on
    [-1/2, 1/2)."""
    from visolve.rng import StableRng

    rng = StableRng(11)
    A = rng.uniform(35).reshape(5, 7) - 0.5
    return vs.AffineVI.bilinear(A, rng.uniform(5) - 0.5, rng.uniform(7) - 0.5)


def environment():
    """Header lines naming what can change the bits of a sum: the Python
    version (the builtin ``sum()`` of floats is compensated from 3.12), the
    numpy and scipy versions, the BLAS build numpy reports and the CPU model."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}"
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        build = "unknown"
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), cpu)
    return [f"# python {platform.python_version()}",
            f"# numpy {np.__version__}, scipy {scipy.__version__}",
            f"# blas {build.strip()}", f"# cpu {cpu}"]


def digest_matrix():
    """Run the matrix with the importable `visolve` and return one
    `sha256  relative/path` line per CSV, sorted by path."""
    import visolve as vs
    from visolve import cli, harness, solvers

    with tempfile.TemporaryDirectory() as out:
        vs.save_instance(os.path.join(out, AFFINE_FILE), affine_box_instance(vs))
        vs.save_instance(os.path.join(out, HALFBOX_FILE), halfspace_box_instance(vs))
        vs.save_instance(os.path.join(out, LINEAR_FILE), linear_game_instance(vs))
        vs.save_instance(os.path.join(out, SEG_FILE), vs.synthetic_segmentation(4, 2, 0))
        commands = []
        for sub, name, params, budget, cadence in RUNS:
            is_file = name not in harness.GENERATORS
            instance = os.path.join(out, name) if is_file else name
            problem, _, _ = harness.build_instance(instance, **params)
            algos = [a for a in solvers.ALGORITHMS if solvers.applicable(problem, a)]
            flags = ["--instance" if is_file else "--gen", instance,
                     *(f for k, v in params.items() for f in (f"--{k}", str(v))),
                     "--seeds", "0-2", "--budget", str(budget), "--eval-every", str(cadence)]
            commands.append(["run", *flags, *EXTRA_FLAGS.get(sub, ()), "--algo", ",".join(algos),
                             "--out", os.path.join(out, sub)])
            if sub in COMPARE_OUT:
                commands.append(["compare", *flags, "--algo", ",".join(algos), "--q", "0,1,2",
                                 "--out", os.path.join(out, COMPARE_OUT[sub])])
        for command in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(command)
            if code != 0:
                sys.exit(f"exit {code}: visolve {' '.join(command)}")
        lines = []
        for root, _, files in os.walk(out):
            for name in files:
                if name.endswith(".csv"):
                    path = os.path.join(root, name)
                    with open(path, "rb") as f:
                        digest = hashlib.sha256(f.read()).hexdigest()
                    lines.append((os.path.relpath(path, out), digest))
    return [f"{digest}  {rel}" for rel, digest in sorted(lines)]


def main(argv):
    src = os.path.abspath(argv[1]) if len(argv) > 1 else os.path.join(HERE, os.pardir, "src")
    sys.path.insert(0, src)
    print("\n".join(environment() + digest_matrix()))


if __name__ == "__main__":
    main(sys.argv)
