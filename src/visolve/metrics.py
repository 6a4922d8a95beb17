"""Convergence measures: duality gap, proximal residual, weighted distances
to a known solution set, and the sharpness ratio."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_GAP_CLIP = 1e-10


def duality_gap_at(problem, z, F=None):
    """max_y' f(x, y') - min_x' f(x', y) at z = (x, y) of a bilinear game:
    dual.support_max(-F_y) + <bx, x> - (-primal.support_max(-F_x) + <by, y>)
    with F(z) = (grad_x f, -grad_y f). The support functions are closed-form
    on simplexes, products of simplexes and boxes. ``F``, when given, stands
    for F(z) and saves the operator call.
    """
    if problem.structure is None:
        raise ValueError("duality gap needs a bilinear problem")
    s = problem.structure
    x, y = problem.split(np.asarray(z, dtype=np.float64))
    F_x, F_y = problem.split(problem.operator(z) if F is None else F)
    primal_set, dual_set = problem.set.parts
    best_response_y = dual_set.support_max(-F_y) + float(s.bx @ x)
    best_response_x = -primal_set.support_max(-F_x) + float(s.by @ y)
    return best_response_y - best_response_x


def natural_residual(problem, z, tau, F=None):
    """||z - proj(z - tau F(z))|| / tau; zero exactly at solutions. ``F``,
    when given, stands for F(z) and saves the operator call."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    z = np.asarray(z, dtype=np.float64)
    step = problem.set.project(z - tau * (problem.operator(z) if F is None else F))
    return float(np.linalg.norm(z - step) / tau)


def dist_theta(known, z, w, theta):
    """min over stored solutions of theta ||z - s||^2 + (1 - theta) ||w - s||^2.

    Over a segment the objective is a convex 1-D quadratic in the segment
    parameter, so the minimizer is the clamped projection of the blend
    theta z + (1 - theta) w; over a point it is evaluated directly.
    """
    if known is None:
        raise ValueError("no known solution set")
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    z = np.asarray(z, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    s = known.project(theta * z + (1.0 - theta) * w)
    return float(theta * np.sum((z - s) ** 2) + (1.0 - theta) * np.sum((w - s) ** 2))


def ws_ratio(problem, known, x):
    """<F(s), x - s> / ||x - s|| with s the closest known solution to x.

    Sampling the infimum of this ratio over the feasible set estimates the
    sharpness modulus; x on the solution set is rejected (zero denominator).
    """
    if known is None:
        raise ValueError("no known solution set")
    x = np.asarray(x, dtype=np.float64)
    s = known.project(x)
    gap_dir = x - s
    dist = float(np.linalg.norm(gap_dir))
    if dist <= 1e-14:
        raise ValueError("point lies on the solution set")
    return float(problem.operator(s) @ gap_dir / dist)


# The trace column of each running average, by its weight exponent q.
AVERAGE_COLUMNS = {0: "gap_uniform", 1: "gap_linear", 2: "gap_quadratic"}
_GAP_COLUMNS = ("gap_last", *AVERAGE_COLUMNS.values())


def write_table(path, table):
    """Write equal-length named columns as CSV, one header line and then
    every value with 17 significant digits, so floats read back exactly and
    integer counts below 2**53 print as plain digits."""
    names = list(table)
    length = len(next(iter(table.values())))
    with open(path, "w") as f:
        f.write(",".join(names) + "\n")
        for k in range(length):
            f.write(",".join(f"{table[name][k]:.17g}" for name in names) + "\n")


@dataclass
class GapTrace:
    """Per-checkpoint convergence record of one run.

    evals is the cumulative sampled-evaluation charge (strictly increasing);
    the gap columns cover the last iterate and the uniform/linear/quadratic
    averages; dist_theta is present only when the instance has a known
    solution set. Tiny negative gaps (roundoff above -1e-10) are clipped to
    zero; anything more negative is a bug and rejected.
    """

    evals: np.ndarray
    gap_last: np.ndarray
    gap_uniform: np.ndarray
    gap_linear: np.ndarray
    gap_quadratic: np.ndarray
    dist_theta: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.evals = np.asarray(self.evals, dtype=np.int64)
        if self.evals.size and np.any(np.diff(self.evals) <= 0):
            raise ValueError("cumulative charges must be strictly increasing")
        for name in _GAP_COLUMNS:
            col = np.asarray(getattr(self, name), dtype=np.float64)
            if col.shape != self.evals.shape:
                raise ValueError(f"column {name} does not align with evals")
            if np.any(col < -_GAP_CLIP):
                raise ValueError(f"negative {name} beyond roundoff: {col.min():.3e}")
            setattr(self, name, np.maximum(col, 0.0))
        if self.dist_theta is not None:
            self.dist_theta = np.asarray(self.dist_theta, dtype=np.float64)
            if self.dist_theta.shape != self.evals.shape:
                raise ValueError("dist_theta does not align with evals")

    def __len__(self):
        return self.evals.size

    @property
    def columns(self):
        cols = ["evals", *_GAP_COLUMNS]
        if self.dist_theta is not None:
            cols.append("dist_theta")
        return cols

    def column(self, name):
        return getattr(self, name)

    def gap_at(self, budget, column="gap_last"):
        """Value of a column at the first checkpoint with evals >= budget."""
        idx = int(np.searchsorted(self.evals, budget, side="left"))
        if idx >= len(self):
            idx = len(self) - 1
        return float(self.column(column)[idx])

    def to_csv(self, path):
        write_table(path, {name: self.column(name) for name in self.columns})

    @classmethod
    def from_csv(cls, path):
        with open(path) as f:
            header = f.readline().strip().split(",")
            rows = [line.split(",") for line in f.read().splitlines() if line]
        data = {name: np.array([r[k] for r in rows], dtype=np.float64)
                for k, name in enumerate(header)}
        return cls(**{name: data.get(name) for name in ("evals", *_GAP_COLUMNS, "dist_theta")})
