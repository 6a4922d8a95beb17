"""Stochastic operator oracles for bilinear games and variance reduction.

The sampled oracle picks a row i and a column j with probabilities
proportional to their squared norms and returns inverse-probability-weighted
rank-one slices, so its expectation is exactly the full operator and its
mean-square Lipschitz constant equals the Frobenius norm of the payoff
matrix. Costs are counted in units of one sampled evaluation; a full
operator evaluation costs N units (``default_components``), and each
solver's step charges itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class SamplingDistribution:
    """Row/column importance sampling: p_i = ||A_i||^2 / ||A||_F^2 and
    p_j = ||A_.j||^2 / ||A||_F^2. Zero rows and columns get probability zero
    and are never drawn."""

    def __init__(self, A):
        if sp.issparse(A):
            sq = A.multiply(A)
            row_sq = np.asarray(sq.sum(axis=1)).ravel()
            col_sq = np.asarray(sq.sum(axis=0)).ravel()
        else:
            A = np.asarray(A, dtype=np.float64)
            row_sq = np.sum(A * A, axis=1)
            col_sq = np.sum(A * A, axis=0)
        total = row_sq.sum()
        if total <= 0.0:
            raise ValueError("all-zero payoff matrix has no sampling distribution")
        self.p_row = row_sq / total
        self.p_col = col_sq / total
        self.cdf_row = np.cumsum(self.p_row)
        self.cdf_col = np.cumsum(self.p_col)
        self.cdf_row[-1] = 1.0
        self.cdf_col[-1] = 1.0

    def draw(self, rng):
        """One (i, j) sample; the row uniform is consumed before the column's."""
        i = int(np.searchsorted(self.cdf_row, rng.uniform(), side="right"))
        j = int(np.searchsorted(self.cdf_col, rng.uniform(), side="right"))
        return min(i, self.p_row.size - 1), min(j, self.p_col.size - 1)

    def draw_many(self, rng, count):
        i = np.searchsorted(self.cdf_row, rng.uniform(count), side="right")
        j = np.searchsorted(self.cdf_col, rng.uniform(count), side="right")
        return (np.minimum(i, self.p_row.size - 1), np.minimum(j, self.p_col.size - 1))


def stochastic_operator(problem, sampling, sample, z):
    """Sampled estimate of F at z for a bilinear problem.

    Returns ((1/p_j) A_.j y_j + bx, -(1/p_i) A_i x_i + by) for the drawn
    (i, j); the inverse-probability weights make the estimate unbiased, and
    the linear terms pass through unweighted.
    """
    s = problem.structure
    i, j = sample
    pi, pj = sampling.p_row[i], sampling.p_col[j]
    if pi <= 0.0 or pj <= 0.0:
        raise ValueError("drew a zero-probability row or column")
    x, y = problem.split(z)
    primal = (y[j] / pj) * s.col(j) + s.bx
    dual = (-x[i] / pi) * s.row(i) + s.by
    return np.concatenate([primal, dual])


@dataclass
class SnapshotCache:
    """Snapshot point with its exact full operator value."""

    w: np.ndarray
    Fw: np.ndarray

    @classmethod
    def at(cls, problem, w):
        w = np.array(w, dtype=np.float64)
        return cls(w=w, Fw=problem.operator(w))


def pair_second_moment(problem, z1, z2):
    """Exact E ||F_sampled(z1) - F_sampled(z2)||^2 over the sampling support.

    Under importance weighting this collapses to ||A||_F^2 times the squared
    distance restricted to rows/columns with positive probability.
    """
    s = problem.structure
    sampling = SamplingDistribution(s.A)
    fro_sq = s.frobenius_norm() ** 2
    x1, y1 = problem.split(np.asarray(z1, dtype=np.float64))
    x2, y2 = problem.split(np.asarray(z2, dtype=np.float64))
    dx = np.where(sampling.p_row > 0, x1 - x2, 0.0)
    dy = np.where(sampling.p_col > 0, y1 - y2, 0.0)
    return float(fro_sq * (dx @ dx + dy @ dy))


def vr_conditional_variance(problem, z_half, w):
    """Exact conditional variance E ||Fhat(z_half) - F(z_half)||^2 of the
    variance-reduced estimate anchored at snapshot w."""
    mean_diff = problem.operator(z_half) - problem.operator(w)
    return float(pair_second_moment(problem, z_half, w) - mean_diff @ mean_diff)


class MatrixGameOracle:
    """Importance-sampled oracle over a bilinear payoff matrix."""

    def __init__(self, problem):
        if problem.structure is None:
            raise ValueError("sampled oracle needs a bilinear structure")
        self.problem = problem
        self.sampling = SamplingDistribution(problem.structure.A)

    def draw(self, rng):
        return self.sampling.draw(rng)

    def vr_estimate(self, cache, sample, z_half):
        """F_sampled(z_half) - F_sampled(w) + F(w), both slices on one sample.

        The shared terms cancel analytically: at z_half = w it returns F(w)
        exactly, for every sample.
        """
        i, j = sample
        s = self.problem.structure
        n = s.primal_dim
        out = cache.Fw.copy()
        out[:n] += ((z_half[n + j] - cache.w[n + j]) / self.sampling.p_col[j]) * s.col(j)
        out[n:] -= ((z_half[i] - cache.w[i]) / self.sampling.p_row[i]) * s.row(i)
        return out


class ExactOracle:
    """Degenerate oracle whose samples are the full operator (used for
    problems without a sampled decomposition; draws consume no randomness)."""

    def __init__(self, problem):
        self.problem = problem

    def draw(self, rng):
        return None

    def vr_estimate(self, cache, sample, z_half):
        return self.problem.operator(z_half)


def oracle_for(problem):
    if problem.structure is not None:
        return MatrixGameOracle(problem)
    return ExactOracle(problem)


def default_components(problem):
    """Default finite-sum size: the larger payoff dimension for games, the
    ambient dimension otherwise."""
    if problem.structure is not None:
        return max(problem.structure.A.shape)
    return problem.dim
