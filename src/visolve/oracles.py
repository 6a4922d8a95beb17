"""Column-sampled operator oracle and variance reduction, for every instance.

F(z) = Mz + q is q plus the sum over k of the columns M_.k scaled by z_k.
The columns fall into blocks: a game's x columns (the rows of A, negated,
which fill the y rows of F) and its y columns (the columns of A, which fill
the x rows), and a plain affine VI's one block of all of M. The oracle draws
one column k per block with probability proportional to ||M_.k||^2 and
weights it by 1 / p_k, so its expectation is exactly the full operator and
its mean-square Lipschitz constant is the Frobenius norm of A for a game and
of M for a plain VI; the problem computes both once, on first use
(``AffineVI.column_sampling``, ``lipschitz_bound``), for every oracle. Costs
are counted in units of one sampled evaluation: a full operator evaluation
costs N units (``default_components``), so N sampled evaluations read all
of M, and each solver's step charges itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import SamplingDistribution, row_reader  # noqa: F401 (perfbench times it here)


@dataclass
class SnapshotCache:
    """Snapshot point with its exact full operator value."""

    w: np.ndarray
    Fw: np.ndarray

    @classmethod
    def at(cls, problem, w):
        w = np.array(w, dtype=np.float64)
        return cls(w=w, Fw=problem.operator(w))


class MatrixGameOracle:
    """Column-sampled oracle of F(z) = Mz + q, for games and plain affine VIs.

    Each block is a row ``(at, column, signed_p)``: its columns are the
    coordinates ``at + k``, column k of M is ``sign * values`` at the
    positions of F that ``column(k)`` reads (``positions, values``), and
    ``signed_p`` is ``sign * p``. Dividing by the signed probability applies
    the sign exactly. The readers ``column`` are bound here, for a dense or
    a sparse payoff, so a sample reads its column without asking which. The
    probabilities are the problem's ``column_sampling()``; an oracle builds
    no tables of its own.
    """

    def __init__(self, problem):
        self.problem = problem
        self.sampling = problem.column_sampling()
        s = problem.structure
        if s is None:
            M, every = problem.M, slice(0, problem.dim)
            blocks = [(0, lambda k: (every, M[:, k]), 1.0)]
        else:
            n = s.primal_dim
            blocks = [(0, row_reader(s.A, n), -1.0), (n, row_reader(s.AT), 1.0)]
        self._blocks = [(at, column, sign * p)
                        for (at, column, sign), p in zip(blocks, self.sampling.p)]

    def draw(self, rng):
        return self.sampling.draw(rng)

    def vr_estimate(self, cache, sample, z_half):
        """F(w) + sum over blocks of ((z_half_k - w_k) / p_k) M_.k, on one sample,
        as the entries where it may differ from the cached F(w): per block a
        pair ``(positions, values)``, where the estimate holds ``values`` =
        ``Fw[positions] + c * column`` at the positions of the sampled
        column's stored entries, an index array, or a slice for a dense
        column. Its other entries are those of F(w); :func:`dense_estimate`
        writes the whole vector, and the positions are what
        :meth:`FeasibleSet.reproject` takes, all blocks in one call. At
        z_half = w it is F(w) exactly, for every sample.
        """
        Fw, w = cache.Fw, cache.w
        entries = []
        for k, (at, column, signed_p) in zip(sample, self._blocks):
            positions, vals = column(k)
            c = (z_half.item(at + k) - w.item(at + k)) / signed_p.item(k)
            values = c * vals
            values += Fw[positions]     # Fw[positions] + c * vals: addition commutes
            entries.append((positions, values))
        return entries


def dense_estimate(cache, entries):
    """The whole vector of a :meth:`MatrixGameOracle.vr_estimate`: F(w) with
    the values of its (positions, values) pairs written in."""
    out = cache.Fw.copy()
    for positions, values in entries:
        out[positions] = values
    return out


def stochastic_operator(oracle, sample, z):
    """Sampled estimate of F at z: q plus (z_k / p_k) M_.k for each drawn k.

    It is the variance-reduced estimate anchored at the origin, where F is q.
    """
    if any(p[k] <= 0.0 for p, k in zip(oracle.sampling.p, sample)):
        raise ValueError("drew a zero-probability column")
    problem = oracle.problem
    origin = SnapshotCache(w=np.zeros(problem.dim), Fw=problem.q)
    z = np.asarray(z, dtype=np.float64)
    return dense_estimate(origin, oracle.vr_estimate(origin, sample, z))


def pair_second_moment(oracle, z1, z2):
    """Exact E ||F_sampled(z1) - F_sampled(z2)||^2 over the sampling support.

    The blocks fill disjoint rows of F, so under importance weighting this
    collapses to T times the squared distance restricted to the coordinates
    whose columns have positive probability.
    """
    sampling = oracle.sampling
    d = np.asarray(z1, dtype=np.float64) - np.asarray(z2, dtype=np.float64)
    d = np.where(np.concatenate(sampling.p) > 0, d, 0.0)
    return float(sampling.total * (d @ d))


def vr_conditional_variance(oracle, z_half, w):
    """Exact conditional variance E ||Fhat(z_half) - F(z_half)||^2 of the
    variance-reduced estimate anchored at snapshot w."""
    problem = oracle.problem
    mean_diff = problem.operator(z_half) - problem.operator(w)
    return float(pair_second_moment(oracle, z_half, w) - mean_diff @ mean_diff)


def default_components(problem):
    """Default finite-sum size: the larger payoff dimension for games, the
    ambient dimension otherwise."""
    if problem.structure is not None:
        return max(problem.structure.A.shape)
    return problem.dim
