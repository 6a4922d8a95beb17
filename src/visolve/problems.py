"""Affine variational inequalities, bilinear saddle-point games, generators.

A problem is the operator F(z) = Mz + q over a feasible set, for every
instance. A bilinear min-max game min_x max_y f(x, y) = x'Ay + <bx,x> + <by,y>
is the VI with F = (grad_x f, -grad_y f): M = [[0, A], [-A', 0]], stored as
A and its transpose AT in :class:`BilinearStructure`, so Mz = (Ay, -A'x) is
formed without materializing M, and q = (bx, -by).
"""

from __future__ import annotations

import logging
import math

import numpy as np
import scipy.sparse as sp

from . import sets
from .rng import StableRng

log = logging.getLogger(__name__)

_EIG_CHECK_MAX_DIM = 64
_EIG_FLOOR = -1e-10
_SOLUTION_CHECKS = 10_000
_SOLUTION_CHECK_SEED = 0
# Stop rule of spectral_norm: the Ritz residual bound relative to the estimate.
_LANCZOS_RTOL = 1e-6
# spectral_norm checks the bound after each of its first 8 steps, then at
# steps 12, 18, 27, ... (each 1.5 times the last): a check at step k costs
# about 50 passes over k pivots, a step only two products with A.
_LANCZOS_EVERY_STEP = 8


class BilinearStructure:
    """Payoff A, its transpose AT (a view, or A' as CSR when sparse) and linear terms."""

    def __init__(self, A, bx=None, by=None):
        if sp.issparse(A):
            # canonical (no duplicate entries), so a scatter of a slice is exact
            self.A = A.tocsr(copy=True)
            self.A.sum_duplicates()
            self.AT = self.A.tocsc().T
        else:
            self.A = np.asarray(A, dtype=np.float64)
            self.AT = self.A.T
        n, m = self.A.shape
        self.primal_dim = n
        self.dual_dim = m
        self.bx = np.zeros(n) if bx is None else np.asarray(bx, dtype=np.float64)
        self.by = np.zeros(m) if by is None else np.asarray(by, dtype=np.float64)
        if self.bx.shape != (n,) or self.by.shape != (m,):
            raise ValueError("linear terms must match the payoff dimensions")

    def row(self, i):
        """Row i as (index, values), so that ``v[index] += c * values`` adds
        c A_i to v: the whole dense row, or the stored entries of the CSR row,
        read in place."""
        return _row(self.A, i)

    def col(self, j):
        """Column j as (index, values), like :meth:`row`: row j of ``AT``."""
        return _row(self.AT, j)

    def frobenius_norm(self):
        if sp.issparse(self.A):
            return float(np.sqrt(self.A.multiply(self.A).sum()))
        return float(np.linalg.norm(self.A))


def _row(M, k):
    """Row k of a dense or CSR matrix as (index, values) views."""
    if not sp.issparse(M):
        return slice(None), M[k]
    lo, hi = M.indptr[k], M.indptr[k + 1]
    return M.indices[lo:hi], M.data[lo:hi]


class AffineVI:
    """Monotone affine VI: find z* feasible with <F(z*), z - z*> >= 0 for all z.

    F(z) = Mz + q, with M given as exactly one of a matrix and, for a game
    from ``bilinear``, a bilinear structure. Monotonicity (M + M' positive
    semidefinite) is verified at construction for dimension <= 64; above
    that the eigenvalue check is skipped with a logged warning. Bilinear
    instances are skew-symmetric by construction and need no check.
    """

    def __init__(self, M, q, feasible_set, structure=None):
        if (M is None) == (structure is None):
            raise ValueError("need exactly one of M and a bilinear structure")
        self.set = feasible_set
        self.structure = structure
        self.q = np.asarray(q, dtype=np.float64)
        self._M = M if M is None else np.asarray(M, dtype=np.float64)
        self._spectral_norm = None
        d = feasible_set.dim
        if self.q.shape != (d,):
            raise ValueError("q must match the feasible-set dimension")
        if self._M is not None:
            if self._M.shape != (d, d):
                raise ValueError("M must be square of the set dimension")
            if d <= _EIG_CHECK_MAX_DIM:
                floor = float(np.linalg.eigvalsh(self._M + self._M.T).min())
                if floor < _EIG_FLOOR:
                    raise ValueError(f"operator is not monotone (eigenvalue floor {floor:.3e})")
            else:
                log.warning("monotonicity eigencheck skipped for dimension %d > %d",
                            d, _EIG_CHECK_MAX_DIM)

    @classmethod
    def bilinear(cls, A, bx=None, by=None, primal_set=None, dual_set=None):
        """Game min_x max_y x'Ay + <bx,x> + <by,y>; simplex strategy sets by default."""
        structure = BilinearStructure(A, bx, by)
        n, m = structure.primal_dim, structure.dual_dim
        primal_set = sets.Simplex(n) if primal_set is None else primal_set
        dual_set = sets.Simplex(m) if dual_set is None else dual_set
        if primal_set.dim != n or dual_set.dim != m:
            raise ValueError("strategy sets must match the payoff dimensions")
        feasible = sets.Product([primal_set, dual_set])
        q = np.concatenate([structure.bx, -structure.by])  # F = (grad_x f, -grad_y f)
        return cls(None, q, feasible, structure=structure)

    @property
    def dim(self):
        return self.set.dim

    @property
    def M(self):
        """Dense operator matrix; materialized on demand for bilinear instances."""
        if self._M is None:
            A, n = self.structure.A, self.structure.primal_dim
            M = np.zeros((self.dim, self.dim))
            M[:n, n:] = A.toarray() if sp.issparse(A) else A
            M[n:, :n] = -M[:n, n:].T
            self._M = M
        return self._M

    def split(self, z):
        """(x, y) blocks of a stacked bilinear iterate."""
        n = self.structure.primal_dim
        return z[:n], z[n:]

    def operator(self, z):
        """F(z) = Mz + q; a game forms Mz = (Ay, -A'x) from its payoff."""
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (self.dim,):
            raise ValueError(f"dimension mismatch: expected ({self.dim},), got {z.shape}")
        if self.structure is not None:
            s = self.structure
            x, y = self.split(z)
            return np.concatenate([s.A @ y, -(s.AT @ x)]) + self.q
        return self._M @ z + self.q

    def lipschitz_bound(self):
        """Mean-square Lipschitz constant of the column-sampled oracle: ||A||_F
        for games, ||M||_F otherwise."""
        if self.structure is not None:
            return self.structure.frobenius_norm()
        return float(np.linalg.norm(self._M))

    def spectral_norm(self):
        """Spectral norm of the payoff matrix for games, of M otherwise;
        computed on the first call and stored. :func:`spectral_norm` finds it
        by Golub-Kahan-Lanczos bidiagonalization, stopped when the Ritz
        residual bound reaches 1e-6 of the estimate; the estimate agrees with
        an SVD to a relative 1e-12 on every generator instance."""
        if self._spectral_norm is None:
            A = self._M if self.structure is None else self.structure.A
            self._spectral_norm = spectral_norm(A)
        return self._spectral_norm


def spectral_norm(A):
    """Largest singular value of a dense or sparse matrix A, by Golub-Kahan-
    Lanczos bidiagonalization from a seeded start vector, with no
    reorthogonalization.

    Step k extends A V_k = U_k B_k and A' U_k = V_k B_k' + beta_k v_{k+1} e_k',
    where B_k is upper bidiagonal with alpha_1..alpha_k on its diagonal and
    beta_1..beta_{k-1} above it. The estimate is the top singular value
    sigma_k of B_k; with p its left singular vector, the residual of the Ritz
    pair is beta_k |p_k|. The run stops when that bound is at most
    _LANCZOS_RTOL sigma_k, or when the Krylov space is exhausted: alpha_k or
    beta_k is exactly 0, or k reaches min(A.shape) + 1. A Ritz value's error
    is of the order of the squared bound over the gap to the next singular
    value; on every generator instance the result agrees with
    ``np.linalg.svd`` to a relative 1e-12, and so it does for those matrices
    scaled by 1e-150 or 1e150. The zero matrix gives exactly 0.0.
    """
    n, m = A.shape
    At = A.T
    v = StableRng(0).uniform(m) - 0.5
    v /= np.linalg.norm(v)
    u = np.zeros(n)
    alphas, betas = [], []
    beta, check_at = 0.0, 1
    for k in range(1, min(n, m) + 2):
        u = A @ v - beta * u
        alpha = float(np.linalg.norm(u))
        alphas.append(alpha)
        if alpha == 0.0:
            break
        u /= alpha
        v = At @ u - alpha * v
        beta = float(np.linalg.norm(v))
        betas.append(beta)
        if beta == 0.0:
            break
        if k == check_at:
            sigma, p_last = _top_singular_pair(alphas, betas)
            if beta * p_last <= _LANCZOS_RTOL * sigma:
                return sigma
            check_at = k + 1 if k < _LANCZOS_EVERY_STEP else k + k // 2
        v /= beta
    return _top_singular_pair(alphas, betas)[0]


def _top_singular_pair(alphas, betas):
    """Top singular value sigma of the k x k upper bidiagonal matrix B with
    the alphas on its diagonal and the first k - 1 betas above it, and |p_k|,
    the last entry of its left singular vector p.

    sigma^2 is the top eigenvalue of the tridiagonal T = B B', found by
    bisection: every pivot of the LDL' factorization of T - x I is negative
    exactly when x lies above every eigenvalue. The bracket ends on two
    adjacent floats; sigma^2 is the lower one, so an eigenvalue that is a
    float is returned exactly. p is one step of inverse iteration from e_1 at
    the upper one. The loops run on Python floats: LAPACK's eigensolvers call
    threaded BLAS, and on a busy 2-core host one eigh of a 90 x 90 matrix
    took up to 70 ms, against 0.6 ms idle.
    """
    k = len(alphas)
    if k == 1:                                  # B = (alpha_1), p = (1)
        return alphas[0], 1.0
    # B / scale has entries below 1, so no square over- or underflows; a power
    # of two scales every product and sum exactly, and so keeps their bits.
    scale = 2.0 ** math.frexp(max(alphas + betas[:k - 1]))[1]
    alphas = [a / scale for a in alphas]
    betas = [b / scale for b in betas[:k - 1]]
    d = [a * a + b * b for a, b in zip(alphas, betas)] + [alphas[-1] ** 2]
    e = [b * a for b, a in zip(betas, alphas[1:])]
    rows = list(zip(d[1:], [ei * ei for ei in e]))
    # hi starts strictly above every eigenvalue: at the trace of T (the sum of
    # its eigenvalues, all >= 0), raised by 2^-40, or at twice Gershgorin's bound
    hi = min(math.fsum(d) * (1.0 + 2.0 ** -40),
             2.0 * max(map(sum, zip(d, [0.0] + e, e + [0.0]))))
    lo = max(d)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _above_spectrum(d[0], rows, mid):
            hi = mid
        else:
            lo = mid
    pivots = [d[0] - hi]                        # T - hi I = L D L', D = diag(pivots)
    for di, ei2 in rows:
        pivots.append(di - hi - ei2 / pivots[-1])
    multipliers = [ei / qi for ei, qi in zip(e, pivots)]
    w = [1.0]                                   # solve L y = e_1,
    for li in multipliers:
        w.append(-li * w[-1])
    w = [yi / qi for yi, qi in zip(w, pivots)]  # then D z = y,
    for i in range(k - 2, -1, -1):              # then L' w = z
        w[i] -= multipliers[i] * w[i + 1]
    return math.sqrt(lo) * scale, abs(w[-1]) / math.hypot(*w)


def _above_spectrum(d0, rows, x):
    """Whether x exceeds every eigenvalue of the symmetric tridiagonal matrix
    T with first diagonal entry d0 and (d_i, e_{i-1}^2) pairs ``rows`` for the
    rest, that is, whether every pivot of the LDL' factorization of T - x I
    is negative."""
    q = d0 - x
    for di, ei2 in rows:
        if q >= 0.0:
            return False
        q = di - x - ei2 / q
    return q < 0.0


class SolutionSet:
    """Known solution set of a VI: a single point or a segment.

    Construction verifies the VI inequality <F(p), z - p> >= -tol at the
    stored reference points against 10^4 sampled feasible directions.
    """

    def __init__(self, kind, points, problem=None, tol=1e-9):
        self.kind = kind
        self.points = [np.asarray(p, dtype=np.float64) for p in points]
        if problem is not None:
            self._validate(problem, tol)

    @classmethod
    def single(cls, z_star, problem=None, **kw):
        return cls("point", [z_star], problem, **kw)

    @classmethod
    def segment(cls, p0, p1, problem=None, **kw):
        return cls("segment", [p0, p1], problem, **kw)

    def _validate(self, problem, tol):
        Z = problem.set.sample(StableRng(_SOLUTION_CHECK_SEED), _SOLUTION_CHECKS)
        if self.kind == "point":
            refs = [self.points[0]]
        else:
            p0, p1 = self.points
            refs = [p0, 0.5 * (p0 + p1), p1]
        for p in refs:
            worst = float(np.min((Z - p) @ problem.operator(p)))
            if worst < -tol:
                raise ValueError(f"point {p} violates the VI inequality by {-worst:.3e}")

    def project(self, z):
        """Closest stored solution in Euclidean norm."""
        z = np.asarray(z, dtype=np.float64)
        if self.kind == "point":
            return self.points[0].copy()
        p0, p1 = self.points
        d = p1 - p0
        t = float(np.clip((z - p0) @ d / (d @ d), 0.0, 1.0))
        return p0 + t * d

    def distance(self, z):
        return float(np.linalg.norm(np.asarray(z) - self.project(z)))


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------

def policeman_burglar(n, seed):
    """Pursuit game on a street of n houses.

    House wealths are folded standard normals; the catch probability decays
    exponentially in the distance between houses: A[i, j] = w_i * (1 -
    exp(-0.8 * |i - j|)).
    """
    n = int(n)
    if n < 1:
        raise ValueError("need at least one house")
    w = np.abs(StableRng(seed).normal(n))
    dist = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    A = w[:, None] * (1.0 - np.exp(-0.8 * dist))
    return AffineVI.bilinear(A)


def nemirovski(n, family, alpha_exp):
    """Symmetric test matrices A[i,j] = ((i+j-1)/(2n-1))^a (family 1) or
    ((|i-j|+1)/(2n-1))^a (family 2), with 1-based indices."""
    n = int(n)
    if n < 1:
        raise ValueError("matrix dimension must be positive")
    idx = np.arange(1, n + 1, dtype=np.float64)
    if family == 1:
        base = (idx[:, None] + idx[None, :] - 1.0) / (2.0 * n - 1.0)
    elif family == 2:
        base = (np.abs(idx[:, None] - idx[None, :]) + 1.0) / (2.0 * n - 1.0)
    else:
        raise ValueError(f"unknown family {family!r}, expected 1 or 2")
    return AffineVI.bilinear(base ** alpha_exp)


def uniform_random(n, m, seed):
    """Payoff entries drawn i.i.d. uniform on the integers {0, ..., 10}."""
    n, m = int(n), int(m)
    if n < 1 or m < 1:
        raise ValueError("payoff dimensions must be positive")
    A = StableRng(seed).integers(0, 10, n * m).astype(np.float64).reshape(n, m)
    return AffineVI.bilinear(A)


def matching_pennies():
    """The 2x2 symmetric game with unique uniform equilibrium."""
    A = np.array([[1.0, -1.0], [-1.0, 1.0]])
    problem = AffineVI.bilinear(A)
    known = SolutionSet.single(np.full(4, 0.5), problem)
    return problem, known


def ws_example():
    """2-D VI over {0 <= x <= 1, x1 + x2 <= 3/2} with operator
    F(x) = ((x1+x2)/2 - 2, (x1+x2)/2 - 2).

    The solution set is the segment from (1/2, 1) to (1, 1/2); the sharpness
    ratio <F(x*), x - proj(x)> / ||x - proj(x)|| is bounded away from zero on
    the whole polytope.
    """
    M = np.full((2, 2), 0.5)
    q = np.array([-2.0, -2.0])
    feasible = sets.HalfspaceBox(0.0, 1.0, np.array([1.0, 1.0]), 1.5)
    problem = AffineVI(M, q, feasible)
    known = SolutionSet.segment(np.array([0.5, 1.0]), np.array([1.0, 0.5]), problem)
    return problem, known


def grid_gradient(grid):
    """Forward-difference operator on a grid x grid image, one x- and one
    y-difference row per pixel (2*grid^2 rows); boundary rows are zero."""
    g = int(grid)
    i, j = np.divmod(np.arange(g * g), g)           # pixel p = i * g + j
    rows, cols, vals = [], [], []
    for r, inner, step in ((0, i + 1 < g, g), (1, j + 1 < g, 1)):  # row 2p + r: x, then y
        p = np.flatnonzero(inner)
        rows += [2 * p + r] * 2
        cols += [p + step, p]
        vals += [np.ones(p.size), -np.ones(p.size)]
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(2 * g * g, g * g))


def synthetic_segmentation(grid, regions, seed):
    """Min-cut style labeling game on a grid x grid image with the given
    number of regions.

    Each pixel picks a label distribution (pixel-major simplex blocks); the
    adversary plays a bounded dual field per difference row (box of radius
    1/2, label-major). The coupling applies the per-label discrete gradient;
    the primal linear term is a seeded nonnegative data cost.
    """
    g, h = int(grid), int(regions)
    if g < 2:
        raise ValueError("grid must be at least 2x2")
    if h < 2:
        raise ValueError("need at least two regions")
    n_pix = g * g
    G = grid_gradient(g)                            # (2*n_pix, n_pix)
    A_label_major = sp.block_diag([G.T] * h, format="csr")
    # primal rows are (pixel, label); block-diagonal rows are (label, pixel)
    to_label_major = (np.arange(h)[None, :] * n_pix + np.arange(n_pix)[:, None]).ravel()
    A = A_label_major[to_label_major, :]
    d = StableRng(seed).uniform(n_pix * h)
    primal = sets.SimplexProduct([h] * n_pix)
    dual = sets.Box(-0.5, 0.5, dim=2 * n_pix * h)
    return AffineVI.bilinear(A, bx=d, by=None, primal_set=primal, dual_set=dual)


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------

def save_instance(path, problem):
    """Write an instance file: a one-line text header
    ``vif2 <n> <m> <set-descriptor>``, then the values as raw little-endian
    float64 (``<f8``), so a file loads bit for bit on every machine.

    Bilinear instances store the coupling matrix A row-major, then bx, then
    by; plain affine instances store M row-major, then q. A sparse A is
    stored as the CSR arrays the game runs on instead: the header ends in
    ``csr <nnz>``, and indptr and indices come first, as ``<i8``.
    """
    s, csr = problem.structure, ""
    if s is None:
        n = m = problem.dim
        parts = (problem.M, problem.q)
    elif sp.issparse(s.A):
        n, m, csr = s.primal_dim, s.dual_dim, f" csr {s.A.nnz}"
        parts = (s.A.indptr, s.A.indices, s.A.data, s.bx, s.by)
    else:
        n, m, parts = s.primal_dim, s.dual_dim, (s.A, s.bx, s.by)
    with open(path, "wb") as f:
        f.write(f"vif2 {n} {m} {problem.set.descriptor()}{csr}\n".encode("ascii"))
        for part in parts:
            np.ascontiguousarray(part, dtype="<i8" if part.dtype.kind == "i" else "<f8").tofile(f)


def load_instance(path):
    """Read an instance file written by :func:`save_instance`.

    The payload is read with one ``np.fromfile`` (2-5 ms for the million
    values of a 1000 x 1000 game). A dense game and a plain affine instance
    are told apart by their value counts, n*m + n + m and d*d + d. Every
    ``ValueError`` raised here (a malformed header, a payload that is not a
    whole number of 8-byte values or fits no layout, a NaN or infinite value,
    CSR arrays out of range or out of order, a bad set or operator) names
    the file.
    """
    try:
        return _read_instance(path)
    except ValueError as err:
        raise ValueError(f"instance file {path}: {err}") from None


def _read_instance(path):
    with open(path, "rb") as f:
        header = f.readline().decode("ascii", "replace").split()
        sparse = header[4:5] == ["csr"]
        if (len(header) != 4 + 2 * sparse or header[0] != "vif2"
                or not all(t.isdigit() for t in header[1:3] + header[5:])):
            raise ValueError("malformed header, not 'vif2 <n> <m> <set-descriptor> [csr <nnz>]'")
        n, m, descriptor = int(header[1]), int(header[2]), header[3]
        nnz = int(header[5]) if sparse else n * m  # stored entries of a game's payoff
        values = np.fromfile(f, dtype="<f8")
        stray = len(f.read())
    if stray:
        raise ValueError(f"{stray} bytes after {values.size} values; "
                         "a raw payload is a whole number of 8-byte values")
    if sparse:  # indptr and indices come first, as int64
        if values.size != 2 * (n + nnz) + m + 1:
            raise ValueError(f"a csr payload of {nnz} entries for n={n}, m={m} has "
                             f"{2 * (n + nnz) + m + 1} values, not {values.size}")
        index, values = values[:n + 1 + nnz].view("<i8"), values[n + 1 + nnz:]
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite value among the {values.size} values")
    feasible = sets.from_descriptor(descriptor)
    if sparse:
        if index[n] != nnz:
            raise ValueError(f"indptr ends at {index[n]}, not at the {nnz} stored entries")
        A = sp.csr_matrix((values[:nnz], index[n + 1:], index[:n + 1]), shape=(n, m))
        A.check_format(full_check=True)
    elif values.size == nnz + n + m:
        A = values[:nnz].reshape(n, m)
    elif n == m and values.size == n * n + n:
        return AffineVI(values[:n * n].reshape(n, n), values[n * n:], feasible)
    else:
        raise ValueError(f"value count {values.size} matches neither layout for n={n}, m={m}: "
                         f"a game has {n * m + n + m} values, an affine instance {n * n + n}")
    if not isinstance(feasible, sets.Product) or len(feasible.parts) != 2:
        raise ValueError("bilinear layout needs a primal*dual set descriptor")
    return AffineVI.bilinear(A, values[nnz:nnz + n], values[nnz + n:],
                             primal_set=feasible.parts[0], dual_set=feasible.parts[1])
