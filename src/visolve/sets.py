"""Projectable feasible sets with exact Euclidean projections.

Variants: probability simplex, box, product of simplexes, a 2-D
box-with-halfspace polytope, and concatenated products of the above. All sets
are immutable after construction and safe to share across threads.

`Simplex` is the one-block `SimplexProduct`. `simplex_blocks` holds a set's
simplex block sizes when it is a product of simplexes, and None otherwise: it
is the one description of simplex blocks that solvers read.

A product of simplexes, a `SimplexProduct` or a `Product` of simplexes,
builds one `_BlockLayout` from its block sizes. The layout picks the route
once and serves its three uses: the projection, the block maxima of
`support_max` and the support guess. Equal blocks of 2 entries take a
closed form on the two columns of a (k, 2) matrix; all others, equal
blocks of 1 or 3 entries included, take `simplex_project`, the sort rule
on its rows, unequal blocks padded to the longest. The sort forms the
threshold on v minus its block maximum, its first column. Projection onto
a simplex is shift-invariant, and after the shift the sums that form the
threshold lose nothing against the 1 they subtract, so the result lies on
the simplex at every finite magnitude.

The closed form runs other operations than the sort and gives its bits.
With d = b0 - b1, a = |d| and s = (a + 1) * 0.5, the sort's shifted
smaller entry is w = -a, and its threshold is -1 or q = (w - 1) / 2 = -s,
exactly, as negation and halving are exact. Its test w - q > 0 is s > a,
which holds exactly when a < 1: s misses (a + 1) / 2 by at most 2^-54,
while (a + 1) / 2 - a = (1 - a) / 2 is at least 2^-54, the two meeting
only at a = 1 - 2^-53, where a + 1 rounds up to 2; and for 1 <= a <= inf
rounding keeps s <= a. So for a < 1 the sort gives the larger entry
s = min(s, 1) and the smaller s - a = fmax(s - a, 0); for a >= 1 it gives
1 and 0, and so do min(s, 1) and fmax(s - a, 0), as s >= 1 and s - a <= 0,
or NaN at a = inf, which fmax drops. b0 is the larger entry when d >= 0,
ties and signed zeros included, where both entries get s = 0.5. Neither
form ever returns -0.0.

The sort also takes a warm start: a `SupportGuess`, the caller's record
of the support of the last point the projection returned to it. It
searches for the threshold from that support by Michelot's fixed-point
rule, without the shift. It accepts a support only when the threshold it
gives certifies it in every block (the positive set of v - theta is that
support) and the roundoff of that unshifted threshold keeps every block sum
within the feasibility tolerance; it sorts when three attempts fail, and
then leaves the support of its result in the record. The record belongs to
the caller, so the sets stay immutable.

A set whose projection takes no guess and acts on each entry, or on each
block of 2, alone has a kernel that projects again only the blocks that
hold given positions, and so ``reprojects_locally``: a `Box`, a product of
simplexes of blocks of 2 (the closed form), and a `Product` whose parts all
have one, the labeling game's set with 2 regions. When a caller holds the
projection of a vector and changes a few of its entries,
`FeasibleSet.reproject` takes their positions, those of every (positions,
values) pair of an estimate in one call, and the kernel projects again
only the blocks that hold a changed entry, in a copy of the projection: no
other entry of the projection reads a changed one. It runs the full
projection's operations on Python floats, IEEE doubles rounded as numpy
rounds them, so it gives the full projection's bits, with numpy's tie
rule: np.maximum and np.minimum return their second operand when the two
compare equal (numpy 2.4.6), so the clamp of -0.0 to [0, 1] is 0.0 and
that of 0.0 to [-1, -0.0] is -0.0, and the kernel tests u > lo and u < hi
strictly. A slice of positions, a dense column, and every set without a
kernel project the whole vector. Each part of a `Product` gets its slice
of one output, which a box and the closed form write in place.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .rng import StableRng

# Attempts of a warm projection before the sort: the guess, then the supports
# that the failed attempts found.
_WARM_ATTEMPTS = 3
# How far a block sum may miss 1 in `contains`, and so in a certified warm
# projection, whose roundoff bound count^2 (|theta| + 1) 2^-52 must stay below it.
_FEASIBILITY_TOL = 1e-9
_WARM_BOUND = _FEASIBILITY_TOL * 2.0 ** 52


class NonFiniteInput(ValueError):
    """A vector handed to :meth:`FeasibleSet.project` holds inf or NaN."""


def _finite(v):
    if not np.isfinite(v).all():
        raise NonFiniteInput("non-finite input vector")
    return v


def _check_vector(set_dim, v):
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (set_dim,):
        raise ValueError(f"dimension mismatch: expected ({set_dim},), got {v.shape}")
    return _finite(v)


class SupportGuess:
    """A caller's record of the support of the last point that a projection
    onto a product of simplexes returned to it, which
    :meth:`FeasibleSet.project` tries first and then updates in place.

    ``support`` marks the positive entries as a (blocks, longest block)
    mask whose padding is False, ``count`` holds its per-block sizes as
    floats; both are None when some block had no positive entry, and then
    the next projection sorts. ``limit`` is the largest |theta| that the
    roundoff guard of :func:`_support_projection` accepts in every block of
    the support, _WARM_BOUND / max(count)^2 - 1. Build one with
    :meth:`FeasibleSet.support_guess`.
    """

    __slots__ = ("support", "count", "limit")

    def __init__(self, support):
        self.hold(support)

    def hold(self, support, count=None):
        """Keep this support, with its per-block counts when they are known."""
        if count is None:
            count = support.sum(axis=1, dtype=np.float64)
        self.support, self.count = (support, count) if count.all() else (None, None)
        self.limit = _WARM_BOUND / max(1.0, float(count.max())) ** 2 - 1.0


def _support_projection(rows, guess):
    """Row-wise simplex projection of a (k, h) matrix on the support that
    ``guess`` holds, or None when no attempt certifies every row.

    Row b's guess is S_b, and theta_b = (sum over S_b of rows_bi - 1) / |S_b|.
    When {i : rows_bi - theta_b > 0} = S_b in every row, max(rows - theta, 0)
    sums to 1 in each row, so theta is the projection's threshold and S_b
    its support, whatever the guess was. The sum over S_b selects with
    np.where, not a product with the support, so a -inf of padding outside
    S_b adds 0, not NaN. When the check fails, the next attempt guesses the
    support that the failed one found, as Michelot's fixed-point rule for
    the threshold does (Michelot 1986), up to _WARM_ATTEMPTS attempts. A
    certified support is left in ``guess``.

    The threshold is formed on the unshifted rows, so its roundoff grows
    with |theta|, and a certified support is accepted only while that
    roundoff keeps every row sum within _FEASIBILITY_TOL of 1. With c = |S_b|,
    u = 2^-53 and x = max(rows - theta, 0), each entry of S_b is theta_b
    plus an x_i >= 0, and the x_i sum to about 1, so the entries' sizes sum
    to at most c |theta_b| + 1. Their sum errs by at most
    (c - 1) u (c |theta_b| + 1), subtracting 1 and dividing by c err by
    2 u c |theta_b| in c theta_b, and the c differences rows_bi - theta_b by
    u in all, so the row sum of x misses 1 by at most
    u (c^2 |theta_b| + c |theta_b| + c) <= 2 u c^2 (|theta_b| + 1), to first
    order in u. That bound stays below _FEASIBILITY_TOL while |theta_b| is
    below _WARM_BOUND / c^2 - 1, near 1.1e6 at c = 2 and near 3.5 at
    c = 1000. The guess keeps that limit for its largest block
    (``guess.limit``), so a hit compares only the largest |theta_b| with
    one number, which is no looser than the bound of any row; when the
    comparison fails, the call falls through to the shifted sort.
    """
    support, count = guess.support, guess.count
    if support is None:
        return None
    for attempt in range(_WARM_ATTEMPTS):
        if attempt:
            count = support.sum(axis=1, dtype=np.float64)
            if not count.all():
                return None
        theta = (np.where(support, rows, 0.0).sum(axis=1) - 1.0) / count
        shifted = rows - theta[:, None]
        found = shifted > 0.0
        if found.tobytes() == support.tobytes():    # (found == support).all(), 5x faster
            if attempt:
                guess.hold(support, count)
            # max |theta|: a Python loop is the faster up to about 16 blocks
            largest = max(map(abs, theta.tolist())) if theta.size <= 16 else np.abs(theta).max()
            return np.maximum(shifted, 0.0) if largest < guess.limit else None
        support = found
    return None


def simplex_project(rows, guess=None):
    """Row-wise Euclidean projection of a (k, h) matrix onto the unit
    simplex, O(h log h) per row by the sort-threshold rule.

    The rule runs on each row minus its maximum, the first column of the
    descending sort. There the first entry is 0 and its running sum minus 1
    is -1, so it always passes the threshold test, and threshold ties
    resolve through the cumulative rule: a row keeps the longest prefix of
    its descending sort with positive shifted mass. A row padded with -inf
    therefore never takes its threshold from the padding. That padding
    meets -inf - -inf in the running sums, and so does a row whose spread
    passes the float range, after its shift overflows to -inf; such entries
    fail the test and project to 0, so the rule runs under
    np.errstate(over="ignore", invalid="ignore") and leaves the caller's
    error state alone. With a
    :class:`SupportGuess` it first searches from the guessed support
    (:func:`_support_projection`); when that fails, and without a guess,
    the sort rule runs on every row, and the guess is set to the support of
    its result.
    """
    if guess is not None:
        hit = _support_projection(rows, guess)
        if hit is not None:
            return hit
    h = rows.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        u = -np.sort(-rows, axis=1)
        top = u[:, :1]
        u = u - top
        css = np.cumsum(u, axis=1) - 1.0
        mask = u - css / np.arange(1, h + 1) > 0
        rho = h - 1 - np.argmax(mask[:, ::-1], axis=1)
        theta = css[np.arange(rows.shape[0]), rho] / (rho + 1.0)
        x = np.maximum(rows - top - theta[:, None], 0.0)
    if guess is not None:
        guess.hold(x > 0.0)
    return x


def _project_pairs(blocks, x):
    """simplex_project of the rows of a (k, 2) matrix in closed form, with
    its bits (see the module docstring), written into the (k, 2) rows x:
    the larger entry of each row gets min(s, 1) and the other
    fmax(s - a, 0), where a = |b0 - b1| and s = (a + 1) * 0.5. A difference
    that overflows is inf, where s - a is NaN, so it runs under the
    errstate of simplex_project."""
    b0, b1 = blocks.T
    with np.errstate(over="ignore", invalid="ignore"):
        d = b0 - b1
        a = np.abs(d)
        s = (a + 1.0) * 0.5
        larger, smaller = np.minimum(s, 1.0), np.fmax(s - a, 0.0)
        first = d >= 0.0
        x[:, 0] = np.where(first, larger, smaller)
        x[:, 1] = np.where(first, smaller, larger)
    return x


class _BlockLayout:
    """The route of one product of simplexes, picked once from its block
    sizes, and its three uses. Equal blocks of 2 entries take the closed
    form (:func:`_project_pairs`), which takes no guess. All other blocks
    are the rows of one (k, h) matrix, h the longest block, for
    simplex_project with a guess. Equal blocks reshape without a copy;
    unequal ones fill the entries ``real`` marks and pad the rest of each
    row with -inf, and a guess's support with False, so the padding lies
    outside every support, projects to 0 and is dropped. The block maxima
    come from h strided columns when the blocks are equal and there are at
    least as many blocks as entries per block, and from np.maximum.reduceat
    otherwise."""

    def __init__(self, blocks):
        self.shape = k, h = len(blocks), max(blocks)
        equal = len(set(blocks)) == 1
        self.pairs = equal and h == 2
        self.strided = equal and k >= h
        self.real = None if equal else np.arange(h) < np.array(blocks)[:, None]
        self.starts = np.cumsum((0, *blocks[:-1]))

    def rows(self, v, fill):
        """v as the (k, h) rows, padded with fill."""
        if self.real is None:
            return v.reshape(self.shape)
        rows = np.full(self.shape, fill)
        rows[self.real] = v
        return rows

    def project(self, v, guess, out=None):
        """The projection of v, which the closed form writes into out when
        one is given; a guess is read and updated on the rows only."""
        if self.pairs:
            x = np.empty(v.shape) if out is None else out
            _project_pairs(v.reshape(self.shape), x.reshape(self.shape))
            return x
        x = simplex_project(self.rows(v, -np.inf), guess)
        return x.ravel() if self.real is None else x[self.real]

    def maxima(self, c):
        """Block maxima of c. The strided columns are taken from left to
        right, as np.maximum.reduceat takes them, so the bits are the same;
        far faster for many short blocks, far slower for few long ones."""
        if not self.strided:
            return np.maximum.reduceat(c, self.starts)
        h = self.shape[1]
        out = c[0::h]
        for j in range(1, h):
            out = np.maximum(out, c[j::h])
        return out

    def guess(self, x):
        """The SupportGuess of the positive entries of x, or None on the
        closed form."""
        return None if self.pairs else SupportGuess(self.rows(x, 0.0) > 0.0)


class FeasibleSet:
    """Base class; concrete sets implement projection, sampling, support."""

    dim: int
    simplex_blocks = None  # block sizes when the set is a product of simplexes
    _layout = None         # the _BlockLayout of those blocks
    _reproject_at = None   # the kernel (v, x, positions) of reproject, where there is one

    def project(self, v, guess=None):
        """Euclidean projection of v onto the set.

        ``guess`` is an optional :class:`SupportGuess` from
        :meth:`support_guess`, which the caller keeps for this set. A
        product of simplexes, one block included, searches for the
        projection's threshold from the guessed support and skips the sort
        when an attempt certifies it (:func:`_support_projection`), unless
        its blocks all have 2 entries and take the closed form
        (:class:`_BlockLayout`); it then leaves the support of the point it
        returns in the guess, so a caller that hands the same guess to every
        call guesses the support of the last point returned. A product with
        other parts takes a tuple of its parts' guesses and hands each part
        its own. Every other set ignores the guess. It changes only the speed, never the result
        beyond roundoff: a guess that no attempt certifies gives the bits
        of a call without one.
        """
        v = _check_vector(self.dim, v)
        return self._project(v, guess)

    @property
    def reprojects_locally(self):
        """Whether :meth:`reproject` has a kernel here that projects again
        only the blocks that hold a changed entry."""
        return self._reproject_at is not None

    def reproject(self, v, base, changed):
        """The projection of v, where base is the projection of a vector
        that equals v outside the positions ``changed``: one entry per run
        of changed entries, an index array in any order or a slice, as the
        positions of the (positions, values) pairs of an estimate. On a set
        that ``reprojects_locally`` and index arrays only, it is a copy of base
        whose blocks that hold a changed position are projected again, and
        only those entries are checked for finiteness (the module docstring
        says why the bits are those of :meth:`project`). A slice, a dense
        column, changes every entry, and then, as on every other set, it is
        ``project(v)``. base is left as it was."""
        if self._reproject_at is None or slice in map(type, changed):
            return self.project(v)
        x = base.copy()
        for positions in changed:
            self._reproject_at(v, x, positions.tolist())
        return x

    def support_guess(self, x):
        """A :class:`SupportGuess` of the positive entries of the point x,
        for :meth:`project`, or None when the set's projection takes no
        guess: a set that is not a product of simplexes, or equal blocks of
        2 (a :class:`Product` with other parts returns its parts' guesses)."""
        if self._layout is None:
            return None
        return self._layout.guess(np.asarray(x, dtype=np.float64))

    def contains(self, v, tol=_FEASIBILITY_TOL):
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dim,):
            return False
        return self._contains(v, tol)

    def sample(self, rng: StableRng, n):
        """n points drawn from the set (uniform, or near-uniform for products)."""
        raise NotImplementedError

    def center(self):
        raise NotImplementedError

    def support_max(self, c):
        """max over the set of <c, x>, in closed form where available."""
        raise NotImplementedError(f"no closed-form support function for {type(self).__name__}")

    def descriptor(self):
        """Token used in the instance file header; parse with from_descriptor."""
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self.descriptor() == other.descriptor()

    def __repr__(self):
        return f"{type(self).__name__}({self.descriptor()})"


class SimplexProduct(FeasibleSet):
    """Concatenation of probability simplexes with the given block sizes."""

    def __init__(self, block_dims):
        dims = tuple(int(d) for d in block_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("simplex dimensions must be positive")
        self.simplex_blocks = dims
        self._dims = np.array(dims)
        self.dim = sum(dims)
        self._offsets = np.concatenate([[0], np.cumsum(self._dims)])
        self._layout = _BlockLayout(dims)
        if not self._layout.pairs:
            self._reproject_at = None   # only equal blocks of 2 have a kernel

    def _project(self, v, guess=None, out=None):
        return self._layout.project(v, guess, out)

    def _reproject_at(self, v, x, positions):
        """The kernel of equal blocks of 2: project into x again, by the
        closed form on Python floats, each block of 2 that holds one of the
        positions (see :meth:`FeasibleSet.reproject`)."""
        for i in {p - p % 2 for p in positions}:
            b0, b1 = v.item(i), v.item(i + 1)
            if not (math.isfinite(b0) and math.isfinite(b1)):
                raise NonFiniteInput("non-finite input vector")
            d = b0 - b1
            a = abs(d)
            s = (a + 1.0) * 0.5
            larger = s if s < 1.0 else 1.0
            smaller = s - a if s - a > 0.0 else 0.0     # NaN at a = inf gives 0.0
            x[i], x[i + 1] = (larger, smaller) if d >= 0.0 else (smaller, larger)

    def _contains(self, v, tol):
        if np.any(v < -tol):
            return False
        sums = np.add.reduceat(v, self._offsets[:-1])
        return bool(np.all(np.abs(sums - 1.0) <= tol))

    def sample(self, rng, n):
        e = -np.log1p(-rng.uniform(n * self.dim)).reshape(n, self.dim)
        for block in np.split(e, self._offsets[1:-1], axis=1):
            block /= block.sum(axis=1, keepdims=True)
        return e

    def center(self):
        return np.repeat(1.0 / self._dims, self._dims)

    def support_max(self, c):
        """The sum of the block maxima of c, which the layout takes
        (:meth:`_BlockLayout.maxima`); the sum runs left to right, as a loop
        from 0.0 adds, and + 0.0 makes a sum of -0.0s +0.0."""
        return float(np.cumsum(self._layout.maxima(np.asarray(c)))[-1] + 0.0)

    def descriptor(self):
        dims = self.simplex_blocks
        if len(set(dims)) == 1:
            return f"simplexprod:{dims[0]}x{len(dims)}"
        return "simplexprod:" + ",".join(str(d) for d in dims)


class Simplex(SimplexProduct):
    """Probability simplex {x >= 0, sum x = 1}: the one-block SimplexProduct."""

    def __init__(self, dim):
        super().__init__([dim])

    def descriptor(self):
        return f"simplex:{self.dim}"


class Box(FeasibleSet):
    """Axis-aligned box {lo <= x <= hi}; scalar bounds broadcast."""

    def __init__(self, lo, hi, dim=None):
        if np.isscalar(lo) and np.isscalar(hi):
            if dim is None:
                raise ValueError("scalar bounds need an explicit dimension")
            lo = np.full(int(dim), float(lo))
            hi = np.full(int(dim), float(hi))
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("bounds must be 1-D vectors of equal length")
        if np.any(lo > hi):
            raise ValueError("box requires lo <= hi componentwise")
        self.lo, self.hi = lo, hi
        self.dim = lo.size

    def _project(self, v, guess=None, out=None):
        x = np.maximum(v, self.lo, out=out)
        return np.minimum(x, self.hi, out=x)

    def _reproject_at(self, v, x, positions):
        """Clamp each position again on Python floats, with the tie rule of
        np.maximum and np.minimum, which return their second operand."""
        lo, hi = self.lo, self.hi
        for i in positions:
            u, low, high = v.item(i), lo.item(i), hi.item(i)
            if not math.isfinite(u):
                raise NonFiniteInput("non-finite input vector")
            u = u if u > low else low
            x[i] = u if u < high else high

    def _contains(self, v, tol):
        return bool(np.all(v >= self.lo - tol) and np.all(v <= self.hi + tol))

    def sample(self, rng, n):
        u = rng.uniform(n * self.dim).reshape(n, self.dim)
        return self.lo + u * (self.hi - self.lo)

    def center(self):
        return 0.5 * (self.lo + self.hi)

    def support_max(self, c):
        return float(np.sum(np.maximum(self.lo * c, self.hi * c)))

    def descriptor(self):
        if np.all(self.lo == self.lo[0]) and np.all(self.hi == self.hi[0]):
            return f"box:{self.dim}:{self.lo[0]:.17g}:{self.hi[0]:.17g}"
        los = ",".join(f"{x:.17g}" for x in self.lo)
        his = ",".join(f"{x:.17g}" for x in self.hi)
        return f"boxv:{los}:{his}"


class HalfspaceBox(FeasibleSet):
    """2-D polytope {lo <= x <= hi, <a, x> <= b}.

    Projection is closed form. When the box projection of v meets the
    halfspace, it is the projection; otherwise the halfspace is active, and
    the projection is the point nearest v on the segment that the box cuts
    from the line <a, x> = b: v's line parameter clamped to the segment's
    ends. No squared distance is formed and b is never subtracted from
    <a, v>, so every finite v projects without overflow or cancellation.
    Emptiness is caught at construction by projecting the box midpoint: an
    empty set leaves an empty segment.
    """

    def __init__(self, lo, hi, a, b):
        if np.isscalar(lo):
            lo = np.full(2, float(lo))
        if np.isscalar(hi):
            hi = np.full(2, float(hi))
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)
        self.a = np.asarray(a, dtype=np.float64)
        self.b = float(b)
        if self.lo.shape != (2,) or self.hi.shape != (2,) or self.a.shape != (2,):
            raise ValueError("this polytope variant is 2-D only")
        if np.any(self.lo > self.hi):
            raise ValueError("box requires lo <= hi componentwise")
        if not self.a @ self.a > 0.0:
            raise ValueError("halfspace normal must be nonzero")
        self.dim = 2
        # The line <a, x> = b is p + t d. No entry of d exceeds 1 in size, so
        # <v, d> is never inf - inf; the box cuts t to [t_lo, t_hi].
        self._p = (self.b / (self.a @ self.a)) * self.a
        self._d = np.array([-self.a[1], self.a[0]]) / np.abs(self.a).max()
        t_lo, t_hi = -np.inf, np.inf
        for lo_i, hi_i, p_i, d_i in zip(self.lo, self.hi, self._p, self._d):
            if d_i != 0.0:
                ends = sorted(((lo_i - p_i) / d_i, (hi_i - p_i) / d_i))
                t_lo, t_hi = max(t_lo, ends[0]), min(t_hi, ends[1])
            elif not lo_i <= p_i <= hi_i:
                t_lo = np.inf  # the line misses the box
        self._t_ends = (t_lo, t_hi)
        self.project(0.5 * (self.lo + self.hi))  # raises when the set is empty

    def _project(self, v, guess=None, out=None):
        x = np.clip(v, self.lo, self.hi)
        if self.a @ x <= self.b:
            return x
        t_lo, t_hi = self._t_ends
        if t_lo > t_hi:
            raise ValueError("empty feasible set: box and halfspace do not intersect")
        t = min(max((v @ self._d) / (self._d @ self._d), t_lo), t_hi)
        return np.clip(self._p + t * self._d, self.lo, self.hi)

    def _contains(self, v, tol):
        return bool(
            np.all(v >= self.lo - tol)
            and np.all(v <= self.hi + tol)
            and self.a @ v <= self.b + tol
        )

    def sample(self, rng, n):
        out = np.empty((n, 2))
        filled = 0
        while filled < n:
            batch = max(2 * (n - filled), 16)
            u = rng.uniform(2 * batch).reshape(batch, 2)
            pts = self.lo + u * (self.hi - self.lo)
            ok = pts @ self.a <= self.b
            take = min(int(ok.sum()), n - filled)
            out[filled:filled + take] = pts[ok][:take]
            filled += take
        return out

    def center(self):
        return self.project(0.5 * (self.lo + self.hi))

    def descriptor(self):
        lo, hi, a0, a1, b = (
            f"{self.lo[0]:.17g},{self.lo[1]:.17g}",
            f"{self.hi[0]:.17g},{self.hi[1]:.17g}",
            f"{self.a[0]:.17g}",
            f"{self.a[1]:.17g}",
            f"{self.b:.17g}",
        )
        return f"halfspacebox:{lo}:{hi}:{a0},{a1}:{b}"


class Product(FeasibleSet):
    """Concatenation of feasible sets along the coordinate axis."""

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise ValueError("empty product")
        self.parts = parts
        self.dim = sum(p.dim for p in parts)
        ends = list(itertools.accumulate(p.dim for p in parts))
        self._slices = [slice(a, b) for a, b in zip([0, *ends], ends)]
        blocks = [p.simplex_blocks for p in parts]
        if None not in blocks:
            self.simplex_blocks = sum(blocks, ())
            self._layout = _BlockLayout(self.simplex_blocks)
        if not all(p.reprojects_locally for p in parts):
            self._reproject_at = None   # a kernel needs one in every part

    def split(self, v):
        return [v[part] for part in self._slices]

    def _project(self, v, guess=None, out=None):
        """A product of simplexes projects through its layout. Any other
        product hands each part its slice of one output, which a box and the
        closed form for blocks of 2 write in place and every other part's
        projection is copied into, and each part its own guess from the
        tuple that :meth:`support_guess` made; the outer project has checked
        shape and finiteness for every part."""
        if self._layout is not None:
            return self._layout.project(v, guess, out)
        out = np.empty(self.dim) if out is None else out
        guesses = (None,) * len(self.parts) if guess is None else guess
        for p, b, o, g in zip(self.parts, self.split(v), self.split(out), guesses):
            x = p._project(b, g, o)
            if x is not o:
                o[...] = x
        return out

    def _reproject_at(self, v, x, positions):
        """The kernel of a product whose parts all have one: each part that
        holds a position gets the positions that lie in it, in its own
        coordinates, and its slices of v and x."""
        for p, part in zip(self.parts, self._slices):
            a, b = part.start, part.stop
            inside = [i - a for i in positions if a <= i < b]
            if inside:
                p._reproject_at(v[part], x[part], inside)

    def support_guess(self, x):
        """A product of simplexes guesses through its layout, which takes
        no guess for equal blocks of 2. Any other product guesses part by
        part: a tuple of each part's guess, or None when no part takes one,
        as on the labeling game with 2 regions."""
        if self._layout is not None:
            return super().support_guess(x)
        guesses = tuple(p.support_guess(b) for p, b in
                        zip(self.parts, self.split(np.asarray(x, dtype=np.float64))))
        return None if all(g is None for g in guesses) else guesses

    def _contains(self, v, tol):
        return all(p._contains(b, tol) for p, b in zip(self.parts, self.split(v)))

    def sample(self, rng, n):
        return np.hstack([p.sample(rng, n) for p in self.parts])

    def center(self):
        return np.concatenate([p.center() for p in self.parts])

    def support_max(self, c):
        return float(sum(p.support_max(b) for p, b in zip(self.parts, self.split(np.asarray(c)))))

    def descriptor(self):
        return "*".join(p.descriptor() for p in self.parts)


def _parse_floats(token):
    return np.array([float(t) for t in token.split(",")])


def from_descriptor(token):
    """Inverse of FeasibleSet.descriptor (products use '*' at the top level)."""
    if "*" in token:
        return Product([from_descriptor(t) for t in token.split("*")])
    kind, _, rest = token.partition(":")
    if kind == "simplex":
        return Simplex(int(rest))
    if kind == "box":
        d, lo, hi = rest.split(":")
        return Box(float(lo), float(hi), dim=int(d))
    if kind == "boxv":
        lo, hi = rest.split(":")
        return Box(_parse_floats(lo), _parse_floats(hi))
    if kind == "simplexprod":
        if "x" in rest:
            blk, count = rest.split("x")
            return SimplexProduct([int(blk)] * int(count))
        return SimplexProduct([int(t) for t in rest.split(",")])
    if kind == "halfspacebox":
        lo, hi, a, b = rest.split(":")
        return HalfspaceBox(_parse_floats(lo), _parse_floats(hi), _parse_floats(a), float(b))
    raise ValueError(f"unknown set descriptor {token!r}")
