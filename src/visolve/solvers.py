"""The iterative algorithms behind one stepping interface.

Solvers expose ``step() -> StepResult``, and every solver tracks its
cumulative cost in sampled-evaluation units.
"""

from __future__ import annotations

import contextlib
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .averaging import AveragingAccumulator
from .metrics import AVERAGE_COLUMNS, GapTrace, duality_gap_at, natural_residual, dist_theta
from .oracles import MatrixGameOracle, SnapshotCache, default_components, dense_estimate
from .rng import StableRng
from .sets import NonFiniteInput

StepResult = namedtuple("StepResult", ["iterate", "F"], defaults=[None])
StepResult.__doc__ = """The one point a step pushes to the averages (its half-step
iterate in the extragradient family, its epoch's mean of them for
``dl-svrg-eg``, the played strategies in the regret and mirror methods), and
F there when the step has it, None otherwise (see :class:`_SolverBase`)."""


class NumericalDivergence(RuntimeError):
    """Raised when an iterate or operator value turns non-finite. Raised
    through :func:`run`, its ``trace`` is the GapTrace of the rows recorded
    before it, or None when they fail GapTrace's checks."""

    def __init__(self, algorithm, iteration, seed):
        super().__init__(f"non-finite value in {algorithm} at iteration {iteration} "
                         f"of seed {seed}")
        self.algorithm = algorithm
        self.iteration = iteration
        self.seed = seed
        self.trace = None


@dataclass(frozen=True)
class SvrgParams:
    """Parameters of the variance-reduced extragradient solvers.

    The step size tau = gamma * sqrt(1 - alpha) / L is the theoretically safe
    step; make_solver scales it. L is the mean-square Lipschitz constant of
    the column-sampled oracle: the Frobenius norm of A for a game, of M for a
    plain affine VI. K is the inner-loop length of the double-loop variant.
    """

    p: float
    alpha: float
    gamma: float
    L: float
    K: int | None = None

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError("snapshot probability p must lie in (0, 1]")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not 0.0 < self.L < np.inf:  # NaN too
            raise ValueError("L must be positive and finite")
        if self.K is not None and self.K < 1:
            raise ValueError("inner length K must be at least 1")

    @property
    def tau(self):
        return self.scaled_tau(1.0)

    def scaled_tau(self, tau_scale):
        """tau_scale * gamma * sqrt(1 - alpha) / L, multiplied in that order."""
        return tau_scale * self.gamma * np.sqrt(1.0 - self.alpha) / self.L

    @classmethod
    def suggested(cls, N, L, p=None, alpha=None, gamma=None):
        """p = 2/N, alpha = 1 - 2/N, K = N/2 (clamped to valid ranges), gamma = 0.99."""
        if L == 0.0:
            raise ValueError("svrg-eg and dl-svrg-eg cannot run on a zero operator: their "
                             "suggested L is ||A||_F (||M||_F for a plain VI), which is 0")
        N = int(N)
        p = min(1.0, 2.0 / N) if p is None else p
        alpha = max(0.0, 1.0 - 2.0 / N) if alpha is None else alpha
        gamma = 0.99 if gamma is None else gamma
        return cls(p=p, alpha=alpha, gamma=gamma, L=L, K=max(1, N // 2))


class _SolverBase:
    """State and checks every solver shares.

    ``N`` is the price of one full operator evaluation in sampled-evaluation
    units; each ``step`` adds its own closed-form charge to ``evals``.
    ``requires`` names what the instance must offer, or None. ``draws`` is
    False for a solver that never draws from its ``rng``: from the set's
    center, every seed retraces its iterates bit for bit. ``options`` names
    the :func:`make_solver` options it reads (without ``tau_scale`` it takes
    no step, and ``tau`` is None); ``step_over_norm`` times the inverse
    spectral norm is its baseline step, which is 1 when it is None.
    A solver whose steps get F at the point they push, from an operator
    call or from the products with A and A' they make anyway, returns it in
    every ``StepResult.F``; the others return None at every step. Every
    deterministic solver returns F, and keeps F at its current iterate as
    ``F_z``, or None until a step or :meth:`operator_at_z` computes it; the
    variance-reduced ones never return F. Every tagged class defines its own
    ``step``, so a step of each algorithm can be told apart where the method
    is looked up (perfbench traces it there).
    """

    name = "?"
    requires = None
    draws = True
    options = ("stepsize", "tau_scale")
    step_over_norm = None
    F_z = None

    def __init__(self, problem, N, seed, z0, tau):
        reason = unmet_requirement(problem, self.name)
        if reason is not None:
            raise ValueError(reason)
        self.problem = problem
        self.N = int(N)
        self.seed = seed
        self.tau = float(tau) if "tau_scale" in self.options else None
        self.rng = StableRng(seed)
        start = problem.set.center() if z0 is None else np.asarray(z0, dtype=np.float64)
        self.z = problem.set.project(start)
        self._guess = problem.set.support_guess(self.z)
        self.evals = 0
        self.iteration = 0

    @property
    def theta(self):
        return 1.0

    @property
    def w_point(self):
        return self.z

    def operator_at_z(self):
        """F at the current iterate: the value the solver holds, or a fresh
        one that it keeps for its next step."""
        if self.F_z is None:
            self.F_z = self.problem.operator(self.z)
        return self.F_z

    def _finite(self, v):
        if not np.all(np.isfinite(v)):
            raise NumericalDivergence(self.name, self.iteration, self.seed)
        return v

    def _proj(self, v, guess, feasible=None):
        """Projection onto the problem's set, or onto the given part of it.
        ``guess`` is the solver's record of the support of the last point
        that this projection returned (the set's ``support_guess`` of its
        starting point before the first), which the set tries first and
        then updates; it only speeds the projection up. The set's own
        finiteness scan is the only one: a non-finite input becomes
        NumericalDivergence."""
        try:
            return (self.problem.set if feasible is None else feasible).project(v, guess)
        except NonFiniteInput:
            raise NumericalDivergence(self.name, self.iteration, self.seed) from None

    def step(self):
        raise NotImplementedError


class _AnchoredExtragradient(_SolverBase):
    """The core both variance-reduced solvers share: the sampled oracle, the
    snapshot w with its cached full operator, and one anchored step.

    The step anchors zbar = alpha z + (1 - alpha) w, takes the half step
    with the cached F(w) (already paid for), forms the variance-reduced
    estimate at the half point on one fresh sample and takes the full step
    from zbar (Alacaoglu & Malitsky 2022).
    """

    options = ("params", "tau_scale")

    def __init__(self, problem, N, seed, z0, tau, params):
        super().__init__(problem, N, seed, z0, tau)
        self.params = params
        self.oracle = MatrixGameOracle(problem)
        self._snapshot(self.z)
        self.evals += self.N  # full operator at the initial snapshot

    @property
    def w_point(self):
        return self.cache.w

    def _snapshot(self, w):
        """Move the snapshot to w, with the two products of w and F(w) that
        every step until the next refresh uses."""
        self.cache = SnapshotCache.at(self.problem, w)
        self._w_part = (1.0 - self.params.alpha) * self.cache.w
        self._w_step = self.tau * self.cache.Fw

    def _anchored_step(self):
        """One anchored extragradient step; returns the half-step iterate.

        The full step's input zbar - tau * fhat differs from the half
        step's, v = zbar - tau * F(w), only at the entries of the estimate
        that differ from F(w) (:meth:`MatrixGameOracle.vr_estimate`). On a
        set that ``reprojects_locally`` the step writes those entries into v
        by the same expression, so every entry of v holds the bits of
        zbar - tau * fhat, and projects again only the blocks that hold one
        of them, from the half-step iterate. Any other set projects the whole
        input."""
        zbar = self.params.alpha * self.z
        zbar += self._w_part
        v = zbar - self._w_step
        z_half = self._proj(v, self._guess)
        sample = self.oracle.draw(self.rng)
        entries = self.oracle.vr_estimate(self.cache, sample, z_half)
        if self.problem.set.reprojects_locally:
            for _, positions, fhat in entries:
                v[positions] = zbar[positions] - self.tau * fhat
            self.z = self._reproject(v, z_half, entries)
        else:
            self.z = self._proj(zbar - self.tau * dense_estimate(self.cache, entries), self._guess)
        self.iteration += 1
        return z_half

    def _reproject(self, v, base, entries):
        """_proj of v, from base, the projection of a vector that equals v
        outside the entries: a copy of base with the blocks that hold them
        projected again (:meth:`FeasibleSet.reproject`)."""
        x = base.copy()
        try:
            for rows, positions, _ in entries:
                self.problem.set.reproject(v, x, rows, positions)
        except NonFiniteInput:
            raise NumericalDivergence(self.name, self.iteration, self.seed) from None
        return x


class LooplessSvrgEG(_AnchoredExtragradient):
    """Variance-reduced extragradient with Bernoulli snapshot refreshes: one
    anchored step, then the snapshot moves to the new iterate with
    probability p. The snapshot coin is drawn after the sample index so runs
    are reproducible. A step costs 2, plus N when the snapshot refreshes."""

    name = "svrg-eg"

    @property
    def theta(self):
        a, p = self.params.alpha, self.params.p
        return a / (a + (1.0 - a) / p)

    def step(self):
        z_half = self._anchored_step()
        updated = bool(self.rng.uniform() < self.params.p)
        if updated:
            self._snapshot(self.z)
        self.evals += 2 + (self.N if updated else 0)
        return StepResult(z_half)


class DoubleLoopSvrgEG(_AnchoredExtragradient):
    """Epoch-structured variance reduction: K inner anchored steps against a
    fixed snapshot, then the snapshot moves to the average of the K inner
    iterates and the full operator is recomputed there. An epoch costs
    N + 2K and pushes the mean of its K half-step iterates: epoch s is the
    s-th push, so each of them is weighted by s^q."""

    name = "dl-svrg-eg"

    def __init__(self, problem, N, seed, z0, tau, params):
        if params.K is None:
            raise ValueError("double-loop solver needs the inner length K")
        super().__init__(problem, N, seed, z0, tau, params)

    @property
    def theta(self):
        a, K = self.params.alpha, self.params.K
        return a / (a + K * (1.0 - a))

    def step(self):
        K = self.params.K
        half_sum = np.zeros_like(self.z)
        inner_sum = np.zeros_like(self.z)
        for _ in range(K):
            half_sum += self._anchored_step()
            inner_sum += self.z
        self._snapshot(inner_sum / K)
        self.evals += self.N + 2 * K
        return StepResult(half_sum / K)


class Extragradient(_SolverBase):
    """Two projected steps per iteration with the fresh full operator; an
    iteration costs 2N. The half step reads F(z) from ``F_z`` when a
    checkpoint has computed it."""

    name = "eg"
    draws = False
    step_over_norm = 0.99

    def step(self):
        z_half = self._proj(self.z - self.tau * self.operator_at_z(), self._guess)
        F_half = self.problem.operator(z_half)
        self.z = self._proj(self.z - self.tau * F_half, self._guess)
        self.F_z = None
        self.evals += 2 * self.N
        self.iteration += 1
        return StepResult(z_half, F_half)


def _block_slices(feasible):
    """Slices of the simplex blocks of a product of simplexes."""
    stops = np.cumsum(feasible.simplex_blocks).tolist()
    return [slice(stop - d, stop) for d, stop in zip(feasible.simplex_blocks, stops)]


_Requirement = namedtuple("_Requirement", ["text", "holds"])

_BILINEAR = _Requirement("a bilinear saddle-point structure",
                         lambda problem: problem.structure is not None)
_SIMPLEX_STRATEGIES = _Requirement(
    "simplex strategy sets",
    lambda problem: problem.structure is not None and problem.set.simplex_blocks is not None)


class PrimalDual(_SolverBase):
    """Primal-dual splitting with primal extrapolation parameter 1 and equal
    step sizes on both sides (Chambolle & Pock 2011); an iteration costs N.

    The extrapolation is formed on A'x: the step keeps A'x of its primal
    iterate and reads A'x_bar as 2 A'x_new - A'x_old, so an iteration makes
    one product with A and one with A'. Both products are F at the new
    point up to the linear terms, which the step keeps as ``F_z``. The
    first A'x is computed by the first step."""

    name = "pda"
    requires = _BILINEAR
    draws = False
    step_over_norm = 0.99

    def __init__(self, problem, N, seed, z0, tau):
        super().__init__(problem, N, seed, z0, tau)
        self.primal_set, self.dual_set = problem.set.parts
        self.x, self.y = (b.copy() for b in problem.split(self.z))
        self._x_guess = self.primal_set.support_guess(self.x)
        self._y_guess = self.dual_set.support_guess(self.y)
        self.ATx = self.ATx_bar = None

    def step(self):
        s = self.problem.structure
        if self.ATx is None:
            self.ATx = self.ATx_bar = s.AT @ self.x
        self.y = self._proj(self.y + self.tau * (self.ATx_bar + s.by), self._y_guess,
                            self.dual_set)
        F_x = s.A @ self.y + s.bx
        self.x = self._proj(self.x - self.tau * F_x, self._x_guess, self.primal_set)
        ATx = s.AT @ self.x
        self.ATx_bar = 2.0 * ATx - self.ATx
        self.ATx = ATx
        self.z = np.concatenate([self.x, self.y])
        self.F_z = np.concatenate([F_x, -(ATx + s.by)])
        self.evals += self.N
        self.iteration += 1
        return StepResult(self.z, self.F_z)


class _OptimisticMirrorDescent(_SolverBase):
    """Optimistic mirror descent with one operator evaluation per iteration:
    the played point uses the previous operator value as prediction, the
    ledger point uses the fresh one, F at the played point, which it keeps
    as ``F_z``. Subclasses supply the mirror step ``_mirror(base, g)``. The
    first prediction costs N, and so does each iteration."""

    draws = False

    def __init__(self, problem, N, seed, z0, tau):
        super().__init__(problem, N, seed, z0, tau)
        self.ledger = self.z.copy()
        self.F_z = problem.operator(self.z)
        self.evals += self.N  # prediction for the first step

    def _optimistic_step(self):
        self.z = self._mirror(self.ledger, self.F_z)
        self.F_z = self.problem.operator(self.z)
        self.ledger = self._mirror(self.ledger, self.F_z)
        self.evals += self.N
        self.iteration += 1
        return StepResult(self.z.copy(), self.F_z)


class OptimisticMDL2(_OptimisticMirrorDescent):
    """Optimistic mirror descent in the Euclidean geometry."""

    name = "oomd-l2"
    step_over_norm = 0.5

    def _mirror(self, base, g):
        return self._proj(base - self.tau * g, self._guess)

    def step(self):
        return self._optimistic_step()


class OptimisticMDEntropy(_OptimisticMirrorDescent):
    """Optimistic mirror descent with the entropy mirror map on every
    simplex block (multiplicative updates). Strategies are floored at
    1e-300 before logarithms so boundary points never produce -inf."""

    name = "oomd-entropy"
    requires = _SIMPLEX_STRATEGIES

    @cached_property
    def blocks(self):
        return _block_slices(self.problem.set)

    def _mirror(self, base, g):
        out = np.empty_like(base)
        for sl in self.blocks:
            u = np.log(np.maximum(base[sl], 1e-300)) - self.tau * g[sl]
            u -= u.max()
            e = np.exp(u)
            out[sl] = e / e.sum()
        return self._finite(out)

    def step(self):
        return self._optimistic_step()


class RegretMatchingPlus(_SolverBase):
    """Regret matching with nonnegative clipped regrets and alternation:
    the maximizer responds to the already-updated minimizer strategy
    (Tammelin 2014). A block with zero accumulated regret keeps its current
    strategy. An iteration costs N.

    The maximizer's gains are -F_y at the played point, and the minimizer's
    losses of the next step, A y + bx, are its F_x: the step computes them
    at its end, keeps both as ``F_z`` and starts the next step from F_x.
    The first losses are computed by the first step."""

    name = "rm+"
    requires = _SIMPLEX_STRATEGIES
    draws = False
    options = ()

    def __init__(self, problem, N, seed, z0, tau):
        super().__init__(problem, N, seed, z0, tau)
        n = problem.structure.primal_dim
        blocks = _block_slices(problem.set)
        self.primal_blocks = [sl for sl in blocks if sl.stop <= n]
        self.dual_blocks = [sl for sl in blocks if sl.stop > n]
        self.regrets = np.zeros(problem.dim)

    def _update_block(self, sl, instant):
        R = self.regrets[sl]
        np.maximum(R + instant, 0.0, out=R)
        total = R.sum()
        if total > 0.0:
            self.z[sl] = R / total

    def step(self):
        s = self.problem.structure
        n = s.primal_dim
        loss_x = self._finite(s.A @ self.z[n:] + s.bx if self.F_z is None else self.F_z[:n])
        for sl in self.primal_blocks:
            self._update_block(sl, float(self.z[sl] @ loss_x[sl]) - loss_x[sl])
        gain_y = s.AT @ self.z[:n] + s.by
        for sl in self.dual_blocks:
            local = gain_y[sl.start - n:sl.stop - n]
            self._update_block(sl, local - float(self.z[sl] @ local))
        self.F_z = np.concatenate([s.A @ self.z[n:] + s.bx, -gain_y])
        self.evals += self.N
        self.iteration += 1
        return StepResult(self.z.copy(), self.F_z)


_SOLVERS = {cls.name: cls for cls in (LooplessSvrgEG, DoubleLoopSvrgEG, Extragradient,
                                      PrimalDual, OptimisticMDL2, OptimisticMDEntropy,
                                      RegretMatchingPlus)}
ALGORITHMS = tuple(_SOLVERS)
VARIANCE_REDUCED = tuple(tag for tag, cls in _SOLVERS.items() if "params" in cls.options)
DETERMINISTIC = tuple(tag for tag, cls in _SOLVERS.items() if not cls.draws)
# The algorithms with a step size for tau_scale to multiply; rm+ takes no step.
STEP_SIZED = tuple(tag for tag, cls in _SOLVERS.items() if "tau_scale" in cls.options)


def unmet_requirement(problem, algorithm):
    """Why the algorithm cannot run on the instance, or None when it can."""
    if algorithm not in _SOLVERS:
        return f"unknown algorithm {algorithm!r} (choose from {', '.join(ALGORITHMS)})"
    need = _SOLVERS[algorithm].requires
    if need is None or need.holds(problem):
        return None
    return (f"{algorithm} is not applicable: it requires {need.text}, "
            f"but the instance domain is {problem.set.descriptor()}")


def applicable(problem, algorithm):
    """Whether the algorithm can run on the instance's feasible sets."""
    return unmet_requirement(problem, algorithm) is None


def setting_errors(problem, algorithms, tau_scale, budget_evals=None, eval_every=None, *,
                   given=None):
    """One message per rule the settings break. ``given`` maps each option of
    :func:`make_solver` to None when it was not given (a tau_scale of 1 is
    not); without it, as in ``run`` and the CLI, every algorithm takes its
    baseline step. The budget and cadence rules apply when a budget is given."""
    given = {} if given is None else given
    errors = []
    for algorithm in dict.fromkeys(algorithms):
        if (reason := unmet_requirement(problem, algorithm)) is not None:
            errors.append(reason)
            continue
        cls = _SOLVERS[algorithm]
        if unused := [option for option, value in given.items()  # every solver reads cost_N
                      if value is not None and option not in ("cost_N", *cls.options)]:
            errors.append(f"{algorithm} does not use {', '.join(unused)}")
        if (cls.step_over_norm is not None and given.get("stepsize") is None
                and problem.spectral_norm() == 0.0):
            errors.append(f"{algorithm} cannot run on a zero operator: its baseline step is "
                          f"{cls.step_over_norm} over the spectral norm, which is 0")
    for option, value in (("tau_scale", tau_scale), ("stepsize", given.get("stepsize"))):
        if value is not None and not 0.0 < value < np.inf:  # NaN too
            errors.append(f"{option} must be positive and finite, got {value}")
    cost_N = given.get("cost_N")
    if cost_N is not None and not (1 <= cost_N < np.inf and float(cost_N).is_integer()):
        errors.append(f"N (cost_N) must be a finite integer of at least 1, got {cost_N}")
    if budget_evals is not None:
        N = default_components(problem)
        if budget_evals < N:
            errors.append(f"budget {budget_evals} is below one full evaluation ({N})")
        if eval_every is not None and not 1 <= eval_every <= budget_evals:
            errors.append(f"evaluation cadence {eval_every} must lie between 1 and the budget "
                          f"{budget_evals}")
    return errors


def make_solver(problem, algorithm, seed=0, *, params=None, tau_scale=1.0,
                stepsize=None, cost_N=None, z0=None):
    """Build a solver with the suggested parameters of its algorithm.

    Baseline step sizes: 0.99/||A||_2 for the extragradient and primal-dual
    solvers, 0.5/||A||_2 for Euclidean optimistic mirror descent, 1 for the
    entropy variant; tau_scale multiplies every step, given or baseline.
    The settings must pass :func:`setting_errors`, which rejects an option,
    or a tau_scale other than 1, that the algorithm's ``options`` omit.
    """
    given = {"params": params, "stepsize": stepsize, "tau_scale": tau_scale != 1.0 or None,
             "cost_N": cost_N}
    if errors := setting_errors(problem, [algorithm], tau_scale, given=given):
        raise ValueError("; ".join(errors))
    N = default_components(problem) if cost_N is None else int(cost_N)
    cls = _SOLVERS[algorithm]
    if "params" in cls.options:
        params = SvrgParams.suggested(N, problem.lipschitz_bound()) if params is None else params
        return cls(problem, N, seed, z0, params.scaled_tau(tau_scale), params)
    if stepsize is None:
        stepsize = (1.0 if cls.step_over_norm is None
                    else cls.step_over_norm / problem.spectral_norm())
    return cls(problem, N, seed, z0, tau_scale * stepsize)


def checkpoints(solver, budget_evals, eval_every, known=None):
    """Step the solver at least once and until its cumulative charge reaches
    the budget, and yield a row (evals, gap_last, gap_uniform, gap_linear,
    gap_quadratic, and dist_theta when the solution set is ``known``) at the
    first step whose charge meets each multiple of the cadence, and at the
    step that meets the budget; ``evals`` is the actual cumulative charge.

    Each gap is the measure, never charged, of the last iterate or of a
    running average of the pushed points (the last iterate stands in while
    an average is undefined): the closed-form duality gap of a bilinear
    instance, otherwise the proximal residual at the solver's own step.
    Where the steps return F, each average is measured with the same
    average of the returned values (F is affine, so it equals F at the
    average up to roundoff), and the last iterate with the F the solver
    holds there; otherwise each measure evaluates F at its point.
    """
    problem = solver.problem
    if problem.structure is not None:
        measure = lambda z, F: duality_gap_at(problem, z, F)
    else:
        measure = lambda z, F: natural_residual(problem, z, solver.tau, F)
    averages = [(AveragingAccumulator(q), AveragingAccumulator(q)) for q in AVERAGE_COLUMNS]
    next_mark = eval_every
    while True:
        iterate, F = solver.step()
        for z_avg, F_avg in averages:
            z_avg.push(iterate)
            if F is not None:
                F_avg.push(F)
        if solver.evals < min(next_mark, budget_evals):
            continue
        row = [solver.evals, measure(solver.z, None if F is None else solver.operator_at_z())]
        for z_avg, F_avg in averages:
            avg = z_avg.current()
            row.append(row[1] if avg is None else measure(avg, F_avg.current()))
        if known is not None:
            row.append(dist_theta(known, solver.z, solver.w_point, solver.theta))
        yield row
        if solver.evals >= budget_evals:
            return
        next_mark = eval_every * (solver.evals // eval_every + 1)


def run(problem, algorithm, budget_evals, seed, eval_every, *, params=None,
        tau_scale=1.0, known=None, stop_when_gap_below=None):
    """The GapTrace of the :func:`checkpoints` of a solver from
    :func:`make_solver`, up to the budget or to the first row whose
    last-iterate measure reaches ``stop_when_gap_below``. The settings must
    pass :func:`setting_errors`. A NumericalDivergence keeps the rows
    recorded before it as its ``trace``.
    """
    budget_evals = int(budget_evals)
    eval_every = int(eval_every)
    if errors := setting_errors(problem, [algorithm], tau_scale, budget_evals, eval_every):
        raise ValueError("; ".join(errors))
    solver = make_solver(problem, algorithm, seed, params=params, tau_scale=tau_scale)
    rows = []
    width = 2 + len(AVERAGE_COLUMNS) + (known is not None)
    trace = lambda: GapTrace(*np.reshape(rows, (-1, width)).T,
                             meta={"algorithm": algorithm, "seed": seed, "budget": budget_evals,
                                   "eval_every": eval_every, "N": solver.N})
    try:
        for row in checkpoints(solver, budget_evals, eval_every, known):
            rows.append(row)
            if stop_when_gap_below is not None and row[1] <= stop_when_gap_below:
                break
    except NumericalDivergence as err:
        with contextlib.suppress(ValueError):  # rows that fail GapTrace's checks
            err.trace = trace()
        raise
    return trace()
