"""The iterative algorithms behind one stepping interface.

Solvers expose ``step() -> StepResult`` where the result carries the
iterates to feed the averaging accumulators (half-step iterates for the
extragradient family, the played strategies for the regret and mirror
methods) plus an optional epoch index for epoch-weighted averaging. Every
solver tracks its cumulative cost in sampled-evaluation units.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .averaging import AveragingAccumulator
from .metrics import AVERAGE_COLUMNS, GapTrace, duality_gap_at, natural_residual, dist_theta
from .oracles import MatrixGameOracle, SnapshotCache, default_components
from .rng import StableRng
from .sets import NonFiniteInput

StepResult = namedtuple("StepResult", ["iterates", "epoch"])


class NumericalDivergence(RuntimeError):
    """Raised when an iterate or operator value turns non-finite."""

    def __init__(self, algorithm, iteration, seed):
        super().__init__(f"non-finite value in {algorithm} at iteration {iteration} "
                         f"of seed {seed}")
        self.algorithm = algorithm
        self.iteration = iteration
        self.seed = seed


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
        if self.L <= 0.0:
            raise ValueError("L must be positive")
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
    center, every seed retraces its iterates bit for bit. Every tagged
    class defines its own ``step``, so a step of each algorithm can be told
    apart where the method is looked up (perfbench traces it there).
    """

    name = "?"
    requires = None
    draws = True

    def __init__(self, problem, N, seed=0, z0=None):
        reason = unmet_requirement(problem, self.name)
        if reason is not None:
            raise ValueError(reason)
        self.problem = problem
        self.N = int(N)
        self.seed = seed
        self.rng = StableRng(seed)
        start = problem.set.center() if z0 is None else np.asarray(z0, dtype=np.float64)
        self.z = problem.set.project(start)
        self.evals = 0
        self.iteration = 0

    @property
    def theta(self):
        return 1.0

    @property
    def w_point(self):
        return self.z

    def _finite(self, v):
        if not np.all(np.isfinite(v)):
            raise NumericalDivergence(self.name, self.iteration, self.seed)
        return v

    def _proj(self, v, feasible=None, near=None):
        """Projection onto the problem's set, or onto the given part of it;
        ``near``, a point the solver holds, only speeds it up. The set's own
        finiteness scan is the only one: a non-finite input becomes
        NumericalDivergence."""
        try:
            return (self.problem.set if feasible is None else feasible).project(v, near)
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

    def __init__(self, problem, params, tau, N, seed=0, z0=None):
        super().__init__(problem, N, seed, z0)
        self.params = params
        self.tau = float(tau)
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
        """One anchored extragradient step; returns the half-step iterate."""
        zbar = self.params.alpha * self.z + self._w_part
        z_half = self._proj(zbar - self._w_step, near=self.z)
        sample = self.oracle.draw(self.rng)
        fhat = self.oracle.vr_estimate(self.cache, sample, z_half)
        self.z = self._proj(zbar - self.tau * fhat, near=z_half)
        self.iteration += 1
        return z_half


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
        return StepResult([z_half], None)


class DoubleLoopSvrgEG(_AnchoredExtragradient):
    """Epoch-structured variance reduction: K inner anchored steps against a
    fixed snapshot, then the snapshot moves to the average of the K inner
    iterates and the full operator is recomputed there. An epoch costs
    N + 2K."""

    name = "dl-svrg-eg"

    def __init__(self, problem, params, tau, N, seed=0, z0=None):
        if params.K is None:
            raise ValueError("double-loop solver needs the inner length K")
        super().__init__(problem, params, tau, N, seed, z0)
        self.epoch = 0

    @property
    def theta(self):
        a, K = self.params.alpha, self.params.K
        return a / (a + K * (1.0 - a))

    def step(self):
        K = self.params.K
        halves = []
        inner_sum = np.zeros_like(self.z)
        for _ in range(K):
            halves.append(self._anchored_step())
            inner_sum += self.z
        self._snapshot(inner_sum / K)
        self.evals += self.N + 2 * K
        self.epoch += 1
        return StepResult(halves, self.epoch - 1)


class Extragradient(_SolverBase):
    """Two projected steps per iteration with the fresh full operator; an
    iteration costs 2N."""

    name = "eg"
    draws = False

    def __init__(self, problem, tau, N, seed=0, z0=None):
        super().__init__(problem, N, seed, z0)
        self.tau = float(tau)

    def step(self):
        z_half = self._proj(self.z - self.tau * self.problem.operator(self.z), near=self.z)
        self.z = self._proj(self.z - self.tau * self.problem.operator(z_half), near=z_half)
        self.evals += 2 * self.N
        self.iteration += 1
        return StepResult([z_half], None)


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
    step sizes on both sides; an iteration costs N."""

    name = "pda"
    requires = _BILINEAR
    draws = False

    def __init__(self, problem, tau, N, seed=0, z0=None):
        super().__init__(problem, N, seed, z0)
        self.tau = float(tau)
        self.primal_set, self.dual_set = problem.set.parts
        self.x, self.y = (b.copy() for b in problem.split(self.z))
        self.x_bar = self.x.copy()

    def step(self):
        s = self.problem.structure
        self.y = self._proj(self.y + self.tau * (s.AT @ self.x_bar + s.by), self.dual_set,
                            near=self.y)
        x_new = self._proj(self.x - self.tau * (s.A @ self.y + s.bx), self.primal_set,
                           near=self.x)
        self.x_bar = 2.0 * x_new - self.x
        self.x = x_new
        self.z = np.concatenate([self.x, self.y])
        self.evals += self.N
        self.iteration += 1
        return StepResult([self.z.copy()], None)


class _OptimisticMirrorDescent(_SolverBase):
    """Optimistic mirror descent with one operator evaluation per iteration:
    the played point uses the previous operator value as prediction, the
    ledger point uses the fresh one. Subclasses supply the mirror step
    ``_mirror(base, g, near)``; ``near`` guesses the support of a Euclidean
    projection: the ledger for the played point, the point just played for
    the ledger. The first prediction costs N, and so does each iteration."""

    draws = False

    def __init__(self, problem, tau, N, seed=0, z0=None):
        super().__init__(problem, N, seed, z0)
        self.tau = float(tau)
        self.ledger = self.z.copy()
        self.g_prev = problem.operator(self.z)
        self.evals += self.N  # prediction for the first step

    def _optimistic_step(self):
        self.z = self._mirror(self.ledger, self.g_prev, near=self.ledger)
        g = self.problem.operator(self.z)
        self.ledger = self._mirror(self.ledger, g, near=self.z)
        self.g_prev = g
        self.evals += self.N
        self.iteration += 1
        return StepResult([self.z.copy()], None)


class OptimisticMDL2(_OptimisticMirrorDescent):
    """Optimistic mirror descent in the Euclidean geometry."""

    name = "oomd-l2"

    def _mirror(self, base, g, near):
        return self._proj(base - self.tau * g, near=near)

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

    def _mirror(self, base, g, near):
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
    the maximizer responds to the already-updated minimizer strategy. A
    block with zero accumulated regret keeps its current strategy. An
    iteration costs N."""

    name = "rm+"
    requires = _SIMPLEX_STRATEGIES
    draws = False

    def __init__(self, problem, N, seed=0, z0=None):
        super().__init__(problem, N, seed, z0)
        n = problem.structure.primal_dim
        blocks = _block_slices(problem.set)
        self.primal_blocks = [sl for sl in blocks if sl.stop <= n]
        self.dual_blocks = [sl for sl in blocks if sl.stop > n]
        self.regrets = {(sl.start, sl.stop): np.zeros(sl.stop - sl.start) for sl in blocks}

    def _update_block(self, sl, instant):
        R = self.regrets[(sl.start, sl.stop)]
        np.maximum(R + instant, 0.0, out=R)
        total = R.sum()
        if total > 0.0:
            self.z[sl] = R / total

    def step(self):
        s = self.problem.structure
        n = s.primal_dim
        loss_x = self._finite(s.A @ self.z[n:] + s.bx)
        for sl in self.primal_blocks:
            self._update_block(sl, float(self.z[sl] @ loss_x[sl]) - loss_x[sl])
        gain_y = s.AT @ self.z[:n] + s.by
        for sl in self.dual_blocks:
            local = gain_y[sl.start - n:sl.stop - n]
            self._update_block(sl, local - float(self.z[sl] @ local))
        self.evals += self.N
        self.iteration += 1
        return StepResult([self.z.copy()], None)


_SOLVERS = {cls.name: cls for cls in (LooplessSvrgEG, DoubleLoopSvrgEG, Extragradient,
                                      PrimalDual, OptimisticMDL2, OptimisticMDEntropy,
                                      RegretMatchingPlus)}
ALGORITHMS = tuple(_SOLVERS)
VARIANCE_REDUCED = tuple(tag for tag, cls in _SOLVERS.items()
                         if issubclass(cls, _AnchoredExtragradient))
DETERMINISTIC = tuple(tag for tag, cls in _SOLVERS.items() if not cls.draws)
# The algorithms with a step size for tau_scale to multiply; rm+ takes no step.
STEP_SIZED = tuple(tag for tag, cls in _SOLVERS.items() if cls is not RegretMatchingPlus)

# Baseline step sizes over the spectral norm of the payoff.
_STEP_OVER_NORM = {"eg": 0.99, "pda": 0.99, "oomd-l2": 0.5}
# The algorithms that use each make_solver option; a tau_scale of 1 is no option.
_OPTION_USERS = {"params": VARIANCE_REDUCED,
                 "stepsize": tuple(tag for tag in STEP_SIZED if tag not in VARIANCE_REDUCED),
                 "tau_scale": STEP_SIZED}


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


def _zero_step(problem, algorithm):
    """Why the algorithm's baseline step is undefined (a zero operator), or None."""
    if algorithm in _STEP_OVER_NORM and problem.spectral_norm() == 0.0:
        return (f"{algorithm} cannot run on a zero operator: its baseline step is "
                f"{_STEP_OVER_NORM[algorithm]} over the spectral norm, which is 0")
    return None


def setting_errors(problem, algorithms, tau_scale, budget_evals=None, eval_every=None):
    """One message per run rule the settings break; the budget and cadence
    rules, and that of a run's baseline step, apply when a budget is given."""
    errors = [reason for algorithm in dict.fromkeys(algorithms)
              if (reason := unmet_requirement(problem, algorithm)) is not None]
    if not tau_scale > 0.0:  # NaN too
        errors.append(f"tau_scale must be positive, got {tau_scale}")
    if budget_evals is not None:
        errors += [reason for algorithm in dict.fromkeys(algorithms)
                   if (reason := _zero_step(problem, algorithm)) is not None]
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
    ``params`` applies to the variance-reduced solvers, ``stepsize`` to the
    other step-sized ones and a ``tau_scale`` other than 1 to both. An unused
    option is an error, as is a zero operator to derive a step from.
    """
    if errors := setting_errors(problem, [algorithm], tau_scale):
        raise ValueError("; ".join(errors))
    given = {"params": params, "stepsize": stepsize, "tau_scale": tau_scale != 1.0 or None}
    if unused := [option for option, value in given.items()
                  if value is not None and algorithm not in _OPTION_USERS[option]]:
        raise ValueError(f"{algorithm} does not use {', '.join(unused)}")
    if stepsize is None and (reason := _zero_step(problem, algorithm)):
        raise ValueError(reason)
    N = default_components(problem) if cost_N is None else int(cost_N)
    if N < 1:
        raise ValueError("N must be at least 1")
    cls = _SOLVERS[algorithm]
    if issubclass(cls, _AnchoredExtragradient):
        if params is None:
            params = SvrgParams.suggested(N, problem.lipschitz_bound())
        return cls(problem, params, params.scaled_tau(tau_scale), N, seed, z0)
    if cls is RegretMatchingPlus:
        return cls(problem, N, seed, z0)
    if stepsize is None:
        stepsize = (_STEP_OVER_NORM[algorithm] / problem.spectral_norm()
                    if algorithm in _STEP_OVER_NORM else 1.0)
    return cls(problem, tau_scale * stepsize, N, seed, z0)


def run(problem, algorithm, budget_evals, seed, eval_every, *, params=None,
        tau_scale=1.0, known=None, stop_when_gap_below=None):
    """Drive a solver from :func:`make_solver` until the cumulative charge
    reaches the budget, or until the last-iterate measure reaches
    ``stop_when_gap_below``.

    Records a row at the first step whose cumulative charge meets each
    multiple of the cadence; the stored ``evals`` is the actual cumulative
    charge. The settings must pass :func:`setting_errors`.
    Each row holds the convergence measure of the last iterate and of the
    uniform, linear, and quadratic running averages of the half-step
    iterates (the last iterate stands in while an average is still
    undefined), plus the weighted squared distance to the solution set when
    one is known. For bilinear instances the measure is the closed-form
    duality gap; otherwise it is the proximal residual at the solver's own
    step size. Measurement is diagnostic and never charged to the budget.
    """
    budget_evals = int(budget_evals)
    eval_every = int(eval_every)
    if errors := setting_errors(problem, [algorithm], tau_scale, budget_evals, eval_every):
        raise ValueError("; ".join(errors))
    solver = make_solver(problem, algorithm, seed, params=params, tau_scale=tau_scale)

    if problem.structure is not None:
        measure = lambda z: duality_gap_at(problem, z)
    else:
        measure = lambda z: natural_residual(problem, z, solver.tau)

    accumulators = {q: AveragingAccumulator(q) for q in AVERAGE_COLUMNS}
    rows = {name: [] for name in ("evals", "gap_last", *AVERAGE_COLUMNS.values())}
    if known is not None:
        rows["dist_theta"] = []
    next_mark = eval_every
    while solver.evals < budget_evals:
        result = solver.step()
        for z_half in result.iterates:
            for q, acc in accumulators.items():
                weight = None if result.epoch is None else float(result.epoch) ** q
                acc.push(z_half, weight=weight)
        if solver.evals < next_mark:
            continue
        gap_last = measure(solver.z)
        rows["evals"].append(solver.evals)
        rows["gap_last"].append(gap_last)
        for q, name in AVERAGE_COLUMNS.items():
            avg = accumulators[q].current()
            rows[name].append(gap_last if avg is None else measure(avg))
        if known is not None:
            rows["dist_theta"].append(dist_theta(known, solver.z, solver.w_point, solver.theta))
        next_mark = eval_every * (solver.evals // eval_every + 1)
        if stop_when_gap_below is not None and gap_last <= stop_when_gap_below:
            break
    return GapTrace(**rows, meta={"algorithm": algorithm, "seed": seed, "budget": budget_evals,
                                  "eval_every": eval_every, "N": solver.N})
