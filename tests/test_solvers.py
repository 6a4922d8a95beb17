import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import visolve as vs
from visolve import solvers
from visolve.metrics import AVERAGE_COLUMNS, dist_theta
from visolve.oracles import dense_estimate
from visolve.rng import StableRng
from visolve.sets import _BlockLayout
from visolve.solvers import NumericalDivergence, SvrgParams, make_solver

from conftest import equilibrium_lp, plain_affine_vis, random_game


def test_suggested_params_formulas():
    L = 3.7
    prm = SvrgParams.suggested(30, L)
    assert np.isclose(prm.p, 2.0 / 30.0)
    assert np.isclose(prm.alpha, 1.0 - 2.0 / 30.0)
    assert prm.K == 15
    assert abs(prm.tau - 0.99 * np.sqrt(2.0) / (np.sqrt(30.0) * L)) <= 1e-12
    assert abs(prm.tau - prm.gamma * np.sqrt(1.0 - prm.alpha) / L) <= 1e-12
    tiny = SvrgParams.suggested(2, L)
    assert tiny.p == 1.0 and tiny.alpha == 0.0 and tiny.K == 1


@pytest.mark.parametrize("bad", [dict(p=0.0), dict(p=1.5), dict(alpha=1.0), dict(alpha=-0.1),
                                 dict(gamma=0.0), dict(gamma=1.0), dict(L=0.0), dict(K=0),
                                 dict(L=np.inf), dict(L=np.nan)])
def test_params_validation(bad):
    kw = dict(p=0.5, alpha=0.5, gamma=0.99, L=1.0, K=4)
    kw.update(bad)
    with pytest.raises(ValueError):
        SvrgParams(**kw)


@pytest.mark.parametrize("algo", ["eg", "svrg-eg", "dl-svrg-eg", "oomd-l2"])
def test_fixed_point_interior_zero(interior_box_problem, algo):
    problem, z_star = interior_box_problem
    solver = make_solver(problem, algo, seed=0, z0=z_star)
    for _ in range(20):
        solver.step()
    assert np.array_equal(solver.z, z_star)


@pytest.mark.parametrize("algo", ["pda", "rm+", "oomd-entropy", "svrg-eg"])
def test_fixed_point_pennies_center(pennies, algo):
    problem, _ = pennies
    center = np.full(4, 0.5)
    solver = make_solver(problem, algo, seed=0, z0=center)
    for _ in range(20):
        solver.step()
    assert np.array_equal(solver.z, center)


def test_pennies_one_step_moves_inward(pennies):
    problem, known = pennies
    z0 = np.array([1.0, 0.0, 1.0, 0.0])
    z_star = np.full(4, 0.5)
    solver = make_solver(problem, "svrg-eg", seed=0, z0=z0)
    solver.step()
    assert np.linalg.norm(solver.z - z_star) < np.linalg.norm(z0 - z_star)


def test_extragradient_spirals_inward_on_pennies(pennies):
    problem, _ = pennies
    z_star = np.full(4, 0.5)
    solver = make_solver(problem, "eg", seed=0, z0=np.array([1.0, 0.0, 1.0, 0.0]))
    dists = [np.linalg.norm(solver.z - z_star)]
    for _ in range(100):
        solver.step()
        dists.append(np.linalg.norm(solver.z - z_star))
    assert np.all(np.diff(dists) < 0.0)


def test_extragradient_small_step_first_order(interior_box_problem):
    problem, z_star = interior_box_problem
    z = z_star + np.array([0.3, -0.2, 0.1])
    tau = 1e-8
    solver = make_solver(problem, "eg", seed=0, stepsize=tau, z0=z)
    solver.step()
    drift = (solver.z - z) / tau
    assert np.linalg.norm(drift + problem.operator(z)) <= 1e-6


def test_double_loop_inner_length_one(pb8):
    prm = SvrgParams(p=1.0, alpha=0.5, gamma=0.99, L=pb8.lipschitz_bound(), K=1)
    solver = make_solver(pb8, "dl-svrg-eg", seed=0, params=prm)
    solver.step()
    assert np.array_equal(solver.cache.w, solver.z)


def test_double_loop_distance_decreases_on_pb30():
    problem = vs.policeman_burglar(30, 0)
    z_star = equilibrium_lp(problem.structure.A)
    known = vs.SolutionSet.single(z_star, problem, tol=1e-6)
    for seed in range(5):
        solver = make_solver(problem, "dl-svrg-eg", seed=seed)
        d0 = dist_theta(known, solver.z, solver.w_point, solver.theta)
        for _ in range(20):
            solver.step()
        d20 = dist_theta(known, solver.z, solver.w_point, solver.theta)
        assert d20 < d0


@pytest.mark.parametrize("instance", ["ws", "pennies"])
def test_expected_contraction_ratio(request, instance):
    problem, known = request.getfixturevalue(instance)
    start = {"ws": None, "pennies": np.array([1.0, 0.0, 1.0, 0.0])}[instance]
    params = (SvrgParams.suggested(4, problem.lipschitz_bound())
              if instance == "ws" else None)
    cost_N = 4 if instance == "ws" else None
    per_seed = []
    for seed in range(10):
        solver = make_solver(problem, "svrg-eg", seed=seed, z0=start,
                             params=params, cost_N=cost_N)
        theta = solver.theta
        prev = dist_theta(known, solver.z, solver.w_point, theta)
        ratios = []
        for _ in range(500):
            solver.step()
            cur = dist_theta(known, solver.z, solver.w_point, theta)
            if prev > 1e-30:
                ratios.append(cur / prev)
            prev = cur
        per_seed.append(np.mean(ratios))
    assert np.mean(per_seed) < 1.0


def test_run_rejects_tiny_budget(pennies):
    problem, _ = pennies
    with pytest.raises(ValueError, match="budget"):
        vs.run(problem, "eg", budget_evals=0, seed=0, eval_every=1)
    with pytest.raises(ValueError, match="budget"):
        vs.run(problem, "eg", budget_evals=1, seed=0, eval_every=1)
    with pytest.raises(ValueError, match="cadence 100 must lie between 1 and the budget 60"):
        vs.run(problem, "eg", budget_evals=60, seed=0, eval_every=100)


def test_run_extragradient_exact_iteration_count(pb8):
    T = 13
    trace = vs.run(pb8, "eg", budget_evals=2 * 8 * T, seed=0, eval_every=2 * 8)
    assert len(trace) == T
    assert np.array_equal(trace.evals, 2 * 8 * np.arange(1, T + 1))


def test_run_deterministic_bytes(tmp_path, pb8):
    t1 = vs.run(pb8, "svrg-eg", budget_evals=2000, seed=3, eval_every=100)
    t2 = vs.run(pb8, "svrg-eg", budget_evals=2000, seed=3, eval_every=100)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    t1.to_csv(p1)
    t2.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_recorded_iterates_feasible(pb8):
    from visolve.averaging import AveragingAccumulator
    solver = make_solver(pb8, "svrg-eg", seed=1)
    accs = [AveragingAccumulator(q) for q in (0, 1, 2)]
    for _ in range(200):
        z_half = solver.step().iterate
        assert pb8.set.contains(z_half, tol=1e-10)
        for acc in accs:
            acc.push(z_half)
    assert pb8.set.contains(solver.z, tol=1e-12)
    assert pb8.set.contains(solver.w_point, tol=1e-12)
    for acc in accs:
        assert pb8.set.contains(acc.current(), tol=1e-10)


def test_rm_plus_regrets_stay_nonnegative(pb8):
    solver = make_solver(pb8, "rm+", seed=0)
    for _ in range(100):
        solver.step()
        assert np.all(solver.regrets >= 0.0)


def test_oomd_constant_operator_is_projected_gradient():
    c = np.array([0.3, -0.2])
    problem = vs.AffineVI(np.zeros((2, 2)), c, vs.Box(-1.0, 1.0, dim=2))
    eta = 0.25
    solver = make_solver(problem, "oomd-l2", seed=0, stepsize=eta, z0=np.zeros(2))
    ledger = np.zeros(2)
    for _ in range(12):
        solver.step()
        ledger = np.clip(ledger - eta * c, -1.0, 1.0)
        assert np.allclose(solver.z, ledger, atol=1e-15)


def rm_plus_games():
    return {"pb8": vs.policeman_burglar(8, 1), "pennies": vs.matching_pennies()[0],
            "uni5x7": vs.uniform_random(5, 7, 0),
            "linear5x7": random_game(5, 7, 3, with_linear=True)}


@pytest.mark.parametrize("name", rm_plus_games())
def test_rm_plus_holds_F_at_its_iterate(name):
    """rm+ keeps F at the strategies it plays: its gains are -F_y and the
    next step's losses are F_x. After every step F_z has the bits of a fresh
    operator call at z, though no step calls the operator."""
    problem = rm_plus_games()[name]
    solver = make_solver(problem, "rm+", seed=0)
    operator = problem.operator
    problem.operator = lambda z: pytest.fail("rm+ called the full operator")
    for _ in range(200):
        solver.step()
        assert solver.F_z.tobytes() == operator(solver.z).tobytes()


@pytest.mark.parametrize("problem", [vs.policeman_burglar(30, 1), vs.uniform_random(5, 7, 0),
                                     random_game(5, 7, 3, with_linear=True),
                                     vs.synthetic_segmentation(4, 3, 0)],
                         ids=["pb30", "uni5x7", "linear5x7", "seg4h3"])
def test_pda_follows_the_extrapolated_primal_recurrence(problem):
    """pda forms A'x_bar as 2 A'x_new - A'x_old. Its iterates stay within
    roundoff of the recurrence on x_bar = 2 x_new - x_old itself. Each step
    perturbs A'x_bar by a few ulps of max |A_ij| (x lies on simplexes), which
    moves y by tau times that; the step is nonexpansive in the method's own
    metric, within a factor of about 14 of the max norm at tau ||A|| = 0.99,
    so after k steps the iterates differ by at most about k 64 eps
    max(1, tau max |A_ij|). F_z equals a fresh operator call at the new
    point: A y + bx is the product the primal step uses, and -(A'x + by)
    rounds to the value of -A'x - by."""
    s = problem.structure
    solver = make_solver(problem, "pda", seed=0)
    primal, dual = problem.set.parts
    x, y = problem.split(solver.z)
    x_bar = x
    scale = max(1.0, solver.tau * float(abs(s.A).max()))
    for k in range(1, 301):
        y = dual.project(y + solver.tau * (s.AT @ x_bar + s.by))
        x_new = primal.project(x - solver.tau * (s.A @ y + s.bx))
        x_bar, x = 2.0 * x_new - x, x_new
        solver.step()
        tol = 64 * k * np.finfo(float).eps * scale
        assert np.abs(solver.x - x).max() <= tol and np.abs(solver.y - y).max() <= tol
        assert np.array_equal(solver.F_z, problem.operator(solver.z))


def test_run_records_the_step_that_meets_the_budget():
    """A budget that is not a multiple of the cadence still ends in a row:
    the step that meets the budget is paid for, so it is measured."""
    problem = vs.policeman_burglar(8, 1)
    trace = vs.run(problem, "oomd-l2", 320, 0, 24)
    assert list(trace.evals) == [*range(24, 320, 24), 320]
    solver = make_solver(problem, "oomd-l2", seed=0)
    while solver.evals < 320:
        solver.step()
    assert trace.gap_last[-1] == max(vs.duality_gap_at(problem, solver.z), 0.0)
    assert list(vs.run(problem, "oomd-l2", 312, 0, 24).evals) == list(range(24, 313, 24))


@pytest.mark.parametrize("algo", vs.ALGORITHMS)
def test_a_budget_of_one_evaluation_still_takes_a_step(pb8, algo):
    """A budget may equal one full evaluation N, which the variance-reduced
    and optimistic solvers pay when they are built. The run still takes one
    step, and measures it: one row, at that step's charge."""
    trace = vs.run(pb8, algo, 8, 0, 8)
    solver = make_solver(pb8, algo, seed=0)
    solver.step()
    assert list(trace.evals) == [solver.evals]
    assert trace.gap_last[0] == max(vs.duality_gap_at(pb8, solver.z), 0.0)


def contract_instances():
    return {"pb8": vs.policeman_burglar(8, 1), "seg4": vs.synthetic_segmentation(4, 2, 0),
            "seg4h3": vs.synthetic_segmentation(4, 3, 0), "uni5x7": vs.uniform_random(5, 7, 0),
            **plain_affine_vis()}


@pytest.mark.parametrize("name", contract_instances())
def test_steps_return_F_at_every_step_or_at_none(name):
    """checkpoints averages the F values the steps return, and reads F at the
    last iterate from the solver, only for a solver whose steps return F. So
    each algorithm returns F at every step or at none (every deterministic
    one at every step), and each returned F has the bits of a fresh operator
    call at the pushed point."""
    problem = contract_instances()[name]
    for algo in vs.ALGORITHMS:
        if not vs.applicable(problem, algo):
            continue
        solver = make_solver(problem, algo, seed=0)
        returned = set()
        for _ in range(30):
            iterate, F = solver.step()
            returned.add(F is not None)
            assert F is None or F.tobytes() == problem.operator(iterate).tobytes(), algo
        assert returned == {algo in solvers.DETERMINISTIC}, algo


def test_pda_iterates_stay_feasible_on_segmentation():
    problem = vs.synthetic_segmentation(3, 2, 0)
    primal, dual = problem.set.parts
    solver = make_solver(problem, "pda", seed=0)
    for _ in range(20):
        solver.step()
        assert primal.contains(solver.x, tol=1e-12)
        assert dual.contains(solver.y, tol=1e-12)


def test_nonfinite_values_abort_with_diagnostic(interior_box_problem):
    problem, z_star = interior_box_problem
    for algo, scale in (("eg", {"stepsize": 1e308}), ("svrg-eg", {"tau_scale": 1e308})):
        solver = make_solver(problem, algo, seed=0, z0=z_star + 0.5, **scale)
        with pytest.raises(NumericalDivergence) as err, np.errstate(over="ignore"):
            for _ in range(10):
                solver.step()
        assert err.value.algorithm == algo
        assert err.value.iteration >= 0
        assert err.value.seed == 0


def test_divergence_keeps_the_rows_recorded_before_it():
    """pda on the 4 x 4 uniform game at tau_scale 8e307 diverges at
    iteration 3: its extrapolated dual step overflows, on iterates that
    stay on the simplexes. The error keeps its three rows (evals 4..12) as
    a trace whose every column holds the bits of the same run with budget
    12."""
    problem = vs.uniform_random(4, 4, 0)
    with pytest.raises(NumericalDivergence) as err, np.errstate(over="ignore", invalid="ignore"):
        vs.run(problem, "pda", 160, 0, 4, tau_scale=8e307)
    assert err.value.iteration == 3
    kept = err.value.trace
    assert np.array_equal(kept.evals, np.arange(4, 13, 4))
    whole = vs.run(problem, "pda", 12, 0, 4, tau_scale=8e307)
    assert kept.columns == whole.columns
    for name in whole.columns:
        assert kept.column(name).tobytes() == whole.column(name).tobytes(), name


def test_divergence_after_rows_that_fail_the_trace_checks():
    """eg on the 4 x 4 uniform game with the linear term bx = 1e15 (1, 1.5,
    2, 1.25): its uniform-average gap reads -0.125 at evals 140, roundoff
    against bx that GapTrace rejects. An operator that overflows from its
    40th call on makes the run diverge after that row, and the error still
    surfaces, with no trace."""
    A = vs.uniform_random(4, 4, 0).structure.A
    problem = vs.AffineVI.bilinear(A, 1e15 * np.array([1.0, 1.5, 2.0, 1.25]), np.zeros(4))
    with pytest.raises(ValueError, match="negative gap_uniform"):
        vs.run(problem, "eg", 140, 0, 4)
    operator, calls = problem.operator, []

    def overflowing(z):
        calls.append(z)
        scale = 1e300 if len(calls) >= 40 else 1.0
        return operator(z) * scale * scale

    problem.operator = overflowing
    with pytest.raises(NumericalDivergence) as err, np.errstate(over="ignore"):
        vs.run(problem, "eg", 160, 0, 4)
    assert err.value.iteration == 19     # at evals 152
    assert err.value.trace is None


@pytest.mark.parametrize("tau_scale", [1e150, 1e300])
def test_huge_steps_project_onto_the_ws_solution_segment(ws, tau_scale):
    """A step this long leaves the box far along the diagonal; its projection
    is (3/4, 3/4), on the solution segment."""
    problem, known = ws
    trace = vs.run(problem, "eg", 40, 0, 4, tau_scale=tau_scale, known=known)
    assert trace.dist_theta[-1] == 0


# The make_solver options each algorithm reads, written out rather than read
# from the classes, so that a changed declaration fails the test below.
_OPTIONS_READ = {
    "svrg-eg": ("params", "tau_scale"),
    "dl-svrg-eg": ("params", "tau_scale"),
    "eg": ("stepsize", "tau_scale"),
    "pda": ("stepsize", "tau_scale"),
    "oomd-l2": ("stepsize", "tau_scale"),
    "oomd-entropy": ("stepsize", "tau_scale"),
    "rm+": (),
}


@pytest.mark.parametrize("algo, option", [(algo, option) for algo in _OPTIONS_READ
                                          for option in ("params", "stepsize", "tau_scale")])
def test_make_solver_rejects_an_option_its_algorithm_does_not_use(pb8, algo, option):
    """Every (algorithm, option) pair: an option the algorithm reads builds
    the solver, any other is a ValueError naming both."""
    value = {"params": SvrgParams.suggested(8, pb8.lipschitz_bound()), "stepsize": 0.5,
             "tau_scale": 7.0}[option]
    if option in _OPTIONS_READ[algo]:
        assert make_solver(pb8, algo, seed=0, **{option: value}).name == algo
    else:
        with pytest.raises(ValueError, match=re.escape(f"{algo} does not use {option}")):
            make_solver(pb8, algo, seed=0, **{option: value})


@pytest.mark.parametrize("algo, message", [
    ("eg", "eg cannot run on a zero operator: its baseline step is 0.99 over the spectral norm"),
    ("pda", "pda cannot run on a zero operator: its baseline step is 0.99 over the spectral norm"),
    ("oomd-l2", "oomd-l2 cannot run on a zero operator: its baseline step is 0.5 over the "
                "spectral norm"),
    ("svrg-eg", "svrg-eg and dl-svrg-eg cannot run on a zero operator: their suggested L is "
                "||A||_F"),
    ("dl-svrg-eg", "svrg-eg and dl-svrg-eg cannot run on a zero operator: their suggested L is "
                   "||A||_F")])
def test_make_solver_names_a_zero_operator(algo, message):
    """A step derived from a zero operator is a ValueError naming it; a
    baseline's is the text of setting_errors, and a given step still
    builds the baseline."""
    zero = vs.AffineVI.bilinear(np.zeros((3, 3)))
    with pytest.raises(ValueError, match=re.escape(message)):
        make_solver(zero, algo)
    if algo not in solvers.VARIANCE_REDUCED:
        assert solvers.setting_errors(zero, [algo], 1.0, 60) == [message + ", which is 0"]
        assert make_solver(zero, algo, stepsize=0.1).tau == 0.1


def test_rm_plus_takes_no_step_scale(pb8):
    with pytest.raises(ValueError, match="rm\\+ does not use tau_scale"):
        vs.run(pb8, "rm+", budget_evals=160, seed=0, eval_every=16, tau_scale=7.0)
    assert make_solver(pb8, "rm+", seed=0, tau_scale=1.0).name == "rm+"


@pytest.mark.parametrize("algo", ["svrg-eg", "dl-svrg-eg", "eg", "pda", "oomd-l2",
                                  "oomd-entropy"])
def test_game_with_both_linear_terms_is_solved(algo):
    """F = (grad_x f, -grad_y f) for f = x'Ay + <bx, x> + <by, y>. An
    operator whose dual block adds by instead of subtracting it leaves every
    solver that reads F at a gap of 0.779 on this game; pda reads A, bx and
    by directly."""
    problem = random_game(4, 5, seed=3, with_linear=True)
    trace = vs.run(problem, algo, budget_evals=20_000, seed=0, eval_every=500,
                   stop_when_gap_below=1e-9)
    assert trace.gap_last[-1] <= 1e-9


def test_variance_reduced_tags():
    assert vs.solvers.VARIANCE_REDUCED == ("svrg-eg", "dl-svrg-eg")


@pytest.mark.parametrize("algo", ["svrg-eg", "dl-svrg-eg", "eg", "pda", "oomd-l2",
                                  "oomd-entropy"])
def test_tau_scale_multiplies_a_given_step(pb8, algo):
    """A power-of-two scale is exact, so the scaled step equals 2x the given one."""
    params = SvrgParams.suggested(8, pb8.lipschitz_bound(), gamma=0.5)
    given, step = ((dict(params=params), params.tau) if algo in vs.solvers.VARIANCE_REDUCED
                   else (dict(stepsize=0.3), 0.3))
    assert make_solver(pb8, algo, seed=0, tau_scale=2.0, **given).tau == 2.0 * step


@pytest.mark.parametrize("algo", vs.ALGORITHMS)
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_nonpositive_tau_scale_rejected(pb8, algo, bad):
    message = re.escape(f"tau_scale must be positive and finite, got {bad}")
    with pytest.raises(ValueError, match=message):
        make_solver(pb8, algo, seed=0, tau_scale=bad)
    with pytest.raises(ValueError, match=message):
        vs.run(pb8, algo, budget_evals=160, seed=0, eval_every=16, tau_scale=bad)


@pytest.mark.parametrize("algo", ["eg", "pda", "oomd-l2", "oomd-entropy"])
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_nonpositive_stepsize_rejected(pb8, algo, bad):
    with pytest.raises(ValueError, match=re.escape(f"stepsize must be positive and finite, "
                                                   f"got {bad}")):
        make_solver(pb8, algo, seed=0, stepsize=bad)


def test_simplex_only_algorithms_rejected_elsewhere(ws):
    problem, _ = ws
    with pytest.raises(ValueError, match="bilinear|simplex"):
        make_solver(problem, "rm+", seed=0)
    seg = vs.synthetic_segmentation(2, 2, 0)
    with pytest.raises(ValueError, match="simplex"):
        make_solver(seg, "oomd-entropy", seed=0)


def test_run_gap_columns_consistent(pb8):
    trace = vs.run(pb8, "svrg-eg", budget_evals=3000, seed=0, eval_every=150)
    for name in ("gap_last", "gap_uniform", "gap_linear", "gap_quadratic"):
        assert np.all(trace.column(name) >= 0.0)
    assert trace.meta["algorithm"] == "svrg-eg"
    assert trace.meta["N"] == 8


@pytest.mark.parametrize("algo", vs.ALGORITHMS)
def test_each_algorithm_has_its_own_step(pb8, algo):
    """perfbench's traced run wraps ``step`` on the class whose own ``name``
    is the tag, so every algorithm's steps are counted apart."""
    cls = type(make_solver(pb8, algo, seed=0))
    assert "step" in vars(cls)
    assert vars(cls).get("name") == algo


@pytest.mark.parametrize("algo", vs.ALGORITHMS)
def test_deterministic_solvers_draw_nothing(pb8, algo):
    """A solver that declares it draws no random numbers leaves its StableRng
    where the seed put it after 20 steps; every other solver moves it, so
    the declaration is not vacuous."""
    solver = make_solver(pb8, algo, seed=5)
    for _ in range(20):
        solver.step()
    untouched = solver.rng.raw() == vs.StableRng(5).raw()
    assert untouched == (algo in solvers.DETERMINISTIC)


def _block_game():
    """A game whose strategy sets are SimplexProduct([2, 2]) and Simplex(3)."""
    A = 2.0 * vs.StableRng(4).uniform(12).reshape(4, 3) - 1.0
    return vs.AffineVI.bilinear(A, primal_set=vs.SimplexProduct([2, 2]),
                                dual_set=vs.Simplex(3))


_SIMPLEX_GAMES = {
    "pb8": lambda: vs.policeman_burglar(8, 1),
    "blocks": _block_game,
    "segmentation": lambda: vs.synthetic_segmentation(2, 2, 0),
}


@pytest.mark.parametrize("algo", ["rm+", "oomd-entropy"])
@pytest.mark.parametrize("instance, primal, dual", [
    ("pb8", [(0, 8)], [(8, 16)]),
    ("blocks", [(0, 2), (2, 4)], [(4, 7)]),
    ("segmentation", None, None),
])
def test_simplex_strategy_applicability(algo, instance, primal, dual):
    """The simplex-only solvers run on any product of simplex blocks, with
    one slice per block, and refuse a domain with a box part."""
    problem = _SIMPLEX_GAMES[instance]()
    if primal is None:
        assert not vs.applicable(problem, algo)
        message = (f"{algo} is not applicable: it requires simplex strategy sets, but the "
                   f"instance domain is simplexprod:2x4*box:16:-0.5:0.5")
        with pytest.raises(ValueError) as err:
            make_solver(problem, algo, seed=0)
        assert str(err.value) == message
        return
    assert vs.applicable(problem, algo)
    solver = make_solver(problem, algo, seed=0)
    if algo == "rm+":
        blocks = (solver.primal_blocks, solver.dual_blocks)
        assert [[(sl.start, sl.stop) for sl in side] for side in blocks] == [primal, dual]
    else:
        assert [(sl.start, sl.stop) for sl in solver.blocks] == primal + dual
    for _ in range(5):
        solver.step()
    assert problem.set.contains(solver.z, tol=1e-9)


@st.composite
def measured_instances(draw):
    """A small game, dense or sparse, with both linear terms and simplex
    blocks of unequal sizes, or a monotone affine VI M = B'B + (C - C') over
    the box [-1, 1]^d; the payoff is scaled by 1 or 1000."""
    rng = StableRng(draw(st.integers(0, 2 ** 16)))
    scale = draw(st.sampled_from([1.0, 1e3]))
    kind = draw(st.sampled_from(["dense", "sparse", "plain"]))
    if kind == "plain":
        d = draw(st.integers(2, 8))
        B, C = (rng.uniform(d * d).reshape(d, d) - 0.5 for _ in range(2))
        return vs.AffineVI(scale * (B.T @ B + C - C.T), rng.uniform(d) - 0.5,
                           vs.Box(-1.0, 1.0, dim=d))
    primal, dual = (draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)) for _ in range(2))
    n, m = sum(primal), sum(dual)
    A = scale * (rng.uniform(n * m).reshape(n, m) - 0.5)
    if kind == "sparse":
        A[rng.uniform(n * m).reshape(n, m) < 0.6] = 0.0
        A[0, 0] = scale
        A = sp.csr_matrix(A)
    return vs.AffineVI.bilinear(A, rng.uniform(n) - 0.5, rng.uniform(m) - 0.5,
                                vs.SimplexProduct(primal), vs.SimplexProduct(dual))


@settings(max_examples=30, deadline=None)
@given(measured_instances())
def test_checkpoints_measured_from_held_operator_values(problem):
    """A solver that supplies F is measured from its own values of F. Replay
    each run step by step and measure afresh: the last iterate's measure is
    the same bits, and each average's is within a roundoff bound. F_avg and
    F(avg) each differ from the exact weighted average of F by about
    (pushes + d) eps |F|, and a measure moves by at most ||dF||_2 times the
    set's radius sqrt(d) (the residual by at most ||dF||_2). The trace
    clips roundoff below zero to 0, and so does the fresh measure. pda and
    rm+ run on the games: they form F from their own products with A and
    A', and their last iterate's measure keeps its bits too."""
    d = problem.dim
    game = problem.structure is not None
    F_bound = np.linalg.norm(problem.M) * np.sqrt(d) + np.max(np.abs(problem.q))
    N = vs.default_components(problem)
    for algo in ("eg", "oomd-l2", "oomd-entropy", "pda", "rm+"):
        if not vs.applicable(problem, algo):
            continue
        trace = vs.run(problem, algo, 30 * N, seed=0, eval_every=3 * N)
        solver = make_solver(problem, algo, seed=0)
        if game:
            measure = lambda z: max(vs.duality_gap_at(problem, z), 0.0)
        else:
            measure = lambda z: max(vs.natural_residual(problem, z, solver.tau), 0.0)
        averages = {q: vs.AveragingAccumulator(q) for q in AVERAGE_COLUMNS}
        for k, evals in enumerate(trace.evals):
            while solver.evals < evals:
                z = solver.step().iterate
                for acc in averages.values():
                    acc.push(z)
            assert trace.gap_last[k] == measure(solver.z)
            pushes = averages[0].count
            tol = 4 * np.finfo(float).eps * (pushes + 2 * d + 2) * d * F_bound
            for q, name in AVERAGE_COLUMNS.items():
                avg = averages[q].current()
                expect = trace.gap_last[k] if avg is None else measure(avg)
                assert abs(trace.column(name)[k] - expect) <= tol, (algo, name, k)


def test_double_loop_epoch_keeps_no_buffer_of_its_iterates():
    """A dl-svrg-eg epoch sums its half-step iterates as they come. On pb200
    (K = 100 inner steps, d = 400) the traced peak of one step stays below
    half of the K d floats that keeping its iterates would take."""
    solver = make_solver(vs.policeman_burglar(200, 1), "dl-svrg-eg", seed=0)
    K, d = solver.params.K, solver.problem.dim
    assert (K, d) == (100, 400)
    tracemalloc.start()
    try:
        solver.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < K * d * 8 / 2, peak


@pytest.mark.parametrize("problem, budget, cadence", [
    (vs.policeman_burglar(30, 1), 3000, 60), (vs.synthetic_segmentation(4, 2, 0), 4000, 100),
    (plain_affine_vis()["affine12"], 1200, 60)], ids=["pb30", "seg4", "affine12"])
def test_double_loop_averages_weight_every_half_step_iterate(monkeypatch, problem, budget,
                                                             cadence):
    """dl-svrg-eg pushes each epoch's mean once, with weight s^q. Replay its run
    with every inner half-step iterate recorded: each checkpoint's evals and
    last-iterate measure are the bits that the epochs' charges and last
    iterates give, and each average's measure is within the roundoff bound
    of test_checkpoints_measured_from_held_operator_values of the measure at
    the s^q-weighted average of all the half-step iterates so far."""
    halves, lasts, solvers_made = [], [], []
    make = solvers.make_solver

    def recording_solver(*args, **kwargs):
        solver = make(*args, **kwargs)
        anchored_step = solver._anchored_step

        def recorded():
            halves.append(anchored_step())
            lasts.append(solver.z)
            return halves[-1]

        solver._anchored_step = recorded
        solvers_made.append(solver)
        return solver

    monkeypatch.setattr(solvers, "make_solver", recording_solver)
    trace = vs.run(problem, "dl-svrg-eg", budget, 0, cadence)
    solver, = solvers_made
    N, K, d = solver.N, solver.params.K, problem.dim
    if problem.structure is not None:
        measure = lambda z: max(vs.duality_gap_at(problem, z), 0.0)
    else:
        measure = lambda z: max(vs.natural_residual(problem, z, solver.tau), 0.0)
    F_bound = np.linalg.norm(problem.M) * np.sqrt(d) + np.max(np.abs(problem.q))
    epochs = (trace.evals - N) // (N + 2 * K)
    assert np.array_equal(trace.evals, N + epochs * (N + 2 * K))
    assert len(halves) == epochs[-1] * K
    for k, e in enumerate(epochs):
        assert trace.gap_last[k] == measure(lasts[e * K - 1])
        tol = 4 * np.finfo(float).eps * (e * K + 2 * d + 2) * d * F_bound
        for q, name in AVERAGE_COLUMNS.items():
            weights = np.repeat(np.arange(e, dtype=float) ** q, K)
            expect = (trace.gap_last[k] if not weights.sum() > 0.0 else
                      measure(weights @ np.array(halves[:e * K]) / weights.sum()))
            assert abs(trace.column(name)[k] - expect) <= tol, (name, k)


@st.composite
def guessed_games(draw):
    """A dense game with both linear terms whose two strategy sets each
    project as rows, which take a guess: 1-3 simplex blocks of 1-6 entries,
    in any layout but equal blocks of 2, which take the closed form; the
    payoff is scaled by 1 or 1000."""
    rng = StableRng(draw(st.integers(0, 2 ** 16)))
    scale = draw(st.sampled_from([1.0, 1e3]))
    rows = st.lists(st.integers(1, 6), min_size=1, max_size=3).filter(
        lambda blocks: not _BlockLayout(blocks).pairs)
    primal, dual = draw(rows), draw(rows)
    n, m = sum(primal), sum(dual)
    A = scale * (rng.uniform(n * m).reshape(n, m) - 0.5)
    return vs.AffineVI.bilinear(A, rng.uniform(n) - 0.5, rng.uniform(m) - 0.5,
                                vs.SimplexProduct(primal), vs.SimplexProduct(dual))


@settings(max_examples=15, deadline=None)
@given(guessed_games())
def test_support_records_change_only_roundoff(problem):
    """Every solver that guesses the support of its projections keeps one
    record per set it projects onto. Emptied before every projection, so
    that each one sorts, the record changes nothing but roundoff: the run
    charges the same evals, and each gap moves by at most the roundoff
    bound of test_checkpoints_measured_from_held_operator_values, taken
    with one push per projection."""
    d, N = problem.dim, vs.default_components(problem)
    F_bound = np.linalg.norm(problem.M) * np.sqrt(d) + np.max(np.abs(problem.q))
    project = solvers._SolverBase._proj
    guesses = []

    def emptied(self, v, guess, feasible=None):
        guesses.append(guess)
        guess.support = guess.count = None
        return project(self, v, guess, feasible)

    for algo in ("svrg-eg", "dl-svrg-eg", "eg", "pda", "oomd-l2"):
        kept = vs.run(problem, algo, 30 * N, seed=0, eval_every=3 * N)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solvers._SolverBase, "_proj", emptied)
            guesses.clear()
            sorted_ = vs.run(problem, algo, 30 * N, seed=0, eval_every=3 * N)
        assert guesses and all(guess is not None for guess in guesses), algo
        assert np.array_equal(kept.evals, sorted_.evals), algo
        tol = 4 * np.finfo(float).eps * (len(guesses) + 2 * d + 2) * d * F_bound
        for name in kept.columns:
            gap = np.abs(np.asarray(kept.column(name)) - np.asarray(sorted_.column(name)))
            assert gap.max() <= tol, (algo, name)


def warm_hits_beside_a_sorting_run(monkeypatch, game, algo, steps=300):
    """Step a solver of algo on game beside one whose support records are
    all None, so that each of its projections sorts, and check that their
    iterates stay within 1e-12 of each other; per projection of the first
    that took a guess, whether the guess hit."""
    warm, cold = (make_solver(game, algo, seed=0) for _ in range(2))
    records = [name for name in vars(cold) if name.endswith("_guess")]
    assert any(getattr(warm, name) is not None for name in records)
    for name in records:
        setattr(cold, name, None)
    support_projection = vs.sets._support_projection
    hits = []

    def counted(rows, guess):
        x = support_projection(rows, guess)
        hits.append(x is not None)
        return x

    monkeypatch.setattr(vs.sets, "_support_projection", counted)
    for _ in range(steps):
        warm.step()
        cold.step()
        assert np.allclose(warm.z, cold.z, rtol=0.0, atol=1e-12)
    return hits


def test_svrg_eg_guesses_the_label_blocks_of_a_labeling_game_with_4_regions(monkeypatch):
    """The labeling game's set, blocks of 4 labels beside a box, guesses
    part by part, so svrg-eg certifies warm supports on its label blocks,
    and its iterates stay within roundoff of a run whose every projection
    sorts."""
    hits = warm_hits_beside_a_sorting_run(monkeypatch, vs.synthetic_segmentation(4, 4, 0),
                                          "svrg-eg")
    assert len(hits) == 600 and sum(hits) > 300


@pytest.mark.parametrize("algo, per_step", [("svrg-eg", 2), ("pda", 1)])
def test_blocks_of_3_labels_take_warm_hits(monkeypatch, algo, per_step):
    """The 3-region labeling game's blocks of 3 labels project as rows with
    a guess: svrg-eg through its product with the box, pda alone. Both
    certify warm supports, and their iterates stay within roundoff of a run
    whose every projection sorts."""
    hits = warm_hits_beside_a_sorting_run(monkeypatch, vs.synthetic_segmentation(4, 3, 0), algo)
    assert len(hits) == 300 * per_step and sum(hits) > 150 * per_step


def labeling_games(tmp_path):
    """The 8 x 8 labeling game with 2 regions, and the 4 x 4 one loaded from
    its instance file, which stores the payoff as CSR arrays."""
    path = tmp_path / "seg4.vif"
    vs.save_instance(path, vs.synthetic_segmentation(4, 2, 0))
    return {"seg8": vs.synthetic_segmentation(8, 2, 0), "seg4-file": vs.load_instance(path)}


@pytest.mark.parametrize("algo", ["svrg-eg", "dl-svrg-eg"])
@pytest.mark.parametrize("name", ["seg8", "seg4-file"])
def test_anchored_steps_reproject_locally_with_the_bits_of_the_full_step(tmp_path, name, algo):
    """On the 2-region labeling game, whose blocks of 2 and box reproject
    locally, each of 300 anchored steps projects once in full, for its half
    step, and re-projects once, from the half-step iterate, at the positions
    of both of its estimate's (positions, values) pairs; its iterate is the
    full projection, to the byte, of zbar - tau * fhat with fhat the whole
    vector of its estimate; the half-step iterate is the projection of the
    half step's input, and shares no memory with that input, which the step
    overwrites, or with the iterate."""
    problem = labeling_games(tmp_path)[name]
    assert sp.issparse(problem.structure.A) and problem.set.reprojects_locally
    solver = make_solver(problem, algo, seed=0)
    anchored, proj, estimate = solver._anchored_step, solver._proj, solver.oracle.vr_estimate
    reproject = problem.set.reproject
    seen = {}

    def recorded_proj(v, guess, feasible=None):
        seen.setdefault("inputs", []).append(v)
        return proj(v, guess, feasible)

    def recorded_reproject(v, base, changed):
        seen.setdefault("local", []).append((base, changed))
        return reproject(v, base, changed)

    def recorded_estimate(*args):
        seen["entries"] = estimate(*args)
        return seen["entries"]

    def checked():
        seen.clear()
        z, cache, w_part, w_step = solver.z, solver.cache, solver._w_part, solver._w_step
        z_half = anchored()
        zbar = solver.params.alpha * z
        zbar += w_part
        assert z_half.tobytes() == problem.set.project(zbar - w_step).tobytes()
        fhat = dense_estimate(cache, seen["entries"])
        expected = problem.set.project(zbar - solver.tau * fhat)
        assert solver.z.tobytes() == expected.tobytes()
        (v,) = seen["inputs"]
        ((base, changed),) = seen["local"]
        assert base is z_half and len(changed) == 2
        assert all(np.array_equal(p, q) for p, (q, _) in zip(changed, seen["entries"]))
        assert not any(np.shares_memory(a, b) for a, b in
                       ((z_half, v), (solver.z, v), (solver.z, z_half)))
        steps.append(z_half)
        return z_half

    steps = []
    solver._anchored_step, solver._proj, solver.oracle.vr_estimate = (checked, recorded_proj,
                                                                      recorded_estimate)
    problem.set.reproject = recorded_reproject
    while len(steps) < 300:
        solver.step()


def test_a_non_finite_mirror_step_diverges_at_iteration_0(monkeypatch):
    """oomd-entropy on the 3 x 3 uniform game at tau_scale 1e308: its first
    multiplicative update is not finite, and the solver's finiteness check
    raises NumericalDivergence at iteration 0."""
    raised = []
    finite = solvers._SolverBase._finite

    def checked(self, v):
        try:
            return finite(self, v)
        except NumericalDivergence:
            raised.append(self.iteration)
            raise

    monkeypatch.setattr(solvers._SolverBase, "_finite", checked)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericalDivergence, match="oomd-entropy at iteration 0 of seed 0"):
        vs.run(vs.uniform_random(3, 3, 0), "oomd-entropy", 100, 0, 10, tau_scale=1e308)
    assert raised == [0]
