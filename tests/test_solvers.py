import re

import numpy as np
import pytest

import visolve as vs
from visolve import solvers
from visolve.metrics import dist_theta
from visolve.solvers import NumericalDivergence, SvrgParams, make_solver

from conftest import equilibrium_lp, random_game


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
                                 dict(gamma=0.0), dict(gamma=1.0), dict(L=0.0), dict(K=0)])
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
        res = solver.step()
        for z_half in res.iterates:
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
        for R in solver.regrets.values():
            assert np.all(R >= 0.0)


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


@pytest.mark.parametrize("tau_scale", [1e150, 1e300])
def test_huge_steps_project_onto_the_ws_solution_segment(ws, tau_scale):
    """A step this long leaves the box far along the diagonal; its projection
    is (3/4, 3/4), on the solution segment."""
    problem, known = ws
    trace = vs.run(problem, "eg", 40, 0, 4, tau_scale=tau_scale, known=known)
    assert trace.dist_theta[-1] == 0


@pytest.mark.parametrize("algo, option", [("eg", "params"), ("svrg-eg", "stepsize"),
                                          ("rm+", "stepsize"), ("rm+", "tau_scale")])
def test_make_solver_rejects_an_option_its_algorithm_does_not_use(pb8, algo, option):
    value = {"params": SvrgParams.suggested(8, pb8.lipschitz_bound()), "stepsize": 0.5,
             "tau_scale": 7.0}[option]
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
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_nonpositive_tau_scale_rejected(pb8, algo, bad):
    with pytest.raises(ValueError, match="tau_scale must be positive"):
        make_solver(pb8, algo, seed=0, tau_scale=bad)
    with pytest.raises(ValueError, match="tau_scale must be positive"):
        vs.run(pb8, algo, budget_evals=160, seed=0, eval_every=16, tau_scale=bad)


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
