"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import numpy as np
import pytest

import visolve as vs
from visolve.averaging import AveragingAccumulator
from visolve.metrics import dist_theta, duality_gap_at, ws_ratio
from visolve.oracles import MatrixGameOracle, stochastic_operator, vr_conditional_variance
from visolve.rng import StableRng
from visolve.solvers import SvrgParams, make_solver

from conftest import random_game


def _criterion(num, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {num}: {detail}")
    assert passed, f"criterion {num}: {detail}"


def test_criterion_01_oracle_unbiasedness():
    problem = random_game(5, 5, seed=2024)
    oracle = MatrixGameOracle(problem)
    p_row, p_col = oracle.sampling.p
    rng = StableRng(1)
    worst = 0.0
    for _ in range(20):
        z = problem.set.sample(rng, 1)[0]
        mean = np.zeros(problem.dim)
        for i in range(5):
            for j in range(5):
                mean += p_row[i] * p_col[j] * stochastic_operator(oracle, (i, j), z)
        F = problem.operator(z)
        worst = max(worst, np.linalg.norm(mean - F) / np.linalg.norm(F))
    _criterion(1, worst <= 1e-10, f"exact-expectation relative error {worst:.2e} <= 1e-10")


def test_criterion_02_lipschitz_in_mean():
    rng = StableRng(2)
    worst = 0.0
    for seed in range(5):
        problem = random_game(5, 5, seed=seed)
        oracle = MatrixGameOracle(problem)
        p_row, p_col = oracle.sampling.p
        bound = 2.0 * problem.structure.frobenius_norm() ** 2
        for _ in range(10):
            z1 = problem.set.sample(rng, 1)[0]
            z2 = problem.set.sample(rng, 1)[0]
            second = 0.0
            for i in range(5):
                for j in range(5):
                    diff = (stochastic_operator(oracle, (i, j), z1)
                            - stochastic_operator(oracle, (i, j), z2))
                    second += p_row[i] * p_col[j] * float(diff @ diff)
            worst = max(worst, second / (bound * float(np.sum((z1 - z2) ** 2))))
    _criterion(2, worst <= 1.0, f"second moment / (2 ||A||_F^2 dist^2) max {worst:.3f} <= 1")


def _windowed_variance(problem, seed, mark):
    """Mean conditional variance of the estimator over one expected snapshot
    period starting at the given cumulative charge."""
    solver = make_solver(problem, "svrg-eg", seed=seed)
    while solver.evals < mark:
        solver.step()
    window = int(np.ceil(1.0 / solver.params.p))
    vals = []
    for _ in range(window):
        res = solver.step()
        vals.append(vr_conditional_variance(solver.oracle, res.iterate, solver.cache.w))
    return float(np.mean(vals))


def test_criterion_03_variance_reduction():
    problem = vs.policeman_burglar(50, 0)
    early = np.mean([_windowed_variance(problem, s, 5 * 50) for s in range(5)])
    late = np.mean([_windowed_variance(problem, s, 100 * 50) for s in range(5)])
    ratio = late / early
    _criterion(3, ratio <= 0.1,
               f"estimator variance at charge 100N / 5N = {ratio:.4f} <= 0.1 (seeds 0-4)")


def test_criterion_04_linear_last_iterate_scaled_step():
    """Known red at desk scale: with the 20x step on a 30x30 pursuit game the
    step exceeds the stable range (tau * ||A||_2 ~ 5, the payoff being near
    rank-1), and the last iterate settles on a slow plateau at gap ~1e-7 to
    3e-7 instead of a clean geometric tail. Measured floors are structural:
    they persist with a zero-noise oracle and across instance draws. The
    same 20x multiplier is stable at the full n = 2000 scale, where
    tau * ||A||_2 ~ 0.6."""
    problem = vs.policeman_burglar(30, 0)
    budget = 30 * 20_000
    hits, fits = [], []
    for seed in range(10):
        trace = vs.run(problem, "svrg-eg", budget_evals=budget, seed=seed,
                       eval_every=1200, tau_scale=20.0, stop_when_gap_below=1e-7)
        hits.append(trace.gap_last[-1] <= 1e-7)
        gaps = trace.gap_last
        tail_start = int(np.argmax(gaps <= 1e-3)) if np.any(gaps <= 1e-3) else 0
        x = trace.evals[tail_start:].astype(float)
        y = np.log10(np.maximum(gaps[tail_start:], 1e-300))
        if x.size > 2 and y.var() > 0:
            coef = np.polyfit(x, y, 1)
            fits.append(1.0 - np.var(y - np.polyval(coef, x)) / y.var())
    hit_count = int(np.sum(hits))
    mean_r2 = float(np.mean(fits))
    ok = hit_count >= 8 and mean_r2 >= 0.9
    _criterion(4, ok, f"gap<=1e-7 within 2e4 N on {hit_count}/10 seeds (need >= 8); "
                      f"tail log-linear fit mean R^2 = {mean_r2:.3f} (need >= 0.9)")


def test_criterion_05_lyapunov_geometric_decrease():
    problem, known = vs.ws_example()
    params = SvrgParams.suggested(4, problem.lipschitz_bound())
    ratios, finals = [], []
    for seed in range(10):
        solver = make_solver(problem, "svrg-eg", seed=seed, params=params, cost_N=4)
        theta = solver.theta
        prev = dist_theta(known, solver.z, solver.w_point, theta)
        per_step = []
        for _ in range(500):
            solver.step()
            cur = dist_theta(known, solver.z, solver.w_point, theta)
            if prev > 1e-30:
                per_step.append(cur / prev)
            prev = cur
        ratios.append(np.mean(per_step))
        finals.append(prev)
    ok = np.mean(ratios) < 1.0 and max(finals) <= 1e-10
    _criterion(5, ok, f"mean decrease ratio {np.mean(ratios):.3f} < 1; "
                      f"worst final weighted distance {max(finals):.2e} <= 1e-10")


def test_criterion_06_sharpness_ratio_bounded_below():
    problem, known = vs.ws_example()
    X = problem.set.sample(StableRng(0), 10_000)
    ratios = [ws_ratio(problem, known, x) for x in X
              if np.linalg.norm(x - known.project(x)) > 1e-12]
    low = min(ratios)
    _criterion(6, low >= 0.8 and len(ratios) > 9900,
               f"min sharpness ratio over {len(ratios)} samples = {low:.4f} >= 0.8 "
               f"(interior value 5/(2 sqrt 2) = {5 / (2 * np.sqrt(2)):.4f})")


def test_criterion_07_increasing_averaging_rate():
    problem = vs.policeman_burglar(50, 0)
    B = 1000 * 50
    columns = {0: "gap_uniform", 1: "gap_linear", 2: "gap_quadratic"}
    at_B = {q: [] for q in columns}
    at_4B = {q: [] for q in columns}
    for seed in range(10):
        trace = vs.run(problem, "svrg-eg", budget_evals=4 * B, seed=seed, eval_every=B // 10)
        for q, col in columns.items():
            at_B[q].append(trace.gap_at(B, col))
            at_4B[q].append(trace.gap_at(4 * B, col))
    ratios = {q: np.mean(at_4B[q]) / np.mean(at_B[q]) for q in columns}
    ok = all(r <= 0.6 for r in ratios.values())
    detail = ", ".join(f"q={q}: {r:.3f}" for q, r in ratios.items())
    _criterion(7, ok, f"gap(4B)/gap(B) seed-averaged {detail} (all <= 0.6)")


def test_criterion_08_averaging_exactness():
    rng = StableRng(5)
    worst = 0.0
    K = 1000
    iterates = [rng.uniform(5) for _ in range(K)]
    for q in (0, 1, 2, 3):
        acc = AveragingAccumulator(q)
        for v in iterates:
            acc.push(v)
        weights = np.array([float(k ** q) for k in range(K)])
        brute = (weights[:, None] * np.asarray(iterates)).sum(axis=0) / weights.sum()
        worst = max(worst, np.linalg.norm(acc.current() - brute) / np.linalg.norm(brute))
    _criterion(8, worst <= 1e-12, f"accumulator vs brute force relative error {worst:.2e} <= 1e-12")


def test_criterion_09_cost_accounting():
    game = vs.uniform_random(4, 4, 0)
    eg = make_solver(game, "eg", seed=0)
    eg_ok = True
    prev = eg.evals
    for _ in range(100):
        eg.step()
        eg_ok &= (eg.evals - prev) == 2 * 4
        prev = eg.evals

    loopless = make_solver(game, "svrg-eg", seed=0)
    p, N = loopless.params.p, 4
    charges = []
    prev = loopless.evals
    for _ in range(100_000):
        loopless.step()
        charges.append(loopless.evals - prev)
        prev = loopless.evals
    mean = float(np.mean(charges))
    se = N * np.sqrt(p * (1.0 - p) / len(charges))
    loopless_ok = abs(mean - (p * N + 2.0)) <= 3.0 * se

    dl = make_solver(game, "dl-svrg-eg", seed=0)
    K = dl.params.K
    dl_ok = True
    prev = dl.evals
    for _ in range(20):
        dl.step()
        dl_ok &= (dl.evals - prev) == 4 + 2 * K
        prev = dl.evals

    ok = eg_ok and loopless_ok and dl_ok
    _criterion(9, ok, f"eg charge 2N exact: {eg_ok}; loopless mean {mean:.4f} vs pN+2=4 "
                      f"within 3SE={3 * se:.4f}: {loopless_ok}; epoch charge N+2K exact: {dl_ok}")


def test_criterion_10_gap_oracle_equivalence():
    rng = StableRng(7)
    worst = 0.0
    for seed in range(100):
        problem = random_game(4, 4, seed=1000 + seed, with_linear=True)
        s = problem.structure
        x = problem.set.parts[0].sample(rng, 1)[0]
        y = problem.set.parts[1].sample(rng, 1)[0]
        def payoff(xx, yy):
            return float(xx @ s.A @ yy + s.bx @ xx + s.by @ yy)
        brute = (max(payoff(x, np.eye(4)[j]) for j in range(4))
                 - min(payoff(np.eye(4)[i], y) for i in range(4)))
        worst = max(worst, abs(duality_gap_at(problem, np.concatenate([x, y])) - brute))
    _criterion(10, worst <= 1e-10, f"closed form vs vertex enumeration, max |diff| {worst:.2e}")


def test_criterion_11_error_bound_witness():
    problem, known = vs.matching_pennies()
    tau = 0.1
    Z = problem.set.sample(StableRng(11), 10_000)
    worst = 0.0
    for z in Z:
        residual = np.linalg.norm(z - problem.set.project(z - tau * problem.operator(z)))
        if residual > 1e-14:
            worst = max(worst, known.distance(z) / residual)
    _criterion(11, np.isfinite(worst) and worst < 1e3,
               f"max dist/residual over 1e4 samples = {worst:.3f} < 1e3")


def test_criterion_12_variance_reduction_beats_full_gradient():
    problem = vs.policeman_burglar(100, 2023)
    budget = 80_000
    eg_final = vs.run(problem, "eg", budget_evals=budget, seed=0, eval_every=8000).gap_last[-1]
    svrg_finals = [vs.run(problem, "svrg-eg", budget_evals=budget, seed=s,
                          eval_every=8000).gap_last[-1] for s in range(10)]
    svrg_mean = float(np.mean(svrg_finals))
    _criterion(12, svrg_mean <= eg_final,
               f"final last-iterate gap: variance-reduced {svrg_mean:.3e} <= "
               f"full-gradient {eg_final:.3e} (seed-averaged)")


def test_criterion_13_segmentation_gap_decreases():
    problem = vs.synthetic_segmentation(8, 2, 0)
    N = vs.default_components(problem)
    ok = True
    detail = []
    for algo in ("pda", "svrg-eg"):
        trace = vs.run(problem, algo, budget_evals=60 * N, seed=0, eval_every=10 * N)
        strict = bool(np.all(np.diff(trace.gap_linear) < 0.0))
        ok &= strict and len(trace) >= 5
        detail.append(f"{algo}: {'strictly decreasing' if strict else 'NOT decreasing'} "
                      f"({trace.gap_linear[0]:.3g} -> {trace.gap_linear[-1]:.3g})")
    _criterion(13, ok, "linear-average gap on the labeling game; " + "; ".join(detail))
