import numpy as np
import pytest
import scipy.sparse as sp

import visolve as vs
from visolve.oracles import (MatrixGameOracle, SamplingDistribution, SnapshotCache,
                             default_components, pair_second_moment, stochastic_operator,
                             vr_conditional_variance)
from visolve.rng import StableRng

from conftest import random_game


def exact_expectation(problem, z):
    """Sum the sampled oracle over its full support with the draw weights."""
    s = SamplingDistribution(problem.structure.A)
    n, m = problem.structure.A.shape
    total = np.zeros(problem.dim)
    for i in range(n):
        for j in range(m):
            w = s.p_row[i] * s.p_col[j]
            if w > 0:
                total += w * stochastic_operator(problem, s, (i, j), z)
    return total


def test_sampling_distribution_examples():
    s = SamplingDistribution(np.eye(2))
    assert np.allclose(s.p_row, [0.5, 0.5]) and np.allclose(s.p_col, [0.5, 0.5])
    s2 = SamplingDistribution(np.array([[3.0, 0.0], [0.0, 4.0]]))
    assert np.allclose(s2.p_row, [9 / 25, 16 / 25])
    assert np.allclose(s2.p_col, [9 / 25, 16 / 25])
    for seed in range(5):
        A = StableRng(seed).uniform(12).reshape(3, 4)
        s3 = SamplingDistribution(A)
        assert abs(s3.p_row.sum() - 1.0) <= 1e-12
        assert abs(s3.p_col.sum() - 1.0) <= 1e-12


def test_zero_rows_never_sampled():
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    s = SamplingDistribution(A)
    assert np.allclose(s.p_row, [1.0, 0.0])
    assert np.allclose(s.p_col, [1.0, 0.0])
    i, j = s.draw_many(StableRng(0), 10_000)
    assert np.all(i == 0) and np.all(j == 0)
    problem = vs.AffineVI.bilinear(A)
    z = problem.set.sample(StableRng(1), 1)[0]
    assert np.allclose(exact_expectation(problem, z), problem.operator(z), atol=1e-12)


def test_all_zero_matrix_rejected():
    with pytest.raises(ValueError, match="zero"):
        SamplingDistribution(np.zeros((3, 3)))


def test_stochastic_operator_identity_example():
    problem = vs.AffineVI.bilinear(np.eye(2))
    s = SamplingDistribution(np.eye(2))
    z = np.array([1.0, 0.0, 0.0, 1.0])
    out = stochastic_operator(problem, s, (0, 1), z)
    assert np.allclose(out, [0.0, 2.0, -2.0, 0.0])


def test_exact_expectation_is_unbiased():
    problem = random_game(4, 4, seed=9, with_linear=True)
    for k in range(5):
        z = problem.set.sample(StableRng(k), 1)[0]
        F = problem.operator(z)
        err = np.linalg.norm(exact_expectation(problem, z) - F) / max(np.linalg.norm(F), 1e-30)
        assert err <= 1e-10


def test_linear_terms_pass_through_every_sample():
    problem = random_game(3, 4, seed=2, with_linear=True)
    st = problem.structure
    s = SamplingDistribution(st.A)
    z = problem.set.sample(StableRng(0), 1)[0]
    x, y = problem.split(z)
    for i in range(3):
        for j in range(4):
            out = stochastic_operator(problem, s, (i, j), z)
            weighted_primal = (y[j] / s.p_col[j]) * st.A[:, j]
            weighted_dual = (-x[i] / s.p_row[i]) * st.A[i]
            assert np.array_equal(out[:3], weighted_primal + st.bx)
            assert np.array_equal(out[3:], weighted_dual + st.by)


def test_vr_estimate_collapses_at_snapshot():
    problem = random_game(4, 4, seed=4)
    oracle = MatrixGameOracle(problem)
    w = problem.set.sample(StableRng(3), 1)[0]
    cache = SnapshotCache.at(problem, w)
    for i in range(4):
        for j in range(4):
            out = oracle.vr_estimate(cache, (i, j), w)
            assert np.array_equal(out, cache.Fw)


def test_vr_estimate_exact_conditional_expectation():
    problem = random_game(4, 4, seed=5)
    oracle = MatrixGameOracle(problem)
    s = oracle.sampling
    rng = StableRng(8)
    w = problem.set.sample(rng, 1)[0]
    z_half = problem.set.sample(rng, 1)[0]
    cache = SnapshotCache.at(problem, w)
    mean = np.zeros(problem.dim)
    for i in range(4):
        for j in range(4):
            mean += s.p_row[i] * s.p_col[j] * oracle.vr_estimate(cache, (i, j), z_half)
    assert np.allclose(mean, problem.operator(z_half), atol=1e-12)


def duplicate_entry_payoffs():
    """A 3 x 4 payoff with two stored entries at (0, 1) and at (2, 3), as COO
    data and as a CSR matrix that keeps both entries."""
    rows, cols = [0, 0, 1, 1, 2, 2], [1, 1, 0, 2, 3, 3]
    vals = [0.5, -1.25, 2.0, -3.0, 0.75, 0.25]
    coo = sp.coo_matrix((vals, (rows, cols)), shape=(3, 4))
    csr = sp.csr_matrix((vals, cols, [0, 2, 4, 6]), shape=(3, 4))
    assert not csr.has_canonical_format
    return coo, csr


@pytest.mark.parametrize("payoff", [
    pytest.param(lambda: vs.synthetic_segmentation(4, 2, 0).structure.A, id="seg4-h2"),
    pytest.param(lambda: vs.synthetic_segmentation(4, 3, 0).structure.A, id="seg4-h3"),
    pytest.param(lambda: duplicate_entry_payoffs()[0], id="coo-duplicates"),
    pytest.param(lambda: duplicate_entry_payoffs()[1], id="csr-duplicates"),
])
def test_sparse_slices_exact(payoff):
    """On sparse payoffs both sampled estimates scatter the stored entries of
    one row and one column; they must give the bits of the same formulas
    applied to whole columns and rows of the dense matrix."""
    A = payoff()
    dense = A.toarray()
    n, m = dense.shape
    rng = StableRng(31)
    bx, by = rng.uniform(n) - 0.5, rng.uniform(m) - 0.5
    problem = vs.AffineVI.bilinear(A, bx, by, primal_set=vs.Box(-1.0, 1.0, dim=n),
                                   dual_set=vs.Box(-1.0, 1.0, dim=m))
    oracle = MatrixGameOracle(problem)
    s = oracle.sampling
    w, z_half = problem.set.sample(rng, 2)
    cache = SnapshotCache.at(problem, w)
    for _ in range(200):
        i, j = oracle.draw(rng)
        expected = cache.Fw.copy()
        expected[:n] += ((z_half[n + j] - w[n + j]) / s.p_col[j]) * dense[:, j]
        expected[n:] -= ((z_half[i] - w[i]) / s.p_row[i]) * dense[i]
        assert np.array_equal(oracle.vr_estimate(cache, (i, j), z_half), expected)
        sampled = np.concatenate([(z_half[n + j] / s.p_col[j]) * dense[:, j] + bx,
                                  (-z_half[i] / s.p_row[i]) * dense[i] + by])
        assert np.array_equal(stochastic_operator(problem, s, (i, j), z_half), sampled)


def bruteforce_vr_variance(problem, z_half, w):
    oracle = MatrixGameOracle(problem)
    s = oracle.sampling
    cache = SnapshotCache.at(problem, w)
    F = problem.operator(z_half)
    total = 0.0
    for i in range(s.p_row.size):
        for j in range(s.p_col.size):
            weight = s.p_row[i] * s.p_col[j]
            if weight > 0:
                diff = oracle.vr_estimate(cache, (i, j), z_half) - F
                total += weight * float(diff @ diff)
    return total


def test_closed_form_variance_matches_bruteforce():
    problem = random_game(4, 5, seed=6, with_linear=True)
    rng = StableRng(12)
    for _ in range(5):
        w = problem.set.sample(rng, 1)[0]
        z_half = problem.set.sample(rng, 1)[0]
        brute = bruteforce_vr_variance(problem, z_half, w)
        closed = vr_conditional_variance(problem, z_half, w)
        assert np.isclose(closed, brute, rtol=1e-12, atol=1e-14)


def test_vr_variance_lipschitz_bound():
    problem = random_game(4, 4, seed=7)
    fro_sq = problem.structure.frobenius_norm() ** 2
    rng = StableRng(21)
    for _ in range(20):
        w = problem.set.sample(rng, 1)[0]
        z_half = problem.set.sample(rng, 1)[0]
        var = vr_conditional_variance(problem, z_half, w)
        assert var <= fro_sq * float(np.sum((z_half - w) ** 2)) * (1.0 + 1e-12)


def test_pair_second_moment_matches_bruteforce():
    problem = random_game(3, 4, seed=1, with_linear=True)
    s = SamplingDistribution(problem.structure.A)
    rng = StableRng(14)
    z1 = problem.set.sample(rng, 1)[0]
    z2 = problem.set.sample(rng, 1)[0]
    brute = 0.0
    for i in range(3):
        for j in range(4):
            weight = s.p_row[i] * s.p_col[j]
            if weight > 0:
                diff = (stochastic_operator(problem, s, (i, j), z1)
                        - stochastic_operator(problem, s, (i, j), z2))
                brute += weight * float(diff @ diff)
    assert np.isclose(pair_second_moment(problem, z1, z2), brute, rtol=1e-12)


def test_sampling_frequencies_match_probabilities():
    problem = random_game(5, 5, seed=3)
    s = SamplingDistribution(problem.structure.A)
    draws = 1_000_000
    i, j = s.draw_many(StableRng(0), draws)
    for probs, drawn in ((s.p_row, i), (s.p_col, j)):
        freq = np.bincount(drawn, minlength=probs.size) / draws
        se = np.sqrt(probs * (1.0 - probs) / draws)
        assert np.all(np.abs(freq - probs) <= 3.0 * se + 1e-12)


class _Uniforms:
    """Stands in for StableRng: hands out the given uniforms in order."""

    def __init__(self, values):
        self._values = iter(values)

    def uniform(self):
        return next(self._values)


@pytest.mark.parametrize("A", [vs.policeman_burglar(30, 0).structure.A,
                               vs.synthetic_segmentation(8, 2, 0).structure.A,
                               np.array([[1.0, 0.0], [0.0, 0.0]])],
                         ids=["pb30", "seg8", "zero-row"])
def test_draw_matches_searchsorted(A):
    s = SamplingDistribution(A)
    # every CDF entry and its predecessor, 0, and seeded uniforms
    probes = [np.concatenate([cdf, np.nextafter(cdf, -np.inf), [0.0], StableRng(k).uniform(5000)])
              for k, cdf in enumerate((s.cdf_row, s.cdf_col))]
    count = max(p.size for p in probes)
    u_row, u_col = (np.resize(p, count) for p in probes)
    rng = _Uniforms(np.column_stack([u_row, u_col]).ravel().tolist())  # row uniform first
    drawn = np.array([s.draw(rng) for _ in range(count)])
    expect_i = np.minimum(np.searchsorted(s.cdf_row, u_row, side="right"), s.p_row.size - 1)
    expect_j = np.minimum(np.searchsorted(s.cdf_col, u_col, side="right"), s.p_col.size - 1)
    assert np.array_equal(drawn[:, 0], expect_i)
    assert np.array_equal(drawn[:, 1], expect_j)


@pytest.mark.parametrize("algo", vs.ALGORITHMS)
def test_step_charges_closed_forms(pb8, algo):
    N = 8
    solver = vs.make_solver(pb8, algo, seed=0)
    paid_upfront = algo in ("svrg-eg", "dl-svrg-eg", "oomd-l2", "oomd-entropy")
    assert solver.evals == (N if paid_upfront else 0)
    total, seen = solver.evals, set()
    for _ in range(40):
        before, cache = solver.evals, getattr(solver, "cache", None)
        solver.step()
        if algo == "eg":
            charge = 2 * N
        elif algo == "svrg-eg":
            charge = N + 2 if solver.cache is not cache else 2
        elif algo == "dl-svrg-eg":
            charge = N + 2 * solver.params.K
        else:
            charge = N
        assert solver.evals - before == charge
        total += charge
        seen.add(charge)
    assert solver.evals == total
    if algo == "svrg-eg":
        assert seen == {2, N + 2}


def test_charge_closed_forms(pb8):
    def charges(algo, steps=1):
        solver = vs.make_solver(pb8, algo, seed=0, cost_N=100)
        out = []
        for _ in range(steps):
            before = solver.evals
            solver.step()
            out.append(solver.evals - before)
        return out

    assert charges("eg") == [200]
    assert charges("dl-svrg-eg") == [200]
    assert set(charges("svrg-eg", steps=2000)) == {2, 102}
    for tag in ("pda", "oomd-l2", "oomd-entropy", "rm+"):
        assert charges(tag) == [100]
    with pytest.raises(ValueError, match="unknown"):
        vs.make_solver(pb8, "sgd", seed=0)
    with pytest.raises(ValueError):
        vs.make_solver(pb8, "eg", seed=0, cost_N=0)


def test_cumulative_charge_monotone_and_deterministic(pb8):
    runs = []
    for _ in range(2):
        solver = vs.make_solver(pb8, "eg", seed=0, cost_N=10)
        cumulative = []
        for _ in range(25):
            solver.step()
            cumulative.append(solver.evals)
        runs.append(cumulative)
    assert np.array_equal(runs[0], 20 * np.arange(1, 26))
    assert runs[0] == runs[1]


def test_default_components():
    assert default_components(vs.policeman_burglar(7, 0)) == 7
    assert default_components(vs.uniform_random(3, 9, 0)) == 9
    assert default_components(vs.ws_example()[0]) == 2
