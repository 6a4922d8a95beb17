import itertools

import numpy as np
import pytest
import scipy.sparse as sp

import visolve as vs
from visolve.oracles import (MatrixGameOracle, SnapshotCache, default_components,
                             pair_second_moment, stochastic_operator, vr_conditional_variance)
from visolve.rng import StableRng

from conftest import plain_affine_vis, random_game


def with_plain_vis(game):
    """The given game, then the two plain affine VIs, by name."""
    return {"game": game, **plain_affine_vis()}


def sampling_of(A):
    return MatrixGameOracle(vs.AffineVI.bilinear(A)).sampling


def support(oracle):
    """Every sample of positive probability (one column per block), with it."""
    p = oracle.sampling.p
    for sample in itertools.product(*(range(block.size) for block in p)):
        weight = np.prod([block[k] for block, k in zip(p, sample)])
        if weight > 0:
            yield sample, weight


def exact_expectation(oracle, z):
    """Sum the sampled oracle over its full support with the draw weights."""
    total = np.zeros(oracle.problem.dim)
    for sample, weight in support(oracle):
        total += weight * stochastic_operator(oracle, sample, z)
    return total


def test_sampling_distribution_examples():
    s = sampling_of(np.eye(2))
    assert np.allclose(s.p, [[0.5, 0.5], [0.5, 0.5]])
    s2 = sampling_of(np.array([[3.0, 0.0], [0.0, 4.0]]))
    assert np.allclose(s2.p, [[9 / 25, 16 / 25], [9 / 25, 16 / 25]])
    for seed in range(5):
        A = StableRng(seed).uniform(12).reshape(3, 4)
        for p in sampling_of(A).p:
            assert abs(p.sum() - 1.0) <= 1e-12
    plain = vs.AffineVI(np.array([[3.0, 0.0], [0.0, 4.0]]), np.zeros(2), vs.Box(0.0, 1.0, dim=2))
    assert np.allclose(MatrixGameOracle(plain).sampling.p, [[9 / 25, 16 / 25]])
    for name, problem in plain_affine_vis().items():
        (p,) = MatrixGameOracle(problem).sampling.p
        assert abs(p.sum() - 1.0) <= 1e-12, name
        assert np.allclose(p, np.sum(problem.M ** 2, axis=0) / problem.lipschitz_bound() ** 2)


def test_zero_rows_never_sampled():
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    problem = vs.AffineVI.bilinear(A)
    oracle = MatrixGameOracle(problem)
    assert np.allclose(oracle.sampling.p, [[1.0, 0.0], [1.0, 0.0]])
    rng = StableRng(0)
    assert all(oracle.draw(rng) == [0, 0] for _ in range(10_000))
    z = problem.set.sample(StableRng(1), 1)[0]
    assert np.allclose(exact_expectation(oracle, z), problem.operator(z), atol=1e-12)


def test_all_zero_matrix_rejected():
    with pytest.raises(ValueError, match="zero"):
        MatrixGameOracle(vs.AffineVI.bilinear(np.zeros((3, 3))))
    with pytest.raises(ValueError, match="zero"):
        MatrixGameOracle(vs.AffineVI(np.zeros((2, 2)), np.ones(2), vs.Box(0.0, 1.0, dim=2)))


def test_stochastic_operator_identity_example():
    oracle = MatrixGameOracle(vs.AffineVI.bilinear(np.eye(2)))
    z = np.array([1.0, 0.0, 0.0, 1.0])
    out = stochastic_operator(oracle, (0, 1), z)
    assert np.allclose(out, [0.0, 2.0, -2.0, 0.0])


def test_exact_expectation_is_unbiased():
    for name, problem in with_plain_vis(random_game(4, 4, seed=9, with_linear=True)).items():
        oracle = MatrixGameOracle(problem)
        for k in range(5):
            z = problem.set.sample(StableRng(k), 1)[0]
            F = problem.operator(z)
            err = np.linalg.norm(exact_expectation(oracle, z) - F) / max(np.linalg.norm(F), 1e-30)
            assert err <= 1e-10, name


def test_linear_terms_pass_through_every_sample():
    problem = random_game(3, 4, seed=2, with_linear=True)
    st = problem.structure
    oracle = MatrixGameOracle(problem)
    p_row, p_col = oracle.sampling.p
    z = problem.set.sample(StableRng(0), 1)[0]
    x, y = problem.split(z)
    for i in range(3):
        for j in range(4):
            out = stochastic_operator(oracle, (i, j), z)
            weighted_primal = (y[j] / p_col[j]) * st.A[:, j]
            weighted_dual = (-x[i] / p_row[i]) * st.A[i]
            assert np.array_equal(out[:3], weighted_primal + st.bx)
            assert np.array_equal(out[3:], weighted_dual - st.by)


def test_vr_estimate_collapses_at_snapshot():
    for name, problem in with_plain_vis(random_game(4, 4, seed=4)).items():
        oracle = MatrixGameOracle(problem)
        w = problem.set.sample(StableRng(3), 1)[0]
        cache = SnapshotCache.at(problem, w)
        for sample, _ in support(oracle):
            assert np.array_equal(oracle.vr_estimate(cache, sample, w), cache.Fw), name


def test_vr_estimate_exact_conditional_expectation():
    for name, problem in with_plain_vis(random_game(4, 4, seed=5)).items():
        oracle = MatrixGameOracle(problem)
        rng = StableRng(8)
        w = problem.set.sample(rng, 1)[0]
        z_half = problem.set.sample(rng, 1)[0]
        cache = SnapshotCache.at(problem, w)
        mean = np.zeros(problem.dim)
        for sample, weight in support(oracle):
            mean += weight * oracle.vr_estimate(cache, sample, z_half)
        assert np.allclose(mean, problem.operator(z_half), atol=1e-12), name


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
    p_row, p_col = oracle.sampling.p
    w, z_half = problem.set.sample(rng, 2)
    cache = SnapshotCache.at(problem, w)
    for _ in range(200):
        i, j = oracle.draw(rng)
        expected = cache.Fw.copy()
        expected[:n] += ((z_half[n + j] - w[n + j]) / p_col[j]) * dense[:, j]
        expected[n:] -= ((z_half[i] - w[i]) / p_row[i]) * dense[i]
        assert np.array_equal(oracle.vr_estimate(cache, (i, j), z_half), expected)
        sampled = np.concatenate([(z_half[n + j] / p_col[j]) * dense[:, j] + bx,
                                  (-z_half[i] / p_row[i]) * dense[i] - by])
        assert np.array_equal(stochastic_operator(oracle, (i, j), z_half), sampled)


def bruteforce_vr_variance(oracle, z_half, w):
    problem = oracle.problem
    cache = SnapshotCache.at(problem, w)
    F = problem.operator(z_half)
    total = 0.0
    for sample, weight in support(oracle):
        diff = oracle.vr_estimate(cache, sample, z_half) - F
        total += weight * float(diff @ diff)
    return total


def test_closed_form_variance_matches_bruteforce():
    for name, problem in with_plain_vis(random_game(4, 5, seed=6, with_linear=True)).items():
        oracle = MatrixGameOracle(problem)
        rng = StableRng(12)
        for _ in range(5):
            w = problem.set.sample(rng, 1)[0]
            z_half = problem.set.sample(rng, 1)[0]
            brute = bruteforce_vr_variance(oracle, z_half, w)
            closed = vr_conditional_variance(oracle, z_half, w)
            assert np.isclose(closed, brute, rtol=1e-12, atol=1e-14), name


def test_vr_variance_lipschitz_bound():
    for name, problem in with_plain_vis(random_game(4, 4, seed=7)).items():
        oracle = MatrixGameOracle(problem)
        L_sq = problem.lipschitz_bound() ** 2
        rng = StableRng(21)
        for _ in range(20):
            w = problem.set.sample(rng, 1)[0]
            z_half = problem.set.sample(rng, 1)[0]
            var = vr_conditional_variance(oracle, z_half, w)
            assert var <= L_sq * float(np.sum((z_half - w) ** 2)) * (1.0 + 1e-12), name


def test_pair_second_moment_matches_bruteforce():
    for name, problem in with_plain_vis(random_game(3, 4, seed=1, with_linear=True)).items():
        oracle = MatrixGameOracle(problem)
        rng = StableRng(14)
        z1 = problem.set.sample(rng, 1)[0]
        z2 = problem.set.sample(rng, 1)[0]
        brute = 0.0
        for sample, weight in support(oracle):
            diff = stochastic_operator(oracle, sample, z1) - stochastic_operator(oracle, sample, z2)
            brute += weight * float(diff @ diff)
        assert np.isclose(pair_second_moment(oracle, z1, z2), brute, rtol=1e-12), name


def test_sampling_frequencies_match_probabilities():
    for name, problem in with_plain_vis(random_game(5, 5, seed=3)).items():
        s = MatrixGameOracle(problem).sampling
        draws = 1_000_000
        rng = StableRng(0)
        for probs, cdf in zip(s.p, s.cdf):
            drawn = np.minimum(np.searchsorted(cdf, rng.uniform(draws), side="right"),
                               cdf.size - 1)
            freq = np.bincount(drawn, minlength=probs.size) / draws
            se = np.sqrt(probs * (1.0 - probs) / draws)
            assert np.all(np.abs(freq - probs) <= 3.0 * se + 1e-12), name


class _Uniforms:
    """Stands in for StableRng: hands out the given uniforms in order."""

    def __init__(self, values):
        self._values = iter(values)

    def uniform(self):
        return next(self._values)


@pytest.mark.parametrize("problem", [vs.policeman_burglar(30, 0),
                                     vs.synthetic_segmentation(8, 2, 0),
                                     vs.AffineVI.bilinear(np.array([[1.0, 0.0], [0.0, 0.0]])),
                                     plain_affine_vis()["affine12"]],
                         ids=["pb30", "seg8", "zero-row", "affine12"])
def test_draw_matches_searchsorted(problem):
    s = MatrixGameOracle(problem).sampling
    # every CDF entry and its predecessor, 0, and seeded uniforms
    probes = [np.concatenate([cdf, np.nextafter(cdf, -np.inf), [0.0], StableRng(k).uniform(5000)])
              for k, cdf in enumerate(s.cdf)]
    count = max(p.size for p in probes)
    uniforms = [np.resize(p, count) for p in probes]
    rng = _Uniforms(np.column_stack(uniforms).ravel().tolist())  # block order within a draw
    drawn = np.array([s.draw(rng) for _ in range(count)])
    for block, (cdf, u) in enumerate(zip(s.cdf, uniforms)):
        expect = np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)
        assert np.array_equal(drawn[:, block], expect)


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


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), 0.5, 2.7, 0])
def test_cost_N_must_be_a_finite_integer_of_at_least_one(pb8, bad):
    with pytest.raises(ValueError, match=r"^N \(cost_N\) must be a finite integer of at least "
                                         rf"1, got {bad}$"):
        vs.make_solver(pb8, "eg", seed=0, cost_N=bad)


@pytest.mark.parametrize("algo", vs.ALGORITHMS)
def test_every_algorithm_takes_an_integral_cost_N(pb8, algo):
    assert vs.make_solver(pb8, algo, seed=0, cost_N=5.0).N == 5


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


def audited_pairs():
    """(instance, algorithm) for every applicable algorithm among those that
    evaluate F, on one instance of each family."""
    instances = {"pb8": lambda: vs.policeman_burglar(8, 1),
                 "seg4": lambda: vs.synthetic_segmentation(4, 2, 0),
                 "ws": lambda: vs.ws_example()[0],
                 **{name: lambda name=name: plain_affine_vis()[name]
                    for name in ("affine12", "halfbox2")}}
    return [pytest.param(make, algo, id=f"{name}-{algo}") for name, make in instances.items()
            for algo in ("eg", "oomd-l2", "oomd-entropy", "svrg-eg", "dl-svrg-eg")
            if vs.applicable(make(), algo)]


@pytest.mark.parametrize("make, algo", audited_pairs())
def test_charges_match_the_work_done(make, algo):
    """Count full operator calls and sampled estimates: a step's charge is N
    per full call plus 2 per estimate, and an estimate calls no full
    operator. pda and rm+ multiply by A directly; their charges are checked
    by the closed forms above."""
    problem = make()
    full, estimates = [0], [0]
    operator = problem.operator

    def counted_operator(z):
        full[0] += 1
        return operator(z)

    problem.operator = counted_operator
    solver = vs.make_solver(problem, algo, seed=0)
    if algo in vs.solvers.VARIANCE_REDUCED:
        estimate = solver.oracle.vr_estimate

        def counted_estimate(*args):
            before = full[0]
            out = estimate(*args)
            assert full[0] == before, "a sampled estimate evaluated the full operator"
            estimates[0] += 1
            return out

        solver.oracle.vr_estimate = counted_estimate
    assert solver.evals == solver.N * full[0]
    for _ in range(30):
        solver.step()  # not run: its measurement evaluates F too
        assert solver.evals == solver.N * full[0] + 2 * estimates[0]
    assert full[0] > 0 and (estimates[0] > 0) == (algo in vs.solvers.VARIANCE_REDUCED)


def run_audited_pairs():
    """(instance, algorithm) for every applicable algorithm on a game, a
    labeling game and a plain affine VI."""
    instances = {"pb8": lambda: vs.policeman_burglar(8, 1),
                 "seg4": lambda: vs.synthetic_segmentation(4, 2, 0),
                 "affine12": lambda: plain_affine_vis()["affine12"]}
    return [pytest.param(make, algo, id=f"{name}-{algo}") for name, make in instances.items()
            for algo in vs.ALGORITHMS if vs.applicable(make(), algo)]


@pytest.mark.parametrize("make, algo", run_audited_pairs())
def test_whole_runs_measure_from_the_operator_values_they_hold(monkeypatch, make, algo):
    """Count full operator calls over a whole run, and the measures and the
    calls they make. oomd-l2 and oomd-entropy measure every checkpoint from
    the values of F their steps computed, so a run makes evals / N calls;
    eg's checkpoint computes F at the last iterate and its next step uses
    it, so only the last checkpoint adds a call. Every other algorithm's
    measure evaluates F once, at the last iterate and at each average (four
    per checkpoint). dl-svrg-eg weights its first epoch's iterates by
    0 ** q, so at its first checkpoint the last iterate's measure stands in
    for the linear and quadratic averages."""
    problem = make()
    calls, measures, measured = [0], [0], [0]
    operator = problem.operator

    def counted_operator(z):
        calls[0] += 1
        return operator(z)

    problem.operator = counted_operator
    for name in ("duality_gap_at", "natural_residual"):
        def counted_measure(*args, measure=getattr(vs.solvers, name)):
            before = calls[0]
            out = measure(*args)
            measures[0] += 1
            measured[0] += calls[0] - before
            return out

        monkeypatch.setattr(vs.solvers, name, counted_measure)
    N = default_components(problem)
    trace = vs.run(problem, algo, 36 * N, seed=0, eval_every=3 * N)
    full_calls, rest = divmod(int(trace.evals[-1]), N)
    if algo in ("eg", "oomd-l2", "oomd-entropy"):
        assert measures[0] == 4 * len(trace) and measured[0] == 0
        assert rest == 0 and calls[0] == full_calls + (algo == "eg")
    else:
        assert measures[0] == 4 * len(trace) - 2 * (algo == "dl-svrg-eg")
        assert measured[0] == measures[0]
