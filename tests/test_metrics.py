import numpy as np
import pytest

import visolve as vs
from visolve.metrics import (GapTrace, dist_theta, duality_gap_at, natural_residual, write_table,
                             ws_ratio)
from visolve.rng import StableRng

from conftest import random_game


def vertex_enumeration_gap(problem, x, y):
    """max over pure dual strategies minus min over pure primal strategies."""
    s = problem.structure
    n, m = s.A.shape
    def f(xx, yy):
        return float(xx @ s.A @ yy + s.bx @ xx + s.by @ yy)
    best_y = max(f(x, np.eye(m)[j]) for j in range(m))
    best_x = min(f(np.eye(n)[i], y) for i in range(n))
    return best_y - best_x


def test_gap_zero_at_equilibrium(pennies):
    problem, _ = pennies
    assert abs(duality_gap_at(problem, np.array([0.5, 0.5, 0.5, 0.5]))) <= 1e-12


def test_gap_pure_versus_uniform(pennies):
    problem, _ = pennies
    assert np.isclose(duality_gap_at(problem, np.array([1.0, 0.0, 0.5, 0.5])), 1.0)


def test_gap_matches_vertex_enumeration():
    rng = StableRng(31)
    for seed in range(10):
        problem = random_game(4, 4, seed=seed, with_linear=True)
        x = problem.set.parts[0].sample(rng, 1)[0]
        y = problem.set.parts[1].sample(rng, 1)[0]
        assert np.isclose(duality_gap_at(problem, np.concatenate([x, y])),
                          vertex_enumeration_gap(problem, x, y), atol=1e-10)


def test_gap_needs_bilinear(ws):
    problem, _ = ws
    with pytest.raises(ValueError, match="bilinear"):
        duality_gap_at(problem, np.zeros(2))


def test_gap_on_box_dual_closed_form():
    problem = vs.synthetic_segmentation(2, 2, 0)
    z = problem.set.center()
    x, y = problem.split(z)
    s = problem.structure
    # box radius 1/2 on the dual side: the inner max is half the l1 norm
    expected_dual = 0.5 * np.abs(s.A.T @ x).sum() + float(s.bx @ x)
    blocks = (s.A @ y + s.bx).reshape(-1, 2)
    expected_primal = float(blocks.min(axis=1).sum())
    assert np.isclose(duality_gap_at(problem, z), expected_dual - expected_primal, atol=1e-12)


def test_natural_residual_at_solution(pennies):
    problem, _ = pennies
    assert natural_residual(problem, np.full(4, 0.5), 0.1) <= 1e-12


def test_natural_residual_ws_origin(ws):
    problem, _ = ws
    for tau in (1e-3, 1e-2):
        assert np.isclose(natural_residual(problem, np.zeros(2), tau), 2.0 * np.sqrt(2.0),
                          rtol=1e-9)


def test_natural_residual_interior_equals_operator_norm(interior_box_problem):
    problem, z_star = interior_box_problem
    z = z_star + np.array([0.1, -0.05, 0.2])
    for tau in (1e-6, 1e-4):
        assert np.isclose(natural_residual(problem, z, tau),
                          np.linalg.norm(problem.operator(z)), rtol=1e-6)


def test_natural_residual_rejects_bad_tau(pennies):
    problem, _ = pennies
    with pytest.raises(ValueError, match="tau"):
        natural_residual(problem, np.full(4, 0.5), 0.0)


def test_dist_theta_reduces_to_squared_distance(ws):
    _, known = ws
    rng = StableRng(3)
    for _ in range(50):
        z = rng.uniform(2) * 1.5
        w = rng.uniform(2) * 1.5
        d1 = dist_theta(known, z, w, 1.0)
        assert np.isclose(d1, np.sum((z - known.project(z)) ** 2), atol=1e-12)
        d0 = dist_theta(known, z, w, 0.0)
        assert np.isclose(d0, np.sum((w - known.project(w)) ** 2), atol=1e-12)


def test_dist_theta_zero_on_solutions(ws):
    _, known = ws
    p = known.points[0]
    assert dist_theta(known, p, p, 0.5) == 0.0


def test_dist_theta_segment_example_value(ws):
    _, known = ws
    z, w = np.zeros(2), np.array([0.75, 0.75])
    value = dist_theta(known, z, w, 0.5)
    assert np.isclose(value, 9.0 / 16.0, atol=1e-12)
    # cross-check with a dense scan of the segment parameter
    p0, p1 = known.points
    ts = np.linspace(0.0, 1.0, 100_001)
    pts = p0[None, :] + ts[:, None] * (p1 - p0)[None, :]
    scan = 0.5 * np.sum((z - pts) ** 2, axis=1) + 0.5 * np.sum((w - pts) ** 2, axis=1)
    assert value <= scan.min() + 1e-9


def test_dist_theta_argument_checks(ws):
    _, known = ws
    with pytest.raises(ValueError, match="theta"):
        dist_theta(known, np.zeros(2), np.zeros(2), 1.5)
    with pytest.raises(ValueError, match="solution"):
        dist_theta(None, np.zeros(2), np.zeros(2), 0.5)


def test_ws_ratio_hand_value(ws):
    problem, known = ws
    ratio = ws_ratio(problem, known, np.zeros(2))
    assert np.isclose(ratio, 5.0 / (2.0 * np.sqrt(2.0)), atol=1e-12)


def test_ws_ratio_nonnegative_on_samples(ws):
    problem, known = ws
    X = problem.set.sample(StableRng(1), 1000)
    for x in X:
        if np.linalg.norm(x - known.project(x)) > 1e-12:
            assert ws_ratio(problem, known, x) >= 0.0


def test_ws_ratio_rejects_solution_points(ws):
    problem, known = ws
    with pytest.raises(ValueError, match="solution"):
        ws_ratio(problem, known, np.array([0.75, 0.75]))


def test_error_bound_witness_small(pennies):
    problem, known = pennies
    Z = problem.set.sample(StableRng(2), 1000)
    tau = 0.1
    worst = 0.0
    for z in Z:
        residual = np.linalg.norm(z - problem.set.project(z - tau * problem.operator(z)))
        if residual > 1e-14:
            worst = max(worst, known.distance(z) / residual)
    assert 0.0 < worst < 1e3


def test_residual_and_gap_small_together(pennies):
    problem, known = pennies
    trace = vs.run(problem, "svrg-eg", budget_evals=4000, seed=0, eval_every=400, known=known)
    assert trace.gap_last[-1] <= 1e-3
    z_like = trace.dist_theta[-1]
    assert z_like <= 1e-3


def _tiny_trace(**overrides):
    base = dict(evals=np.array([1, 2, 3]),
                gap_last=np.array([3.0, 2.0, 1.0]),
                gap_uniform=np.array([3.0, 2.5, 2.0]),
                gap_linear=np.array([3.0, 2.2, 1.5]),
                gap_quadratic=np.array([3.0, 2.0, 1.2]))
    base.update(overrides)
    return GapTrace(**base)


def test_gap_trace_clips_roundoff_negatives():
    trace = _tiny_trace(gap_last=np.array([3.0, 2.0, -5e-11]))
    assert trace.gap_last[-1] == 0.0


def test_gap_trace_rejects_real_negatives():
    with pytest.raises(ValueError, match="negative"):
        _tiny_trace(gap_last=np.array([3.0, 2.0, -1e-3]))


def test_gap_trace_requires_increasing_evals():
    with pytest.raises(ValueError, match="increasing"):
        _tiny_trace(evals=np.array([1, 1, 2]))


def test_gap_at_reads_the_first_checkpoint_at_or_past_the_budget():
    """A budget beyond the last checkpoint has no row to read: it raises
    instead of returning the last row."""
    trace = GapTrace(evals=[10, 20], gap_last=[3.0, 2.0], gap_uniform=[3.0, 2.0],
                     gap_linear=[3.0, 2.0], gap_quadratic=[3.0, 2.0])
    assert trace.gap_at(5) == 3.0 and trace.gap_at(10) == 3.0 and trace.gap_at(11) == 2.0
    assert trace.gap_at(20, "gap_uniform") == 2.0
    with pytest.raises(ValueError, match="beyond the last checkpoint"):
        trace.gap_at(100)


def test_gap_trace_csv_roundtrip(tmp_path, pennies):
    problem, known = pennies
    trace = vs.run(problem, "eg", budget_evals=100, seed=0, eval_every=4, known=known)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "evals,gap_last,gap_uniform,gap_linear,gap_quadratic,dist_theta"
    back = GapTrace.from_csv(path)
    for name in trace.columns:
        assert np.array_equal(back.column(name), trace.column(name))

    # Counts past 2**32 still print as plain digits, and to_csv is write_table.
    big = _tiny_trace(evals=np.array([4098, 2**32 + 1, 5_000_000_000]))
    big.to_csv(path)
    write_table(tmp_path / "table.csv", {name: big.column(name) for name in big.columns})
    assert path.read_bytes() == (tmp_path / "table.csv").read_bytes()
    assert [line.split(",")[0] for line in path.read_text().splitlines()[1:]] == \
        ["4098", "4294967297", "5000000000"]
    assert np.array_equal(GapTrace.from_csv(path).evals, big.evals)
