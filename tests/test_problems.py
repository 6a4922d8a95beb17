import logging

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import visolve as vs
from visolve import harness, problems
from visolve.rng import StableRng
from visolve.solvers import make_solver

from conftest import fixed_matrix, spectral_norm_bench


def test_operator_pennies_equilibrium(pennies):
    problem, _ = pennies
    assert np.allclose(problem.operator(np.full(4, 0.5)), 0.0, atol=1e-15)


def test_operator_ws_example_values(ws):
    problem, _ = ws
    assert np.allclose(problem.operator(np.array([1.0, 0.5])), [-1.25, -1.25])
    assert np.allclose(problem.operator(np.zeros(2)), [-2.0, -2.0])


def test_operator_identity_bilinear_by_hand():
    problem = vs.AffineVI.bilinear(np.eye(2))
    z = np.array([1.0, 0.0, 0.0, 1.0])
    assert np.allclose(problem.operator(z), [0.0, 1.0, -1.0, 0.0])


def test_operator_dimension_mismatch(pennies):
    problem, _ = pennies
    with pytest.raises(ValueError, match="dimension"):
        problem.operator(np.zeros(3))


def test_policeman_burglar_single_house():
    problem = vs.policeman_burglar(1, 123)
    assert problem.structure.A.shape == (1, 1)
    assert problem.structure.A[0, 0] == 0.0


def test_policeman_burglar_matches_formula():
    problem = vs.policeman_burglar(3, 7)
    w = np.abs(StableRng(7).normal(3))
    idx = np.arange(3)
    expected = w[:, None] * (1.0 - np.exp(-0.8 * np.abs(idx[:, None] - idx[None, :])))
    assert np.array_equal(problem.structure.A, expected)
    assert np.all(np.diag(problem.structure.A) == 0.0)


def test_policeman_burglar_paper_scale():
    problem = vs.policeman_burglar(100, 2023)
    assert problem.structure.A.shape == (100, 100)
    assert isinstance(problem.set.parts[0], vs.Simplex)
    assert isinstance(problem.set.parts[1], vs.Simplex)


def test_policeman_burglar_rejects_zero():
    with pytest.raises(ValueError):
        vs.policeman_burglar(0, 0)


def test_nemirovski_values():
    assert np.allclose(vs.nemirovski(1, 1, 1.0).structure.A, [[1.0]])
    expected = np.array([[1.0, 2.0], [2.0, 1.0]]) / 3.0
    assert np.allclose(vs.nemirovski(2, 2, 1.0).structure.A, expected, atol=1e-15)


@pytest.mark.parametrize("family,alpha_exp", [(1, 1.0), (1, 2.0), (2, 1.0), (2, 2.0)])
def test_nemirovski_symmetric_unit_range(family, alpha_exp):
    A = vs.nemirovski(7, family, alpha_exp).structure.A
    assert np.allclose(A, A.T)
    assert np.all((A >= 0.0) & (A <= 1.0))


def test_nemirovski_bad_family():
    with pytest.raises(ValueError, match="family"):
        vs.nemirovski(4, 3, 1.0)


def test_uniform_random_contract():
    problem = vs.uniform_random(3, 5, 0)
    A = problem.structure.A
    assert A.shape == (3, 5)
    assert np.all(A == np.round(A))
    assert np.all((A >= 0) & (A <= 10))
    again = vs.uniform_random(3, 5, 0).structure.A
    assert np.array_equal(A, again)
    other = vs.uniform_random(3, 5, 1).structure.A
    assert not np.array_equal(A, other)
    with pytest.raises(ValueError):
        vs.uniform_random(0, 3, 0)


def test_ws_example_segment_solves_vi(ws):
    problem, known = ws
    axis = np.linspace(0.0, 1.0, 200)
    gx, gy = np.meshgrid(axis, axis)
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    grid = grid[grid.sum(axis=1) <= 1.5]
    p0, p1 = known.points
    for p in (p0, 0.5 * (p0 + p1), p1):
        assert np.min((grid - p) @ problem.operator(p)) >= -1e-9
    assert np.allclose(problem.operator(0.5 * (p0 + p1)), [-1.25, -1.25])


def test_ws_example_sharpness_direction(ws):
    problem, known = ws
    X = problem.set.sample(StableRng(0), 1000)
    for x in X:
        s = known.project(x)
        assert problem.operator(s) @ (x - s) >= -1e-12


def test_grid_gradient_structure():
    G = vs.grid_gradient(4).toarray()
    assert G.shape == (32, 16)
    nonzeros = (G != 0).sum(axis=1)
    assert np.all(nonzeros <= 2)
    assert set(np.unique(G)) <= {-1.0, 0.0, 1.0}
    assert np.allclose(G @ np.ones(16), 0.0)


@pytest.mark.parametrize("g", [2, 3, 5, 32])
def test_grid_gradient_matches_the_pixel_loop(g):
    """The CSR arrays equal those of the matrix built pixel by pixel."""
    rows, cols, vals = [], [], []
    for i in range(g):
        for j in range(g):
            p = i * g + j
            if i + 1 < g:
                rows += [2 * p, 2 * p]
                cols += [p + g, p]
                vals += [1.0, -1.0]
            if j + 1 < g:
                rows += [2 * p + 1, 2 * p + 1]
                cols += [p + 1, p]
                vals += [1.0, -1.0]
    expected = sp.csr_matrix((vals, (rows, cols)), shape=(2 * g * g, g * g))
    G = vs.grid_gradient(g)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(G, name), getattr(expected, name))
        assert getattr(G, name).dtype == getattr(expected, name).dtype


def test_segmentation_dimensions_and_bounds():
    problem = vs.synthetic_segmentation(2, 2, 0)
    assert problem.set.parts[0].dim == 8
    assert problem.set.parts[1].dim == 16
    assert problem.structure.A.shape == (8, 16)
    assert np.all(problem.structure.bx >= 0.0)
    with pytest.raises(ValueError):
        vs.synthetic_segmentation(1, 2, 0)
    with pytest.raises(ValueError):
        vs.synthetic_segmentation(4, 1, 0)


def test_segmentation_constant_labeling_has_zero_coupling_gradient():
    problem = vs.synthetic_segmentation(3, 2, 0)
    u = np.tile([1.0, 0.0], 9)          # the same label at every pixel
    dual_field = problem.structure.A.T @ u
    assert np.allclose(dual_field, 0.0)


GENERATED = [
    ("pb", vs.policeman_burglar(6, 0)),
    ("nem1", vs.nemirovski(5, 1, 1.0)),
    ("nem2", vs.nemirovski(5, 2, 2.0)),
    ("uniform", vs.uniform_random(4, 6, 1)),
    ("ws", vs.ws_example()[0]),
    ("pennies", vs.matching_pennies()[0]),
    ("segmentation", vs.synthetic_segmentation(2, 2, 0)),
]


@pytest.mark.parametrize("problem", [p for _, p in GENERATED], ids=[n for n, _ in GENERATED])
def test_generated_operators_monotone(problem):
    rng = StableRng(17)
    Z1 = problem.set.sample(rng, 1000)
    Z2 = problem.set.sample(rng, 1000)
    F1, F2 = (np.array([problem.operator(z) for z in Z]) for Z in (Z1, Z2))
    inner = np.sum((F1 - F2) * (Z1 - Z2), axis=1)
    norms = np.sum((Z1 - Z2) ** 2, axis=1)
    assert np.all(inner >= -1e-10 * norms)


@pytest.mark.parametrize("problem", [vs.policeman_burglar(6, 0), vs.uniform_random(4, 6, 1),
                                     vs.synthetic_segmentation(3, 2, 0)],
                         ids=["pb", "uniform", "segmentation"])
def test_bilinear_embedding_matches_dense_operator(problem):
    assert problem.dim <= 200
    M, q = problem.M, problem.q
    rng = StableRng(23)
    for _ in range(50):
        z = rng.uniform(problem.dim)
        assert np.allclose(problem.operator(z), M @ z + q, atol=1e-12)


def _payoff(draw, sparse):
    """A random payoff with entries from 1e-6 to 1e6 in magnitude; a sparse
    one has empty rows and columns and duplicate entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    if not sparse:
        return rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-6, 6, (n, m))
    nnz = draw(st.integers(0, 3 * max(n, m)))
    rows = rng.integers(0, max(1, n // 2), nnz) * 2 % n      # odd rows stay empty
    cols = rng.integers(0, m, nnz)
    vals = rng.standard_normal(nnz) * 10.0 ** rng.uniform(-6, 6, nnz)
    dup = rng.integers(0, max(nnz, 1), nnz // 3)             # entries stored twice
    return sp.coo_matrix((np.concatenate([vals, vals[dup] / 3.0]),
                          (np.concatenate([rows, rows[dup]]), np.concatenate([cols, cols[dup]]))),
                         shape=(n, m)).tocsr()


@settings(max_examples=150, deadline=None)
@given(st.data(), st.booleans())
def test_stored_transpose_is_exact(data, sparse):
    """AT @ x gives the bits of A.T @ x, and col(j) reads the indices and
    values of column j of the CSC form of A."""
    s = problems.BilinearStructure(_payoff(data.draw, sparse))
    n, m = s.A.shape
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for _ in range(10):
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6, n)
        got, expected = s.AT @ x, s.A.T @ x
        assert np.array_equal(got, expected) and np.array_equal(np.signbit(got),
                                                                np.signbit(expected))
    csc = sp.csc_matrix(s.A)
    for j in range(m):
        idx, vals = s.col(j)
        if sparse:
            lo, hi = csc.indptr[j], csc.indptr[j + 1]
            assert np.array_equal(idx, csc.indices[lo:hi])
            assert np.array_equal(vals, csc.data[lo:hi])
        else:
            assert idx == slice(None) and np.array_equal(vals, s.A[:, j])


def test_monotonicity_check_rejects_bad_operator():
    with pytest.raises(ValueError, match="monotone"):
        vs.AffineVI(-np.eye(3), np.zeros(3), vs.Box(-1.0, 1.0, dim=3))


def test_affine_vi_takes_exactly_one_of_M_and_a_structure():
    """F and the norms read a structure when there is one, so an M beside it
    would be ignored."""
    game = vs.AffineVI.bilinear(np.array([[1.0, 2.0], [3.0, 4.0]]))
    for M, structure in ((game.M, game.structure), (None, None)):
        with pytest.raises(ValueError, match="need exactly one of M and a bilinear structure"):
            vs.AffineVI(M, game.q, game.set, structure=structure)


def test_monotonicity_check_skipped_with_warning(caplog):
    d = 70
    with caplog.at_level(logging.WARNING, logger="visolve.problems"):
        vs.AffineVI(np.eye(d), np.zeros(d), vs.Box(-1.0, 1.0, dim=d))
    assert any("eigencheck skipped" in r.message for r in caplog.records)


def test_solution_set_projection(ws):
    _, known = ws
    assert np.allclose(known.project(np.zeros(2)), [0.75, 0.75], atol=1e-15)
    for endpoint in known.points:
        assert np.array_equal(known.project(endpoint), endpoint)
    point_set = vs.SolutionSet.single(np.array([0.1, 0.2]))
    assert np.array_equal(point_set.project(np.array([5.0, 5.0])), [0.1, 0.2])


def test_solution_set_rejects_non_solution(pennies):
    problem, _ = pennies
    with pytest.raises(ValueError, match="violates"):
        vs.SolutionSet.single(np.array([1.0, 0.0, 1.0, 0.0]), problem)


def _spectral_norm_cases():
    """(label, matrix) pairs: the payoffs of the gated games, dense and CSR
    labeling games, equal top singular values (pennies), a rank-one matrix,
    whose Krylov space ends after two steps, single rows and columns, a plain
    VI's M, and each generator's instance at its default size."""
    seg4, seg8 = (vs.synthetic_segmentation(g, 2, 0).structure.A for g in (4, 8))
    cases = [("random10x7", StableRng(5).uniform(70).reshape(10, 7) - 0.5),
             ("seg4", seg4), ("seg4-dense", seg4.toarray()),
             ("seg8", seg8), ("seg8-dense", seg8.toarray()),
             ("pb30", vs.policeman_burglar(30, 1).structure.A),
             ("uni5x7", vs.uniform_random(5, 7, 0).structure.A),
             ("linear5x7", fixed_matrix.linear_game_instance(vs).structure.A),
             ("nem2-12", vs.nemirovski(12, 2, 0.5).structure.A),
             ("pennies", vs.matching_pennies()[0].structure.A),
             ("rank-one", np.outer(np.arange(1.0, 6.0), np.arange(-3.0, 4.0))),
             ("1x7", np.arange(1.0, 8.0)[None, :]),
             ("7x1", np.arange(1.0, 8.0)[:, None]),
             ("affine12", fixed_matrix.affine_box_instance(vs).M)]
    for name in harness.GENERATORS:
        problem, _, label = harness.build_instance(name)
        A = problem.M if problem.structure is None else problem.structure.A
        cases.append((label, A))
    return cases


def test_spectral_norm_matches_svd():
    for label, A in _spectral_norm_cases():
        dense = A.toarray() if sp.issparse(A) else A
        expected = np.linalg.svd(dense, compute_uv=False)[0]
        assert np.isclose(vs.spectral_norm(A), expected, rtol=1e-12, atol=0.0), label


@pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e100, 1e150])
def test_spectral_norm_at_extreme_magnitudes(scale):
    for A in (vs.uniform_random(5, 7, 0).structure.A, vs.synthetic_segmentation(4, 2, 0).structure.A):
        dense = A.toarray() if sp.issparse(A) else A
        expected = np.linalg.svd(dense, compute_uv=False)[0] * scale
        assert np.isclose(vs.spectral_norm(A * scale), expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("A", [np.zeros((3, 4)), np.zeros((1, 1)), sp.csr_matrix((6, 2))],
                         ids=["dense", "1x1", "sparse"])
def test_spectral_norm_of_zero_matrix_is_exactly_zero(A):
    assert vs.spectral_norm(A) == 0.0


def test_spectral_norm_products_on_seg32():
    A = vs.synthetic_segmentation(32, 2, 0).structure.A
    counted = spectral_norm_bench.CountedProducts(A)
    sigma = vs.spectral_norm(counted)
    assert counted.count[0] <= 250
    expected = spla.svds(A, k=1, tol=0, return_singular_vectors=False)[0]
    assert np.isclose(sigma, expected, rtol=1e-12, atol=0.0)


def test_spectral_norm_computed_once_per_problem(monkeypatch):
    problem = vs.policeman_burglar(20, 0)
    expected = vs.spectral_norm(problem.structure.A)
    calls = []

    def counted(A):
        calls.append(A)
        return expected

    monkeypatch.setattr(problems, "spectral_norm", counted)
    built = [make_solver(problem, "pda", seed) for seed in range(3)]
    built.append(make_solver(problem, "eg", 0))
    assert len(calls) == 1
    assert problem.spectral_norm() == expected
    assert [b.tau for b in built] == [0.99 / expected] * 4


_FILE_INSTANCES = {"pb": vs.policeman_burglar(5, 3), "uniform": vs.uniform_random(3, 4, 2),
                   "nem": vs.nemirovski(4, 2, 1.0), "ws": vs.ws_example()[0],
                   "segmentation": vs.synthetic_segmentation(2, 2, 0)}


@pytest.mark.parametrize("problem", [pytest.param(p, id=name)
                                     for name, p in _FILE_INSTANCES.items()])
def test_instance_file_roundtrip(tmp_path, problem):
    path = tmp_path / "inst.vif"
    vs.save_instance(path, problem)
    loaded = vs.load_instance(path)
    assert loaded.set == problem.set
    if problem.structure is not None:
        A, loaded_A = problem.structure.A, loaded.structure.A
        assert sp.issparse(loaded_A) == sp.issparse(A)
        if sp.issparse(A):  # the same canonical CSR arrays, so products sum in the same order
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(loaded_A, name), getattr(A, name))
        else:
            assert np.array_equal(loaded_A, A)
        assert np.array_equal(loaded.structure.bx, problem.structure.bx)
        assert np.array_equal(loaded.structure.by, problem.structure.by)
    else:
        assert np.array_equal(loaded.M, problem.M)
        assert np.array_equal(loaded.q, problem.q)
    z = problem.set.sample(StableRng(1), 1)[0]
    assert np.array_equal(loaded.operator(z), problem.operator(z))


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.vif"
    path.write_text("nope 1 2\n0 0\n")
    with pytest.raises(ValueError, match="header"):
        vs.load_instance(path)


def test_load_rejects_vif1(tmp_path):
    """The retired text format: the same header under the magic vif1, then
    the values as decimals."""
    path = tmp_path / "pennies.vif"
    path.write_text("vif1 2 2 simplex:2*simplex:2\n1 -1 -1 1 0 0 0 0\n")
    with pytest.raises(ValueError, match="malformed header") as err:
        vs.load_instance(path)
    assert str(path) in str(err.value)


def _set_index(position, value):
    """A damage that sets entry ``position`` of the int64 arrays of a CSR
    instance file (indptr, then indices) to ``value``."""
    def damage(raw):
        start = raw.index(b"\n") + 1 + 8 * position
        return raw[:start] + np.array([value], dtype="<i8").tobytes() + raw[start + 8:]
    return damage


# seg2's payoff is 8 x 16 with 16 stored entries: indptr is int64 0-8 of the
# payload, indices 9-24, then come 16 + 8 + 16 float64 values
@pytest.mark.parametrize("instance, damage, match", [
    ("pb", lambda raw: raw[:-3], "5 bytes after 34 values"),
    ("pb", lambda raw: raw + bytes(8), "value count 36 matches neither layout"),
    ("pb", lambda raw: raw.replace(b"vif2", b"vif9", 1), "header"),
    ("seg", lambda raw: raw[:-8 * 30], "csr payload of 16 entries for n=8, m=16 has 65 values, not 35"),
    ("seg", _set_index(9, 16), "indices must be < 16"),
    ("seg", _set_index(2, 1), "indptr must be a non-decreasing sequence"),
    ("seg", _set_index(8, 15), "indptr ends at 15, not at the 16 stored entries"),
], ids=["cut-3-bytes", "extra-8-bytes", "unknown-magic", "csr-cut-payload",
        "csr-index-out-of-range", "csr-decreasing-indptr", "csr-indptr-end"])
def test_load_rejects_damaged_vif2(tmp_path, instance, damage, match):
    path = tmp_path / f"{instance}.vif"
    problem = vs.policeman_burglar(5, 3) if instance == "pb" else vs.synthetic_segmentation(2, 2, 0)
    vs.save_instance(path, problem)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ValueError, match=match) as err:
        vs.load_instance(path)
    assert str(path) in str(err.value)
