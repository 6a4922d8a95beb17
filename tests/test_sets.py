import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import visolve as vs
from visolve.rng import StableRng
from visolve.sets import (Box, HalfspaceBox, Product, Simplex, SimplexProduct, _BlockLayout,
                          _support_projection, from_descriptor, simplex_project)


def simplex_projection_oracle(v):
    """Exhaustive KKT enumeration over support sets (small dimensions only)."""
    d = v.size
    best, best_dist = None, np.inf
    for r in range(1, d + 1):
        for support in itertools.combinations(range(d), r):
            s = list(support)
            theta = (v[s].sum() - 1.0) / r
            x = np.zeros(d)
            x[s] = v[s] - theta
            if np.all(x[s] >= -1e-12) and np.all(v[x == 0.0] <= theta + 1e-12):
                dist = np.sum((x - v) ** 2)
                if dist < best_dist:
                    best, best_dist = x, dist
    return best


def halfspace_boxes():
    """ws-example's set, and two geometries no other test reaches: a normal
    with a negative entry and a normal with a zero entry."""
    return {
        "ws": HalfspaceBox(0.0, 1.0, np.array([1.0, 1.0]), 1.5),
        "negative-normal-entry": HalfspaceBox(np.array([-1.0, 0.0]), np.array([2.0, 1.0]),
                                              np.array([1.0, -2.0]), 0.5),
        "zero-normal-entry": HalfspaceBox(0.0, 1.0, np.array([0.0, 1.0]), 0.5),
    }


def variants():
    boxes = halfspace_boxes()
    return [
        Simplex(5),
        Box(np.array([-1.0, 0.0, -2.0, 1.0]), np.array([1.0, 0.5, -1.0, 3.0])),
        SimplexProduct([3, 2, 4]),
        boxes["ws"],
        pytest.param(boxes["negative-normal-entry"], id="HalfspaceBox-negative-normal-entry"),
        pytest.param(boxes["zero-normal-entry"], id="HalfspaceBox-zero-normal-entry"),
        Product([Simplex(3), Box(-0.5, 0.5, dim=2)]),
        # equal blocks of 2, one block included, take the closed form; all
        # other blocks take simplex_project as the rows of one matrix,
        # unequal ones padded to the longest
        pytest.param(Simplex(2), id="Simplex-2"),
        pytest.param(Simplex(3), id="Simplex-3"),
        pytest.param(SimplexProduct([2] * 8), id="SimplexProduct-short-blocks"),
        pytest.param(SimplexProduct([3, 3, 3]), id="SimplexProduct-equal-blocks"),
        pytest.param(Product([Simplex(4), Simplex(4)]), id="Product-equal-simplexes"),
        pytest.param(Product([Simplex(3), Simplex(5)]), id="Product-unequal-simplexes"),
    ]


def test_simplex_feasible_point_unchanged():
    s = Simplex(2)
    v = np.array([0.5, 0.5])
    assert np.array_equal(s.project(v), v)


def test_simplex_corner_example():
    s = Simplex(2)
    assert np.allclose(s.project(np.array([2.0, 0.0])), [1.0, 0.0], atol=1e-15)


def test_simplex_matches_kkt_oracle():
    """Both routes: the closed form at 2 entries, simplex_project beyond."""
    rng = StableRng(11)
    for d in (2, 3, 4, 5):
        for _ in range(200):
            v = 4.0 * rng.uniform(d) - 2.0
            assert np.allclose(Simplex(d).project(v), simplex_projection_oracle(v), atol=1e-12)


def test_halfspacebox_example_point():
    s = HalfspaceBox(0.0, 1.0, np.array([1.0, 1.0]), 1.5)
    assert np.allclose(s.project(np.array([1.0, 1.0])), [0.75, 0.75], atol=1e-12)


@pytest.mark.parametrize("name", list(halfspace_boxes()))
def test_halfspacebox_beats_grid_search(name):
    s = halfspace_boxes()[name]
    gx, gy = np.meshgrid(*(np.linspace(lo, hi, 401) for lo, hi in zip(s.lo, s.hi)))
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    pts = pts[pts @ s.a <= s.b]
    rng = StableRng(3)
    for _ in range(50):
        v = s.lo + (s.hi - s.lo) * (4.0 * rng.uniform(2) - 1.5)
        proj = s.project(v)
        grid_best = np.min(np.sum((pts - v) ** 2, axis=1))
        assert np.sum((proj - v) ** 2) <= grid_best + 1e-9
        assert s.contains(proj, tol=1e-12)


@pytest.mark.parametrize("v, expected", [((1e17, 1e17), (0.75, 0.75)),
                                         ((1e160, 1e160), (0.75, 0.75)),
                                         ((1e308, -1e308), (1.0, 0.0))],
                         ids=["1e17", "1e160", "1e308"])
def test_halfspacebox_projects_every_finite_magnitude(ws, v, expected):
    """No squared distance overflows and no b is lost against <a, v>."""
    assert np.array_equal(ws[0].set.project(np.array(v)), expected)


def test_halfspacebox_takes_a_small_nonzero_normal():
    """{x1 <= 1/2} in the unit box, with a normal far below 1 in size."""
    s = HalfspaceBox(0.0, 1.0, [1e-9, 0.0], 5e-10)
    assert np.allclose(s.project(np.array([1.0, 1.0])), [0.5, 1.0], rtol=0.0, atol=1e-15)
    with pytest.raises(ValueError, match="nonzero"):
        HalfspaceBox(0.0, 1.0, [0.0, 0.0], 0.5)


def test_box_clamp_example():
    s = Box(-0.5, 0.5, dim=2)
    assert np.array_equal(s.project(np.array([3.0, -0.2])), [0.5, -0.2])


def takes_guess(feasible):
    """Whether the set's projection reads a guess: every product of
    simplexes outside the closed form for equal blocks of 2 does, and so
    does a product with such a part."""
    blocks = feasible.simplex_blocks
    if blocks is not None:
        takes = not _BlockLayout(blocks).pairs
    else:
        takes = any(takes_guess(p) for p in getattr(feasible, "parts", ()))
    assert (feasible.support_guess(feasible.center()) is not None) == takes
    return takes


def warm_projections(feasible, v, rng):
    """The cold projection of v and the one guessing the support of the
    projection of a perturbed v: both feasible and equal within roundoff,
    bit for bit where the set ignores the guess."""
    cold = feasible.project(v)
    near = feasible.project(v + 0.2 * (rng.uniform(feasible.dim) - 0.5))
    warm = feasible.project(v, feasible.support_guess(near))
    assert feasible.contains(warm, tol=1e-12)
    assert np.abs(warm - cold).max() <= 1e-12
    if not takes_guess(feasible):
        assert np.array_equal(warm, cold)
        assert np.array_equal(np.signbit(warm), np.signbit(cold))
    return cold, warm


@pytest.mark.parametrize("feasible", variants(), ids=lambda s: type(s).__name__)
def test_projection_idempotent(feasible):
    """Cold, and with a guess: a projection projects to itself."""
    rng = StableRng(7)
    for _ in range(1000):
        v = 6.0 * rng.uniform(feasible.dim) - 3.0
        once, warm = warm_projections(feasible, v, rng)
        twice = feasible.project(once)
        assert np.linalg.norm(twice - once) <= 1e-12
        assert feasible.contains(once, tol=1e-12)
        assert np.linalg.norm(feasible.project(warm, feasible.support_guess(warm))
                              - warm) <= 1e-12


@pytest.mark.parametrize("feasible", variants(), ids=lambda s: type(s).__name__)
def test_projection_nonexpansive(feasible):
    """Cold, and with a guess for both points."""
    rng = StableRng(13)
    for _ in range(1000):
        u = 6.0 * rng.uniform(feasible.dim) - 3.0
        v = 6.0 * rng.uniform(feasible.dim) - 3.0
        (pu, wu), (pv, wv) = warm_projections(feasible, u, rng), warm_projections(feasible, v, rng)
        bound = np.linalg.norm(u - v) * (1.0 + 1e-12) + 1e-15
        assert np.linalg.norm(pu - pv) <= bound
        assert np.linalg.norm(wu - wv) <= bound + 2e-12


@pytest.mark.parametrize("feasible", variants(), ids=lambda s: type(s).__name__)
def test_projection_variational_inequality(feasible):
    """<v - Pv, w - Pv> <= tol for every feasible w characterizes the
    Euclidean projection onto a convex set; cold, and with a guess."""
    rng = StableRng(29)
    W = feasible.sample(rng, 100)
    for _ in range(100):
        v = 6.0 * rng.uniform(feasible.dim) - 3.0
        for proj in warm_projections(feasible, v, rng):
            inner = (W - proj) @ (v - proj)
            assert np.all(inner <= 1e-9 * max(1.0, np.linalg.norm(v)))


@pytest.mark.parametrize("feasible", variants(), ids=lambda s: type(s).__name__)
def test_sample_and_center_feasible(feasible):
    pts = feasible.sample(StableRng(5), 200)
    assert pts.shape == (200, feasible.dim)
    for p in pts:
        assert feasible.contains(p, tol=1e-9)
    assert feasible.contains(feasible.center(), tol=1e-12)


def support_max_bruteforce(feasible, c):
    if isinstance(feasible, Simplex):
        return float(np.max(c))
    if isinstance(feasible, Box):
        corners = itertools.product(*zip(feasible.lo, feasible.hi))
        return max(float(np.dot(c, np.array(k))) for k in corners)
    raise NotImplementedError


def test_support_max_simplex_and_box():
    rng = StableRng(2)
    simplex, box = Simplex(4), Box(np.array([-1.0, 0.5]), np.array([2.0, 0.75]))
    for _ in range(100):
        c = rng.uniform(4) - 0.5
        assert np.isclose(simplex.support_max(c), support_max_bruteforce(simplex, c))
        c2 = rng.uniform(2) - 0.5
        assert np.isclose(box.support_max(c2), support_max_bruteforce(box, c2))
    prod = SimplexProduct([2, 3])
    c = rng.uniform(5) - 0.5
    assert np.isclose(prod.support_max(c), np.max(c[:2]) + np.max(c[2:]))


@pytest.mark.parametrize("dims", [[4, 4, 4], [3, 2, 4], [7], [3, 5], [30, 31], [2, 9, 2],
                                  [1000, 999], [2] * 16, [1, 4] * 8, [2] * 1024,
                                  [3, 1, 2, 5] * 256],
                         ids=lambda dims: str(dims) if len(dims) <= 3 else f"{len(dims)}x{sorted(set(dims))}")
def test_simplex_blocks_exact(dims):
    """Whichever route the block sizes pick, projection and support function
    give the bits of simplex_project and of the block maxima added left to
    right from 0.0, with ties, signed zeros and magnitudes from 1e-300 to
    1e300, and the projection lies on the product of simplexes."""
    feasible = SimplexProduct(dims)
    assert feasible.simplex_blocks == tuple(dims)
    cuts = np.cumsum(dims)[:-1]

    def per_block(v):
        return np.concatenate([simplex_project(b[None])[0] for b in np.split(v, cuts)])

    rng = StableRng(17)
    for _ in range(200 if len(dims) <= 16 else 4):
        v = 6.0 * rng.uniform(feasible.dim) - 3.0
        assert np.array_equal(feasible.project(v), per_block(v))
    for scale in (1e-300, 1e-150, 1.0, 1e150, 1e300, None):
        for _ in range(10):
            d = feasible.dim
            v = 6.0 * rng.uniform(d) - 3.0
            # None mixes every magnitude in one vector, so the order of the sum shows
            v *= 10.0 ** (600.0 * rng.uniform(d) - 300.0) if scale is None else scale
            v[rng.uniform(d) < 0.3] = v[0]                  # ties
            v[rng.uniform(d) < 0.2] = 0.0
            v[rng.uniform(d) < 0.2] = -0.0
            x = feasible.project(v)
            assert np.array_equal(x, per_block(v))
            assert feasible.contains(x, tol=4 * max(dims) ** 2 * np.finfo(float).eps)
            for c in (v, -np.abs(v), np.where(rng.uniform(d) < 0.5, 0.0, -0.0), np.full(d, -0.0)):
                in_order = 0.0
                for b in np.split(c, cuts):
                    in_order += float(np.max(b))
                got = feasible.support_max(c)
                assert got == in_order and np.signbit(got) == np.signbit(in_order)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8) | st.integers(1, 2048), st.integers(0, 2 ** 16),
       st.floats(0.0, 1.0))
def test_column_maxima_route_matches_reduceat(h, k, seed, ties):
    """k equal blocks of h entries take their maxima from h strided columns
    when k >= h, and from np.maximum.reduceat otherwise; both routes give
    the bits of reduceat, and so does support_max. A share ``ties`` of the
    entries is drawn from 0.0, -0.0, 1 and -1, so blocks hold ties and
    signed zeros; the others span 1e-300 to 1e300 in size, of both signs."""
    assert _BlockLayout([h] * k).strided == (k >= h)
    rng = StableRng(seed)
    c = (2.0 * rng.uniform(h * k) - 1.0) * 10.0 ** (600.0 * rng.uniform(h * k) - 300.0)
    tied = rng.uniform(h * k) < ties
    c[tied] = np.array([0.0, -0.0, 1.0, -1.0])[(4.0 * rng.uniform(int(tied.sum()))).astype(int)]
    by_reduceat = np.maximum.reduceat(c, np.arange(0, h * k, h))
    assert _BlockLayout([h] * k).maxima(c).tobytes() == by_reduceat.tobytes()
    got = SimplexProduct([h] * k).support_max(c)
    expect = float(np.cumsum(by_reduceat)[-1] + 0.0)
    assert got == expect and np.signbit(got) == np.signbit(expect)


_block_lists = st.one_of(
    st.lists(st.integers(1, 6), min_size=1, max_size=1100),
    st.builds(lambda d, k: [d] * k, st.integers(1, 40), st.integers(1, 1100)))


@settings(max_examples=100, deadline=None)
@given(_block_lists)
def test_center_is_the_per_block_uniform_point(dims):
    """center() gives the bits of 1/d repeated d times, block by block."""
    expected = np.concatenate([np.full(d, 1.0 / d) for d in dims])
    assert np.array_equal(SimplexProduct(dims).center(), expected)


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_equal_blocks_exact(h):
    """Equal blocks of 1 to 4 entries, on the closed form at 2 and on the
    rows otherwise, project to the bits of simplex_project, with ties,
    signed zeros, tiny and huge magnitudes."""
    rng = StableRng(23)
    for k in (1, 2, 17, 1024):
        feasible = SimplexProduct([h] * k)
        for scale in (1.0, 1e-300, 1e15):
            for _ in range(20):
                v = scale * (6.0 * rng.uniform(k * h) - 3.0)
                v[rng.uniform(k * h) < 0.3] = scale     # ties
                v[rng.uniform(k * h) < 0.2] = 0.0
                v[rng.uniform(k * h) < 0.2] = -0.0
                expected = simplex_project(v.reshape(k, h)).ravel()
                got = feasible.project(v)
                assert np.array_equal(got, expected)
                assert np.array_equal(np.signbit(got), np.signbit(expected))


_NEAR_ONE = (np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0))
# pairs whose difference is exactly one of _NEAR_ONE, at the edge of the
# closed form's test a < 1, in both orders
_SPREADS_NEAR_ONE = [pair for c in _NEAR_ONE
                     for pair in ((c, 0.0), (0.0, c), (0.5 * c, -0.5 * c), (-0.0, -c))]
_FINITE = st.floats(-1.7e308, 1.7e308)
_pairs = st.one_of(
    st.tuples(_FINITE, _FINITE),
    st.builds(lambda m, r, e: (m * 10.0 ** e, r * m * 10.0 ** e),     # one magnitude,
              st.floats(-1.7, 1.7), st.floats(-1.0, 1.0), st.integers(-300, 307)),  # to 1.7e308
    _FINITE.map(lambda x: (x, x)),                           # ties
    st.sampled_from([(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, 0.0)]),
    st.sampled_from(_SPREADS_NEAR_ONE),
    st.sampled_from([(1.7e308, -1.7e308), (-1.7e308, 1.7e308)]))   # a spread past the range


@settings(max_examples=300, deadline=None)
@given(st.lists(_pairs, min_size=1, max_size=64))
def test_pair_blocks_take_the_closed_form_with_the_bits_of_the_sort(pairs):
    """Equal blocks of 2 entries project by the closed form to the bytes,
    sign bits included, of simplex_project, never to -0.0, and without a
    warning, at every finite magnitude, for ties, signed zeros, spreads
    within an ulp of 1 and spreads past the float range."""
    v = np.array(pairs, dtype=np.float64).ravel()
    feasible = SimplexProduct([2] * len(pairs))
    assert feasible._layout.pairs and feasible.support_guess(feasible.center()) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = feasible.project(v)
        expected = simplex_project(v.reshape(-1, 2)).ravel()
    assert got.tobytes() == expected.tobytes()
    assert not np.signbit(got).any()


def test_pair_blocks_reach_every_spread_near_one():
    """The spreads the property draws differ by exactly the values it names,
    and the spread past the range projects to a vertex."""
    spreads = {abs(a - b) for a, b in _SPREADS_NEAR_ONE}
    assert spreads == set(_NEAR_ONE)
    assert Simplex(2).project([1.7e308, -1.7e308]).tolist() == [1.0, 0.0]
    assert Simplex(2).project([-1.7e308, 1.7e308]).tolist() == [0.0, 1.0]


@pytest.mark.parametrize("regions", [2, 3, 4])
def test_a_product_with_other_parts_projects_part_by_part(regions):
    """The labeling game's set, label blocks beside a box, has no block
    layout: it returns the bits of its parts' projections concatenated,
    without a guess and with the guesses it makes, which it hands each part
    as the part's own. Only the blocks of 2 of the 2-region game take no
    guess."""
    feasible = vs.synthetic_segmentation(4, regions, 0).set
    assert feasible._layout is None
    rng = StableRng(regions)
    for _ in range(20):
        v = 4.0 * rng.uniform(feasible.dim) - 2.0
        parts = [p.project(b) for p, b in zip(feasible.parts, feasible.split(v))]
        assert feasible.project(v).tobytes() == np.concatenate(parts).tobytes()
        x = feasible.project(4.0 * rng.uniform(feasible.dim) - 2.0)
        guess = feasible.support_guess(x)
        assert (guess is None) == (regions == 2)
        own = [p.support_guess(b) for p, b in zip(feasible.parts, feasible.split(x))]
        parts = [p.project(b, g) for p, b, g in zip(feasible.parts, feasible.split(v), own)]
        assert feasible.project(v, guess).tobytes() == np.concatenate(parts).tobytes()


def test_simplex_blocks_description():
    assert isinstance(Simplex(3), SimplexProduct)
    assert Simplex(3).simplex_blocks == (3,)
    assert Product([SimplexProduct([2, 2]), Simplex(3)]).simplex_blocks == (2, 2, 3)
    assert Product([Simplex(3), Box(-0.5, 0.5, dim=2)]).simplex_blocks is None
    assert Box(0.0, 1.0, dim=2).simplex_blocks is None


@pytest.mark.parametrize("feasible", variants(), ids=lambda s: type(s).__name__)
def test_descriptor_roundtrip(feasible):
    assert from_descriptor(feasible.descriptor()) == feasible


def test_descriptor_vector_box():
    box = Box(np.array([-1.0, 0.0]), np.array([0.5, 2.0]))
    assert from_descriptor(box.descriptor()) == box


def test_project_rejects_bad_input():
    s = Simplex(3)
    with pytest.raises(ValueError, match="dimension"):
        s.project(np.zeros(4))
    with pytest.raises(ValueError, match="finite"):
        s.project(np.array([1.0, np.nan, 0.0]))


def test_empty_halfspacebox_rejected():
    with pytest.raises(ValueError, match="empty|intersect"):
        HalfspaceBox(0.0, 1.0, np.array([1.0, 1.0]), -1.0)


def test_box_rejects_inverted_bounds():
    with pytest.raises(ValueError, match="lo <= hi"):
        Box(np.array([1.0]), np.array([0.0]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8))
def test_simplex_projection_properties(values):
    """Both routes: the closed form at 2 entries, simplex_project beyond."""
    v = np.array(values)
    feasible = Simplex(v.size)
    out = feasible.project(v)
    assert np.all(out >= 0.0)
    assert abs(out.sum() - 1.0) <= 1e-9
    assert np.linalg.norm(feasible.project(out) - out) <= 1e-12


def unit_weights(w):
    """w scaled to sum to 1, or the first vertex when w is all zero."""
    w = w if w.sum() > 0.0 else np.eye(w.size)[0]
    return w / w.sum()


@st.composite
def warm_cases(draw):
    """(dims, v, near): 1-3 blocks of 1-50 entries each, drawn apart and
    often of 1 entry, or 2-3 equal blocks, in any layout outside the closed
    form, so unequal blocks project as padded rows of one matrix; entries
    of one scale from 1e-300 to 1e300, with ties, signed zeros and zeros,
    or of any finite size up to 1e300; near a point whose support is the
    guess: right (the projection of v), stale (of a perturbed v), wrong (a
    vertex, or any point of the product of simplexes), full (every entry
    positive) or empty (the zero point)."""
    dims = draw((st.lists(st.integers(1, 50) | st.just(1), min_size=1, max_size=3)
                 | st.builds(lambda h, k: [h] * k, st.integers(1, 50), st.integers(2, 3)))
                .filter(lambda dims: not _BlockLayout(dims).pairs))
    cuts = np.cumsum(dims)[:-1]
    scale = draw(st.sampled_from([1.0, 10.0 ** draw(st.integers(-300, 300))]))
    pool = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))  # ties
    entry = (st.floats(-3.0, 3.0) | st.sampled_from([0.0, *pool])).map(lambda e: scale * e)
    entry = entry | st.sampled_from([-0.0]) | st.floats(-1e300, 1e300)
    v = np.array(draw(st.lists(entry, min_size=sum(dims), max_size=sum(dims))))
    guess = draw(st.sampled_from(["projection", "stale", "vertex", "any", "full", "empty"]))
    if guess == "vertex":
        near = np.concatenate([np.eye(h)[draw(st.integers(0, h - 1))] for h in dims])
    elif guess == "any":
        weights = draw(st.lists(st.floats(0.0, 1.0) | st.just(0.0),
                                min_size=sum(dims), max_size=sum(dims)))
        near = np.concatenate([unit_weights(w) for w in np.split(np.array(weights), cuts)])
    elif guess in ("full", "empty"):
        near = np.full(sum(dims), 1.0 if guess == "full" else 0.0)
    else:
        shift = draw(st.floats(-1.0, 1.0)) if guess == "stale" else 0.0
        near = np.concatenate([simplex_project(b[None] + shift * np.linspace(-1.0, 1.0, b.size))[0]
                               for b in np.split(v, cuts)])
    return dims, v, near


@settings(max_examples=400, deadline=None)
@given(warm_cases())
def test_warm_projection_properties(case):
    """A guessed support changes the result only within roundoff. A guess
    that misses retries from the support the failed attempt found, and one
    that no attempt certifies in every block gives the bits of the sort.
    The guess is left holding the support of the point returned."""
    dims, v, near = case
    cuts = np.cumsum(dims)[:-1]
    feasible = SimplexProduct(dims)
    eps = 4 * max(dims) * np.spacing(max(1.0, np.abs(v).max()))
    guess = feasible.support_guess(near)
    x = feasible.project(v, guess)
    cold = feasible.project(v)
    assert np.all(x >= 0.0)
    for row, xb in zip(np.split(v, cuts), np.split(x, cuts)):
        assert abs(xb.sum() - 1.0) <= min(eps, 1e-9)
        theta = (row - xb)[xb > 0.0]
        assert theta.max() - theta.min() <= eps
        assert np.all(row[xb == 0.0] <= theta.min() + eps)
    held = feasible.support_guess(x)
    assert np.array_equal(guess.support, held.support)
    assert np.array_equal(guess.count, held.count)
    again = feasible.project(x, feasible.support_guess(near))
    assert np.all(np.abs(again - x) <= eps)
    assert np.all(np.abs(x - cold) <= eps)
    rows = feasible._layout.rows(v, -np.inf)
    if _support_projection(rows, feasible.support_guess(near)) is None:
        assert np.array_equal(x, cold)
        assert np.array_equal(np.signbit(x), np.signbit(cold))


@pytest.mark.parametrize("dims", [[5, 7], [1, 4], [2, 9, 2], [1, 1, 3], [30, 31], [2]],
                         ids=str)
def test_padded_rows_raise_and_warn_nothing(dims):
    """Unequal blocks pad their rows with -inf, which the sort rule meets as
    -inf - -inf; the projection keeps that to itself. Under the caller's
    errstate(all="raise") and with warnings as errors, cold projections and
    warm ones, whose guess hits, retries or misses, run through and stay
    feasible, with ties at each block's maximum, 1-entry blocks and
    magnitudes from 1e-300 to 1e300. So do cold projections of blocks whose
    spread passes the float range, whose shift by the block maximum
    overflows, on the sort and, for Simplex(2), on the closed form."""
    feasible = SimplexProduct(dims)
    cuts = np.cumsum(dims)[:-1]
    rng = StableRng(41)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        v = np.resize([1.7e308, -1.7e308], feasible.dim)
        x = feasible.project(v)
        assert np.array_equal(x, np.concatenate([(b == b.max()) / np.sum(b == b.max())
                                                 for b in np.split(v, cuts)]))
        for scale in (1e-300, 1e-150, 1e-8, 1.0, 1e6, 1e150, 1e300):
            eps = min(4 * max(dims) * np.spacing(max(1.0, 3.0 * scale)), 1e-9)
            for _ in range(20):
                v = scale * (6.0 * rng.uniform(feasible.dim) - 3.0)
                for block in np.split(v, cuts):
                    block[rng.uniform(block.size) < 0.5] = block.max()    # ties
                cold = feasible.project(v)
                perturbed = feasible.project(v + scale * (rng.uniform(feasible.dim) - 0.5))
                for x in (cold, *(feasible.project(v, feasible.support_guess(near))
                                  for near in (cold, perturbed, feasible.center()))):
                    assert np.all(x >= 0.0)
                    assert np.all(np.abs(np.add.reduceat(x, np.r_[0, cuts]) - 1.0) <= eps)


def test_warm_projection_hits_and_misses():
    """The true support is a hit with the result max(v - theta, 0), padded
    rows included; a wrong support retries from the support that the failed
    attempt found, and one that no attempt certifies, or a row with none,
    falls back to the sort's bits."""
    rng = StableRng(31)
    v = 2.0 * rng.uniform((2 * 40)).reshape(2, 40) - 1.0
    guess_of = lambda near: SimplexProduct([40, 40]).support_guess(near.ravel())
    cold = simplex_project(v)
    hit = _support_projection(v, guess_of(cold))
    assert hit is not None and np.allclose(hit, cold, rtol=0.0, atol=1e-15)
    assert np.array_equal(hit > 0.0, cold > 0.0)
    for near in (np.full_like(v, 1.0 / 40), np.vstack([cold[0], np.zeros(40)])):
        assert _support_projection(v, guess_of(near)) is None
        assert np.array_equal(simplex_project(v, guess_of(near)), cold)
    # a row padded with -inf, its guess with False, hits too, without a NaN
    padded = np.vstack([v[0], np.append(v[1, :30], [-np.inf] * 10)])
    cold = np.vstack([cold[0], np.append(simplex_project(v[1:, :30]), [0.0] * 10)])
    with np.errstate(all="raise"):
        hit = _support_projection(padded, guess_of(cold))
    assert hit is not None and np.allclose(hit, cold, rtol=0.0, atol=1e-15)


def test_a_missed_guess_is_certified_on_a_retry():
    """Michelot's rule from a superset of the support: on a row whose large
    entries stand apart, the full support misses, the support it finds is
    the true one, and the retry certifies it. The result is the projection
    within roundoff, and the guess is left holding its support. A guess
    that a retry certifies moves the bits only in roundoff."""
    v = np.array([[0.9, 0.8, -3.0, -2.5, -4.0, 0.7, -3.5, -2.0]])
    cold = simplex_project(v)
    guess = Simplex(8).support_guess(np.full(8, 0.125))
    assert not np.array_equal(guess.support, cold > 0.0)
    x = simplex_project(v, guess)
    assert np.allclose(x, cold, rtol=0.0, atol=1e-15)
    assert np.array_equal(guess.support, cold > 0.0) and guess.count.tolist() == [3.0]


def test_simplex_project_at_1e17():
    assert np.array_equal(Simplex(2).project(np.array([1e17, 0.0])), [1.0, 0.0])


@pytest.mark.parametrize("dims, v", [([2, 2], [1e17, 0.0, 0.3, 0.1]),
                                     ([2, 3], [1e17, 0.0, 0.3, 0.1, 0.2])], ids=str)
def test_simplex_product_projection_at_1e17_is_feasible(dims, v):
    """Before the shift by the block maximum, the padded layout of [2, 3]
    returned inf in its first block."""
    feasible = SimplexProduct(dims)
    x = feasible.project(np.array(v))
    assert np.isfinite(x).all() and feasible.contains(x)


def test_projection_near_5e8_stays_on_the_simplex():
    """Before the shift by the block maximum, this vector projected to a
    point whose entries summed to 1 + 6.0e-8."""
    x = Simplex(3).project(np.array([-500000001.3, -500000000.86, -599999999.28]))
    assert Simplex(3).contains(x, tol=1e-15)
    assert np.allclose(x, [0.28, 0.72, 0.0], rtol=0.0, atol=1e-7)


def exact_projection(block):
    """The projection of one block with its threshold in exact rational
    arithmetic, rounded once: (x, theta)."""
    u = sorted((Fraction(e) for e in block), reverse=True)
    total, theta = Fraction(0), None
    for j, e in enumerate(u, 1):
        total += e
        if e - (total - 1) / j > 0:
            theta = (total - 1) / j
    return np.array([float(max(Fraction(e) - theta, 0)) for e in block]), theta


@st.composite
def route_cases(draw):
    """(route, dims, v): blocks of one route with entries of one scale from
    1e-300 to 1e300, with ties at and below the maximum, and signed zeros.
    "pairs" takes equal blocks of 2 entries; "sort", "hit" and "retry" take
    every other layout, equal blocks of 1 and 3 included, cold, with a guess
    of the exact support and with a guess of every entry."""
    route = draw(st.sampled_from(["pairs", "sort", "hit", "retry"]))
    if route == "pairs":
        dims = [2] * draw(st.integers(1, 4))
    else:
        dims = draw((st.lists(st.integers(1, 8), min_size=1, max_size=4)
                     | st.builds(lambda h, k: [h] * k, st.sampled_from([1, 3]), st.integers(1, 4)))
                    .filter(lambda dims: not _BlockLayout(dims).pairs))
    scale = 10.0 ** draw(st.integers(-300, 300))
    pool = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3))
    entry = st.floats(-3.0, 3.0) | st.sampled_from(pool) | st.just(0.0)
    v = scale * np.array(draw(st.lists(entry, min_size=sum(dims), max_size=sum(dims))))
    v[np.array(draw(st.lists(st.booleans(), min_size=sum(dims), max_size=sum(dims))))
      & (v == 0.0)] = -0.0
    return route, dims, v


@settings(max_examples=400, deadline=None)
@given(route_cases())
def test_every_route_projects_within_roundoff_of_the_exact_threshold(case):
    """On every route the result is feasible, has the KKT form
    x = max(v - theta, 0) with one theta per block, projects to itself and
    agrees with the projection by the exact rational threshold: within
    4 h eps on the cold routes, which form theta on v minus its block
    maximum, and within 4 h eps (|theta| + 1) on the warm ones, whose
    unshifted threshold the certificate's roundoff bound admits."""
    route, dims, v = case
    feasible, cuts = SimplexProduct(dims), np.cumsum(dims)[:-1]
    exact = [exact_projection(b) for b in np.split(v, cuts)]
    reference = np.concatenate([x for x, _ in exact])
    guess = {"hit": lambda: feasible.support_guess(reference),
             "retry": lambda: feasible.support_guess(np.ones(feasible.dim))}.get(route)
    x = feasible.project(v, guess and guess())
    eps = np.finfo(float).eps
    assert np.all(x >= 0.0) and feasible.contains(x, tol=1e-9)
    bounds = [4 * h * eps * (1.0 if route in ("pairs", "sort") else abs(float(theta)) + 1.0)
              for h, (_, theta) in zip(dims, exact)]
    for h, bound, row, xb, (xr, theta) in zip(dims, bounds, np.split(v, cuts),
                                               np.split(x, cuts), exact):
        assert np.all(np.abs(xb - xr) <= bound)
        assert abs(xb.sum() - 1.0) <= h * bound
        positive = xb > 0.0
        level = float(theta)
        assert np.all(np.abs((row - xb)[positive] - level) <= bound + np.spacing(abs(level)))
        assert np.all(row[~positive] <= level + bound + np.spacing(abs(level)))
    again = feasible.project(x, guess and guess())
    assert np.all(np.abs(again - x) <= max(dims) * max(bounds))
