import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visolve.averaging import AveragingAccumulator
from visolve.rng import StableRng


def bruteforce_average(iterates, q):
    weights = np.array([float(k ** q) for k in range(len(iterates))])
    if weights.sum() == 0.0:
        return None
    return (weights[:, None] * np.asarray(iterates)).sum(axis=0) / weights.sum()


def test_linear_weights_three_pushes():
    z = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([2.0, 2.0])]
    acc = AveragingAccumulator(1)
    for v in z:
        acc.push(v)
    assert np.allclose(acc.current(), (0 * z[0] + 1 * z[1] + 2 * z[2]) / 3.0)


def test_uniform_includes_first_iterate():
    acc = AveragingAccumulator(0)
    acc.push(np.array([1.0]))
    acc.push(np.array([3.0]))
    assert np.allclose(acc.current(), [2.0])


def test_constant_inputs_reproduced():
    acc = AveragingAccumulator(2)
    c = np.array([0.3, 0.7])
    for _ in range(5):
        acc.push(c)
    assert np.allclose(acc.current(), c, atol=1e-15)


def test_single_weighted_push_returns_it():
    for q in (0, 1, 2, 3):
        acc = AveragingAccumulator(q)
        acc.push(np.array([0.4, 0.6]))
        if q == 0:
            assert np.allclose(acc.current(), [0.4, 0.6])
        else:
            assert acc.current() is None
            acc.push(np.array([1.0, 0.0]))
            assert np.allclose(acc.current(), [1.0, 0.0])


def test_four_pushes_match_bruteforce():
    rng = StableRng(0)
    iterates = [rng.uniform(3) for _ in range(4)]
    acc = AveragingAccumulator(1)
    for v in iterates:
        acc.push(v)
    assert np.allclose(acc.current(), bruteforce_average(iterates, 1), rtol=1e-15)


def test_dimension_mismatch_rejected():
    acc = AveragingAccumulator(0)
    acc.push(np.zeros(2))
    with pytest.raises(ValueError, match="dimension"):
        acc.push(np.zeros(3))


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        AveragingAccumulator(-1)


def test_convex_combination_stays_feasible():
    rng = StableRng(4)
    acc = AveragingAccumulator(2)
    for _ in range(50):
        e = -np.log1p(-rng.uniform(6))
        acc.push(e / e.sum())
    avg = acc.current()
    assert np.all(avg >= -1e-12)
    assert abs(avg.sum() - 1.0) <= 1e-12


def test_epoch_weighted_flattening():
    """Pushing each epoch's mean of its K inner iterates once, as dl-svrg-eg
    does, makes epoch s the s-th push: its count weight s^q reproduces the
    nested weighted average (1/(K Q_S)) sum_s s^q sum_k z."""
    rng = StableRng(9)
    S, K, q = 6, 4, 2
    epochs = [[rng.uniform(3) for _ in range(K)] for _ in range(S)]
    per_epoch = AveragingAccumulator(q)
    for inner in epochs:
        per_epoch.push(np.sum(inner, axis=0) / K)
    assert per_epoch.count == S
    Q = sum(float(s) ** q for s in range(S))
    nested = sum((float(s) ** q) * np.sum(inner, axis=0)
                 for s, inner in enumerate(epochs)) / (K * Q)
    assert np.allclose(per_epoch.current(), nested, rtol=1e-13)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=3),
    st.lists(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=2),
             min_size=2, max_size=40),
)
def test_accumulator_matches_bruteforce(q, rows):
    iterates = [np.array(r) for r in rows]
    acc = AveragingAccumulator(q)
    for v in iterates:
        acc.push(v)
    expected = bruteforce_average(iterates, q)
    got = acc.current()
    if expected is None:
        assert got is None
    else:
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)
