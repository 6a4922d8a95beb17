import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from visolve.rng import StableRng

_INV_2_53 = 2.0 ** -53


class Unbuffered:
    """The stream StableRng documents, one bit-generator call per draw."""

    def __init__(self, seed):
        self.bits = np.random.PCG64(np.random.SeedSequence(seed))

    def raw(self, n=None):
        return self.bits.random_raw(n)

    def uniform(self, n=None):
        if n is None:
            return float(self.raw() >> np.uint64(11)) * _INV_2_53
        return (self.raw(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def normal(self, n):
        pairs = (n + 1) // 2
        u1 = ((self.raw(pairs) >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * _INV_2_53
        u2 = (self.raw(pairs) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        r = np.sqrt(-2.0 * np.log(u1))
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(2.0 * np.pi * u2)
        out[1::2] = r * np.sin(2.0 * np.pi * u2)
        return out[:n]

    def integers(self, lo, hi, n=None):
        if n is None:
            return lo + int(self.uniform() * (hi - lo + 1))
        return (lo + np.floor(self.uniform(n) * (hi - lo + 1))).astype(np.int64)


DRAWS = st.one_of(
    st.tuples(st.just("uniform"), st.none() | st.integers(0, 150)),
    st.tuples(st.just("raw"), st.none() | st.integers(0, 150)),
    st.tuples(st.just("normal"), st.integers(0, 70)),
    st.tuples(st.just("integers"), st.none() | st.integers(0, 70)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32), st.lists(DRAWS, max_size=60))
def test_buffered_scalars_keep_the_raw_stream(seed, calls):
    """Scalar uniforms come from a block of raw draws fetched ahead, and
    every draw takes what is left of the block first, so any interleaving
    of scalar and array draws of every kind gives the unbuffered stream
    bit for bit, its types included."""
    rng, reference = StableRng(seed), Unbuffered(seed)
    for kind, n in [*calls, ("raw", 200)]:
        if kind == "integers":
            got, expected = rng.integers(-3, 9, n), reference.integers(-3, 9, n)
        else:
            got, expected = getattr(rng, kind)(n), getattr(reference, kind)(n)
        assert type(got) is type(expected), kind
        assert np.asarray(got).dtype == np.asarray(expected).dtype, kind
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes(), (kind, n)
