"""Deterministic random streams with a pinned algorithm.

Every random draw in this package goes through :class:`StableRng`, which is a
thin layer over the raw 64-bit output of NumPy's PCG64 bit generator (seeded
through ``SeedSequence``, which makes the stream splittable by seed tuple).
NumPy guarantees the raw PCG64 stream is stable across versions and
platforms, so a given seed reproduces bit-identical draws everywhere.

Conversions are fixed here rather than delegated to ``numpy.random.Generator``
methods (whose algorithms may change between NumPy releases):

* uniforms in ``[0, 1)``  -- top 53 bits of a raw draw times ``2**-53``;
* standard normals       -- Box-Muller transform on uniform pairs, with the
  first uniform shifted into ``(0, 1]`` so the logarithm is finite;
* integers on ``{lo..hi}`` -- ``lo + floor(u * (hi - lo + 1))``.
"""

from __future__ import annotations

import numpy as np

_INV_2_53 = float(2.0**-53)


class StableRng:
    """Seeded deterministic random stream (PCG64 raw + fixed conversions)."""

    def __init__(self, seed):
        self._bits = np.random.PCG64(np.random.SeedSequence(seed))

    def raw(self, n=None):
        """Raw 64-bit unsigned draws; scalar when n is None."""
        return self._bits.random_raw(n)

    def uniform(self, n=None):
        """Uniform float64 in [0, 1); scalar when n is None."""
        if n is None:
            return float(self.raw() >> np.uint64(11)) * _INV_2_53
        return (self.raw(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def normal(self, n):
        """n standard normals via Box-Muller on consecutive uniform pairs."""
        pairs = (n + 1) // 2
        u1 = ((self.raw(pairs) >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * _INV_2_53
        u2 = (self.raw(pairs) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        r = np.sqrt(-2.0 * np.log(u1))
        ang = 2.0 * np.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(ang)
        out[1::2] = r * np.sin(ang)
        return out[:n]

    def integers(self, lo, hi, n=None):
        """Uniform integers on the inclusive range {lo, ..., hi}."""
        span = int(hi) - int(lo) + 1
        if n is None:
            return int(lo) + int(self.uniform() * span)
        return (int(lo) + np.floor(self.uniform(n) * span)).astype(np.int64)
