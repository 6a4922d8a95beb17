"""Polynomially weighted running averages of half-step iterates.

The k-th push gets weight k^q (with 0^0 = 1, so q = 0 is the plain uniform
average including the first iterate, while q >= 1 gives zero weight to the
first push). ``dl-svrg-eg`` pushes the mean of epoch s's K inner iterates as
its s-th push, which weights each of them by s^q, as every epoch has K.
"""

from __future__ import annotations

import numpy as np


class AveragingAccumulator:
    """Running weighted sum with exponent q (0 uniform, 1 linear, 2 quadratic)."""

    def __init__(self, q):
        q = int(q)
        if q < 0:
            raise ValueError("weight exponent must be nonnegative")
        self.q = q
        self.weighted_sum = None
        self.total_weight = 0.0
        self.count = 0

    def push(self, z):
        z = np.asarray(z, dtype=np.float64)
        if self.weighted_sum is None:
            self.weighted_sum = np.zeros_like(z)
        elif z.shape != self.weighted_sum.shape:
            raise ValueError("dimension mismatch with earlier pushes")
        w = float(self.count ** self.q)
        # The bits of adding w * z: 1.0 * z is z, and weight 0 comes only at
        # the first push, onto +0.0s that adding 0.0 * z = +-0.0 leaves as is.
        if w == 1.0:
            self.weighted_sum += z
        elif w:
            self.weighted_sum += w * z
        self.total_weight += w
        self.count += 1

    def current(self):
        """Weighted average so far, or None while the total weight is zero
        (for q >= 1 the first push carries weight zero)."""
        if not self.total_weight > 0.0:
            return None
        return self.weighted_sum / self.total_weight
