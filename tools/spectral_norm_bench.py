"""Time `visolve.spectral_norm` and count its products with the matrix.

    python3 tools/spectral_norm_bench.py LABEL=SRC_DIR [LABEL=SRC_DIR ...] > BENCH.json

Each SRC_DIR is the `src` directory of a checkout, so a parent and a change
are measured by the same script on the same machine. Every round runs one
child process per checkout, in alternating order from round to round
(`alternating.py`); a child times each instance's `spectral_norm(A)` call 5
times. The output is one JSON object: the environment (as the byte gate's
header names it, plus the core count) and, per checkout and instance, the
products with A or A' of one call, the median and quartiles in ms of the
per-round minima, the estimate and its relative error against the largest
singular value from numpy's SVD (scipy's `svds` with tol=0 for the 32 x 32
labeling game, whose dense SVD takes seconds). The instances are the
labeling games on 4 x 4, 8 x 8 and 32 x 32 grids with 2 regions, the
30 x 30 pursuit game of the byte gate (instance seed 1) and the
1000 x 1000 pursuit game of the benchmark (instance seed 2023).
"""

from __future__ import annotations

import json
import os
import sys
import timeit

import alternating

ROUNDS = 6
CALLS = 5


class CountedProducts:
    """A matrix that counts its products with vectors, through A or A', in
    ``count[0]``."""

    def __init__(self, A, count=None):
        self.A, self.shape = A, A.shape
        self.count = [0] if count is None else count

    @property
    def T(self):
        return CountedProducts(self.A.T, self.count)

    def __matmul__(self, x):
        self.count[0] += 1
        return self.A @ x


def _instances(vs):
    return {"seg4": vs.synthetic_segmentation(4, 2, 0).structure.A,
            "seg8": vs.synthetic_segmentation(8, 2, 0).structure.A,
            "seg32": vs.synthetic_segmentation(32, 2, 0).structure.A,
            "pb30": vs.policeman_burglar(30, 1).structure.A,
            "pb1000": vs.policeman_burglar(1000, 2023).structure.A}


def _largest_singular_value(A):
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    if sp.issparse(A) and min(A.shape) > 1000:
        return float(spla.svds(A, k=1, tol=0, return_singular_vectors=False)[0])
    dense = A.toarray() if sp.issparse(A) else A
    return float(np.linalg.svd(dense, compute_uv=False)[0])


def child(src, with_reference):
    """One round for one checkout: the fastest of CALLS calls per instance,
    with the product count, estimate and error on request."""
    sys.path.insert(0, src)
    import visolve as vs

    out = {}
    for name, A in _instances(vs).items():
        row = {"ms": 1e3 * min(timeit.repeat(lambda: vs.spectral_norm(A), number=1,
                                             repeat=CALLS))}
        if with_reference:
            counted = CountedProducts(A)
            sigma = vs.spectral_norm(counted)
            exact = _largest_singular_value(A)
            row.update(products=counted.count[0], sigma=sigma,
                       rel_error=abs(sigma - exact) / exact)
        out[name] = row
    return out


def main(argv):
    rounds = alternating.run_rounds(__file__, alternating.checkouts(argv), ROUNDS,
                                    lambda r: [str(int(r == 0))])
    report = {"environment": alternating.environment(), "rounds": ROUNDS, "checkouts": {}}
    for label, runs in rounds.items():
        rows = {}
        for name, first in runs[0].items():
            rows[name] = {**{k: v for k, v in first.items() if k != "ms"},
                          **alternating.spread([run[name]["ms"] for run in runs], "ms")}
        report["checkouts"][label] = rows
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--child":
        print(json.dumps(child(os.path.abspath(sys.argv[2]), sys.argv[3] == "1")))
    else:
        main(sys.argv)
