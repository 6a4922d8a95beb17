import os
import sys

import numpy as np
import pytest
from scipy.optimize import linprog

import visolve as vs
from visolve.rng import StableRng

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools"))
import fixed_matrix  # noqa: E402  (the fixed matrix's instances and digests)


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


def random_game(n, m, seed, lo=-1.0, hi=1.0, with_linear=False):
    """Dense bilinear test game with entries uniform on [lo, hi]."""
    rng = StableRng(seed)
    A = lo + (hi - lo) * rng.uniform(n * m).reshape(n, m)
    bx = rng.uniform(n) - 0.5 if with_linear else None
    by = rng.uniform(m) - 0.5 if with_linear else None
    return vs.AffineVI.bilinear(A, bx, by)


def equilibrium_lp(A):
    """Exact matrix-game equilibrium through the two standard linear programs."""
    A = np.asarray(A, dtype=np.float64)
    n, m = A.shape
    c = np.zeros(n + 1)
    c[-1] = 1.0
    res_x = linprog(c, A_ub=np.hstack([A.T, -np.ones((m, 1))]), b_ub=np.zeros(m),
                    A_eq=np.hstack([np.ones((1, n)), np.zeros((1, 1))]), b_eq=[1.0],
                    bounds=[(0, None)] * n + [(None, None)], method="highs")
    c2 = np.zeros(m + 1)
    c2[-1] = -1.0
    res_y = linprog(c2, A_ub=np.hstack([-A, np.ones((n, 1))]), b_ub=np.zeros(n),
                    A_eq=np.hstack([np.ones((1, m)), np.zeros((1, 1))]), b_eq=[1.0],
                    bounds=[(0, None)] * m + [(None, None)], method="highs")
    assert res_x.status == 0 and res_y.status == 0
    return np.concatenate([res_x.x[:n], res_y.x[:m]])


@pytest.fixture(scope="session")
def pennies():
    return vs.matching_pennies()


@pytest.fixture(scope="session")
def ws():
    return vs.ws_example()


@pytest.fixture(scope="session")
def pb8():
    return vs.policeman_burglar(8, 1)


@pytest.fixture(scope="session")
def interior_box_problem():
    """Strongly monotone operator with an interior zero: F(z) = z - z*."""
    z_star = np.array([0.25, -0.5, 0.75])
    M = np.eye(3)
    feasible = vs.Box(-2.0, 2.0, dim=3)
    return vs.AffineVI(M, -z_star, feasible), z_star


def plain_affine_vis():
    """The two plain affine VIs of the fixed matrix, fresh, by name."""
    return {"affine12": fixed_matrix.affine_box_instance(vs),
            "halfbox2": fixed_matrix.halfspace_box_instance(vs)}
