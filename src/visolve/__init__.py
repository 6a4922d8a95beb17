"""Solvers and benchmarks for monotone affine variational inequalities and
bilinear saddle-point problems: variance-reduced extragradient methods,
classical first-order baselines, polynomially weighted iterate averaging,
and closed-form convergence diagnostics."""

from .averaging import AveragingAccumulator
from .metrics import GapTrace, dist_theta, duality_gap, duality_gap_at, natural_residual, ws_ratio
from .oracles import (ExactOracle, MatrixGameOracle, SamplingDistribution, SnapshotCache,
                      default_components, pair_second_moment, stochastic_operator,
                      vr_conditional_variance)
from .problems import (AffineVI, BilinearStructure, SolutionSet, grid_gradient, load_instance,
                       matching_pennies, nemirovski, policeman_burglar, save_instance,
                       spectral_norm, synthetic_segmentation, uniform_random, ws_example)
from .rng import StableRng
from .sets import Box, FeasibleSet, HalfspaceBox, Product, Simplex, SimplexProduct, from_descriptor
from .solvers import (ALGORITHMS, DoubleLoopSvrgEG, Extragradient, LooplessSvrgEG,
                      NumericalDivergence, OptimisticMDEntropy, OptimisticMDL2, PrimalDual,
                      RegretMatchingPlus, SvrgParams, applicable, make_solver, run)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
