"""Watch the estimator variance shrink along a run, and audit step costs.

The sampled operator picks row i and column j with probabilities
proportional to their squared norms and reweights by the inverse
probabilities, which makes it unbiased with mean-square Lipschitz constant
exactly ||A||_F. Centering it at a snapshot w makes the conditional
variance proportional to ||z - w||^2, so it vanishes as the run converges;
we evaluate that variance in closed form (no sampling involved).
"""

import numpy as np

import visolve as vs
from visolve.oracles import vr_conditional_variance
from visolve.solvers import make_solver

problem = vs.policeman_burglar(50, seed=0)
solver = make_solver(problem, "svrg-eg", seed=0)
print(f"suggested parameters: p={solver.params.p:.4f} alpha={solver.params.alpha:.4f} "
      f"tau={solver.params.tau:.5f}")

print(f"\n{'evals':>8s} {'E||Fhat - F||^2':>16s} {'gap':>12s}")
next_mark = 250
while solver.evals < 20_000:
    result = solver.step()
    if solver.evals >= next_mark:
        var = vr_conditional_variance(solver.oracle, result.iterate, solver.cache.w)
        gap = vs.duality_gap_at(problem, solver.z)
        print(f"{solver.evals:8d} {var:16.6e} {gap:12.4e}")
        next_mark *= 2

print("\n== cost accounting ==")
charges = []
prev = solver.evals
for _ in range(2000):
    solver.step()
    charges.append(solver.evals - prev)
    prev = solver.evals
charges = np.array(charges)
p, N = solver.params.p, 50
print(f"cheap steps cost 2; snapshot refreshes add N={N}")
print(f"observed mean charge {charges.mean():.3f} vs expected pN+2 = {p * N + 2:.3f}")
print(f"refresh frequency {np.mean(charges > 2):.4f} vs p = {p:.4f}")
