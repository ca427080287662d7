"""Reproduce the depth-reduction effect at desk scale: average final cost vs
ansatz depth, with and without preconditioning.

This is a shrunken version of the full sweep (smaller iteration budget) so
it finishes in under a minute; the CLI's built-in profiles run the real
thing (vqls-precond sweep-depth --profile ci|paper).

Run:  python3 demos/03_depth_sweep.py
"""

import numpy as np

from vqls_precond import (VqlsConfig, build_system, ilu0, preconditioned_system, random_rhs,
                          random_sparse, train)

n, density = 128, 0.2
seeds = (1, 2, 3)
depths = (2, 6, 10)
iterations = 500

print(f"{n}x{n} instances, density {density}, seeds {seeds}, "
      f"{iterations} Adam iterations per run\n")
print("depth   mean cost (plain)   mean cost (preconditioned)")

# Both arms of every seed, embedded once: plain (A, b), then ILU(0) (M^-1 A, M^-1 b).
systems = []
for seed in seeds:
    A = random_sparse(n, density, seed)
    b = random_rhs(n, seed)
    A_tilde, b_tilde = preconditioned_system(A, b, ilu0(A))
    systems += [build_system(A.to_dense(), b, "hermitized"),
                build_system(A_tilde, b_tilde, "hermitized")]

column_seeds = [seed for seed in seeds for _ in range(2)]   # one per (seed, arm) column
for depth in depths:
    # one lockstep call trains every (seed, arm) column of this depth
    cfg = VqlsConfig(depth=depth, iterations=iterations)
    costs = [result.final_cost for result in train(systems, cfg, column_seeds)]
    print(f"  {depth:2d}        {np.mean(costs[0::2]):.4f}               "
          f"{np.mean(costs[1::2]):.4f}")

print("\nthe preconditioned arm needs visibly less depth for the same cost;"
      "\nlonger budgets (sweep-depth --profile ci|paper) widen the gap")
