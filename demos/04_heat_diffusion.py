"""Steady-state heat diffusion in a uniformly heated rod with cold ends,
solved variationally with and without preconditioning.

The discretized operator is tridiagonal, a pattern with no fill, so the
zero-fill factorization is exact and the preconditioned right-hand side is
already proportional to the solution: the preconditioned run starts (and
stays) at essentially zero cost, while the plain run fights the fact that
A b is nearly zero for the low-frequency uniform source.

Run:  python3 demos/04_heat_diffusion.py
"""

import numpy as np

from vqls_precond import (VqlsConfig, build_system, extract_solution, ilu0, lu_solve,
                          poisson_1d, prepare_state, preconditioned_system, residuals, train)

n, length, f = 128, 1.0, 1.0
A, b = poisson_1d(n, heat_rate=f, length=length)
x_exact = lu_solve(A.to_dense(), b)

A_tilde, b_tilde = preconditioned_system(A, b, ilu0(A))
print(f"rod with {n} interior nodes; ||M^-1 A - I|| = "
      f"{np.abs(A_tilde - np.eye(n)).max():.2e} (tridiagonal pattern, no fill)")

cfg = VqlsConfig(depth=0, iterations=2000, mode="direct", seed=1)
arms = {
    "plain": build_system(A.to_dense(), b, "direct"),
    "preconditioned": build_system(A_tilde, b_tilde, "direct"),
}
solutions = {}
for name, sys in arms.items():
    result = train(sys, cfg)
    state = prepare_state(result.params, sys.rhs_state)
    solutions[name] = extract_solution(state, sys, original_n=n)
    print(f"{name:15s} final cost {result.final_cost:.3e}")

dh = length / (n + 1)
xs = np.arange(1, n + 1) * dh
parabola = f * xs * (length - xs) / 2.0
print(f"\nstencil exactness: max |lu_solve - parabola| = "
      f"{np.abs(x_exact - parabola).max():.2e}")

print("\ntemperature profile at a few nodes (exact vs variational):")
print("  x       exact      preconditioned   plain")
for i in (0, n // 4, n // 2, 3 * n // 4, n - 1):
    row = [xs[i], x_exact[i]]
    for name in ("preconditioned", "plain"):
        scale = float(solutions[name] @ x_exact) / float(solutions[name] @ solutions[name])
        row.append(scale * solutions[name][i])
    print(f"  {row[0]:.3f}   {row[1]:.6f}   {row[2]:+.6f}        {row[3]:+.6f}")

for name in ("preconditioned", "plain"):
    res = residuals(solutions[name], x_exact)
    print(f"max residual, {name}: {res.max():.2e}")
