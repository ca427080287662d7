"""Walk through the classical half of the workbench: draw a random sparse
system, factor it with zero fill, and watch the preconditioner flatten the
spectrum.

Run:  python3 demos/01_ilu_preconditioning.py
"""

import numpy as np

from vqls_precond import (condition_number, ilu0, lu_solve, preconditioned_system,
                          random_rhs, random_sparse, singular_values)

n, density, seed = 128, 0.2, 1

A = random_sparse(n, density, seed)
b = random_rhs(n, seed)
print(f"instance: {n}x{n}, density {density}, seed {seed} -> nnz = {A.nnz} "
      f"({A.nnz / n**2:.3f} of all positions)")

factors = ilu0(A)
dense = A.to_dense()
product = factors.L @ factors.U        # M = L @ U; L stores its unit diagonal
mask = dense != 0.0
n_lower = np.count_nonzero(np.tril(factors.L, -1))
print(f"zero-fill factorization: L holds {n_lower} entries below its unit diagonal, "
      f"U holds {np.count_nonzero(factors.U)}, together exactly the pattern of A")
print(f"max |(LU - A)| on the pattern: {np.abs(product - dense)[mask].max():.2e}")
print(f"largest |(LU - A)| anywhere:   {np.abs(product - dense).max():.2e} "
      "(the dropped fill, living only off-pattern)")

A_tilde, b_tilde = preconditioned_system(A, b, factors)
print(f"\ncondition number before: {condition_number(dense):10.2f}")
print(f"condition number after:  {condition_number(A_tilde):10.2f}")

sigma = singular_values(dense)
sigma_tilde = singular_values(A_tilde)
print("\nsingular-value spread (sigma / sigma_max):")
for label, s in (("before", sigma), ("after ", sigma_tilde)):
    q = s / s[0]
    print(f"  {label}: top {q[0]:.3f}  median {q[n // 2]:.3f}  min {q[-1]:.3f}")

x = lu_solve(dense, b)
x_tilde = lu_solve(A_tilde, b_tilde)
gap = np.abs(x / np.linalg.norm(x) - x_tilde / np.linalg.norm(x_tilde)).max()
print(f"\nboth systems share one solution: max normalized gap {gap:.2e}")
