"""Solve a small linear system end to end with the variational solver and
compare against direct elimination.

The system is embedded with an ancilla block (the matrix is not symmetric),
the ansatz starts from the loaded right-hand-side state, and Adam drives the
overlap cost toward zero.

Run:  python3 demos/02_vqls_small_system.py
"""

import numpy as np

from vqls_precond import (VqlsConfig, build_system, extract_solution, lu_solve, prepare_state,
                          residuals, train)

rng = np.random.default_rng(11)
n = 8
A = rng.uniform(-1, 1, (n, n)) + np.diag(rng.choice([-3.0, 3.0], n))
b = rng.uniform(-1, 1, n)

x_exact = lu_solve(A, b)
print(f"system: {n}x{n} dense, embedded with one ancilla -> "
      f"{int(np.log2(n)) + 1} qubits")

sys = build_system(A, b, mode="hermitized")
cfg = VqlsConfig(depth=4, iterations=6000, learning_rate=0.005, seed=7)
result = train(sys, cfg)

print("cost trajectory:")
for it in range(0, len(result.costs), len(result.costs) // 8):
    print(f"  iteration {it:5d}   cost {result.costs[it]:.3e}   "
          f"|grad| {result.grad_norms[it]:.3e}")
print(f"final cost {result.final_cost:.3e} "
      f"(best {result.best_cost:.3e} at iteration {result.best_iteration})")

state = prepare_state(result.params, sys.rhs_state)
x_vqls = extract_solution(state, sys, original_n=n)
res = residuals(x_vqls, x_exact)

print("\n   exact        variational (rescaled)")
scale = float(x_vqls @ x_exact) / float(x_vqls @ x_vqls)
for i in range(n):
    print(f"  {x_exact[i]:+.6f}   {scale * x_vqls[i]:+.6f}   |diff| {res[i]:.2e}")
print(f"\nmax residual against the exact solution: {res.max():.2e}")
