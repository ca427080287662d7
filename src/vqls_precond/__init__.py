"""Workbench for solving sparse linear systems with a simulated variational
quantum linear solver, with and without classical ILU(0) preconditioning."""

__version__ = "0.1.0"

from .dense import SingularMatrixError, condition_number, lu_solve, singular_values
from .sparse import (CsrMatrix, DensityTooLowError, load_matrix_market, poisson_1d,
                     random_rhs, random_sparse, save_matrix_market)
from .ilu import IluFactors, ZeroPivotError, apply_minv, ilu0, preconditioned_system
from .embedding import (DegenerateBlockError, PauliTerm, QuantumSystem, build_system,
                        direct_system, extract_solution, hermitize,
                        pad_to_power_of_two, pauli_decompose, pauli_reconstruct,
                        save_pauli_terms)
from .ansatz import AnsatzParams, StateVector, prepare_state
from .vqls import (Adam, DegenerateOperatorError, DivergedError, TraceRecord, TrainResult,
                   VqlsConfig, cost, cost_and_grad, cost_via_decomposition, residuals,
                   train, write_trace_csv)

__all__ = [name for name in dir() if not name.startswith("_")]
