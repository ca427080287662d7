"""Workbench for solving sparse linear systems with a simulated variational
quantum linear solver, with and without classical ILU(0) preconditioning."""

__version__ = "0.1.0"

from .dense import condition_number, lu_solve, singular_values
from .sparse import poisson_1d, random_rhs, random_sparse
from .ilu import ilu0, preconditioned_system
from .embedding import build_system, extract_solution
from .ansatz import prepare_state
from .vqls import VqlsConfig, residuals, train

__all__ = ["VqlsConfig", "build_system", "condition_number", "extract_solution", "ilu0",
           "lu_solve", "poisson_1d", "preconditioned_system", "prepare_state", "random_rhs",
           "random_sparse", "residuals", "singular_values", "train"]
