"""Block diagonal dominance, block tridiagonal inversion, decay bounds on
inverse block norms, and block Gershgorin inclusion regions."""

from .bounds import (BoundsReport, ChainFactors, DominanceViolation,
                     TauOmegaTable, compute_bounds, compute_chains,
                     compute_tau_omega)
from .dominance import DominanceReport, check_row_block_dominance
from .experiments import (EXPERIMENT_IDS, GOLDEN_TABLES, REFERENCE_EIGENVALUES,
                          ExperimentResult, ExperimentSpec, build_example,
                          run_experiment)
from .gershgorin import (ComparisonSummary, RegionGrid, RegionQuery, auto_box,
                         compare_regions, eval_grid, margins_at)
from .inverse import (MAX_BLOCK_MAGNITUDE, BlockInverse, InverseFactors,
                      RecurrenceOverflowError, assemble_inverse,
                      condition_estimate, diag_residual, ikebe_factors,
                      invert_block_tridiagonal, residual)
from .kernels import (ConvergenceError, NormKind, SingularError, batch_norm,
                      eigenvalues_small, identity_norm, norm, solve_blocks)
from .matrixio import (MatrixFileError, dump_json_text, read_matrix_file,
                       write_json_file, write_matrix_file)
from .structures import (BlockTridiagonalMatrix, GeneralBlockMatrix,
                         block_rows, block_tridiag_from_stencils, build_random_diag,
                         build_tridiag_toeplitz, kron_sum, left_scale_blockrows)

__version__ = "0.1.0"
