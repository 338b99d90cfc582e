"""Dynamical low-rank integrators for the scaled 1x1v radiative transfer
equation: the Galerkin alternating-projection scheme (GAP) with
projector-splitting (PSI) and basis-update Galerkin (BUG) baselines, a dense
reference solver, and the experiment drivers built on top of them.
"""

from .exceptions import (
    ConfigError,
    DegenerateStateError,
    NumericalFailureError,
    OrthonormalityError,
    SizeCapError,
)
from .grids import (
    AngularQuadrature,
    DiffMatrices,
    SpatialGrid,
    build_diff_matrices,
    gauss_legendre,
    uniform_grid,
)
from .integrators import (
    REFERENCE_SIZE_CAP,
    SubstepTrace,
    bug_step,
    gap_step,
    integrate,
    psi_step,
    reference_step,
)
from .model import (
    RteModel,
    SubstepMatrices,
    assemble_substeps,
    density,
    diffusion_limit_density,
    full_flow,
    full_operator,
    full_rhs,
    make_model,
    operator_K,
    operator_L,
    tangent_residual,
)
from .state import (
    ErrorReport,
    LowRankState,
    error_report,
    from_full,
    load_state,
    reconstruct,
    save_state,
)
from .wlinalg import (
    QrResult,
    SparseOperator,
    dense_expm,
    expmv,
    frob_norm_weighted,
    orthonormality_defect,
    weighted_inner,
    weighted_mgs,
    weighted_norm,
    weighted_singular_values,
    weighted_truncated_svd,
)

__version__ = "0.1.0"
