"""The discrete scaled radiative transfer model and its substep operators.

The semi-discrete system for the value matrix F (n_x x n_mu) is

    dF/dt = -(1/eps) D_x F diag(mu) + (1/eps^2) (F W_mu - F),

with W_mu = (1/2) w_mu 1^T the angular averaging matrix.  Galerkin
restrictions of this right-hand side onto low-rank factors give the r x r
matrices A_x, B_mu, C_mu and the Kronecker substep operators acting on the
vectorized angular (L) and spatial (K) factors.  D_x is circulant on the
uniform periodic grid, so the full system decouples into Fourier modes in x
and :func:`full_flow` is its exact flow.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import OrthonormalityError
from .grids import AngularQuadrature, DiffMatrices, SpatialGrid
from .wlinalg import (
    SparseOperator,
    dense_expm,
    frob_norm_weighted,
    orthonormality_defect,
    unvec,
    vec,
    weighted_inner,
)
# unused here, but bench/tracing.py rebinds this name in this module
from .wlinalg import expmv  # noqa: F401

# explicit sparse matrices are only assembled below this nonzero count
_MATERIALIZE_NNZ = 5_000_000

_ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class RteModel:
    """Immutable bundle of grid, quadrature, derivative matrices, and eps."""

    grid: SpatialGrid
    quad: AngularQuadrature
    diff: DiffMatrices
    eps: float
    w_mu_matrix: np.ndarray

    @property
    def wx(self):
        return np.full(self.grid.n_x, self.grid.dx)

    @property
    def wmu(self):
        return self.quad.weights


@dataclass(frozen=True)
class SubstepMatrices:
    """Galerkin matrices A_x, B_mu, C_mu for a given basis pair."""

    a_x: np.ndarray
    b_mu: np.ndarray
    c_mu: np.ndarray


def make_model(grid, quad, diff, eps):
    """Assemble an RteModel; eps must lie in (0, 10]."""
    if not 0.0 < eps <= 10.0:
        raise ValueError(f"eps must lie in (0, 10], got {eps}")
    w_mu_matrix = 0.5 * np.outer(quad.weights, np.ones(quad.n_mu))
    return RteModel(grid, quad, diff, float(eps), w_mu_matrix)


def full_rhs(model, f):
    """Right-hand side of the semi-discrete transfer equation."""
    f = np.asarray(f, dtype=float)
    if f.shape != (model.grid.n_x, model.quad.n_mu):
        raise ValueError(
            f"f has shape {f.shape}, expected "
            f"({model.grid.n_x}, {model.quad.n_mu})"
        )
    eps = model.eps
    transport = -(model.diff.d_x @ f) * model.quad.nodes[None, :] / eps
    collision = (f @ model.w_mu_matrix - f) / eps**2
    return transport + collision


def full_operator(model):
    """Vectorized form of :func:`full_rhs` on column-major vec(F).

    The map equals -(1/eps) diag(mu) kron D_x + (1/eps^2)(W_mu^T kron I - I).
    The apply closure evaluates the matrix form directly; the explicit sparse
    matrix is assembled only when small enough to be cheap.
    """
    n_x, n_mu = model.grid.n_x, model.quad.n_mu
    dim = n_x * n_mu

    def apply(u):
        return vec(full_rhs(model, unvec(u, (n_x, n_mu))))

    def build_matrix():
        eps = model.eps
        i_x = sp.identity(n_x, format="csr")
        return (
            -sp.kron(sp.diags(model.quad.nodes), model.diff.d_x, format="csr") / eps
            + (sp.kron(sp.csr_matrix(model.w_mu_matrix.T), i_x, format="csr")
               - sp.identity(dim, format="csr")) / eps**2
        ).tocsr()

    nnz_est = n_x * (2 * n_mu + n_mu * n_mu + n_mu)
    factory = build_matrix if nnz_est <= _MATERIALIZE_NNZ else None
    return SparseOperator(dim, apply, name="full_rte_operator",
                          matrix_factory=factory)


def _check_orthonormal(basis, w, label):
    defect = orthonormality_defect(basis, w)
    if defect > _ORTHO_TOL:
        raise OrthonormalityError(label, defect)


def assemble_substeps(model, x_basis, v_basis):
    """Galerkin matrices for a dx-orthonormal X and w_mu-orthonormal V.

    A_x  = X^T diag(dx) D_x X
    B_mu = V^T diag(mu) diag(w_mu) V
    C_mu = V^T W_mu diag(w_mu) V = (1/2) (V^T w)(V^T w)^T
    """
    x_basis = np.asarray(x_basis, dtype=float)
    v_basis = np.asarray(v_basis, dtype=float)
    _check_orthonormal(x_basis, model.wx, "x_basis")
    _check_orthonormal(v_basis, model.wmu, "v_basis")

    a_x = model.grid.dx * (x_basis.T @ (model.diff.d_x @ x_basis))
    wmu = model.wmu
    b_mu = v_basis.T @ ((model.quad.nodes * wmu)[:, None] * v_basis)
    vw = v_basis.T @ wmu
    c_mu = 0.5 * np.outer(vw, vw)
    return SubstepMatrices(a_x, b_mu, c_mu)


def operator_L(model, sub):
    """Propagation operator for the vectorized angular factor L (n_mu x r).

    Realizes dL/dt = -(1/eps) diag(mu) L A_x^T + (1/eps^2)(W_mu^T L - L) on
    vec(L), i.e. -(1/eps) A_x kron diag(mu) + (1/eps^2)(I kron W_mu^T - I).
    """
    n_mu = model.quad.n_mu
    r = sub.a_x.shape[0]
    eps = model.eps
    mu = model.quad.nodes
    wt = model.w_mu_matrix.T
    a_x = sub.a_x

    def apply(u):
        l = unvec(u, (n_mu, r))
        out = -(mu[:, None] * (l @ a_x.T)) / eps + (wt @ l - l) / eps**2
        return vec(out)

    def build_matrix():
        return (
            -sp.kron(sp.csr_matrix(a_x), sp.diags(mu), format="csr") / eps
            + (sp.kron(sp.identity(r), sp.csr_matrix(wt), format="csr")
               - sp.identity(r * n_mu, format="csr")) / eps**2
        ).tocsr()

    return SparseOperator(r * n_mu, apply, name="L_substep_operator",
                          matrix_factory=build_matrix)


def operator_K(model, sub):
    """Propagation operator for the vectorized spatial factor K (n_x x r).

    Realizes dK/dt = -(1/eps) D_x K B_mu + (1/eps^2)(K C_mu - K) on vec(K),
    i.e. -(1/eps) B_mu^T kron D_x + (1/eps^2)(C_mu^T kron I - I).
    """
    n_x = model.grid.n_x
    r = sub.b_mu.shape[0]
    eps = model.eps
    d_x = model.diff.d_x
    b_mu, c_mu = sub.b_mu, sub.c_mu

    def apply(u):
        k = unvec(u, (n_x, r))
        out = -(d_x @ k @ b_mu) / eps + (k @ c_mu - k) / eps**2
        return vec(out)

    def build_matrix():
        return (
            -sp.kron(sp.csr_matrix(b_mu.T), d_x, format="csr") / eps
            + (sp.kron(sp.csr_matrix(c_mu.T), sp.identity(n_x), format="csr")
               - sp.identity(r * n_x, format="csr")) / eps**2
        ).tocsr()

    return SparseOperator(r * n_x, apply, name="K_substep_operator",
                          matrix_factory=build_matrix)


def density(model, f):
    """Angular density rho = (1/2) F w_mu."""
    f = np.asarray(f, dtype=float)
    if f.shape != (model.grid.n_x, model.quad.n_mu):
        raise ValueError(
            f"f has shape {f.shape}, expected "
            f"({model.grid.n_x}, {model.quad.n_mu})"
        )
    return 0.5 * (f @ model.wmu)


def diffusion_limit_density(model, rho0, t):
    """Evolve a density by the discrete diffusion limit exp((t/3) D_xx).

    D_xx is circulant, so the flow is the exact Fourier multiplier
    exp((t/3) d_xx_symbol) on the rfft of rho0.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    rho0 = np.asarray(rho0, dtype=float)
    if t == 0.0:
        return rho0.copy()
    decay = np.exp((t / 3.0) * model.diff.d_xx_symbol)
    return np.fft.irfft(decay * np.fft.rfft(rho0), n=model.grid.n_x)


def full_flow(model, f, t):
    """Exact flow exp(t A) of the full system on the value matrix F.

    D_x is circulant, so row q of rfft(F) obeys dF_q/dt = F_q G_q with
    G_q = -(d_q/eps) diag(mu) + (1/eps^2)(W_mu - I), d_q the D_x symbol:
    one n_mu x n_mu exponential per Fourier mode, the row-form blocks of the
    structured L flow.  d_q is imaginary and the nodes are symmetric, so
    with J the flip mu -> -mu, J G_q J = conj(G_q), and the unitary
    U = (1 - i)(I + iJ)/2 turns G_q into the real
    M_q = U^H G_q U = (Im d_q/eps) diag(mu) J + (1/eps^2)(W_mu - I).
    Each mode therefore takes one real exponential, a third of the cost of
    the complex one, and F_q exp(t G_q) = ((F_q U) exp(t M_q)) U^H.

    The modes go one at a time, not stacked: at 200 x 100 (2 CPUs, one
    BLAS thread), one batched expm of all 101 blocks took 0.11-0.15 s
    against 0.14-0.15 s, but raised the peak RSS from 64 MB to 79 MB.
    They go through ``dense_expm`` and not
    ``integrators._propagate_modes``, because bench/tracing.py books every
    3-D expm stack in ``integrators`` as the L or K substep route.
    """
    eps = model.eps
    scale = (t / eps) * model.diff.d_x_symbol.imag
    mu_flip = np.diag(model.quad.nodes)[:, ::-1]
    coll = (t / eps**2) * (model.w_mu_matrix - np.eye(model.quad.n_mu))
    rows = np.fft.rfft(f, axis=0)
    rows = (0.5 - 0.5j) * (rows + 1j * rows[:, ::-1])
    for q, s in enumerate(scale):
        rows[q] = rows[q] @ dense_expm(s * mu_flip + coll)
    rows = (0.5 + 0.5j) * (rows - 1j * rows[:, ::-1])
    return np.fft.irfft(rows, n=model.grid.n_x, axis=0)


def tangent_residual(model, state):
    """Weighted norm of the right-hand side component off the tangent space.

    For f = X S V^T the tangent projector is P = P_X + P_V - P_X P_V; the
    residual ||(I - P) rhs(f)||_w is the computable counterpart of the
    model-order defect.
    """
    _check_orthonormal(state.x, model.wx, "state.x")
    _check_orthonormal(state.v, model.wmu, "state.v")
    f = state.x @ state.s @ state.v.T
    g = full_rhs(model, f)
    wx, wmu = model.wx, model.wmu
    px_g = state.x @ weighted_inner(state.x, g, wx)
    g_pv = weighted_inner(g.T, state.v, wmu) @ state.v.T
    px_g_pv = state.x @ weighted_inner(state.x, g_pv, wx)
    resid = g - px_g - g_pv + px_g_pv
    return frob_norm_weighted(resid, wx, wmu)
