"""The discrete scaled radiative transfer model and its substep operators.

The semi-discrete system for the value matrix F (n_x x n_mu) is

    dF/dt = -(1/eps) D_x F diag(mu) + (1/eps^2) (F W_mu - F),

with W_mu = (1/2) w_mu 1^T the angular averaging matrix.  Galerkin
restrictions of this right-hand side onto low-rank factors give the r x r
matrices A_x, B_mu, C_mu and the substep operators acting on the angular
(L) and spatial (K) factor matrices themselves.  D_x is circulant on the
uniform periodic grid, so the full system decouples into Fourier modes in x
and :func:`full_flow` is its exact flow.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import OrthonormalityError
from .grids import AngularQuadrature, DiffMatrices, SpatialGrid
from .wlinalg import (
    SparseOperator,
    dense_expm,
    frob_norm_weighted,
    orthonormality_defect,
    weighted_inner,
)
# unused here, but bench/tracing.py rebinds this name in this module
from .wlinalg import expmv  # noqa: F401

_ORTHO_TOL = 1e-8
# smallest eps whose square is a normal double, so 1/eps^2 stays finite
EPS_MIN = 2.0**-511


@dataclass(frozen=True)
class RteModel:
    """Immutable bundle of grid, quadrature, derivative matrices, and eps."""

    grid: SpatialGrid
    quad: AngularQuadrature
    diff: DiffMatrices
    eps: float

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
    """Assemble an RteModel; eps must lie in [EPS_MIN, 10]."""
    if not EPS_MIN <= eps <= 10.0:
        raise ValueError(f"eps must lie in [2**-511, 10], got {eps}")
    return RteModel(grid, quad, diff, float(eps))


def _centered_difference(a):
    """Rows a[i+1] - a[i-1] on the periodic grid: 2 dx D_x a as a stencil."""
    out = np.empty_like(a)
    np.subtract(a[2:], a[:-2], out=out[1:-1])
    np.subtract(a[1], a[-1], out=out[0])
    np.subtract(a[0], a[-2], out=out[-1])
    return out


def _value_matrix(model, f):
    """f as a float n_x x n_mu value matrix; ValueError on any other shape."""
    f = np.asarray(f, dtype=float)
    if f.shape != (model.grid.n_x, model.quad.n_mu):
        raise ValueError(f"f has shape {f.shape}, expected "
                         f"({model.grid.n_x}, {model.quad.n_mu})")
    return f


def full_rhs(model, f):
    """Right-hand side of the semi-discrete transfer equation.

    The transport term is the two-point stencil of D_x scaled per column by
    -mu/(2 dx eps); the collision F W_mu - F is rank one plus identity,
    (1/2)(F w_mu) 1^T - F, so neither needs a matrix product.
    """
    f = _value_matrix(model, f)
    eps = model.eps
    out = _centered_difference(f)
    out *= model.quad.nodes * (-0.5 / (model.grid.dx * eps))
    out += (0.5 / eps**2) * (f @ model.wmu)[:, None]
    out -= f / eps**2
    return out


def full_operator(model):
    """:func:`full_rhs` as an operator on the n_x x n_mu value matrix."""
    return SparseOperator((model.grid.n_x, model.quad.n_mu),
                          lambda f: full_rhs(model, f),
                          name="full_rte_operator")


def _check_orthonormal(basis, w, label):
    # a NaN or inf entry makes the defect NaN or inf, which must fail too
    with np.errstate(over="ignore", invalid="ignore"):
        defect = orthonormality_defect(basis, w)
    if not defect <= _ORTHO_TOL:
        raise OrthonormalityError(label, defect)


def spatial_block(model, x_basis):
    """A_x = X^T diag(dx) D_x X, the spatial Galerkin block; X unchecked."""
    # the product form c X[i+1] - c X[i-1] rounds as the CSR row sum of D_x X,
    # and A_x must not move: its roundoff decides columns (ROADMAP item 3)
    dx_x = _centered_difference((1.0 / (2.0 * model.grid.dx)) * x_basis)
    return model.grid.dx * (x_basis.T @ dx_x)


def angular_blocks(model, v_basis):
    """The angular Galerkin blocks (B_mu, C_mu); V unchecked.

    B_mu = V^T diag(mu) diag(w_mu) V
    C_mu = V^T W_mu diag(w_mu) V = (1/2) (V^T w)(V^T w)^T
    """
    wmu = model.wmu
    b_mu = v_basis.T @ ((model.quad.nodes * wmu)[:, None] * v_basis)
    vw = v_basis.T @ wmu
    return b_mu, 0.5 * np.outer(vw, vw)


def assemble_substeps(model, x_basis, v_basis):
    """Galerkin matrices for a dx-orthonormal X and w_mu-orthonormal V.

    Checks both bases, then builds A_x by :func:`spatial_block` and B_mu,
    C_mu by :func:`angular_blocks`.
    """
    x_basis = np.asarray(x_basis, dtype=float)
    v_basis = np.asarray(v_basis, dtype=float)
    _check_orthonormal(x_basis, model.wx, "x_basis")
    _check_orthonormal(v_basis, model.wmu, "v_basis")
    return SubstepMatrices(spatial_block(model, x_basis),
                           *angular_blocks(model, v_basis))


def operator_L(model, sub):
    """Propagation operator on the angular factor L (n_mu x r).

    Realizes dL/dt = -(1/eps) diag(mu) L A_x^T + (1/eps^2)(W_mu^T L - L).
    The apply forms L (-A_x^T/eps), with the r x r block built once here,
    scales its rows by mu, and adds the rank-one collision: the one row
    (1/2)(w_mu^T L)/eps^2 on every row, minus L/eps^2.
    """
    n_mu = model.quad.n_mu
    r = sub.a_x.shape[0]
    eps = model.eps
    mu = model.quad.nodes
    transport = -sub.a_x.T / eps
    half_w = (0.5 / eps**2) * model.wmu

    def apply(l):
        out = l @ transport
        out *= mu[:, None]
        out += half_w @ l
        out -= l / eps**2
        return out

    return SparseOperator((n_mu, r), apply, name="L_substep_operator")


def operator_K(model, sub):
    """Propagation operator on the spatial factor K (n_x x r).

    Realizes dK/dt = -(1/eps) D_x K B_mu + (1/eps^2)(K C_mu - K).  The apply
    takes D_x as its two-point stencil, K[i+1] - K[i-1], times the r x r
    block -B_mu/(2 dx eps), plus K times (C_mu - I)/eps^2; both blocks are
    formed once here.
    """
    n_x = model.grid.n_x
    r = sub.b_mu.shape[0]
    eps = model.eps
    transport = sub.b_mu * (-0.5 / (model.grid.dx * eps))
    collision = (sub.c_mu - np.eye(r)) / eps**2

    def apply(k):
        out = _centered_difference(k) @ transport
        out += k @ collision
        return out

    return SparseOperator((n_x, r), apply, name="K_substep_operator")


def density(model, f):
    """Angular density rho = (1/2) F w_mu."""
    f = _value_matrix(model, f)
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


def to_flip_basis(rows):
    """rows @ U, U = (1 - i)(I + iJ)/2 unitary and J the flip mu -> -mu."""
    return (0.5 - 0.5j) * (rows + 1j * rows[..., ::-1])


def from_flip_basis(rows):
    """rows @ U^H, the inverse of :func:`to_flip_basis`."""
    return (0.5 + 0.5j) * (rows - 1j * rows[..., ::-1])


def collision_flow(model, c, rows):
    """Each row y of ``rows`` under exp(c (W_mu - I)), in closed form.

    The pure collision flow over the scaled time c = t/eps^2.  W_mu is a
    projection, so exp(c (W_mu - I)) = W_mu + e^-c (I - W_mu), and each row
    maps to e^-c y + (1 - e^-c) (1/2)(y . w_mu) 1^T with no exponential.
    Its mass y . w_mu then moves only by the roundoff of sum(w_mu) - 2,
    where the squared Pade exponential of c (W_mu - I) drifts with c (by
    3e-8 relative at c = 1e8).  U^H W_mu U = W_mu for the unitary U of
    :func:`to_flip_basis`, so the form holds for flip-basis rows too.
    """
    return (np.exp(-c) * rows
            - (0.5 * np.expm1(-c)) * (rows @ model.wmu)[:, None])


def flip_flow(model, a, c, rows, propagate):
    """Each complex mode row y_q under exp(-i a_q diag(mu) + c (W_mu - I)).

    The angular blocks of two exact flows: the L substep's on the
    eigenvectors of the antisymmetric A_x, whose eigenvalues -i g_q give
    a_q = (dt/eps) g_q, and the reference's on the Fourier modes of D_x,
    whose imaginary symbols d_q give a_q = (t/eps) Im d_q; c = t/eps^2.
    With J the flip mu -> -mu and symmetric nodes, each block G obeys
    J G J = conj(G), so the unitary U of :func:`to_flip_basis` makes it
    real, U^H G U = M(a_q) = a_q diag(mu) J + c (W_mu - I), and
    y exp(G) = ((y U) exp(M(a_q))) U^H: one real exponential, a third of
    the cost of the complex one.  J M(a) J = M(-a), so the rows of negative
    a_q are flipped by J before and after, and only |a_q| reaches the
    kernel ``propagate(scale, b, c, y)``, which maps each row y_q to
    y_q exp(scale_q b + c), b = diag(mu) J.  The rows of a_q exactly 0 are
    pure collision and take :func:`collision_flow`.  The caller passes the
    kernel, so that each exponential runs where bench/tracing.py books it.
    """
    rows = to_flip_basis(rows)
    zero = a == 0.0
    rows[zero] = collision_flow(model, c, rows[zero])
    if not zero.all():
        live, flip = ~zero, a < 0
        n_mu = model.quad.n_mu
        coll = c * (0.5 * np.outer(model.wmu, np.ones(n_mu)) - np.eye(n_mu))
        rows[flip] = rows[flip, ::-1]
        rows[live] = propagate(np.abs(a[live]),
                               np.diag(model.quad.nodes)[:, ::-1], coll,
                               rows[live])
        rows[flip] = rows[flip, ::-1]
    return from_flip_basis(rows)


def _expm_rows(scale, b, c, y):
    """Map each row y_q to y_q exp(scale_q b + c), overwriting y.

    One ``dense_expm`` per distinct scale, applied row by row to each row
    that shares it, so that every row rounds as it would alone.
    """
    scale, inverse = np.unique(scale, return_inverse=True)
    for q, s in enumerate(scale):
        e = dense_expm(s * b + c)
        for i in np.flatnonzero(inverse == q):
            y[i] = y[i] @ e
    return y


def full_flow(model, f, t):
    """Exact flow exp(t A) of the full system on the value matrix F.

    D_x is circulant, so row q of rfft(F) evolves alone by
    exp(t G_q), G_q = -(d_q/eps) diag(mu) + (1/eps^2)(W_mu - I), d_q the
    D_x symbol: the blocks of :func:`flip_flow`.  For even n_x the modes q
    and n_x/2 - q have the same symbol, so they share one exponential.
    The symbol 0 (the mean mode, and for even n_x the Nyquist mode) leaves
    pure collision, so the mass, which sits in the mean mode, moves only
    at roundoff.  The exponentials go through ``dense_expm`` and not
    ``integrators._propagate_modes``, because bench/tracing.py books every
    3-D expm stack in ``integrators`` as the L or K substep route.
    """
    eps = model.eps
    rows = flip_flow(model, (t / eps) * model.diff.d_x_symbol.imag,
                     t / eps**2, np.fft.rfft(f, axis=0), _expm_rows)
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
