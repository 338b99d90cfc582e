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
from functools import partial

import numpy as np

from .exceptions import NumericalFailureError, OrthonormalityError
from .grids import AngularQuadrature, DiffMatrices, SpatialGrid
from .wlinalg import SparseOperator, dense_expm, orthonormality_defect
# unused here, but bench/tracing.py rebinds this name in this module
from .wlinalg import expmv  # noqa: F401

_ORTHO_TOL = 1e-8
# |1 - theta| below which C_mu keeps the mass exactly (see angular_blocks)
MASS_SNAP = 1e-12
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
    """Galerkin matrices A_x, B_mu, C_mu for a given basis pair.

    theta is the eigenvalue of the rank-one C_mu, as :func:`angular_blocks`
    built it.
    """

    a_x: np.ndarray
    b_mu: np.ndarray
    c_mu: np.ndarray
    theta: float


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


def _d_x(model, x_basis):
    """D_x X by its two-point stencil."""
    # the product form c X[i+1] - c X[i-1] rounds as the CSR row sum of D_x X,
    # and A_x must not move: its roundoff decides columns (ROADMAP item 3)
    return _centered_difference((1.0 / (2.0 * model.grid.dx)) * x_basis)


def spatial_block(model, x_basis):
    """A_x = X^T diag(dx) D_x X, the spatial Galerkin block; X unchecked."""
    return model.grid.dx * (x_basis.T @ _d_x(model, x_basis))


def angular_blocks(model, v_basis):
    """The angular Galerkin blocks (B_mu, C_mu, theta); V unchecked.

    B_mu = V^T diag(mu) diag(w_mu) V
    C_mu = V^T W_mu diag(w_mu) V = (1/2) u u^T, u = V^T w_mu

    C_mu maps u to theta u, theta = |u|^2 / sum(w_mu) the share of the
    constant in span(V), and the K flow's (C_mu - I)/eps^2 changes the mass
    at the rate (theta - 1)/eps^2.  With the constant in span(V), |u|^2
    still carries about 1e-15 of roundoff, a mass change of about
    (1 - theta) dt/eps^2 per step: 1e-8 at dt/eps^2 = 1e7.  So where
    |1 - theta| < MASS_SNAP, theta is taken as exactly 1 and
    C_mu = u u^T / |u|^2, which keeps the mass (ROADMAP item 6(a)).  A
    constant that has left span(V) by more is the rank's mass error, which
    no rule on C_mu can mend (item 6(c)).  theta is returned as the rule
    set it, 1 or |u|^2/2, the eigenvalue the closed form of the pure
    collision rows (:func:`collision_flow`) reads.
    """
    wmu = model.wmu
    b_mu = v_basis.T @ ((model.quad.nodes * wmu)[:, None] * v_basis)
    u = v_basis.T @ wmu
    norm2 = u @ u
    if abs(1.0 - norm2 / wmu.sum()) < MASS_SNAP:
        return b_mu, np.outer(u, u) / norm2, 1.0
    return b_mu, 0.5 * np.outer(u, u), 0.5 * norm2


def assemble_substeps(model, x_basis, v_basis):
    """Galerkin matrices for a dx-orthonormal X and w_mu-orthonormal V.

    Checks both bases, then builds A_x by :func:`spatial_block` and B_mu,
    C_mu, theta by :func:`angular_blocks`.
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


def collision_flow(c, theta, rows, rows_p):
    """Each row y of ``rows`` under exp(c (P - I)), in closed form.

    The pure collision flow over the scaled time c = t/eps^2, given
    ``rows_p`` = rows P, with P rank one and P^2 = theta P: W_mu
    (theta = 1, since the weights sum to 2) or C_mu (theta from
    :func:`angular_blocks`, exactly 1 under its mass rule).  P/theta is a
    projection, so with q = y P/theta each row maps to
    e^-c (y - q) + e^(c (theta - 1)) q, and no matrix exponential is
    formed.  For theta = 1 the component q, which carries the mass, moves
    only by the roundoff of forming y P, where the squared Pade
    exponential of c (P - I) drifts with c (by 3e-8 relative at c = 1e8).
    The split also keeps the backward flow (c < 0) free of cancellation:
    only y - q grows, like e^-c.  theta = 0 means P = 0.  U^H W_mu U = W_mu
    for the unitary U of :func:`to_flip_basis`, so the form holds for
    flip-basis rows too.
    """
    if not theta:
        return np.exp(-c) * rows
    q = rows_p / theta
    return np.exp(-c) * (rows - q) + np.exp(c * (theta - 1.0)) * q


def mode_flow(scale, rows, propagate, collide, mirror):
    """The one rule of the four exact flows for their mode rows, in place.

    A row whose real transport scale is exactly 0 is pure collision and
    takes ``collide(rows)``, its closed form :func:`collision_flow`; the
    others take ``propagate(|scale|, rows)``, and no zero scale reaches it.
    The block of -s is the ``mirror`` image of the block of s (the flip J
    for the angular flow, complex conjugation for K and S, whose blocks
    are real but for the i of the transport), so the rows of negative
    scale are mirrored before and after, and each +-s pair shares one
    exponential.
    """
    zero, neg = scale == 0.0, scale < 0.0
    rows[zero] = collide(rows[zero])
    if not zero.all():
        rows[neg] = mirror(rows[neg])
        rows[~zero] = propagate(np.abs(scale[~zero]), rows[~zero])
        rows[neg] = mirror(rows[neg])
    return rows


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
    the cost of the complex one.  The rows go by :func:`mode_flow`:
    J M(a) J = M(-a), so J is the mirror, and only |a_q| reaches the
    kernel ``propagate(scale, b, c, y)``, which maps each row y_q to
    y_q exp(scale_q b + c), b = diag(mu) J; the rows of a_q exactly 0 take
    :func:`collision_flow` with P = W_mu.  The caller passes the kernel,
    so that each exponential runs where bench/tracing.py books it.
    """
    n_mu = model.quad.n_mu
    b = np.diag(model.quad.nodes)[:, ::-1]
    coll = c * (0.5 * np.outer(model.wmu, np.ones(n_mu)) - np.eye(n_mu))
    rows = mode_flow(
        a, to_flip_basis(rows), lambda s, y: propagate(s, b, coll, y),
        lambda y: collision_flow(c, 1.0, y, 0.5 * (y @ model.wmu)[:, None]),
        lambda y: y[:, ::-1])
    return from_flip_basis(rows)


def expm_rows(expm, scale, b, c, y):
    """Map each row y_q to y_q expm(scale_q b + c), overwriting y.

    One 2-D ``expm`` per distinct scale, applied row by row to each row
    that shares it, so that every row rounds as it would alone.  Each
    caller passes its exponential, so that bench/tracing.py books it.
    """
    last = None
    for i in np.argsort(scale).tolist():
        if scale[i] != last:
            last = scale[i]
            e = expm(last * b + c)
        y[i] = y[i] @ e
    return y


def live_row_flow(model, f, flow, label):
    """Each Fourier row of f in x under its own flow, live rows only.

    D_x is circulant, so row q of rfft(f) evolves alone, by a flow set by
    its symbol d_q.  ``flow(d, rows)`` maps the live rows and their D_x
    symbols to their flowed rows; every other row of the output is an
    exact zero, and the result goes back by irfft.  A row is live when its
    largest entry is at least machine epsilon u times top, the largest
    entry of rfft(f): where diffusion has damped the high modes, only the
    few rows that carry data are exponentiated.  Both callers' row flows
    are contractions, so a dropped row moves the result by at most its own
    norm; :func:`full_flow` and ``integrators._propagate_k_structured``
    state the bounds.  An f whose rfft is not finite raises
    NumericalFailureError naming ``label``, before the flow would spread
    its NaNs with warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        f_hat = np.fft.rfft(f, axis=0)
        mag = np.abs(f_hat).max(axis=1)
        top = mag.max()
    if not np.isfinite(top):
        raise NumericalFailureError(f"{label} overflowed")
    live = mag >= np.finfo(float).eps * top
    out = np.zeros_like(f_hat)
    out[live] = flow(model.diff.d_x_symbol[live], f_hat[live])
    return np.fft.irfft(out, n=model.grid.n_x, axis=0)


def full_flow(model, f, t):
    """Exact flow exp(t A) of the full system on the value matrix F.

    Row q of rfft(F) evolves alone by exp(t G_q),
    G_q = -(d_q/eps) diag(mu) + (1/eps^2)(W_mu - I), d_q the D_x symbol:
    the blocks of :func:`flip_flow`, on the live rows of
    :func:`live_row_flow`.  Each flow exp(t G_q) is a contraction in the
    w_mu-weighted norm: there the transport is skew, and W_mu - I is
    negative semidefinite, since W_mu is the w-orthogonal projection onto
    the constants (the weights sum to 2).  So the dropped rows move the
    result by at most about sqrt(2 n_rows) u top.  For even n_x the modes
    q and n_x/2 - q have the same symbol, so they share one exponential:
    one per distinct nonzero symbol of the live rows.  The symbol 0 (the
    mean mode, and for even n_x the Nyquist mode) leaves pure collision,
    so the mass, which sits in the mean mode, moves only at roundoff.  The
    exponentials are the per-row kernel :func:`expm_rows` with
    ``dense_expm``, not the batched ``integrators._propagate_modes``,
    because bench/tracing.py books every 3-D expm stack in
    ``integrators`` as the L or K substep route.
    """
    eps = model.eps
    return live_row_flow(
        model, f, lambda d, rows: flip_flow(
            model, (t / eps) * d.imag, t / eps**2, rows,
            partial(expm_rows, dense_expm)),
        "reference flow")


def normal_component(model, state):
    """Weighted norm of the right-hand side's component off the tangent space.

    For f = X S V^T the tangent projector is P = P_X + P_V - P_X P_V, and
    (I - P) g = (I - P_X) g (I - P_V) is the model-order defect.  The
    collision term's columns lie in span(X), so (I - P_X) removes it
    exactly; what is left is the transport's
    -(1/eps) [(I - P_X) D_x X] S [diag(mu) V - V B_mu]^T, with
    (I - P_X) D_x X = D_x X - X A_x.  Its w-norm is ||R_a S R_c^T||_F / eps,
    R_a and R_c the R factors of the two weighted thin factors, so no
    n_x x n_mu array and no 1/eps^2 term is formed, and the value keeps
    its digits as eps -> 0, where the dense residual's collision terms
    cancel to roundoff of size u/eps^2.
    """
    _check_orthonormal(state.x, model.wx, "state.x")
    _check_orthonormal(state.v, model.wmu, "state.v")
    dx_x = _d_x(model, state.x)
    a = dx_x - state.x @ (model.grid.dx * (state.x.T @ dx_x))
    b_mu = angular_blocks(model, state.v)[0]
    c = model.quad.nodes[:, None] * state.v - state.v @ b_mu
    r_a = np.linalg.qr(np.sqrt(model.wx)[:, None] * a, mode="r")
    r_c = np.linalg.qr(np.sqrt(model.wmu)[:, None] * c, mode="r")
    return float(np.linalg.norm(r_a @ state.s @ r_c.T)) / model.eps
