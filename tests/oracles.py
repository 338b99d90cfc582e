"""Reference implementations, for cross-checking tests.

The package applies D_x as its two-point stencil and the collision as a
rank-one update to the factor matrices themselves, and it never assembles a
matrix.  Most of these are the same maps built the textbook way, from COO
triplets and Kronecker products, so a test can compare an apply or a symbol
with an independent matrix form.  The Kronecker matrices act on the
column-major ``vec`` of a matrix, and ``unvec`` undoes it.
``drop_roundoff_columns`` is the whole-factor rank decision made column by
column, in QRs of its own, against which the weighted QR's one-pass rule
is checked.
"""

import numpy as np
import scipy.sparse as sp


def vec(m):
    """Column-major vectorization, the layout of the Kronecker matrices."""
    return np.asarray(m).reshape(-1, order="F")


def unvec(a, shape):
    """Inverse of :func:`vec`."""
    return np.asarray(a).reshape(shape, order="F")


def d_x_matrix(grid):
    """Periodic second-order centered first derivative (2 nonzeros per row)."""
    n = grid.n_x
    dx = grid.dx
    rows = np.repeat(np.arange(n), 2)
    cols_x = np.empty(2 * n, dtype=np.int64)
    vals_x = np.empty(2 * n)
    cols_x[0::2] = (np.arange(n) + 1) % n
    cols_x[1::2] = (np.arange(n) - 1) % n
    vals_x[0::2] = 1.0 / (2.0 * dx)
    vals_x[1::2] = -1.0 / (2.0 * dx)
    return sp.coo_matrix((vals_x, (rows, cols_x)), shape=(n, n)).tocsr()


def d_xx_matrix(grid):
    """Periodic three-point second derivative (3 nonzeros per row)."""
    n = grid.n_x
    dx = grid.dx
    rows2 = np.repeat(np.arange(n), 3)
    cols2 = np.empty(3 * n, dtype=np.int64)
    vals2 = np.empty(3 * n)
    cols2[0::3] = np.arange(n)
    cols2[1::3] = (np.arange(n) + 1) % n
    cols2[2::3] = (np.arange(n) - 1) % n
    vals2[0::3] = -2.0 / dx**2
    vals2[1::3] = 1.0 / dx**2
    vals2[2::3] = 1.0 / dx**2
    return sp.coo_matrix((vals2, (rows2, cols2)), shape=(n, n)).tocsr()


def w_mu_matrix(model):
    """The angular averaging matrix W_mu = (1/2) w_mu 1^T."""
    n_mu = model.quad.n_mu
    return 0.5 * np.outer(model.quad.weights, np.ones(n_mu))


def full_operator_matrix(model):
    """-(1/eps) diag(mu) kron D_x + (1/eps^2)(W_mu^T kron I - I)."""
    n_x, n_mu = model.grid.n_x, model.quad.n_mu
    dim = n_x * n_mu
    eps = model.eps
    i_x = sp.identity(n_x, format="csr")
    return (
        -sp.kron(sp.diags(model.quad.nodes), d_x_matrix(model.grid),
                 format="csr") / eps
        + (sp.kron(sp.csr_matrix(w_mu_matrix(model).T), i_x, format="csr")
           - sp.identity(dim, format="csr")) / eps**2
    ).tocsr()


def operator_L_matrix(model, sub):
    """-(1/eps) A_x kron diag(mu) + (1/eps^2)(I kron W_mu^T - I)."""
    n_mu = model.quad.n_mu
    r = sub.a_x.shape[0]
    eps = model.eps
    wt = w_mu_matrix(model).T
    return (
        -sp.kron(sp.csr_matrix(sub.a_x), sp.diags(model.quad.nodes),
                 format="csr") / eps
        + (sp.kron(sp.identity(r), sp.csr_matrix(wt), format="csr")
           - sp.identity(r * n_mu, format="csr")) / eps**2
    ).tocsr()


def operator_K_matrix(model, sub):
    """-(1/eps) B_mu^T kron D_x + (1/eps^2)(C_mu^T kron I - I)."""
    n_x = model.grid.n_x
    r = sub.b_mu.shape[0]
    eps = model.eps
    return (
        -sp.kron(sp.csr_matrix(sub.b_mu.T), d_x_matrix(model.grid),
                 format="csr") / eps
        + (sp.kron(sp.csr_matrix(sub.c_mu.T), sp.identity(n_x), format="csr")
           - sp.identity(r * n_x, format="csr")) / eps**2
    ).tocsr()


def drop_roundoff_columns(l1, w, tol=1e-10):
    """Return l1 with each roundoff column j >= 1 replaced by its projection.

    Column by column, a Householder QR of diag(sqrt w) times the kept
    columns before j and column j gives its residual |R_jj|.  Where that is
    at most tol times the largest column's w-norm, column j becomes
    Q[:, :-1] R[:-1, j], its projection onto the kept columns, and is not
    kept; the per-column rule of the weighted QR then sees it as exactly
    dependent.  l1 must be finite; it is not modified.
    """
    # scaled exactly by a power of two near the largest entry, so that the
    # column norms of a huge factor cannot overflow
    _, exp2 = np.frexp(np.abs(l1).max(initial=0.0))
    sq = np.sqrt(w)
    b = sq[:, None] * np.ldexp(l1, -exp2)
    thresh = tol * np.linalg.norm(b, axis=0).max()
    out = np.array(l1, dtype=float)
    kept = [0]
    for j in range(1, b.shape[1]):
        q, r_factor = np.linalg.qr(b[:, kept + [j]])
        if abs(r_factor[-1, -1]) <= thresh:
            out[:, j] = np.ldexp((q[:, :-1] @ r_factor[:-1, -1]) / sq, exp2)
        else:
            kept.append(j)
    return out
