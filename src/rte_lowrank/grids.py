"""Spatial grid, finite-difference matrices, and Gauss-Legendre angular quadrature.

The spatial grid is uniform, periodic, and left-closed/right-open: the point
``b`` is identified with ``a`` and never stored.  This makes the centered
first-derivative matrix exactly antisymmetric on the grid.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid on [a, b) with n_x points."""

    a: float
    b: float
    n_x: int
    dx: float
    points: np.ndarray


@dataclass(frozen=True)
class AngularQuadrature:
    """Gauss-Legendre nodes and weights on [-1, 1], nodes ascending."""

    n_mu: int
    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class DiffMatrices:
    """Sparse periodic finite-difference matrices (3 nonzeros per row).

    d_x is the second-order centered first derivative, d_xx the standard
    three-point second derivative.  Both are circulant: d_x_symbol =
    i sin(2 t_k) / dx and d_xx_symbol = -(4 / dx^2) sin^2(t_k), with
    t_k = pi k / n_x, are their eigenvalues on the rfft modes k = 0..n_x/2.
    """

    d_x: sp.csr_matrix
    d_xx: sp.csr_matrix
    d_x_symbol: np.ndarray
    d_xx_symbol: np.ndarray


def _legendre_and_derivative(n, x):
    """Evaluate P_n and P_n' at the points x via the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(1, n):
        p_next = ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        p_prev = p
        p = p_next
    # P_n'(x) = n (x P_n - P_{n-1}) / (x^2 - 1)
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_legendre(n):
    """n-point Gauss-Legendre rule on [-1, 1].

    Nodes are computed by Newton iteration on the Legendre polynomial with
    Chebyshev initial guesses (tolerance 1e-15, at most 100 iterations),
    weights as 2 / ((1 - x^2) P_n'(x)^2).  Output is sorted ascending and
    symmetrized so that nodes[j] = -nodes[n-1-j] holds to roundoff.
    """
    if n < 1:
        raise ValueError(f"quadrature order must be >= 1, got {n}")
    if n == 1:
        return AngularQuadrature(1, np.zeros(1), np.full(1, 2.0))

    i = np.arange(1, n + 1)
    x = np.cos(np.pi * (i - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre_and_derivative(n, x)
        delta = p / dp
        x -= delta
        if np.max(np.abs(delta)) < 1e-15:
            break
    _, dp = _legendre_and_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)

    order = np.argsort(x)
    x, w = x[order], w[order]
    # enforce the +/- symmetry exactly
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    return AngularQuadrature(n, x, w)


def uniform_grid(a, b, n_x):
    """Uniform periodic grid with points[i] = a + i (b - a) / n_x."""
    if b <= a:
        raise ValueError(f"need b > a, got a={a}, b={b}")
    if n_x < 2:
        raise ValueError(f"need n_x >= 2, got {n_x}")
    dx = (b - a) / n_x
    points = a + (b - a) * np.arange(n_x) / n_x
    return SpatialGrid(a, b, n_x, dx, points)


def build_diff_matrices(grid):
    """Periodic centered d_x and three-point d_xx, with their symbols."""
    n = grid.n_x
    dx = grid.dx
    rows = np.repeat(np.arange(n), 2)
    cols_x = np.empty(2 * n, dtype=np.int64)
    vals_x = np.empty(2 * n)
    cols_x[0::2] = (np.arange(n) + 1) % n
    cols_x[1::2] = (np.arange(n) - 1) % n
    vals_x[0::2] = 1.0 / (2.0 * dx)
    vals_x[1::2] = -1.0 / (2.0 * dx)
    d_x = sp.coo_matrix((vals_x, (rows, cols_x)), shape=(n, n)).tocsr()

    rows2 = np.repeat(np.arange(n), 3)
    cols2 = np.empty(3 * n, dtype=np.int64)
    vals2 = np.empty(3 * n)
    cols2[0::3] = np.arange(n)
    cols2[1::3] = (np.arange(n) + 1) % n
    cols2[2::3] = (np.arange(n) - 1) % n
    vals2[0::3] = -2.0 / dx**2
    vals2[1::3] = 1.0 / dx**2
    vals2[2::3] = 1.0 / dx**2
    d_xx = sp.coo_matrix((vals2, (rows2, cols2)), shape=(n, n)).tocsr()
    # closed forms: unlike an FFT of the column, small symbols keep a
    # relative roundoff instead of one of order 1e-16 / dx^2
    theta = np.pi * np.arange(n // 2 + 1) / n
    return DiffMatrices(d_x, d_xx, 1j * np.sin(2.0 * theta) / dx,
                        -(4.0 / dx**2) * np.sin(theta) ** 2)
