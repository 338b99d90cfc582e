"""Low-rank factorization X S V^T with weighted orthonormality, and metrics."""

from dataclasses import dataclass

import numpy as np

from .model import density
from .wlinalg import frob_norm_weighted, orthonormality_defect, \
    weighted_norm, weighted_singular_values, weighted_truncated_svd


@dataclass
class LowRankState:
    """Factors of a rank-r approximation: x (n_x x r), s (r x r), v (n_mu x r).

    x is orthonormal in the dx-inner product and v in the w_mu-inner product;
    the weighted norm of the reconstruction equals ||s||_F.
    """

    x: np.ndarray
    s: np.ndarray
    v: np.ndarray

    @property
    def rank(self):
        return self.s.shape[0]


@dataclass
class ErrorReport:
    """Error metrics of an approximation against a reference solution."""

    rel_l2_density: float
    rel_l2_full: float
    mass: float
    sigma_spectrum: np.ndarray


def from_full(f, r, grid, quad):
    """Weighted best rank-r approximation of a full matrix.

    Returns (state, delta0) with delta0 the weighted norm of the discarded
    part (the initial-value error of the rank-r ansatz).
    """
    f = np.asarray(f, dtype=float)
    wx = np.full(grid.n_x, grid.dx)
    x, s, v, _ = weighted_truncated_svd(f, r, wx, quad.weights)
    resid = f - x @ s @ v.T
    delta0 = frob_norm_weighted(resid, wx, quad.weights)
    return LowRankState(x, s, v), delta0


def reconstruct(state):
    """Dense matrix x s v^T."""
    return state.x @ state.s @ state.v.T


def orthonormality_defects(state, grid, quad):
    """Max-entry deviations of x^T diag(dx) x and v^T diag(w) v from identity."""
    wx = np.full(grid.n_x, grid.dx)
    return (orthonormality_defect(state.x, wx),
            orthonormality_defect(state.v, quad.weights))


def error_report(approx, reference, model):
    """Relative L2 errors, mass, and the reference's weighted spectrum.

    ``approx`` may be a LowRankState or a dense matrix; ``reference`` is a
    dense matrix of matching shape.
    """
    f_a = reconstruct(approx) if isinstance(approx, LowRankState) else \
        np.asarray(approx, dtype=float)
    f_r = np.asarray(reference, dtype=float)
    if f_a.shape != f_r.shape:
        raise ValueError(f"shape mismatch: {f_a.shape} vs {f_r.shape}")

    wx, wmu = model.wx, model.wmu
    rho_a = density(model, f_a)
    rho_r = density(model, f_r)
    rho_norm = weighted_norm(rho_r, wx)
    full_norm = frob_norm_weighted(f_r, wx, wmu)
    if rho_norm == 0.0 or full_norm == 0.0:
        raise ZeroDivisionError("reference has zero weighted norm")

    rel_rho = weighted_norm(rho_a - rho_r, wx) / rho_norm
    rel_full = frob_norm_weighted(f_a - f_r, wx, wmu) / full_norm
    mass = float(model.grid.dx * np.sum(f_a @ wmu))

    sigma = weighted_singular_values(f_r, wx, wmu)
    return ErrorReport(float(rel_rho), float(rel_full), mass, sigma)


def save_state(state, path):
    """Write the factors to a .npz archive (blocks x, s, v)."""
    np.savez(path, x=state.x, s=state.s, v=state.v)


def load_state(path):
    """Read a state written by :func:`save_state`."""
    with np.load(path) as data:
        return LowRankState(data["x"], data["s"], data["v"])


def report_to_dict(report):
    """JSON-ready dictionary form of an ErrorReport."""
    return {
        "rel_l2_density": report.rel_l2_density,
        "rel_l2_full": report.rel_l2_full,
        "mass": report.mass,
        "sigma_spectrum": [float(s) for s in report.sigma_spectrum],
    }

