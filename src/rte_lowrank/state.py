"""Low-rank factorization X S V^T with weighted orthonormality, and metrics."""

from dataclasses import dataclass

import numpy as np

from .model import density
from .wlinalg import frob_norm_weighted, weighted_norm, \
    weighted_singular_values, weighted_truncated_svd


@dataclass
class LowRankState:
    """Factors of a rank-r approximation: x (n_x x r), s (r x r), v (n_mu x r).

    x is orthonormal in the dx-inner product and v in the w_mu-inner product;
    the weighted norm of the reconstruction equals ||s||_F.
    """

    x: np.ndarray
    s: np.ndarray
    v: np.ndarray


@dataclass
class ErrorReport:
    """Error metrics of an approximation against a reference solution.

    Plain floats throughout, so that ``asdict`` gives the JSON form.
    """

    rel_l2_density: float
    rel_l2_full: float
    mass: float
    sigma_spectrum: list


def from_full(f, r, model):
    """Weighted best rank-r approximation of a full matrix.

    Returns (state, delta0, sigma_tail) from one weighted SVD of f in the
    model's (wx, wmu) norm: delta0 is the weighted norm of the discarded
    part (the initial-value error of the rank-r ansatz) and sigma_tail the
    first discarded weighted singular value.
    """
    f = np.asarray(f, dtype=float)
    wx, wmu = model.wx, model.wmu
    x, s, v, sigma_tail = weighted_truncated_svd(f, r, wx, wmu)
    delta0 = frob_norm_weighted(f - x @ s @ v.T, wx, wmu)
    return LowRankState(x, s, v), delta0, sigma_tail


def reconstruct(state):
    """Dense matrix x s v^T."""
    return state.x @ state.s @ state.v.T


def error_report(approx, reference, model, spectrum=None):
    """Relative L2 errors, mass, and the reference's weighted spectrum.

    ``approx`` and ``reference`` are dense n_x x n_mu matrices; a low-rank
    state is measured through :func:`reconstruct`.  ``spectrum`` is the
    reference's weighted spectrum when the caller already has it, as a
    sweep that measures every job against one reference does.
    """
    f_a = np.asarray(approx, dtype=float)
    f_r = np.asarray(reference, dtype=float)
    wx, wmu = model.wx, model.wmu
    # density checks both shapes against the model's grid
    rho_a = density(model, f_a)
    rho_r = density(model, f_r)
    rho_norm = weighted_norm(rho_r, wx)
    full_norm = frob_norm_weighted(f_r, wx, wmu)
    if rho_norm == 0.0 or full_norm == 0.0:
        raise ZeroDivisionError("reference has zero weighted norm")

    rel_rho = weighted_norm(rho_a - rho_r, wx) / rho_norm
    rel_full = frob_norm_weighted(f_a - f_r, wx, wmu) / full_norm
    mass = float(model.grid.dx * np.sum(f_a @ wmu))

    if spectrum is None:
        spectrum = weighted_singular_values(f_r, wx, wmu)
    return ErrorReport(float(rel_rho), float(rel_full), mass,
                       [float(s) for s in spectrum])


def save_state(state, path):
    """Write the factors to a .npz archive (blocks x, s, v)."""
    np.savez(path, x=state.x, s=state.s, v=state.v)


def load_state(path):
    """Read a state written by :func:`save_state`.

    Raises ValueError, naming the array, unless x, s and v are present,
    2-D and finite, with shapes (n, r), (r, r) and (m, r), r <= min(n, m).
    """
    with np.load(path) as data:
        arrays = {name: data.get(name) for name in ("x", "s", "v")}
    for name, a in arrays.items():
        if a is None or a.ndim != 2 or not np.all(np.isfinite(a)):
            raise ValueError(f"{path}: {name!r} must be a finite 2-D array")
    (n, r), m = arrays["x"].shape, arrays["v"].shape[0]
    for name, want in zip(arrays, ((n, r), (r, r), (m, r))):
        if arrays[name].shape != want or want[0] < r:
            raise ValueError(
                f"{path}: array {name!r} has shape {arrays[name].shape}; "
                f"need x (n, r), s (r, r), v (m, r) with r <= min(n, m)")
    return LowRankState(**arrays)
