"""Weighted inner products, weighted QR, weighted truncated SVD, and expmv.

All factorizations here are orthonormal with respect to a diagonal weighted
inner product <u, v>_w = sum_i w_i u_i v_i, with w either the grid spacing
replicated over space or the Gauss-Legendre weights in angle.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .exceptions import NumericalFailureError

_MGS_TAU = 1e-10
_NORM_EST_SEED = 0x5EED
# largest scaled norm of one Taylor segment of expmv
_SEGMENT_THETA = 3.0


def weighted_inner(a, b, w):
    """Return a^T diag(w) b for matrices (or vectors) sharing the row count."""
    a = np.atleast_2d(np.asarray(a, dtype=float).T).T
    b = np.atleast_2d(np.asarray(b, dtype=float).T).T
    w = np.asarray(w, dtype=float)
    if a.shape[0] != w.shape[0] or b.shape[0] != w.shape[0]:
        raise ValueError(
            f"row mismatch: a has {a.shape[0]}, b has {b.shape[0]}, "
            f"w has {w.shape[0]}"
        )
    return a.T @ (w[:, None] * b)


def weighted_norm(v, w):
    """Weighted 2-norm of a vector, or weighted Frobenius norm of a matrix."""
    v = np.asarray(v)
    w = np.asarray(w)
    if v.ndim == 1:
        return math.sqrt(float(np.dot(w, v * v)))
    return math.sqrt(float(np.sum(w[:, None] * v * v)))


def orthonormality_defect(basis, w):
    """Largest entry of |basis^T diag(w) basis - I|."""
    gram = weighted_inner(basis, basis, w)
    return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


def frob_norm_weighted(f, wx, wmu):
    """Frobenius norm of a space-angle matrix in the dx x dmu measure."""
    f = np.asarray(f)
    return math.sqrt(float(np.einsum("i,ij,j->", wx, f * f, wmu)))


class SparseOperator:
    """A linear map exposed only through its action on arrays of ``shape``."""

    def __init__(self, shape, apply, name="operator"):
        self.shape = tuple(shape)
        self.apply = apply
        self.name = name


@dataclass
class QrResult:
    """Weighted QR factorization a = q @ r_factor with q w-orthonormal.

    r_factor is upper triangular with a nonnegative diagonal.  Columns listed
    in ``replaced_columns`` were rank deficient: their q columns come from
    the caller's deterministic replacement ladder, their diagonal entry in
    r_factor is exactly zero, and the entries above it hold the projection
    of the original column onto the preceding q columns.
    """

    q: np.ndarray
    r_factor: np.ndarray
    replaced_columns: set = field(default_factory=set)


def weighted_mgs(a, w, ladder=None, whole_factor=False):
    """Householder QR in the w-inner product, with laddered column replacement.

    Parameters
    ----------
    a : (m, r) array
        Columns to orthonormalize, m >= r.
    w : (m,) array
        Positive weights defining the inner product.
    ladder : callable, optional
        ``ladder(k)`` is the k-th replacement candidate, an (m,) array, for
        k = 0, 1, ..., m - 1; the first m candidates must span R^m.  Built
        one at a time, so no m x m basis is ever stored.  Defaults to the
        unit vectors e_k.
    whole_factor : bool, optional
        Judge residuals against the largest column's w-norm, not each
        column's own (below).

    One Householder QR of diag(sqrt(w)) a, with no pre-scaling: Householder
    QR is columnwise backward stable (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Thm 19.4), so however badly the columns
    are graded, q stays orthonormal to roundoff, the norm of R's column j
    is the w-norm of column j, and |R_jj| is its residual after projection
    onto the preceding columns.  The norms are taken by ``np.hypot``, so
    finite huge entries cannot overflow.  A column is deficient when its
    residual is at most _MGS_TAU times its w-norm, floored at eps times the
    largest w-norm, or with ``whole_factor`` at most _MGS_TAU times the
    largest w-norm, so that a column of roundoff is deficient whatever its
    direction, as rank-adaptive BUG truncates against the whole
    coefficient matrix (Ceruti, Kusch & Lubich, BIT 62, 2022).  While a
    column is deficient, the first such column j takes the next ladder
    candidate, scaled to unit w-norm, and the QR is redone; a candidate is
    judged against its own norm in both modes.  A candidate already in the
    span of the preceding columns comes back deficient and is passed over
    in turn.  Signs are then fixed so that diag(R) >= 0, and each replaced
    column gets R_jj = 0 and R[:j, j] = the projection of the original
    column onto the preceding q columns.  A nonfinite a raises
    NumericalFailureError.
    """
    a = np.asarray(a, dtype=float)
    w = np.asarray(w, dtype=float)
    m, r = a.shape
    if m < r:
        raise ValueError(f"need at least as many rows as columns, got {m} x {r}")
    if ladder is None:
        def ladder(k):
            return np.eye(1, m, k)[0]

    sq = np.sqrt(w)
    # an entry that overflows under its weight is caught as nonfinite
    with np.errstate(over="ignore"):
        b = sq[:, None] * a
    if not np.isfinite(b).all():
        raise NumericalFailureError("weighted QR: the factor is not finite")

    q, r_factor = np.linalg.qr(b)
    norms = np.hypot.reduce(r_factor, axis=0)
    top = norms.max(initial=0.0)
    floor = np.finfo(float).eps * top
    thresh = _MGS_TAU * (np.full(r, top) if whole_factor
                         else np.maximum(norms, floor))
    work = b.copy()
    replaced = set()
    for k in range(m + 1):
        deficient = np.flatnonzero(np.abs(np.diag(r_factor)) <= thresh)
        if deficient.size == 0:
            break
        if k == m:
            raise ValueError(
                f"the first {m} ladder candidates do not span R^{m}")
        j = deficient[0]
        cand = sq * ladder(k)
        work[:, j] = cand / np.linalg.norm(cand)
        thresh[j] = _MGS_TAU
        replaced.add(int(j))
        q, r_factor = np.linalg.qr(work)

    sign = np.where(np.diag(r_factor) < 0.0, -1.0, 1.0)
    q *= sign
    r_factor *= sign[:, None]
    for j in replaced:
        r_factor[:, j] = 0.0
        r_factor[:j, j] = q[:, :j].T @ b[:, j]
    return QrResult(q / sq[:, None], r_factor, replaced)


def weighted_singular_values(f, wx, wmu):
    """Singular values of f in the (wx, wmu)-weighted norm, descending."""
    return np.linalg.svd(np.sqrt(wx)[:, None] * f * np.sqrt(wmu)[None, :],
                         compute_uv=False)


def weighted_truncated_svd(f, r, wx, wmu):
    """Best rank-r approximation of f in the (wx, wmu)-weighted norm.

    Returns (x, s, v, sigma_tail): x and v orthonormal in their weighted inner
    products, s diagonal with nonincreasing entries, and sigma_tail the first
    discarded weighted singular value (0 when r equals the full rank).
    Computed by an SVD of diag(sqrt(wx)) f diag(sqrt(wmu)) followed by
    unscaling.  Each returned pair's sign makes the first non-negligible
    entry of its weighted left singular vector positive.
    """
    f = np.asarray(f, dtype=float)
    wx = np.asarray(wx, dtype=float)
    wmu = np.asarray(wmu, dtype=float)
    n_x, n_mu = f.shape
    if not 1 <= r <= min(n_x, n_mu):
        raise ValueError(f"rank {r} out of range for a {n_x} x {n_mu} matrix")

    sqx, sqm = np.sqrt(wx), np.sqrt(wmu)
    u, sig, vt = np.linalg.svd(sqx[:, None] * f * sqm[None, :], full_matrices=False)
    u, vt = u[:, :r], vt[:r, :]
    mag = np.abs(u)
    first = np.argmax(mag > 1e-12 * np.maximum(1.0, mag.max(axis=0)), axis=0)
    sign = np.where(u[first, np.arange(r)] < 0, -1.0, 1.0)
    x = sign * u / sqx[:, None]
    v = (sign[:, None] * vt).T / sqm[:, None]
    s = np.diag(sig[:r])
    sigma_tail = float(sig[r]) if r < len(sig) else 0.0
    return x, s, v, sigma_tail


def estimate_operator_norm(op):
    """Power-iteration estimate of the spectral norm of op (8 iterations).

    Nothing in the package calls it: :func:`expmv` takes its caller's
    proven bound.  It stays only because bench/tracing.py wraps this name
    (ROADMAP item 1).
    """
    rng = np.random.default_rng(_NORM_EST_SEED)
    v = rng.standard_normal(op.shape)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(8):
        av = op.apply(v)
        nrm = np.linalg.norm(av)
        if nrm == 0.0 or not np.isfinite(nrm):
            return nrm
        est = nrm
        v = av / nrm
    return est


def expmv(op, t, v, tol, norm):
    """Compute exp(t A) v using only the action of A.

    Parameters
    ----------
    op : SparseOperator
    t : float
    v : array of shape op.shape
    tol : float
        Target relative accuracy.
    norm : float
        An upper bound on the spectral norm of A, as a map on arrays of
        op.shape in the Frobenius norm.

    The workhorse is a truncated Taylor series with time-step scaling: t is
    split into m substeps so the scaled norm is at most _SEGMENT_THETA = 3,
    and within each substep terms are summed until the term's Frobenius
    norm drops below the (per-substep) tolerance.  With a true bound the
    k-th term is at most 3^k/k! of the segment's input, so a segment
    reaches the 4u floor within about 35 terms, inside the cap of 60, and
    its roundoff hump stays near e^3 u.  Sizing segments from a norm bound
    follows Al-Mohy & Higham, SISC 33(2), 2011.  A bound that falls short
    of the norm can leave a substep short of its tolerance after 60 terms,
    and that raises NumericalFailureError rather than return an
    unconverged sum.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    v = np.asarray(v, dtype=float)
    if v.shape != op.shape:
        raise ValueError(f"input shape {v.shape} does not match {op.shape}")
    if t == 0.0:
        return v.copy()

    scaled = norm * abs(t)
    if not np.isfinite(scaled):
        raise NumericalFailureError(
            f"norm of {op.name} is not finite (t={t})"
        )

    n_seg = max(1, int(math.ceil(scaled / _SEGMENT_THETA)))
    h = t / n_seg
    tol_seg = max(tol / n_seg, 4 * np.finfo(float).eps)
    w = v.copy()
    # an overflowing sum is caught by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_seg):
            term = w.copy()
            acc = w.copy()
            for k in range(1, 61):
                term = (h / k) * op.apply(term)
                acc += term
                # squared Frobenius norms as one dot product of the
                # flattened arrays, without np.linalg.norm's wrapper
                converged = (math.sqrt(np.vdot(term, term))
                             <= tol_seg * math.sqrt(np.vdot(acc, acc)))
                if converged:
                    break
            w = acc
            if not np.all(np.isfinite(w)):
                raise NumericalFailureError(
                    f"exp({t} * {op.name}) v overflowed during the Taylor sweep"
                )
            if not converged:
                raise NumericalFailureError(
                    f"exp({t} * {op.name}) v: a Taylor segment missed its "
                    f"tolerance after 60 terms (norm {norm:.3g} too low?)"
                )
    return w


def dense_expm(a):
    """Dense matrix exponential (Pade with scaling and squaring)."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got {a.shape}")
    return sla.expm(a)
