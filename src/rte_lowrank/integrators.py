"""One-step maps: GAP, PSI, BUG, and the dense reference solver.

Each low-rank step is built from substep flows for the angular factor L, the
spatial factor K, and (for PSI/BUG) the coefficient matrix S, each advanced
by its exponential.  The new L and K are orthonormalized by the weighted
QR, whose deficient columns are replaced from a fixed ladder: Legendre
polynomials P_k(mu) in angle, which start 1, mu, the span the diffusion
limit needs, and the grid's Fourier modes in space.

The L and K substeps are one helper, ``_factor_substep``, and its
exponential is one decision made from one number: the closed-form bound
``_norm_bound`` on the substep operator's spectral norm.  While dt times
the bound is at most the factor's edge in _STRUCTURED_THRESHOLD, the
Taylor ``expmv`` runs with its segments sized by that bound; beyond it,
where the collision stiffness 1/eps^2 makes a polynomial method
infeasible, the flow is propagated exactly.  Each factor's edge sits at its
measured crossover: 100 for L, and 20 for K, whose exact flow on the few
live Fourier rows of band-limited data beat the Taylor sweep at 20 in
every timed shape (BENCH_collision_cache.json).  The Taylor tolerance is
the fixed accuracy target EXPMV_TOL, as in Al-Mohy & Higham, SISC 33(2),
2011.  The exact flows decouple into
modes, and one kernel, ``_propagate_modes``, maps
each mode row y_q to y_q exp(scale_q b + c): K on the Fourier modes of the
circulant D_x (complex r x r blocks), L on the eigenvectors of the
antisymmetric r x r A_x (real n_mu x n_mu blocks, by the flip similarity of
the reference, one per +-g pair of A_x).  It exponentiates each distinct
scale once, in one batch: ``_expm_batch`` scales each block by a power of
two, calls scipy's Pade step once on the stack and squares the blocks as
batched matmuls.  Both routes agree to EXPMV_TOL and are cross-checked in
the test suite.  Both exact flows also decide against the whole factor what
is roundoff.  The K flow propagates only the Fourier rows of K that carry
data, those whose largest entry is at least machine epsilon times the
largest of all: diffusion damps the others below roundoff, and each row's
flow is a contraction, so leaving them exactly zero costs less than the
rfft's own rounding.  The L flow collapses the angular columns onto a few
directions in the diffusive regime, and makes its roundoff columns exactly
dependent (``_drop_roundoff_columns``), so that roundoff does not pick the
directions the weighted QR keeps.  What does not change from step to step
is computed once per model and kept in ``RteModel.cache``: the L flow's
collision block and, at odd rank, its pure-collision propagator, the slice
of the zero eigenvalue of A_x, which later substeps leave out of the batch
(``_l_flow_blocks``); and the Legendre ladder.

The dense reference is the exact flow of the full system,
``model.full_flow``: an rfft in x and one n_mu x n_mu exponential per
distinct D_x symbol, the blocks of the L flow with the D_x symbol in place
of the eigenvalues of A_x, each made real by one fixed unitary similarity.
It runs no Taylor loop, so EXPMV_TOL does not affect it.
"""

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla

from .exceptions import DegenerateStateError, NumericalFailureError, SizeCapError
from .model import (SubstepMatrices, angular_blocks, assemble_substeps,
                    from_flip_basis, full_flow, operator_K, operator_L,
                    spatial_block, to_flip_basis)
# unused here, but bench/tracing.py rebinds this name in this module
from .model import full_operator  # noqa: F401
from .state import LowRankState
from .wlinalg import (
    DENSE_EXPM_LIMIT,
    expmv,
    orthonormality_defect,
    unvec,
    vec,
    weighted_inner,
    weighted_mgs,
    weighted_norm,
)

log = logging.getLogger(__name__)

REFERENCE_SIZE_CAP = 200_000

# target relative accuracy of every Taylor substep
EXPMV_TOL = 1e-10

_SIGMA_WARN_RATIO = 1e-13
_ORTH_WARN = 1e-10

# dt times the substep norm bound above which the exact mode flow of each
# factor replaces the Taylor expmv, near the measured crossovers
# (BENCH_collision_cache.json): at 20 the K flow was cheaper on
# band-limited data in 8 of 8 timed shapes, and at 100 the L flow in 12
# of 16
_STRUCTURED_THRESHOLD = {"L": 100.0, "K": 20.0}

# the largest 1-norm at which the degree-13 Pade approximant of exp needs
# no scaling (Higham, SIMAX 26(4), 2005, Table 2.3)
_THETA_13 = 5.371920351148152

# residual, relative to the largest column's w-norm, at or below which a
# column of the structured L flow's output is roundoff
_RANK_TOL = 1e-10


@dataclass
class SubstepTrace:
    """Debug record written after each substep."""

    step_index: int
    substep: str
    pre_norm: float
    post_norm: float
    orth_defect: Optional[float]
    replaced_columns: tuple
    # "taylor" or "structured" for the L and K substeps, None for S
    route: Optional[str] = None


# ---------------------------------------------------------------------------
# structured exact substep propagators
# ---------------------------------------------------------------------------

def _expm_batch(mats):
    """exp of each slice of a 3-D stack, squared as one batch.

    Slice j is scaled exactly by 2^-s_j, with s_j the smallest s >= 0 that
    takes its 1-norm to at most theta_13 (Al-Mohy & Higham, SIMAX 31(3),
    2009), so scipy's Pade step squares only where its own backward-error
    check asks for it.  The stack then takes s_j matrix squarings per slice
    as batched matmuls: round k squares every slice with s_j > k.  ``mats``
    is the workspace and is overwritten, so that no more stacks are live
    than in scipy's own slice loop.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.abs(mats).sum(axis=-2).max(axis=-1)
        if not np.all(np.isfinite(norm)):
            raise NumericalFailureError("matrix exponential overflowed")
        # ceil(log2(norm / theta)) from the binary exponent, exactly
        frac, s = np.frexp(norm / _THETA_13)
        s = np.maximum(s - (frac == 0.5), 0)
        mats *= np.ldexp(1.0, -s)[:, None, None]
        out, spare = sla.expm(mats), mats
        for k in range(s.max()):
            live = np.flatnonzero(s > k)
            # the whole stack squares into the spare buffer, with no gather
            if len(live) == len(out):
                out, spare = np.matmul(out, out, out=spare), out
            else:
                part = out[live]
                out[live] = np.matmul(part, part, out=spare[:len(live)])
    if not np.all(np.isfinite(out)):
        raise NumericalFailureError("matrix exponential overflowed")
    return out


def _propagate_modes(scale, b, c, y, cache=None):
    """Map each mode row y_q to y_q exp(scale_q b + c) by one batched expm.

    The batch holds each distinct scale once.  ``cache``, a dict kept with
    c by the caller, holds exp(c), the slice of scale 0, under "zero" once
    one call has computed it; later calls with a scale 0 batch only the
    other scales.  The scales are then nonnegative, so 0 sorts first.
    ``_expm_batch`` exponentiates each slice on its own, so the cached
    slice is bit-identical to a recomputed one.  Real propagators act on
    the real and imaginary parts of complex rows separately, so the stack
    is never copied to complex.
    """
    scale, inverse = np.unique(scale, return_inverse=True)

    def batch(scales):
        return _expm_batch(scales[:, None, None] * b[None, :, :]
                           + c[None, :, :])

    zero = cache is not None and scale[0] == 0.0
    if zero and "zero" in cache:
        prop = cache["zero"]
        if len(scale) > 1:
            prop = np.concatenate((prop, batch(scale[1:])))
    else:
        prop = batch(scale)
        if zero:
            # a copy, so that the cache does not keep the whole stack alive
            cache["zero"] = prop[:1].copy()
    prop = prop[inverse]
    if np.iscomplexobj(prop) or np.isrealobj(y):
        return np.einsum("qi,qij->qj", y, prop)
    parts = np.matmul(np.stack((y.real, y.imag), axis=1), prop)
    return parts[:, 0] + 1j * parts[:, 1]


def _propagate_k_structured(model, sub, dt, k_mat):
    """Exact K flow on the spatial Fourier modes of the circulant D_x.

    Row q of rfft(K) obeys dK_q/dt = K_q G_q with
    G_q = -(d_q/eps) B_mu + (1/eps^2)(C_mu - I), d_q the D_x symbol.
    For even n_x the modes q and n_x/2 - q have the same symbol, so they
    go in mirrored pairs and the batch holds about half of the rows.

    Only the rows that carry data are propagated: a row is live when its
    largest entry is at least machine epsilon u times top, the largest
    entry of rfft(K), and the other rows of the output are exact zeros.
    In the diffusive regime the earlier steps have damped the high modes,
    so the batch holds the few distinct scales of the live rows (3 to 6
    of 501 rows on the diffusive-eps benchmark).  Each row's flow
    exp(dt G_q) is a 2-norm contraction: G_q + G_q^H = (2/eps^2)(C_mu - I)
    is negative semidefinite, and the transport part -(d_q/eps) B_mu is
    skew-Hermitian, d_q imaginary and B_mu real symmetric.  Zeroing a
    dropped row therefore changes the result by at most that row's
    2-norm, below sqrt(r) u top, and all of them together by at most
    sqrt(n_rows r) u top, n_rows = n_x/2 + 1: about 1e-14 relative at
    1000 x 100, rank 5, below the rfft's own rounding and four orders
    below EXPMV_TOL.  A K whose rfft is not finite raises
    NumericalFailureError here: the row flows would carry its NaNs into
    the weighted QR, which does not check for them.
    """
    eps = model.eps
    r = sub.b_mu.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        k_hat = np.fft.rfft(k_mat, axis=0)
        mag = np.abs(k_hat).max(axis=1)
        top = mag.max()
    if not np.isfinite(top):
        raise NumericalFailureError(
            f"spatial substep overflowed (eps={eps:g}, dt={dt:g})")
    live = mag >= np.finfo(float).eps * top
    out = np.zeros_like(k_hat)
    out[live] = _propagate_modes(-(dt / eps) * model.diff.d_x_symbol[live],
                                 sub.b_mu,
                                 (dt / eps**2) * (sub.c_mu - np.eye(r)),
                                 k_hat[live])
    return np.fft.irfft(out, n=model.grid.n_x, axis=0)


def _propagate_l_structured(model, sub, dt, l_mat):
    """Exact L flow on the eigenvectors of the antisymmetric A_x.

    With A_x = U diag(-i g) U^H, row j of (L U)^T obeys the row form
    dy_j/dt = y_j H_j with H_j = -(i g_j/eps) diag(mu) + (1/eps^2)(W_mu - I),
    the per-mode generator of ``model.full_flow`` with g_j in place of the
    D_x symbol.  Its flip similarity makes each block real:
    y exp(dt H_j) = from_flip_basis(to_flip_basis(y) exp(M(a_j))) with
    M(a) = a diag(mu) J + (dt/eps^2)(W_mu - I) and a_j = (dt/eps) g_j.
    J M(a) J = M(-a), so exp(M(-a)) = J exp(M(a)) J: the rows of negative
    a_j are flipped by J before and after, and only |a_j| is exponentiated.
    eigh returns the pairs +-g matching only to roundoff, so the spectrum
    is first made exactly odd; each pair then shares one slice, and the
    zero of an odd rank takes its own: ceil(r/2) real slices.

    The flow returns L1 with its roundoff columns made exactly dependent
    (``_drop_roundoff_columns``), so that the weighted QR replaces them from
    the Legendre ladder whatever their roundoff.  The decision is made here
    and not in the step: this is the route of the diffusive regime (dt
    times the bound above _STRUCTURED_THRESHOLD), where the collision damps
    the angular directions beyond the first few below roundoff.  On the
    Taylor route the same rule replaced hundreds of columns that the
    weighted QR keeps, and cost the rte compare benchmark 10-20 % of its
    wall time.  A nonfinite L raises NumericalFailureError.
    """
    eps = model.eps
    if not np.all(np.isfinite(l_mat)):
        raise NumericalFailureError(
            f"angular substep got a nonfinite factor (eps={eps:g}, dt={dt:g})")
    gam, u = np.linalg.eigh(0.5j * (sub.a_x - sub.a_x.T))
    a = (dt / eps) * (0.5 * (gam - gam[::-1]))
    flip = a < 0
    rows = to_flip_basis((l_mat @ u).T)
    rows[flip] = rows[flip, ::-1]
    blocks = _l_flow_blocks(model, dt)
    rows = _propagate_modes(np.abs(a), blocks["mu_flip"], blocks["coll"],
                            rows, cache=blocks)
    rows[flip] = rows[flip, ::-1]
    l1 = np.real(from_flip_basis(rows).T @ u.conj().T)
    return _drop_roundoff_columns(l1, model.wmu)


def _l_flow_blocks(model, dt):
    """The blocks of the structured L flow that stay the same every step.

    Kept in ``model.cache`` under ("L", dt): "mu_flip", diag(mu) J, and
    "coll", (dt/eps^2)(W_mu - I), and after the first substep with a zero
    scale, "zero", the pure-collision propagator exp(coll) as
    ``_expm_batch`` returns it.  At odd rank every substep has that zero
    scale, and with it up to 22 squarings of an n_mu x n_mu block.  The
    closed form W_mu + e^-c (I - W_mu) is not used in its place: its
    roundoff differs from the batched slices', and the rank decisions of
    the diffusive regime follow roundoff (ROADMAP item 3).
    """
    key = ("L", dt)
    if key not in model.cache:
        n_mu = model.quad.n_mu
        model.cache[key] = {
            "mu_flip": np.diag(model.quad.nodes)[:, ::-1],
            "coll": (dt / model.eps**2) * (model.w_mu_matrix - np.eye(n_mu)),
        }
    return model.cache[key]


def _drop_roundoff_columns(l1, w):
    """Replace each roundoff column j >= 1 of l1 by its projection.

    Column by column, a Householder QR of diag(sqrt w) times the kept
    columns before j and column j gives its residual |R_jj|.  Where that
    is at most _RANK_TOL times the largest column's w-norm, column j becomes
    Q[:, :-1] R[:-1, j], its projection onto the kept columns, and is not
    kept.  The threshold is set by the whole factor, as rank-adaptive BUG
    truncates against the whole coefficient matrix (Ceruti, Kusch & Lubich,
    BIT 62, 2022), so a column of roundoff is dropped whatever its
    direction, and ``weighted_mgs``, whose test is relative to each
    column's own norm, sees it as exactly dependent.  A nonfinite l1
    raises NumericalFailureError.
    """
    top = np.abs(l1).max(initial=0.0)
    if not np.isfinite(top):
        raise NumericalFailureError("angular substep overflowed")
    # scaled exactly by a power of two near the largest entry, so that the
    # column norms of a huge factor cannot overflow
    _, exp2 = np.frexp(top)
    sq = np.sqrt(w)
    b = sq[:, None] * np.ldexp(l1, -exp2)
    tol = _RANK_TOL * np.linalg.norm(b, axis=0).max()
    kept = [0]
    for j in range(1, b.shape[1]):
        q, r_factor = np.linalg.qr(b[:, kept + [j]])
        if abs(r_factor[-1, -1]) <= tol:
            l1[:, j] = np.ldexp((q[:, :-1] @ r_factor[:-1, -1]) / sq, exp2)
        else:
            kept.append(j)
    return l1


def _s_generator(model, sub, sign):
    """Dense r^2 x r^2 generator of dS/dt = sign * G(S).

    G(S) = -(1/eps) A_x S B_mu + (1/eps^2)(S C_mu - S).
    """
    r = sub.a_x.shape[0]
    eps = model.eps
    gen = (
        -np.kron(sub.b_mu.T, sub.a_x) / eps
        + (np.kron(sub.c_mu.T, np.eye(r)) - np.eye(r * r)) / eps**2
    )
    return sign * gen


# ---------------------------------------------------------------------------
# substep solvers
# ---------------------------------------------------------------------------

def _norm_bound(model, sub, factor):
    """Upper bound on the spectral norm of the L or K substep operator.

    Transport plus collision (triangle inequality).  The L transport
    A_x kron diag(mu) has norm ||A_x|| max|mu|, the K transport
    B_mu^T kron D_x at most max|mu| / dx: every D_x symbol is at most 1/dx
    in modulus, and ||B_mu|| <= max|mu| by the Rayleigh quotient, since
    x^T B_mu x = sum_i w_i mu_i (V x)_i^2 and V is w-orthonormal.  Both
    collision parts, before the 1/eps^2, have norm at most 2.
    W_mu^T - I = -(I - P), with P = (1/2) 1 w^T a projection because the
    weights sum to 2, has the norm of P, (1/2)||1|| ||w||, which for
    Gauss-Legendre weights rises with n_mu to about 1.11 (measured up
    to n_mu = 2000).  C_mu - I has its eigenvalues in [-1, 0]:
    C_mu = (1/2) u u^T with u = V^T w and
    ||u||^2 = ||V V^T diag(w) 1||_w^2 <= ||1||_w^2 = 2.  A true bound makes
    the Taylor segment count of ``expmv`` a guarantee.
    """
    mu_max = np.abs(model.quad.nodes).max()
    if factor == "L":
        transport = np.linalg.svd(sub.a_x, compute_uv=False)[0] * mu_max
    else:
        transport = mu_max / model.grid.dx
    return transport / model.eps + 2.0 / model.eps**2


def _solve_s_substep(model, sub, dt, s_mat, sign, context):
    gen = _s_generator(model, sub, sign)
    r = s_mat.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        sol = sla.expm(dt * gen) @ vec(s_mat)
    if not np.all(np.isfinite(sol)):
        raise NumericalFailureError(
            f"{context} overflowed (eps={model.eps:g}, dt={dt:g})"
        )
    return unvec(sol, (r, r))


# ---------------------------------------------------------------------------
# one-step maps
# ---------------------------------------------------------------------------

_BASIS_LABEL = {"L": "angular", "K": "spatial"}


def _record(trace, step_index, substep, before, after, w=None,
            replaced=(), basis=None, route=None):
    """Append a SubstepTrace when tracing.

    Norms are w-weighted when w is given and Frobenius otherwise; the
    orthonormality defect of ``basis`` is measured once here, per step.
    """
    if trace is None:
        return
    if w is None:
        pre, post = np.linalg.norm(before), np.linalg.norm(after)
    else:
        pre, post = weighted_norm(before, w), weighted_norm(after, w)
    defect = None
    if basis is not None:
        defect = orthonormality_defect(basis, w)
        if defect > _ORTH_WARN:
            log.warning("step %d: %s basis defect %.2e exceeds %.0e",
                        step_index + 1, _BASIS_LABEL[substep], defect,
                        _ORTH_WARN)
    trace.append(SubstepTrace(step_index, substep, float(pre), float(post),
                              defect, tuple(sorted(replaced)), route))


def _check_positive(name, value):
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")


def _legendre_ladder(model):
    """Angular replacement candidates P_k(mu), k = 0, 1, ...: 1, mu, ...

    On the n_mu Gauss-Legendre nodes the first n_mu of them are
    w_mu-orthogonal, so they span R^n_mu.  Each candidate is evaluated once
    per model, kept read-only in ``model.cache`` under ("ladder", k).
    """
    mu, cache = model.quad.nodes, model.cache

    def candidate(k):
        key = ("ladder", k)
        if key not in cache:
            cache[key] = np.polynomial.legendre.Legendre.basis(k)(mu)
            cache[key].flags.writeable = False
        return cache[key]
    return candidate


def _fourier_ladder(model):
    """Spatial replacement candidates 1, sin t, cos t, sin 2t, cos 2t, ...

    t = 2 pi i / n_x on the periodic grid.  For even n_x the Nyquist sine
    vanishes on the grid and is left out: candidate n_x - 1 is the Nyquist
    cosine.  The first n_x candidates are then orthogonal, so they span
    R^n_x.
    """
    n_x = model.grid.n_x
    t = 2.0 * np.pi * np.arange(n_x) / n_x

    def candidate(k):
        j = (k + 1) // 2
        if k % 2 and 2 * j != n_x:
            return np.sin(j * t)
        return np.cos(j * t)
    return candidate


def _factor_substep(model, sub, dt, factor, mat, trace, step_index):
    """Advance the factor mat of substep ``factor`` by dt and orthonormalize.

    The L substep (``factor`` "L", mat = V S^T) runs with the spatial basis
    frozen, the K substep ("K", mat = X S) with the angular basis frozen.
    The exponential takes the Taylor ``expmv``, its segments sized by
    ``_norm_bound``, while dt times the bound is at most the factor's
    _STRUCTURED_THRESHOLD, and the exact mode flow beyond; the trace
    records which ("taylor" or "structured").  The result is
    orthonormalized by the weighted QR with the factor's ladder.  Returns
    (propagated factor, QrResult).
    """
    if factor == "L":
        operator, flow = operator_L, _propagate_l_structured
        w, ladder = model.wmu, _legendre_ladder(model)
    else:
        operator, flow = operator_K, _propagate_k_structured
        w, ladder = model.wx, _fourier_ladder(model)
    bound = _norm_bound(model, sub, factor)
    if dt * bound <= _STRUCTURED_THRESHOLD[factor]:
        route = "taylor"
        sol = expmv(operator(model, sub), dt, vec(mat), EXPMV_TOL, norm=bound)
        out = unvec(sol, mat.shape)
    else:
        route = "structured"
        out = flow(model, sub, dt, mat)
    qr = weighted_mgs(out, w, ladder=ladder)
    if len(qr.replaced_columns) == qr.q.shape[1]:
        raise DegenerateStateError(
            f"all {qr.q.shape[1]} columns of the {_BASIS_LABEL[factor]} "
            f"factor collapsed; the state has lost its rank entirely"
        )
    _record(trace, step_index, factor, mat, out, w, qr.replaced_columns,
            qr.q, route)
    return out, qr


def gap_step(model, state, dt, trace=None, step_index=0):
    """One step of the Galerkin alternating-projection scheme.

    First the angular factor is predicted: L = V S^T is propagated with the
    spatial basis frozen and re-orthonormalized to give the new V.  Then the
    spatial factor K = X S (V_old^T diag(w) V_new) is propagated in the new
    angular basis and re-orthonormalized to give the new X and S.  X is
    unchanged until then, so the K substep reuses the step's A_x.
    """
    _check_positive("dt", dt)
    sub = assemble_substeps(model, state.x, state.v)
    _, qr_v = _factor_substep(model, sub, dt, "L", state.v @ state.s.T,
                              trace, step_index)
    v1 = qr_v.q

    k0 = state.x @ state.s @ weighted_inner(state.v, v1, model.wmu)
    sub = SubstepMatrices(sub.a_x, *angular_blocks(model, v1))
    _, qr_x = _factor_substep(model, sub, dt, "K", k0, trace, step_index)
    return LowRankState(qr_x.q, qr_x.r_factor, v1)


def psi_step(model, state, dt, trace=None, step_index=0):
    """One Lie splitting step of the projector-splitting integrator.

    The L substep matches GAP's; the coefficient matrix is then integrated
    backward in time (the known instability source for collisional problems),
    and the spatial factor is propagated in the predicted angular basis.
    """
    _check_positive("dt", dt)
    sub = assemble_substeps(model, state.x, state.v)
    l1, qr_v = _factor_substep(model, sub, dt, "L", state.v @ state.s.T,
                               trace, step_index)
    v1 = qr_v.q

    s_tilde = weighted_inner(v1, l1, model.wmu).T
    sub = SubstepMatrices(sub.a_x, *angular_blocks(model, v1))
    s_hat = _solve_s_substep(
        model, sub, dt, s_tilde, sign=-1.0,
        context="backward coefficient substep: the flow grows like "
                "exp(dt/eps^2) when integrated backward; expected for small "
                "eps -- prefer the gap or bug scheme there")
    _record(trace, step_index, "S", s_tilde, s_hat)

    _, qr_x = _factor_substep(model, sub, dt, "K", state.x @ s_hat, trace,
                              step_index)
    return LowRankState(qr_x.q, qr_x.r_factor, v1)


def bug_step(model, state, dt, trace=None, step_index=0):
    """One step of the basis-update-and-Galerkin scheme.

    Both basis predictions start from the same initial state: the L substep
    (spatial basis frozen) yields V_new, the K substep (angular basis frozen)
    yields X_new.  The coefficient matrix is then projected into the new
    bases and integrated forward with the Galerkin-reduced dynamics.
    """
    _check_positive("dt", dt)
    sub = assemble_substeps(model, state.x, state.v)
    _, qr_v = _factor_substep(model, sub, dt, "L", state.v @ state.s.T,
                              trace, step_index)
    _, qr_x = _factor_substep(model, sub, dt, "K", state.x @ state.s,
                              trace, step_index)
    x1, v1 = qr_x.q, qr_v.q

    sub = SubstepMatrices(spatial_block(model, x1),
                          *angular_blocks(model, v1))
    s0 = (weighted_inner(x1, state.x, model.wx) @ state.s
          @ weighted_inner(state.v, v1, model.wmu))
    s1 = _solve_s_substep(model, sub, dt, s0, sign=1.0,
                          context="Galerkin coefficient substep")
    _record(trace, step_index, "S", s0, s1)
    return LowRankState(x1, s1, v1)


def reference_step(model, f, t):
    """Advance the full value matrix by the exact flow exp(t A)."""
    _check_positive("t", t)
    f = np.asarray(f, dtype=float)
    n_mu = model.quad.n_mu
    dim = model.grid.n_x * n_mu
    if dim > REFERENCE_SIZE_CAP:
        raise SizeCapError(
            f"reference value matrix has n_x * n_mu = {dim} entries, above "
            f"the cap of {REFERENCE_SIZE_CAP}; reduce n_x * n_mu or use a "
            f"low-rank scheme"
        )
    if n_mu > DENSE_EXPM_LIMIT:
        raise SizeCapError(
            f"reference solve needs {n_mu} x {n_mu} exponentials, above the "
            f"dense limit of {DENSE_EXPM_LIMIT}; reduce n_mu"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        out = full_flow(model, f, t)
    if not np.all(np.isfinite(out)):
        raise NumericalFailureError(
            f"reference flow overflowed (eps={model.eps:g}, t={t:g})")
    return out


def integrate(model, initial, scheme, dt, n_steps, debug=False):
    """Apply the chosen one-step map n_steps times.

    Returns (final, traces) where final is a LowRankState for the low-rank
    schemes or a dense matrix for the reference, and traces is a list of
    SubstepTrace records when debug is set (otherwise None).

    The reference flow is exact, so it takes one step over n_steps * dt.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    _check_positive("dt", dt)
    trace = [] if debug else None

    if scheme == "reference":
        return reference_step(model, initial, dt * n_steps), trace

    try:
        step_fn = {"gap": gap_step, "psi": psi_step, "bug": bug_step}[scheme]
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}") from None

    state = initial
    for i in range(n_steps):
        try:
            state = step_fn(model, state, dt, trace=trace, step_index=i)
        except (NumericalFailureError, DegenerateStateError) as err:
            raise type(err)(f"step {i + 1}/{n_steps}: {err}") from err
        if debug:
            sig = np.linalg.svd(state.s, compute_uv=False)
            if sig[0] > 0 and sig[-1] / sig[0] < _SIGMA_WARN_RATIO:
                log.warning(
                    "step %d: coefficient spectrum nearly rank deficient "
                    "(sigma_min/sigma_max = %.2e); consider lowering the rank",
                    i + 1, sig[-1] / sig[0],
                )
    return state, trace
