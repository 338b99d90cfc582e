"""One-step maps: GAP, PSI, BUG, and the dense reference solver.

Each low-rank step opens with the L substep on the angular factor, in
``_open_step``, which all three schemes share, and goes on with substep
flows for the spatial factor K and (for PSI/BUG) the coefficient matrix S,
each advanced by its exponential.  The new L and K are orthonormalized by
the weighted QR, whose deficient columns are replaced from a fixed ladder:
Legendre polynomials P_k(mu) in angle, which start 1, mu, the span the
diffusion limit needs, and the grid's Fourier modes in space.

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
2011.  Both routes agree to EXPMV_TOL and are cross-checked in the test
suite.

The four exact flows, L, K, S and the reference, decouple into mode rows,
and ``model.mode_flow`` gives them one rule.  A row whose transport scale
is exactly 0 is pure collision, y -> y exp(c (P - I)) with P the rank-one
collision block, and takes the closed form ``model.collision_flow``: P is
W_mu for L and the reference, C_mu for K (the mean mode, and the Nyquist
mode for even n_x) and for S (the zero of an odd rank).  The other rows
are exponentiated once per distinct |scale|, the +-g pairs of A_x sharing
one exponential.  K and L go through one batched kernel,
``_propagate_modes``: K on the Fourier modes of the circulant D_x (complex
r x r blocks), L on the eigenvectors of the antisymmetric r x r A_x,
through ``model.flip_flow``, the angular flow it shares with the reference
(real n_mu x n_mu blocks).  ``_expm_batch`` scales each block by a power
of two, calls scipy's Pade step once on the stack and squares the blocks
as batched matmuls.  The S substep of PSI and BUG takes the same modes of
A_x through ``expm_rows``, the reference's row kernel.  ``_skew_modes``
decomposes each A_x once per step, for the L bound, the L flow and S.

Both exact routes also decide against the whole factor what is roundoff.
The K flow propagates only the Fourier rows of K that carry data, those
whose largest entry is at least machine epsilon times the largest of all:
diffusion damps the others below roundoff, and each row's flow is a
contraction, so leaving them exactly zero costs less than the rfft's own
rounding.  The L flow collapses the angular columns onto a few directions
in the diffusive regime, so on that route the weighted QR judges each
column against the largest one (``whole_factor``), and roundoff does not
pick the directions it keeps, whichever way the pure-collision rows round.

The dense reference is the exact flow of the full system,
``model.full_flow``: an rfft in x and ``model.flip_flow`` on the Fourier
modes, with one n_mu x n_mu exponential per distinct nonzero D_x symbol.
It runs no Taylor loop, so EXPMV_TOL does not affect it.
"""

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla

from .exceptions import DegenerateStateError, NumericalFailureError, SizeCapError
from .model import (SubstepMatrices, angular_blocks, assemble_substeps,
                    collision_flow, expm_rows, flip_flow, full_flow,
                    mode_flow, operator_K, operator_L, spatial_block)
# unused here, but bench/tracing.py rebinds this name in this module
from .model import full_operator  # noqa: F401
from .state import LowRankState
from .wlinalg import (
    expmv,
    orthonormality_defect,
    weighted_inner,
    weighted_mgs,
    weighted_norm,
)

log = logging.getLogger(__name__)

# exponentials times n_mu^3 that the dense reference may cost; the
# 2000 x 100 reference (500 distinct symbols) sits at the cap
REFERENCE_SIZE_CAP = 500_000_000

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


def _propagate_modes(scale, b, c, y):
    """Map each mode row y_q to y_q exp(scale_q b + c) by one batched expm.

    The batch holds each distinct scale once.  Real propagators act on the
    real and imaginary parts of complex rows separately, so the stack is
    never copied to complex.
    """
    scale, inverse = np.unique(scale, return_inverse=True)
    prop = _expm_batch(scale[:, None, None] * b[None, :, :] + c[None, :, :])
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
    NumericalFailureError here, before the row flows would spread its NaNs
    with warnings.

    The live rows go by ``model.mode_flow``, with the real scales
    (dt/eps) Im d_q >= 0 and b = -i B_mu.  The rows of symbol 0, the mean
    mode, which carries the mass, and for even n_x the Nyquist mode, are
    pure collision and take ``model.collision_flow`` with P = C_mu and its
    theta, not the batch.
    """
    eps = model.eps
    r = sub.b_mu.shape[0]
    c = dt / eps**2
    with np.errstate(over="ignore", invalid="ignore"):
        k_hat = np.fft.rfft(k_mat, axis=0)
        mag = np.abs(k_hat).max(axis=1)
        top = mag.max()
    if not np.isfinite(top):
        raise NumericalFailureError("spatial substep overflowed")
    live = mag >= np.finfo(float).eps * top
    out = np.zeros_like(k_hat)
    out[live] = mode_flow(
        (dt / eps) * model.diff.d_x_symbol[live].imag, k_hat[live],
        lambda s, y: _propagate_modes(s, -1j * sub.b_mu,
                                      c * (sub.c_mu - np.eye(r)), y),
        lambda y: collision_flow(c, sub.theta, y, y @ sub.c_mu), np.conj)
    return np.fft.irfft(out, n=model.grid.n_x, axis=0)


def _skew_modes(a_x):
    """(g, U) with A_x = U diag(-i g) U^H, the one decomposition of A_x.

    The eigh of the Hermitian (i/2)(A_x - A_x^T), so the symmetric
    roundoff of A_x is dropped.  eigh returns the pairs +-g matching only
    to roundoff, so the spectrum is made exactly odd, g_j = -g_(r-1-j):
    each pair then shares one exponential, and the zero of an odd rank is
    exactly 0, a pure collision row.  Each step decomposes each A_x it
    reads once, for the L bound, the exact L flow and the S substep.
    """
    gam, u = np.linalg.eigh(0.5j * (a_x - a_x.T))
    return 0.5 * (gam - gam[::-1]), u


def _propagate_l_structured(model, modes, dt, l_mat):
    """Exact L flow on the eigenvectors of the antisymmetric A_x.

    With ``modes`` = (g, U) from ``_skew_modes``, row j of (L U)^T obeys
    the row form dy_j/dt = y_j H_j with
    H_j = -(i g_j/eps) diag(mu) + (1/eps^2)(W_mu - I), which
    ``model.flip_flow`` propagates with a_j = (dt/eps) g_j through
    ``_propagate_modes``: floor(r/2) real slices, one per +-g pair.

    The weighted QR then decides the rank against the whole factor (see
    ``_factor_substep``).  A nonfinite L raises NumericalFailureError here,
    before the change of basis L U would turn it into NaNs with a warning.
    """
    eps = model.eps
    if not np.all(np.isfinite(l_mat)):
        raise NumericalFailureError("angular substep got a nonfinite factor")
    g, u = modes
    rows = flip_flow(model, (dt / eps) * g, dt / eps**2, (l_mat @ u).T,
                     _propagate_modes)
    return np.real(rows.T @ u.conj().T)


# ---------------------------------------------------------------------------
# substep solvers
# ---------------------------------------------------------------------------

def _norm_bound(model, sub, factor, modes):
    """Upper bound on the spectral norm of the L or K substep operator.

    Transport plus collision (triangle inequality).  The L transport
    A_x kron diag(mu) has norm ||A_x|| max|mu|.  ``modes`` is the
    ``_skew_modes`` of A_x, which the exact L flow and the S substep read
    too: max|g| is the norm of A_x's antisymmetric part, and the
    Frobenius norm of its symmetric part, A_x's roundoff (all of A_x at
    rank 1), bounds the rest.  The K transport B_mu^T kron D_x has norm at
    most max|mu| / dx: every D_x symbol is at most 1/dx
    in modulus, and ||B_mu|| <= max|mu| by the Rayleigh quotient, since
    x^T B_mu x = sum_i w_i mu_i (V x)_i^2 and V is w-orthonormal.  Both
    collision parts, before the 1/eps^2, have norm at most 2.
    W_mu^T - I = -(I - P), with P = (1/2) 1 w^T a projection because the
    weights sum to 2, has the norm of P, (1/2)||1|| ||w||, which for
    Gauss-Legendre weights rises with n_mu to about 1.11 (measured up
    to n_mu = 2000).  C_mu - I has its eigenvalues in [-1, 0]: C_mu is
    symmetric of rank one, and its eigenvalue theta is 1 or
    (1/2)||u||^2 with u = V^T w, and
    ||u||^2 = ||V V^T diag(w) 1||_w^2 <= ||1||_w^2 = 2.  A true bound makes
    the Taylor segment count of ``expmv`` a guarantee.
    """
    mu_max = np.abs(model.quad.nodes).max()
    if factor == "L":
        transport = mu_max * (np.abs(modes[0]).max()
                              + 0.5 * np.linalg.norm(sub.a_x + sub.a_x.T))
    else:
        transport = mu_max / model.grid.dx
    return transport / model.eps + 2.0 / model.eps**2


def _solve_s_substep(model, sub, modes, dt, s_mat, sign, trace, step_index):
    """Exact flow of dS/dt = sign (-(1/eps) A_x S B_mu + (S C_mu - S)/eps^2).

    With ``modes`` = (g, U) from ``_skew_modes``, A_x = U diag(-i g) U^H as
    in the L flow, row j of U^H S obeys dy_j/dt = y_j G_j,
    G_j = sign ((i g_j/eps) B_mu + (1/eps^2)(C_mu - I)): the K flow's row
    form with g_j in place of the D_x symbol.  The rows go by
    ``model.mode_flow``.  B_mu and C_mu are real, so
    exp(dt G(-g)) = conj(exp(dt G(g))): complex conjugation is the mirror,
    and each +-g pair shares one exponential.  The zero of an odd rank is
    pure collision and takes ``model.collision_flow`` with P = C_mu.  The
    others go through ``expm_rows`` with ``sla.expm``, not a 3-D stack,
    which the benchmark's tracer books as an L or K route: floor(r/2)
    calls per substep.
    """
    eps = model.eps
    g, u = modes
    c = sign * dt / eps**2
    collision = c * (sub.c_mu - np.eye(len(s_mat)))
    with np.errstate(over="ignore", invalid="ignore"):
        rows = mode_flow(
            (dt / eps) * g, u.conj().T @ s_mat,
            lambda s, y: expm_rows(sla.expm, s, (1j * sign) * sub.b_mu,
                                   collision, y),
            lambda y: collision_flow(c, sub.theta, y, y @ sub.c_mu),
            np.conj)
        sol = np.real(u @ rows)
    if not np.all(np.isfinite(sol)):
        raise NumericalFailureError(
            "Galerkin coefficient substep overflowed" if sign > 0 else
            "backward coefficient substep overflowed: the flow grows like "
            "exp(dt/eps^2) when integrated backward, as expected for small "
            "eps; prefer the gap scheme there")
    _record(trace, step_index, "S", s_mat, sol)
    return sol


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
    w_mu-orthogonal, so they span R^n_mu.
    """
    mu = model.quad.nodes

    def candidate(k):
        return np.polynomial.legendre.legval(mu, np.eye(k + 1)[k])
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


def _factor_substep(model, sub, modes, dt, factor, mat, trace, step_index):
    """Advance the factor mat of substep ``factor`` by dt and orthonormalize.

    ``modes`` is the ``_skew_modes`` of sub.a_x, which the L substep reads.

    The L substep (``factor`` "L", mat = V S^T) runs with the spatial basis
    frozen, the K substep ("K", mat = X S) with the angular basis frozen.
    The exponential takes the Taylor ``expmv``, its segments sized by
    ``_norm_bound``, while dt times the bound is at most the factor's
    _STRUCTURED_THRESHOLD, and the exact mode flow beyond; the trace
    records which ("taylor" or "structured").  The result is
    orthonormalized by the weighted QR with the factor's ladder.  On the
    structured L route, where the collision damps the angular directions
    beyond the first few below roundoff, the QR judges each column against
    the whole factor; on the Taylor route that rule replaced hundreds of
    columns the per-column rule keeps, and cost the rte compare benchmark
    10-20 % of its wall time.  Returns (propagated factor, QrResult).
    """
    if factor == "L":
        operator, w, ladder = operator_L, model.wmu, _legendre_ladder(model)
    else:
        operator, w, ladder = operator_K, model.wx, _fourier_ladder(model)
    bound = _norm_bound(model, sub, factor, modes)
    if dt * bound <= _STRUCTURED_THRESHOLD[factor]:
        route = "taylor"
        out = expmv(operator(model, sub), dt, mat, EXPMV_TOL, bound)
    else:
        route = "structured"
        out = (_propagate_l_structured(model, modes, dt, mat) if factor == "L"
               else _propagate_k_structured(model, sub, dt, mat))
    qr = weighted_mgs(out, w, ladder=ladder,
                      whole_factor=factor == "L" and route == "structured")
    if len(qr.replaced_columns) == qr.q.shape[1]:
        raise DegenerateStateError(
            f"the {_BASIS_LABEL[factor]} factor collapsed: all "
            f"{qr.q.shape[1]} columns are deficient, so the state has lost "
            f"its rank entirely"
        )
    _record(trace, step_index, factor, mat, out, w, qr.replaced_columns,
            qr.q, route)
    return out, qr


def _open_step(model, state, dt, trace, step_index):
    """dt check, Galerkin matrices, the modes of A_x and the L substep.

    Returns (matrices, modes, L, new V).
    """
    _check_positive("dt", dt)
    sub = assemble_substeps(model, state.x, state.v)
    modes = _skew_modes(sub.a_x)
    l1, qr_v = _factor_substep(model, sub, modes, dt, "L",
                               state.v @ state.s.T, trace, step_index)
    return sub, modes, l1, qr_v.q


def gap_step(model, state, dt, trace=None, step_index=0):
    """One step of the Galerkin alternating-projection scheme.

    First the angular factor is predicted: L = V S^T is propagated with the
    spatial basis frozen and re-orthonormalized to give the new V.  Then the
    spatial factor K = X S (V_old^T diag(w) V_new) is propagated in the new
    angular basis and re-orthonormalized to give the new X and S.  X is
    unchanged until then, so the K substep reuses the step's A_x.
    """
    sub, modes, _, v1 = _open_step(model, state, dt, trace, step_index)
    k0 = state.x @ state.s @ weighted_inner(state.v, v1, model.wmu)
    sub = SubstepMatrices(sub.a_x, *angular_blocks(model, v1))
    _, qr_x = _factor_substep(model, sub, modes, dt, "K", k0, trace,
                              step_index)
    return LowRankState(qr_x.q, qr_x.r_factor, v1)


def psi_step(model, state, dt, trace=None, step_index=0):
    """One Lie splitting step of the projector-splitting integrator.

    The L substep matches GAP's; the coefficient matrix is then integrated
    backward in time (the known instability source for collisional problems),
    and the spatial factor is propagated in the predicted angular basis.
    X is unchanged until then, so the S substep reuses the L substep's
    decomposition of A_x.
    """
    sub, modes, l1, v1 = _open_step(model, state, dt, trace, step_index)
    sub = SubstepMatrices(sub.a_x, *angular_blocks(model, v1))
    s_tilde = weighted_inner(v1, l1, model.wmu).T
    s_hat = _solve_s_substep(model, sub, modes, dt, s_tilde, -1.0, trace,
                             step_index)
    _, qr_x = _factor_substep(model, sub, modes, dt, "K", state.x @ s_hat,
                              trace, step_index)
    return LowRankState(qr_x.q, qr_x.r_factor, v1)


def bug_step(model, state, dt, trace=None, step_index=0):
    """One step of the basis-update-and-Galerkin scheme.

    Both basis predictions start from the same initial state: the L substep
    (spatial basis frozen) yields V_new, the K substep (angular basis frozen)
    yields X_new.  The coefficient matrix is then projected into the new
    bases and integrated forward with the Galerkin-reduced dynamics.
    """
    sub, modes, _, v1 = _open_step(model, state, dt, trace, step_index)
    _, qr_x = _factor_substep(model, sub, modes, dt, "K", state.x @ state.s,
                              trace, step_index)
    x1 = qr_x.q
    sub = SubstepMatrices(spatial_block(model, x1),
                          *angular_blocks(model, v1))
    s0 = (weighted_inner(x1, state.x, model.wx) @ state.s
          @ weighted_inner(state.v, v1, model.wmu))
    s1 = _solve_s_substep(model, sub, _skew_modes(sub.a_x), dt, s0, 1.0,
                          trace, step_index)
    return LowRankState(x1, s1, v1)


def reference_step(model, f, t):
    """Advance the full value matrix by the exact flow exp(t A).

    The flow costs one n_mu x n_mu exponential per distinct nonzero
    |Im d_x_symbol| (:func:`model.full_flow`), so the size cap counts that
    work, exponentials times n_mu^3, and a run above REFERENCE_SIZE_CAP
    raises SizeCapError before any exponential.
    """
    _check_positive("t", t)
    f = np.asarray(f, dtype=float)
    n_mu = model.quad.n_mu
    n_expm = np.count_nonzero(np.unique(np.abs(model.diff.d_x_symbol.imag)))
    work = n_expm * n_mu**3
    if work > REFERENCE_SIZE_CAP:
        raise SizeCapError(
            f"the reference needs one {n_mu} x {n_mu} exponential per "
            f"distinct D_x symbol, {n_expm} of them: work {n_expm} * "
            f"{n_mu}^3 = {work:.3g}, above the cap of "
            f"{REFERENCE_SIZE_CAP:.3g}; reduce n_x or n_mu, or use a "
            f"low-rank scheme"
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
        except NumericalFailureError as err:
            raise type(err)(f"step {i + 1}/{n_steps} (eps={model.eps:g}, "
                            f"dt={dt:g}): {err}") from err
        if debug:
            sig = np.linalg.svd(state.s, compute_uv=False)
            if sig[0] > 0 and sig[-1] / sig[0] < _SIGMA_WARN_RATIO:
                log.warning(
                    "step %d: coefficient spectrum nearly rank deficient "
                    "(sigma_min/sigma_max = %.2e); consider lowering the rank",
                    i + 1, sig[-1] / sig[0],
                )
    return state, trace
