"""One-step maps: GAP, PSI, BUG, and the dense reference solver.

Each low-rank step is built from substep flows for the angular factor L, the
spatial factor K, and (for PSI/BUG) the coefficient matrix S.  Substeps are
solved by exponential action by default, or by implicit Euler.

The exponential action is computed two ways behind one interface: the generic
Taylor ``expmv`` when the scaled substep norm is moderate, and exact
structure-exploiting propagators when the collision stiffness 1/eps^2 makes a
polynomial method infeasible.  These decouple into modes, and one kernel,
``_propagate_modes``, maps each mode row y_q to y_q exp(scale_q b + c): K on
the Fourier modes of the circulant D_x (r x r blocks), L on the eigenvectors
of the antisymmetric r x r A_x (n_mu x n_mu blocks).  Both routes agree to
the requested tolerance and are cross-checked in the test suite.

The dense reference is the exact flow of the full system,
``model.full_flow``: an rfft in x and one n_mu x n_mu exponential per
Fourier mode, the blocks of the L flow with the D_x symbol in place of the
eigenvalues of A_x, each made real by one fixed unitary similarity.  It runs
no Taylor loop, so ``expmv_tol`` does not affect it.
"""

import logging
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import DegenerateStateError, NumericalFailureError, SizeCapError
from .model import assemble_substeps, full_flow, operator_K, operator_L
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

_SIGMA_WARN_RATIO = 1e-13
_ORTH_WARN = 1e-10

# scaled substep norm above which "auto" takes the structured propagators
_STRUCTURED_THRESHOLD = 100.0


@dataclass
class StepConfig:
    """Time step size and substep-solver selection.

    ``exponential_method`` chooses how exp(dt A) v is evaluated for the
    substep operators: "expmv" (generic Taylor), "structured" (exact
    FFT/eigendecomposition solve), or "auto" (expmv while the scaled substep
    norm is at most _STRUCTURED_THRESHOLD, structured beyond).
    """

    dt: float
    substep_solver: str = "exponential"
    expmv_tol: float = 1e-10
    exponential_method: str = "auto"
    basis_pinning: bool = False
    debug: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not 0.0 < self.expmv_tol < 1e-2:
            raise ValueError(
                f"expmv_tol must lie in (0, 1e-2), got {self.expmv_tol}")
        if self.substep_solver not in ("exponential", "implicit_euler"):
            raise ValueError(f"unknown substep solver {self.substep_solver!r}")
        if self.exponential_method not in ("auto", "expmv", "structured"):
            raise ValueError(
                f"unknown exponential method {self.exponential_method!r}")


@dataclass
class SubstepTrace:
    """Debug record written after each substep."""

    step_index: int
    substep: str
    pre_norm: float
    post_norm: float
    orth_defect: Optional[float]
    replaced_columns: tuple
    seed: int


def _pin_angular_basis(v1, model, seed=0):
    """Rebuild v1 so column 1 is proportional to 1 and column 2 to mu."""
    n_mu, r = v1.shape
    w = model.wmu
    candidates = [np.ones(n_mu)]
    if r >= 2:
        candidates.append(model.quad.nodes.astype(float))
    candidates.extend(v1[:, j] for j in range(r))

    kept = []
    for cand in candidates:
        if len(kept) == r:
            break
        v = cand.astype(float).copy()
        ref = weighted_norm(v, w)
        for _ in range(2):
            for q in kept:
                v -= float(np.dot(q, w * v)) * q
        nrm = weighted_norm(v, w)
        if ref > 0 and nrm > 1e-8 * ref:
            kept.append(v / nrm)
    rng = np.random.default_rng(seed)
    while len(kept) < r:
        v = rng.standard_normal(n_mu)
        for q in kept:
            v -= float(np.dot(q, w * v)) * q
        nrm = weighted_norm(v, w)
        if nrm > 1e-10:
            kept.append(v / nrm)
    return np.column_stack(kept)


# ---------------------------------------------------------------------------
# structured exact substep propagators
# ---------------------------------------------------------------------------

def _expm_batch(mats):
    with np.errstate(over="ignore", invalid="ignore"):
        out = sla.expm(mats)
    if not np.all(np.isfinite(out)):
        raise NumericalFailureError("matrix exponential overflowed")
    return out


def _propagate_modes(scale, b, c, y):
    """Map each mode row y_q to y_q exp(scale_q b + c) by one batched expm."""
    prop = _expm_batch(scale[:, None, None] * b[None, :, :] + c[None, :, :])
    return np.einsum("qi,qij->qj", y, prop)


def _propagate_k_structured(model, sub, dt, k_mat):
    """Exact K flow on the spatial Fourier modes of the circulant D_x.

    Row q of rfft(K) obeys dK_q/dt = K_q G_q with
    G_q = -(d_q/eps) B_mu + (1/eps^2)(C_mu - I), d_q the D_x symbol.
    """
    eps = model.eps
    r = sub.b_mu.shape[0]
    k_hat = _propagate_modes(-(dt / eps) * model.diff.d_x_symbol, sub.b_mu,
                             (dt / eps**2) * (sub.c_mu - np.eye(r)),
                             np.fft.rfft(k_mat, axis=0))
    return np.fft.irfft(k_hat, n=model.grid.n_x, axis=0)


def _propagate_l_structured(model, sub, dt, l_mat):
    """Exact L flow on the eigenvectors of the antisymmetric A_x.

    With A_x = U diag(-i g) U^H, row j of (L U)^T obeys the row form
    dy_j/dt = y_j H_j with H_j = -(i g_j/eps) diag(mu) + (1/eps^2)(W_mu - I),
    the per-mode generator of the full operator with g_j in place of d_q.
    """
    eps = model.eps
    gam, u = np.linalg.eigh(0.5j * (sub.a_x - sub.a_x.T))
    coll = (dt / eps**2) * (model.w_mu_matrix - np.eye(model.quad.n_mu))
    rows = _propagate_modes((-1j * dt / eps) * gam, np.diag(model.quad.nodes),
                            coll, (l_mat @ u).T)
    return np.real(rows.T @ u.conj().T)


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

def _l_norm_bound(model, sub, dt):
    mu_max = float(np.max(np.abs(model.quad.nodes)))
    return abs(dt) * (np.linalg.norm(sub.a_x, 2) * mu_max / model.eps
                      + 2.0 / model.eps**2)


def _k_norm_bound(model, sub, dt):
    dx_norm = 1.0 / model.grid.dx
    return abs(dt) * (np.linalg.norm(sub.b_mu, 2) * dx_norm / model.eps
                      + 2.0 / model.eps**2)


def _implicit_euler_sparse(op, dt, b):
    lhs = (sp.identity(op.dim, format="csr") - dt * op.matrix).tocsc()
    sol = spla.spsolve(lhs, b)
    if not np.all(np.isfinite(sol)):
        raise NumericalFailureError(f"implicit solve with {op.name} failed")
    return sol


def _solve_l_substep(model, sub, cfg, l_mat):
    if cfg.substep_solver == "implicit_euler":
        op = operator_L(model, sub)
        return unvec(_implicit_euler_sparse(op, cfg.dt, vec(l_mat)), l_mat.shape)
    method = cfg.exponential_method
    if method == "auto":
        method = ("expmv" if _l_norm_bound(model, sub, cfg.dt)
                  <= _STRUCTURED_THRESHOLD else "structured")
    if method == "expmv":
        op = operator_L(model, sub)
        return unvec(expmv(op, cfg.dt, vec(l_mat), cfg.expmv_tol), l_mat.shape)
    return _propagate_l_structured(model, sub, cfg.dt, l_mat)


def _solve_k_substep(model, sub, cfg, k_mat):
    if cfg.substep_solver == "implicit_euler":
        op = operator_K(model, sub)
        return unvec(_implicit_euler_sparse(op, cfg.dt, vec(k_mat)), k_mat.shape)
    method = cfg.exponential_method
    if method == "auto":
        method = ("expmv" if _k_norm_bound(model, sub, cfg.dt)
                  <= _STRUCTURED_THRESHOLD else "structured")
    if method == "expmv":
        op = operator_K(model, sub)
        return unvec(expmv(op, cfg.dt, vec(k_mat), cfg.expmv_tol), k_mat.shape)
    return _propagate_k_structured(model, sub, cfg.dt, k_mat)


def _solve_s_substep(model, sub, cfg, s_mat, sign, context):
    gen = _s_generator(model, sub, sign)
    r = s_mat.shape[0]
    if cfg.substep_solver == "implicit_euler":
        sol = np.linalg.solve(np.eye(r * r) - cfg.dt * gen, vec(s_mat))
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            prop = sla.expm(cfg.dt * gen)
            sol = prop @ vec(s_mat)
    if not np.all(np.isfinite(sol)):
        raise NumericalFailureError(
            f"{context} overflowed (eps={model.eps:g}, dt={cfg.dt:g})"
        )
    return unvec(sol, (r, r))


# ---------------------------------------------------------------------------
# one-step maps
# ---------------------------------------------------------------------------

_BASIS_LABEL = {"L": "angular", "K": "spatial"}


def _record(trace, step_index, substep, seed, before, after, w=None,
            replaced=(), basis=None):
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
                              defect, tuple(sorted(replaced)), seed))


def _finish_factor(qr, label, step):
    if len(qr.replaced_columns) == qr.q.shape[1]:
        raise DegenerateStateError(
            f"all {qr.q.shape[1]} columns of the {label} factor collapsed at "
            f"step {step}; the state has lost its rank entirely"
        )


def _predict_angular(model, state, sub, cfg, trace, step_index):
    """L substep shared by the three schemes.

    Propagates L = V S^T with the spatial basis frozen and orthonormalizes
    it in the w_mu inner product.  Returns (L_new, V_new).
    """
    l0 = state.v @ state.s.T
    l1 = _solve_l_substep(model, sub, cfg, l0)
    qr_v = weighted_mgs(l1, model.wmu, seed=cfg.seed)
    _finish_factor(qr_v, "angular", step_index)
    v1 = qr_v.q
    if cfg.basis_pinning:
        v1 = _pin_angular_basis(v1, model, seed=cfg.seed)
    _record(trace, step_index, "L", cfg.seed, l0, l1, model.wmu,
            qr_v.replaced_columns, v1)
    return l1, v1


def _update_spatial(model, sub, cfg, k0, trace, step_index):
    """K substep shared by the three schemes.

    Propagates K from k0 with the angular basis frozen and orthonormalizes
    it in the dx inner product.  Returns the QrResult (X_new, its R).
    """
    k1 = _solve_k_substep(model, sub, cfg, k0)
    qr_x = weighted_mgs(k1, model.wx, seed=cfg.seed)
    _finish_factor(qr_x, "spatial", step_index)
    _record(trace, step_index, "K", cfg.seed, k0, k1, model.wx,
            qr_x.replaced_columns, qr_x.q)
    return qr_x


def gap_step(model, state, cfg, trace=None, step_index=0):
    """One step of the Galerkin alternating-projection scheme.

    First the angular factor is predicted: L = V S^T is propagated with the
    spatial basis frozen and re-orthonormalized to give the new V.  Then the
    spatial factor K = X S (V_old^T diag(w) V_new) is propagated in the new
    angular basis and re-orthonormalized to give the new X and S.
    """
    sub0 = assemble_substeps(model, state.x, state.v)
    _, v1 = _predict_angular(model, state, sub0, cfg, trace, step_index)

    k0 = state.x @ state.s @ weighted_inner(state.v, v1, model.wmu)
    sub1 = assemble_substeps(model, state.x, v1)
    qr_x = _update_spatial(model, sub1, cfg, k0, trace, step_index)
    return LowRankState(qr_x.q, qr_x.r_factor, v1)


def psi_step(model, state, cfg, trace=None, step_index=0):
    """One Lie splitting step of the projector-splitting integrator.

    The L substep matches GAP's; the coefficient matrix is then integrated
    backward in time (the known instability source for collisional problems),
    and the spatial factor is propagated in the predicted angular basis.
    """
    sub0 = assemble_substeps(model, state.x, state.v)
    l1, v1 = _predict_angular(model, state, sub0, cfg, trace, step_index)

    s_tilde = weighted_inner(v1, l1, model.wmu).T
    sub1 = assemble_substeps(model, state.x, v1)
    s_hat = _solve_s_substep(
        model, sub1, cfg, s_tilde, sign=-1.0,
        context="backward coefficient substep: the flow grows like "
                "exp(dt/eps^2) when integrated backward; expected for small "
                "eps -- prefer the gap or bug scheme there")
    _record(trace, step_index, "S", cfg.seed, s_tilde, s_hat)

    qr_x = _update_spatial(model, sub1, cfg, state.x @ s_hat, trace,
                           step_index)
    return LowRankState(qr_x.q, qr_x.r_factor, v1)


def bug_step(model, state, cfg, trace=None, step_index=0):
    """One step of the basis-update-and-Galerkin scheme.

    Both basis predictions start from the same initial state: the L substep
    (spatial basis frozen) yields V_new, the K substep (angular basis frozen)
    yields X_new.  The coefficient matrix is then projected into the new
    bases and integrated forward with the Galerkin-reduced dynamics.
    """
    sub0 = assemble_substeps(model, state.x, state.v)
    _, v1 = _predict_angular(model, state, sub0, cfg, trace, step_index)
    x1 = _update_spatial(model, sub0, cfg, state.x @ state.s, trace,
                         step_index).q

    sub1 = assemble_substeps(model, x1, v1)
    s0 = (weighted_inner(x1, state.x, model.wx) @ state.s
          @ weighted_inner(state.v, v1, model.wmu))
    s1 = _solve_s_substep(model, sub1, cfg, s0, sign=1.0,
                          context="Galerkin coefficient substep")
    _record(trace, step_index, "S", cfg.seed, s0, s1)
    return LowRankState(x1, s1, v1)


def reference_step(model, f, cfg, size_cap=REFERENCE_SIZE_CAP):
    """Advance the full value matrix by the exact flow exp(dt A)."""
    f = np.asarray(f, dtype=float)
    n_mu = model.quad.n_mu
    dim = model.grid.n_x * n_mu
    if dim > size_cap:
        raise SizeCapError(
            f"reference solve needs a {dim}-dimensional operator, above the "
            f"cap of {size_cap}; reduce n_x * n_mu or use a low-rank scheme"
        )
    if n_mu > DENSE_EXPM_LIMIT:
        raise SizeCapError(
            f"reference solve needs {n_mu} x {n_mu} exponentials, above the "
            f"dense limit of {DENSE_EXPM_LIMIT}; reduce n_mu"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        out = full_flow(model, f, cfg.dt)
    if not np.all(np.isfinite(out)):
        raise NumericalFailureError(
            f"reference flow overflowed (eps={model.eps:g}, dt={cfg.dt:g})")
    return out


def integrate(model, initial, scheme, cfg, n_steps, coalesce_reference=True,
              size_cap=REFERENCE_SIZE_CAP):
    """Apply the chosen one-step map n_steps times.

    Returns (final, traces) where final is a LowRankState for the low-rank
    schemes or a dense matrix for the reference, and traces is a list of
    SubstepTrace records when cfg.debug is set (otherwise None).

    Since the system is linear and autonomous, the reference flow may be
    coalesced into a single exponential over n_steps * dt (the default).
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    trace = [] if cfg.debug else None

    if scheme == "reference":
        if coalesce_reference:
            cfg, n_steps = replace(cfg, dt=cfg.dt * n_steps), 1
        f = initial
        for i in range(n_steps):
            try:
                f = reference_step(model, f, cfg, size_cap=size_cap)
            except NumericalFailureError as err:
                raise NumericalFailureError(
                    f"step {i + 1}/{n_steps}: {err}") from err
        return f, trace

    try:
        step_fn = {"gap": gap_step, "psi": psi_step, "bug": bug_step}[scheme]
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}") from None

    state = initial
    for i in range(n_steps):
        try:
            state = step_fn(model, state, cfg, trace=trace, step_index=i)
        except (NumericalFailureError, DegenerateStateError) as err:
            raise type(err)(f"step {i + 1}/{n_steps}: {err}") from err
        if cfg.debug:
            sig = np.linalg.svd(state.s, compute_uv=False)
            if sig[0] > 0 and sig[-1] / sig[0] < _SIGMA_WARN_RATIO:
                log.warning(
                    "step %d: coefficient spectrum nearly rank deficient "
                    "(sigma_min/sigma_max = %.2e); consider lowering the rank",
                    i + 1, sig[-1] / sig[0],
                )
    return state, trace
