import dataclasses
import logging
import re
import types
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given
from hypothesis import strategies

import oracles
from oracles import unvec, vec
from rte_lowrank import integrators, wlinalg
from rte_lowrank import model as model_module
from rte_lowrank.exceptions import (
    DegenerateStateError,
    NumericalFailureError,
    OrthonormalityError,
    SizeCapError,
)
from rte_lowrank.experiments import RunConfig, initial_matrix
from rte_lowrank.grids import build_diff_matrices, gauss_legendre, uniform_grid
from rte_lowrank.integrators import (
    _STRUCTURED_THRESHOLD,
    EXPMV_TOL,
    _fourier_ladder,
    _legendre_ladder,
    _norm_bound,
    _propagate_k_structured,
    _propagate_l_structured,
    _skew_modes,
    _solve_s_substep,
    bug_step,
    gap_step,
    integrate,
    psi_step,
    reference_step,
)
from rte_lowrank.model import (
    assemble_substeps,
    density,
    diffusion_limit_density,
    full_rhs,
    make_model,
    operator_K,
    operator_L,
)
from rte_lowrank.state import from_full, reconstruct
from rte_lowrank.wlinalg import (
    SparseOperator,
    expmv,
    frob_norm_weighted,
    orthonormality_defect,
    weighted_mgs,
    weighted_norm,
)

ALL_STEPS = [("gap", gap_step), ("psi", psi_step), ("bug", bug_step)]


def build(n_x=32, n_mu=8, eps=1.0):
    grid = uniform_grid(0.0, 2.0, n_x)
    quad = gauss_legendre(n_mu)
    return make_model(grid, quad, build_diff_matrices(grid), eps)


def generic_matrix(model, rng=None):
    """Frequency-mixed data whose factors couple through the derivative."""
    x = model.grid.points
    mu = model.quad.nodes
    n_mu = model.quad.n_mu
    g1 = 1.0 + 0.3 * np.sin(np.pi * x) + 0.2 * np.cos(2 * np.pi * x)
    g2 = np.sin(np.pi * x) + 0.5 * np.cos(np.pi * x) + 0.3 * np.cos(2 * np.pi * x)
    g3 = np.cos(np.pi * x) * np.sin(2 * np.pi * x) + 0.4 * np.sin(np.pi * x)
    return (np.outer(g1, np.ones(n_mu)) + 0.4 * np.outer(g2, mu)
            + 0.2 * np.outer(g3, mu**2))


def rel_err(a, b, model):
    return (frob_norm_weighted(a - b, model.wx, model.wmu)
            / frob_norm_weighted(b, model.wx, model.wmu))


class TestStepBasics:
    @pytest.mark.parametrize("name,step", ALL_STEPS)
    def test_vanishing_dt_is_identity(self, name, step):
        m = build()
        st, _, _ = from_full(generic_matrix(m), 3, m)
        out = step(m, st, 1e-12)
        assert rel_err(reconstruct(out), reconstruct(st), m) <= 1e-9

    @pytest.mark.parametrize("name,step", ALL_STEPS)
    @pytest.mark.parametrize("eps", [1.0, 1e-2])
    def test_orthonormality_after_step(self, name, step, eps):
        if name == "psi" and eps < 1:
            pytest.skip("backward substep diverges for small eps")
        m = build(eps=eps)
        st, _, _ = from_full(generic_matrix(m), 4, m)
        out = step(m, st, 0.05)
        assert max(orthonormality_defect(out.x, m.wx),
                   orthonormality_defect(out.v, m.wmu)) <= 1e-10

    def test_integrate_one_step_equals_direct_call(self):
        m = build()
        st, _, _ = from_full(generic_matrix(m), 3, m)
        direct = gap_step(m, st, 0.02)
        via, _ = integrate(m, st, "gap", 0.02, 1)
        assert np.array_equal(reconstruct(direct), reconstruct(via))

    def test_unknown_scheme(self):
        m = build()
        st, _, _ = from_full(generic_matrix(m), 2, m)
        with pytest.raises(ValueError):
            integrate(m, st, "rk4", 0.1, 1)

    def test_zero_steps_rejected(self):
        m = build()
        st, _, _ = from_full(generic_matrix(m), 2, m)
        with pytest.raises(ValueError, match="n_steps"):
            integrate(m, st, "gap", 0.1, 0)

    def test_degenerate_state_detected(self):
        m = build()
        st, _, _ = from_full(generic_matrix(m), 3, m)
        st.s = np.zeros_like(st.s)
        with pytest.raises(DegenerateStateError):
            gap_step(m, st, 0.1)
        # so the CLI's exit 3 and compare's "diverged" cover it
        assert issubclass(DegenerateStateError, NumericalFailureError)

    # a start off the weighted Stiefel manifolds must raise, wherever the
    # check sits: X scaled by 1.1 (defect 0.21) or V shifted by 1e-6 (defect
    # of order 1e-6), both far above the 1e-8 tolerance, or one NaN or inf
    # entry in either basis, whose defect is NaN or inf
    @pytest.mark.parametrize("name", ["gap", "psi", "bug"])
    @pytest.mark.parametrize("factor", ["x", "v", "x-nan", "v-nan", "x-inf",
                                        "v-inf"])
    def test_non_orthonormal_start_rejected(self, name, factor):
        m = build()
        st, _, _ = from_full(generic_matrix(m), 3, m)
        if factor == "x":
            st.x = 1.1 * st.x
        elif factor == "v":
            st.v = st.v + 1e-6
        else:
            basis, value = factor.split("-")
            getattr(st, basis)[2, 1] = float(value)
        with pytest.raises(OrthonormalityError) as err:
            integrate(m, st, name, 0.1, 1)
        assert err.value.factor == f"{factor[0]}_basis"

    def test_degenerate_state_names_one_step(self):
        # integrate prefixes the 1-based step; the inner message adds none
        m = build()
        st, _, _ = from_full(generic_matrix(m), 3, m)
        st.s = np.zeros_like(st.s)
        with pytest.raises(DegenerateStateError) as err:
            integrate(m, st, "gap", 0.1, 2)
        assert str(err.value).startswith(
            "step 1/2 (eps=1, dt=0.1): the angular factor collapsed: "
            "all 3 columns")
        assert str(err.value).count("step") == 1

    # every failure a step raises names eps and dt once, in integrate's
    # prefix: a nonfinite S on the Taylor and on the structured L route, a
    # zero S, whose factors collapse, and PSI's backward overflow
    @pytest.mark.parametrize("case,eps,dt,n,subject", [
        ("nonfinite", 1.0, 0.1, 2, "exp(0.1 * L_substep_operator) v "
         "overflowed"),
        ("nonfinite", 1e-3, 0.1, 2, "angular substep got a nonfinite factor"),
        ("zero", 1.0, 0.1, 2, "the angular factor collapsed"),
        ("psi", 0.01, 0.01, 20, "backward coefficient substep overflowed"),
    ], ids=["nonfinite-taylor", "nonfinite-structured", "zero", "psi"])
    def test_failure_names_eps_and_dt_once(self, case, eps, dt, n, subject):
        m = build(n_x=64, n_mu=16, eps=eps)
        st, _, _ = from_full(generic_matrix(m), 3, m)
        if case == "nonfinite":
            st.s[0, 0] = np.inf
        elif case == "zero":
            st.s = np.zeros_like(st.s)
        with pytest.raises(NumericalFailureError) as err:
            integrate(m, st, "psi" if case == "psi" else "gap", dt, n)
        msg = str(err.value)
        assert re.match(rf"step \d+/{n} \(eps={eps:g}, dt={dt:g}\): "
                        rf"{re.escape(subject)}", msg), msg
        assert msg.count("eps=") == 1 and msg.count("dt=") == 1, msg

    @pytest.mark.parametrize("name", ["gap", "psi", "bug"])
    def test_one_checked_assembly_per_step(self, monkeypatch, name):
        # each step checks the bases it was given, once, in its one
        # assemble_substeps call; its later blocks come from the unchecked
        # builders, and no step runs an orthonormality check of its own
        calls, checks = [], []

        def counted(*args):
            calls.append(args)
            return assemble_substeps(*args)

        def counted_defect(*args):
            checks.append(args)
            return wlinalg.orthonormality_defect(*args)

        monkeypatch.setattr(integrators, "assemble_substeps", counted)
        monkeypatch.setattr(model_module, "orthonormality_defect",
                            counted_defect)
        monkeypatch.setattr(integrators, "orthonormality_defect",
                            counted_defect)
        m = build()
        st, _, _ = from_full(generic_matrix(m), 3, m)
        integrate(m, st, name, 0.05, 3)
        assert len(calls) == 3
        assert len(checks) == 2 * 3

    @pytest.mark.parametrize("name", ["gap", "psi", "bug"])
    def test_defective_basis_caught_at_the_next_step(self, monkeypatch,
                                                     name):
        # the step that makes a basis does not check it; the next step's
        # assembly does.  The first weighted QR of a run is the L substep's
        def scale_first_q():
            calls = []

            def scaled(*args, **kwargs):
                qr = weighted_mgs(*args, **kwargs)
                calls.append(qr)
                if len(calls) == 1:
                    qr = dataclasses.replace(qr, q=1.1 * qr.q)
                return qr
            monkeypatch.setattr(integrators, "weighted_mgs", scaled)

        m = build()
        st, _, _ = from_full(generic_matrix(m), 3, m)
        scale_first_q()
        integrate(m, st, name, 0.05, 1)
        scale_first_q()
        with pytest.raises(OrthonormalityError):
            integrate(m, st, name, 0.05, 2)

    def test_step_config_validation(self, monkeypatch):
        # every public entry rejects dt <= 0 before any work
        def no_work(*args):
            raise AssertionError("a substep was assembled")

        monkeypatch.setattr(integrators, "assemble_substeps", no_work)
        m = build()
        st, _, _ = from_full(generic_matrix(m), 2, m)
        f0 = reconstruct(st)
        for dt in (0.0, -0.1):
            for _, step in ALL_STEPS:
                with pytest.raises(ValueError, match="dt must be positive"):
                    step(m, st, dt)
            for scheme in ("gap", "reference"):
                with pytest.raises(ValueError, match="dt must be positive"):
                    integrate(m, st if scheme == "gap" else f0, scheme, dt, 1)
            with pytest.raises(ValueError, match="t must be positive"):
                reference_step(m, f0, dt)


class TestOracleEquivalence:
    def test_full_rank_matches_reference(self):
        # full angular rank makes the co-range projection exact
        m = build(n_x=16, n_mu=8)
        f0 = 1.0 + 0.3 * np.outer(np.sin(np.pi * m.grid.points), m.quad.nodes)
        st, _, _ = from_full(f0, 8, m)
        ref = reference_step(m, f0, 1e-3)
        for name, step in ALL_STEPS:
            out = step(m, st, 1e-3)
            assert rel_err(reconstruct(out), ref, m) <= 1e-5, name

    def test_diffusive_single_step_matches_limit(self):
        # one large step at eps = 1e-6 lands on the discrete diffusion limit
        m = build(n_x=200, n_mu=16, eps=1e-6)
        rho0 = (4.0 / 3.0) * ((m.grid.points - 1.0) ** 2 + 1.0)
        f0 = np.outer(rho0, np.ones(16))
        st, _, _ = from_full(f0, 2, m)
        out = gap_step(m, st, 0.1)
        rho_gap = density(m, reconstruct(out))
        rho_lim = diffusion_limit_density(m, density(m, f0), 0.1)
        err = weighted_norm(rho_gap - rho_lim, m.wx) / weighted_norm(rho_lim, m.wx)
        assert err <= 2e-4

    def test_bug_equals_gap_on_isotropic_rank_one(self):
        # collision vanishes identically; both reduce to projected transport
        for eps in (1.0, 1e-3):
            m = build(n_x=64, n_mu=8, eps=eps)
            rho = 1.0 + 0.5 * np.sin(np.pi * m.grid.points)
            f0 = np.outer(rho, np.ones(8))
            st, _, _ = from_full(f0, 1, m)
            a = reconstruct(gap_step(m, st, 0.05))
            b = reconstruct(bug_step(m, st, 0.05))
            assert frob_norm_weighted(a - b, m.wx, m.wmu) <= \
                1e-10 * frob_norm_weighted(a, m.wx, m.wmu)

    def test_structured_and_expmv_routes_agree(self, monkeypatch):
        m = build(n_x=48, n_mu=12, eps=0.05)
        st, _, _ = from_full(generic_matrix(m), 4, m)
        monkeypatch.setattr(integrators, "_STRUCTURED_THRESHOLD",
                            {"L": 0.0, "K": 0.0})
        out_s = gap_step(m, st, 0.02)
        monkeypatch.setattr(integrators, "_STRUCTURED_THRESHOLD",
                            {"L": np.inf, "K": np.inf})
        monkeypatch.setattr(integrators, "EXPMV_TOL", 1e-12)
        out_e = gap_step(m, st, 0.02)
        assert rel_err(reconstruct(out_s), reconstruct(out_e), m) <= 1e-9

    def test_k_routes_agree_above_the_k_edge(self):
        # the fig1 shape at eps = 1, where the K substep crosses the edge:
        # dt times the bound is 1 % above it, so _factor_substep takes the
        # exact flow, and the Taylor sweep it replaces must agree
        m = build(n_x=1000, n_mu=100, eps=1.0)
        x, mu = m.grid.points, m.quad.nodes
        f0 = np.ones((1000, 100))
        for k, c in enumerate([-0.1, -0.01, 1e-3, 1e-4], start=1):
            f0 += c * np.outer(np.sin(k * np.pi * x), mu**k)
        st, _, _ = from_full(f0, 5, m)
        sub = assemble_substeps(m, st.x, st.v)
        bound = _norm_bound(m, sub, "K", _skew_modes(sub.a_x))
        dt = 1.01 * _STRUCTURED_THRESHOLD["K"] / bound
        k0 = st.x @ st.s
        taylor = expmv(operator_K(m, sub), dt, k0, EXPMV_TOL, bound)
        exact = _propagate_k_structured(m, sub, dt, k0)
        assert (np.linalg.norm(exact - taylor)
                <= 1e-10 * np.linalg.norm(taylor))


def solve_s(m, sub, dt, s0, sign, trace, step_index):
    """The S substep on the modes of sub's own A_x."""
    return _solve_s_substep(m, sub, _skew_modes(sub.a_x), dt, s0, sign,
                            trace, step_index)


def basis_with_constant(n, r, w, rng):
    """w-orthonormal n x r basis whose first column is constant."""
    cols = np.column_stack([np.ones(n), rng.standard_normal((n, r - 1))])
    return weighted_mgs(cols, w).q


def _full_rank_cells():
    """(scheme, route, eps, dt) of the full-rank grid.  The Taylor route
    runs only where its segment count stays small, dt/eps^2 <= 100, and
    PSI only where its backward S substep is stable, dt/eps^2 <= 1."""
    for eps in (10.0, 1.0, 0.1, 1e-2, 1e-3, 1e-4):
        for dt in (1e-3, 0.1, 1.0):
            c = dt / eps**2
            schemes = ("gap", "psi") if c <= 1.0 else ("gap",)
            routes = ("taylor", "exact") if c <= 100.0 else ("exact",)
            for scheme in schemes:
                for route in routes:
                    yield pytest.param(
                        scheme, route, eps, dt,
                        id=f"{scheme}-{route}-eps={eps:g}-dt={dt:g}")


class TestFullRank:
    # at rank r = n_mu the new V spans R^n_mu, so GAP's K substep is the
    # full semi-discrete flow in V's coordinates and one step is exact,
    # whatever the L substep did.  PSI's L and backward S substeps are
    # then the flows of P_X A and -P_X A, which cancel, so it is exact too
    # where the backward flow is stable; it is the cell that reads the
    # mirror of the L and S flows, whose +-g pairs GAP's step cannot see
    # at full rank, and the K flow's and reference's scales are >= 0.
    # Both factors are held on one route.  Measured at 32 x 8 from
    # full-spectrum data: the Taylor route at most 5.7e-12 relative (bound
    # EXPMV_TOL), the exact routes at most 20 u max(1, dt/eps^2) (bound
    # 100 times that; 1.9e-10 at eps = 1e-4, dt = 1, the Pade roundoff of
    # GAP's flows and of the reference)
    @pytest.mark.parametrize("scheme, route, eps, dt",
                             list(_full_rank_cells()))
    def test_one_step_matches_reference(self, monkeypatch, scheme, route,
                                        eps, dt):
        m = build(n_x=32, n_mu=8, eps=eps)
        rng = np.random.default_rng(0)
        f0 = generic_matrix(m) + 0.1 * rng.standard_normal((32, 8))
        st, _, _ = from_full(f0, 8, m)
        edge, traced = ((np.inf, "taylor") if route == "taylor" else
                        (0.0, "structured"))
        monkeypatch.setattr(integrators, "_STRUCTURED_THRESHOLD",
                            {"L": edge, "K": edge})
        trace = []
        step = gap_step if scheme == "gap" else psi_step
        out = step(m, st, dt, trace=trace)
        assert {t.route for t in trace if t.substep != "S"} == {traced}
        bound = (EXPMV_TOL if route == "taylor" else
                 100 * np.finfo(float).eps * max(1.0, dt / eps**2))
        assert rel_err(reconstruct(out), reference_step(m, f0, dt),
                       m) <= bound


class TestReplacementLadders:
    def test_candidate_in_span_is_passed_over(self):
        # column 1 is twice the constant column 0; P_0 = 1 is already in the
        # span, so the replacement is P_1 = mu
        m = build(n_x=16, n_mu=12)
        a = np.column_stack([np.ones(12), 2.0 * np.ones(12)])
        res = weighted_mgs(a, m.wmu, ladder=_legendre_ladder(m))
        assert res.replaced_columns == {1}
        mu_hat = m.quad.nodes / weighted_norm(m.quad.nodes, m.wmu)
        assert np.abs(res.q[:, 1] - mu_hat).max() <= 1e-12

    def test_legendre_candidates_are_the_basis_polynomials(self):
        # legval of the k-th unit coefficient vector rounds as
        # Legendre.basis(k)(mu), bit for bit
        for n_mu in (2, 16, 100, 101):
            m = build(n_x=16, n_mu=n_mu)
            ladder = _legendre_ladder(m)
            for k in range(n_mu):
                assert np.array_equal(ladder(k), np.polynomial.legendre
                                      .Legendre.basis(k)(m.quad.nodes)), k

    @pytest.mark.parametrize("factor", ["K", "L"])
    def test_first_candidates_are_a_basis(self, factor):
        # even n_x would lose a direction to the Nyquist sine, which is zero
        # on the grid; the ladders are w-orthogonal, so sigma_min/sigma_max
        # is at least 1/sqrt(2 n_mu - 1)
        sizes = range(2, 41) if factor == "K" else range(2, 21)
        for n in sizes:
            m = build(n_x=n) if factor == "K" else build(n_mu=n)
            ladder, w = ((_fourier_ladder(m), m.wx) if factor == "K"
                         else (_legendre_ladder(m), m.wmu))
            cands = np.column_stack([ladder(k) for k in range(n)])
            sig = np.linalg.svd(np.sqrt(w)[:, None] * cands, compute_uv=False)
            assert sig[-1] >= 0.1 * sig[0], n


class TestStructuredPropagators:
    # oracle matrix, structured flow, and the row count of the propagated
    # factor
    FLOWS = {
        "K": (oracles.operator_K_matrix, _propagate_k_structured,
              lambda m: m.grid.n_x),
        "L": (oracles.operator_L_matrix,
              lambda m, sub, dt, y: _propagate_l_structured(
                  m, _skew_modes(sub.a_x), dt, y),
              lambda m: m.quad.n_mu),
    }

    @pytest.mark.parametrize("flow", ["K", "L"])
    @pytest.mark.parametrize("parity", [0, 1])
    @given(half=strategies.integers(1, 19), n_mu=strategies.integers(2, 12),
           rank=strategies.integers(1, 6),
           log_eps=strategies.floats(-4.0, 1.0),
           log_dt=strategies.floats(-4.0, 0.0),
           seed=strategies.integers(0, 2**32 - 1))
    def test_matches_dense_expm_oracle(self, flow, parity, half, n_mu, rank,
                                       log_eps, log_dt, seed):
        eps, dt = 10.0**log_eps, 10.0**log_dt
        m = build(n_x=2 * half + parity, n_mu=n_mu, eps=eps)
        r = min(rank, n_mu, m.grid.n_x)
        rng = np.random.default_rng(seed)
        # the constant columns carry the isotropic mode, which survives the
        # 1/eps^2 collision decay and keeps the relative error meaningful
        x = basis_with_constant(m.grid.n_x, r, m.wx, rng)
        v = basis_with_constant(n_mu, r, m.wmu, rng)
        sub = assemble_substeps(m, x, v)
        oracle_matrix, propagate, rows = self.FLOWS[flow]
        y0 = rng.standard_normal((rows(m), r))
        oracle = unvec(sla.expm(dt * oracle_matrix(m, sub).toarray())
                       @ vec(y0), y0.shape)
        out = propagate(m, sub, dt, y0)
        err = np.linalg.norm(out - oracle) / np.linalg.norm(oracle)
        assert err <= (1e-10 if eps >= 1e-2 else 1e-7)


class TestSubstepNorm:
    @pytest.mark.parametrize("factor", ["K", "L"])
    @pytest.mark.parametrize("parity", [0, 1])
    @given(half=strategies.integers(1, 19), n_mu=strategies.integers(2, 12),
           rank=strategies.integers(1, 6),
           log_eps=strategies.floats(-4.0, 1.0),
           log_dt=strategies.floats(-4.0, 0.0),
           seed=strategies.integers(0, 2**32 - 1))
    def test_bound_is_an_upper_bound(self, factor, parity, half, n_mu, rank,
                                     log_eps, log_dt, seed):
        # a true bound turns expmv's Taylor segment count into a guarantee
        eps, dt = 10.0**log_eps, 10.0**log_dt
        m = build(n_x=2 * half + parity, n_mu=n_mu, eps=eps)
        r = min(rank, n_mu, m.grid.n_x)
        rng = np.random.default_rng(seed)
        x = basis_with_constant(m.grid.n_x, r, m.wx, rng)
        v = basis_with_constant(n_mu, r, m.wmu, rng)
        sub = assemble_substeps(m, x, v)
        matrix = (oracles.operator_L_matrix if factor == "L"
                  else oracles.operator_K_matrix)(m, sub)
        exact = np.linalg.norm(dt * matrix.toarray(), 2)
        assert dt * _norm_bound(m, sub, factor, _skew_modes(sub.a_x)) >= exact

    @given(n_x=strategies.integers(2, 40), n_mu=strategies.integers(2, 12),
           rank=strategies.integers(1, 8), grading=strategies.floats(0, 12),
           log_eps=strategies.floats(-4.0, 1.0),
           seed=strategies.integers(0, 2**32 - 1))
    def test_l_bound_from_the_modes_covers_the_svd(self, n_x, n_mu, rank,
                                                   grading, log_eps, seed):
        # the L bound reads ||A_x|| as max|g| of the decomposition the exact
        # flows share, plus the Frobenius norm of A_x's symmetric part;
        # eigh's own roundoff may leave it a few u below sigma_max(A_x),
        # but the bound stays within 4u of the one the SVD gives (worst
        # 3.25u over 3000 scanned cases; from max|g| alone, 4.85u at rank 1,
        # where A_x is all symmetric roundoff and g = 0)
        eps = 10.0**log_eps
        m = build(n_x=n_x, n_mu=n_mu, eps=eps)
        r = min(rank, n_mu, n_x)
        rng = np.random.default_rng(seed)
        cols = 10.0 ** rng.uniform(-grading, 0.0, r)
        x = weighted_mgs(rng.standard_normal((n_x, r)) * cols, m.wx).q
        sub = assemble_substeps(m, x, basis_with_constant(n_mu, r, m.wmu,
                                                          rng))
        mu_max = np.abs(m.quad.nodes).max()
        svd = (np.linalg.svd(sub.a_x, compute_uv=False)[0] * mu_max / eps
               + 2.0 / eps**2)
        bound = _norm_bound(m, sub, "L", _skew_modes(sub.a_x))
        assert bound >= (1.0 - 4.0 * np.finfo(float).eps) * svd

    def test_substeps_run_no_power_iteration(self, monkeypatch):
        def no_estimate(op):
            raise AssertionError(f"power iteration on {op.name}")

        calls = []

        def counted_expmv(*args, **kwargs):
            calls.append(args[0].name)
            return wlinalg.expmv(*args, **kwargs)

        monkeypatch.setattr(wlinalg, "estimate_operator_norm", no_estimate)
        monkeypatch.setattr(integrators, "expmv", counted_expmv)
        m = build(n_x=48, n_mu=12, eps=0.5)
        st, _, _ = from_full(generic_matrix(m), 4, m)
        for _, step in ALL_STEPS:
            step(m, st, 0.02)
        assert len(calls) == 6


class TestTaylorRoute:
    @pytest.mark.parametrize("factor", ["K", "L"])
    @pytest.mark.parametrize("parity", [0, 1])
    @given(half=strategies.integers(1, 19), n_mu=strategies.integers(2, 16),
           rank=strategies.integers(1, 10),
           log_eps=strategies.floats(-4.0, 1.0),
           log_dt=strategies.floats(-4.0, 0.0),
           seed=strategies.integers(0, 2**32 - 1))
    def test_matches_dense_expm_oracle(self, factor, parity, half, n_mu, rank,
                                       log_eps, log_dt, seed):
        # the route _factor_substep takes while dt times the bound is at most
        # the threshold: expmv with its segments sized by that bound
        eps, dt = 10.0**log_eps, 10.0**log_dt
        m = build(n_x=2 * half + parity, n_mu=n_mu, eps=eps)
        r = min(rank, n_mu, m.grid.n_x)
        rng = np.random.default_rng(seed)
        x = basis_with_constant(m.grid.n_x, r, m.wx, rng)
        v = basis_with_constant(n_mu, r, m.wmu, rng)
        sub = assemble_substeps(m, x, v)
        bound = _norm_bound(m, sub, factor, _skew_modes(sub.a_x))
        assume(dt * bound <= _STRUCTURED_THRESHOLD[factor])
        op = (operator_L if factor == "L" else operator_K)(m, sub)
        y0 = rng.standard_normal(op.shape)
        matrix = (oracles.operator_L_matrix if factor == "L"
                  else oracles.operator_K_matrix)(m, sub)
        oracle = sla.expm(dt * matrix.toarray()) @ vec(y0)
        out = vec(expmv(op, dt, y0, 1e-10, bound))
        # the requested tolerance; the worst of 3400 scanned cases was 1.1e-11
        assert np.linalg.norm(out - oracle) <= 1e-10 * np.linalg.norm(oracle)


class TestTaylorSegments:
    @pytest.mark.parametrize("spectrum", ["dissipative", "rotation"])
    def test_accurate_at_the_route_edge(self, spectrum):
        # t times the norm at the higher threshold: the longest Taylor sweep
        # that _factor_substep runs, on a spectrum in [-100, 0] and on 2 x 2
        # rotation blocks with frequencies up to 100
        n, top = 200, max(_STRUCTURED_THRESHOLD.values())
        v = np.random.default_rng(0).standard_normal(n)
        if spectrum == "dissipative":
            d = np.linspace(-top, 0.0, n)
            op = SparseOperator((n,), lambda u: d * u)
            exact = np.exp(d) * v
        else:
            om = np.linspace(0.0, top, n // 2)

            def rotate(u):
                p = u.reshape(-1, 2)
                return np.column_stack((om * p[:, 1], -om * p[:, 0])).ravel()

            op = SparseOperator((n,), rotate)
            p, c, s = v.reshape(-1, 2), np.cos(om), np.sin(om)
            exact = np.column_stack((c * p[:, 0] + s * p[:, 1],
                                     c * p[:, 1] - s * p[:, 0])).ravel()
        out = expmv(op, 1.0, v, EXPMV_TOL, top)
        assert np.linalg.norm(out - exact) <= 1e-10 * np.linalg.norm(exact)

    def test_schemes_ref_substeps_take_under_half_the_applies(self):
        # the first L and K substeps of the 200 x 100, rank 10, eps = 0.1,
        # dt = 0.01 comparison from its seed-0 initial data; segments of
        # scaled norm 1/1.1 took 27 (L) and 84 (K) applies here
        m = build(n_x=200, n_mu=100, eps=0.1)
        coeffs = [-0.1, -0.01, 1e-3, 1e-4, -1e-5, 1e-6, -1e-7, 1e-8, 1e-9,
                  -1e-10]
        f0 = 1.0 + sum(c * np.outer(np.sin(k * np.pi * m.grid.points),
                                    m.quad.nodes**k)
                       for k, c in enumerate(coeffs, start=1))
        st, _, _ = from_full(f0, 10, m)
        sub = assemble_substeps(m, st.x, st.v)
        applies = {}
        for factor, mat in (("L", st.v @ st.s.T), ("K", st.x @ st.s)):
            op = (operator_L if factor == "L" else operator_K)(m, sub)
            apply = op.apply

            def counted(u, apply=apply, factor=factor):
                applies[factor] = applies.get(factor, 0) + 1
                return apply(u)

            op.apply = counted
            expmv(op, 0.01, mat, EXPMV_TOL,
                  _norm_bound(m, sub, factor, _skew_modes(sub.a_x)))
        assert applies["L"] <= 27 // 2
        assert applies["K"] <= 84 // 2


class TestSSubstep:
    @staticmethod
    def galerkin_generator(m, sub, x):
        """G(S) = X^T diag(dx) K-apply(X S) on vec(S), column by column.

        Built from the K operator's action, not from a Kronecker formula, so
        a transposed factor in the substep's own generator shows.
        """
        r = x.shape[1]
        op = operator_K(m, sub)
        gen = np.empty((r * r, r * r))
        for j in range(r * r):
            k_dot = op.apply(x @ unvec(np.eye(r * r)[j], (r, r)))
            gen[:, j] = vec(x.T @ (m.wx[:, None] * k_dot))
        return gen

    # forward (BUG) and backward (PSI), each by its exact exponential
    @pytest.mark.parametrize("sign", [1.0, -1.0],
                             ids=["1.0-exponential", "-1.0-exponential"])
    @given(n_x=strategies.integers(8, 39), n_mu=strategies.integers(2, 11),
           rank=strategies.integers(1, 6),
           log_eps=strategies.floats(-4.0, 1.0),
           log_dt=strategies.floats(-4.0, 0.0),
           seed=strategies.integers(0, 2**32 - 1))
    def test_matches_galerkin_oracle(self, sign, n_x, n_mu, rank,
                                     log_eps, log_dt, seed):
        eps, dt = 10.0**log_eps, 10.0**log_dt
        # the backward (PSI) flow grows like exp(dt/eps^2); beyond this it
        # overflows or loses every digit to cancellation.  Forward, scipy's
        # expm of the generator is itself about 2e-9 from the exact flow at
        # dt/eps^2 = 1e8, so it is an oracle only up to 1e6 (2.1e-11 from a
        # 60-digit flow there); TestSSubstepMpmath covers the stiffer corner
        assume(dt / eps**2 <= (1e6 if sign > 0 else 30.0))
        m = build(n_x=n_x, n_mu=n_mu, eps=eps)
        r = min(rank, n_mu)
        rng = np.random.default_rng(seed)
        x = basis_with_constant(n_x, r, m.wx, rng)
        v = basis_with_constant(n_mu, r, m.wmu, rng)
        sub = assemble_substeps(m, x, v)
        s0 = rng.standard_normal((r, r))
        gen = sign * self.galerkin_generator(m, sub, x)
        oracle = sla.expm(dt * gen) @ vec(s0)
        out = solve_s(m, sub, dt, s0, sign, None, 0)
        assert (np.linalg.norm(vec(out) - oracle)
                <= 1e-10 * np.linalg.norm(oracle))


class TestSSubstepContract:
    # the S substep records itself like L and K, and names its failure
    # from its direction
    @staticmethod
    def substep(rank=3, seed=0):
        m = build(n_x=24, n_mu=8, eps=0.5)
        rng = np.random.default_rng(seed)
        x = basis_with_constant(24, rank, m.wx, rng)
        v = basis_with_constant(8, rank, m.wmu, rng)
        return m, assemble_substeps(m, x, v), rng.standard_normal((rank, rank))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_records_one_s_substep(self, sign):
        m, sub, s0 = self.substep()
        trace = []
        out = solve_s(m, sub, 0.1, s0, sign, trace, 3)
        assert trace == [integrators.SubstepTrace(
            3, "S", float(np.linalg.norm(s0)), float(np.linalg.norm(out)),
            None, ())]
        untraced = solve_s(m, sub, 0.1, s0, sign, None, 3)
        assert np.array_equal(untraced, out)

    @pytest.mark.parametrize("sign,name", [
        (1.0, "Galerkin coefficient substep overflowed"),
        (-1.0, "backward coefficient substep overflowed: the flow grows"),
    ], ids=["forward", "backward"])
    def test_nonfinite_names_its_direction(self, sign, name):
        m, sub, s0 = self.substep()
        s0[1, 2] = np.inf
        trace = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError) as err:
                solve_s(m, sub, 0.1, s0, sign, trace, 0)
        assert str(err.value).startswith(name)
        assert trace == []


class TestSSubstepMpmath:
    # the oracle above is scipy's expm of the whole r^2 x r^2 generator;
    # here the exponential is taken at 60 digits.  Forward runs reach
    # dt/eps^2 = 1e6 (measured 2.1e-11 there); backward runs stay where
    # exp(dt/eps^2) is finite.  At dt/eps^2 = 1e8 both the substep and
    # scipy sit 2e-10 to 3e-9 from this oracle.
    @pytest.mark.parametrize("sign,rank,eps,dt,seed", [
        (1.0, 4, 1e-3, 1.0, 0),
        (1.0, 3, 1e-3, 1.0, 1),
        (1.0, 2, 1e-2, 1.0, 2),
        (-1.0, 4, 0.2, 1.0, 5),
        (-1.0, 3, 0.5, 1.0, 6),
        (-1.0, 4, 1.0, 0.1, 7),
    ])
    def test_matches_mpmath(self, sign, rank, eps, dt, seed):
        m = build(n_x=24, n_mu=8, eps=eps)
        rng = np.random.default_rng(seed)
        x = basis_with_constant(24, rank, m.wx, rng)
        v = basis_with_constant(8, rank, m.wmu, rng)
        sub = assemble_substeps(m, x, v)
        s0 = rng.standard_normal((rank, rank))
        gen = sign * TestSSubstep.galerkin_generator(m, sub, x)
        oracle = mp_expm(dt * gen, dps=60).real @ vec(s0)
        out = solve_s(m, sub, dt, s0, sign, None, 0)
        assert (np.linalg.norm(vec(out) - oracle)
                <= 1e-10 * np.linalg.norm(oracle))

    # at dt/eps^2 = 1e8 neither the substep nor scipy's expm of the
    # generator meets 1e-10; the substep must stay within 2x of scipy's
    # distance from the 60-digit flow (measured ratios 0.18 to 1.6)
    @pytest.mark.parametrize("n_x,n_mu,rank,dt,seed", [
        (8, 4, 4, 1.0, 0),
        (24, 8, 4, 1.0, 3),
        (24, 8, 4, 1.0, 8),
        (24, 8, 3, 0.5, 4),
    ])
    def test_no_farther_than_scipy_when_stiff(self, n_x, n_mu, rank, dt,
                                              seed):
        m = build(n_x=n_x, n_mu=n_mu, eps=1e-4)
        rng = np.random.default_rng(seed)
        x = basis_with_constant(n_x, rank, m.wx, rng)
        v = basis_with_constant(n_mu, rank, m.wmu, rng)
        sub = assemble_substeps(m, x, v)
        s0 = rng.standard_normal((rank, rank))
        gen = dt * TestSSubstep.galerkin_generator(m, sub, x)
        exact = mp_expm(gen, dps=60).real @ vec(s0)
        out = solve_s(m, sub, dt, s0, 1.0, None, 0)
        err = np.linalg.norm(vec(out) - exact)
        assert err <= 2.0 * np.linalg.norm(sla.expm(gen) @ vec(s0) - exact)

    @pytest.mark.xfail(strict=True, reason=(
        "known fault: at dt/eps^2 = 1e8 the substep and scipy.linalg.expm "
        "agree with each other but sit 2.6e-10 and 3.1e-10 from the "
        "60-digit flow"))
    def test_matches_mpmath_at_stiffness_1e8(self):
        self.test_matches_mpmath(1.0, 4, 1e-4, 1.0, 8)


class TestRegimeGrid:
    # every cell ends finite or raises the documented error; the one
    # expected divergence is PSI's backward substep once dt/eps^2 is large
    @pytest.mark.parametrize("dt", [1e-3, 0.1])
    @pytest.mark.parametrize("eps", [10.0, 0.1, 1e-2, 1e-4])
    @pytest.mark.parametrize("scheme", ["gap", "psi", "bug"])
    def test_finite_or_documented_failure(self, scheme, eps, dt):
        m = build(n_x=32, n_mu=8, eps=eps)
        st, _, _ = from_full(generic_matrix(m), 3, m)
        stiffness = dt / eps**2
        assert stiffness <= 100 or stiffness >= 1e3
        if scheme == "psi" and stiffness >= 1e3:
            with pytest.raises(NumericalFailureError):
                integrate(m, st, scheme, dt, 2)
            return
        out, _ = integrate(m, st, scheme, dt, 2)
        assert np.all(np.isfinite(reconstruct(out)))


class TestPsiInstability:
    def test_backward_substep_overflow_reports_hint(self):
        m = build(n_x=64, n_mu=16, eps=1e-3)
        st, _, _ = from_full(generic_matrix(m), 4, m)
        with pytest.raises(NumericalFailureError) as err:
            psi_step(m, st, 0.1)
        assert "backward" in str(err.value)

    def test_backward_substep_amplifies_at_moderate_eps(self):
        m = build(n_x=64, n_mu=16, eps=0.05)
        st, _, _ = from_full(generic_matrix(m), 4, m)
        trace = []
        psi_step(m, st, 0.1, trace=trace)
        s_rec = [t for t in trace if t.substep == "S"][0]
        assert s_rec.post_norm > s_rec.pre_norm


class TestAsymptoticPreserving:
    # the paper's AP claim: in the diffusive regime GAP's K-step becomes the
    # limit equation.  Every substep takes its exact flow there, so the
    # density error against the system's own limit exp((t/3) D_x^2) does
    # not depend on dt.  Measured at 64 x 16, rank 5, t = 0.5: parabolic
    # 6.4556e-6 at eps = 1e-2 (spread over dt 1.5e-9), 6.456e-8 at 1e-3
    # (spread 2.5e-5) and 6.692e-10 at 1e-4 (spread 2.4e-2), eps^2 ratios
    # of 1.0e-2; poly_fourier 1.4350e-3, 1.4346e-4 and 1.4346e-5 (spread
    # at most 5e-10), the equation's own initial layer.  The eps = 1e-4
    # spread gets 5 %, not 1 %: the parabolic error there sits near the
    # rank-5 roundoff floor.  Without the mass rule of model.angular_blocks
    # it read 1.5e-8, with a 119 % spread
    @pytest.mark.parametrize("ic,coeffs", [
        ("parabolic", None), ("poly_fourier", [1.0, 1.0, 0.1, 0.01])])
    def test_density_error_does_not_depend_on_dt(self, ic, coeffs):
        errors = {}
        for eps, spread in ((1e-2, 0.01), (1e-3, 0.01), (1e-4, 0.05)):
            m = build(n_x=64, n_mu=16, eps=eps)
            f0 = initial_matrix(
                RunConfig(initial_condition=ic, ic_coeffs=coeffs),
                m.grid, m.quad)
            limit = oracles.wide_limit_density(m, density(m, f0), 0.5)
            start, _, _ = from_full(f0, 5, m)
            errs = []
            for dt in (0.5, 0.25, 0.1, 0.05):
                final, _ = integrate(m, start, "gap", dt, round(0.5 / dt))
                rho = density(m, reconstruct(final))
                errs.append(weighted_norm(rho - limit, m.wx)
                            / weighted_norm(limit, m.wx))
            assert max(errs) <= (1.0 + spread) * min(errs), (eps, errs)
            errors[eps] = max(errs)
        if ic == "parabolic":
            assert errors[1e-3] <= 2e-2 * errors[1e-2], errors
            assert errors[1e-4] <= 2e-2 * errors[1e-3], errors


class TestGapProperties:
    @pytest.mark.parametrize("eps", [1.0, 1e-2, 1e-4])
    def test_weighted_norm_non_increasing(self, eps):
        m = build(n_x=64, n_mu=16, eps=eps)
        st, _, _ = from_full(generic_matrix(m), 4, m)
        prev = float(np.linalg.norm(st.s))
        for _ in range(5):
            st = gap_step(m, st, 0.1)
            cur = float(np.linalg.norm(st.s))
            assert cur <= prev * (1.0 + 10 * EXPMV_TOL)
            prev = cur

    def test_first_order_convergence_downscaled(self):
        # fitted slope against the dense reference on a reduced grid
        m = build(n_x=100, n_mu=32)
        x, mu = m.grid.points, m.quad.nodes
        f0 = np.ones((100, 32))
        for k in range(1, 11):
            f0 += 10.0 ** (-k) * np.outer(np.sin(k * np.pi * x), mu**k)
        ref, _ = integrate(m, f0, "reference", 1.0, 1)
        sig = np.linalg.svd(np.sqrt(m.wx)[:, None] * ref
                            * np.sqrt(m.wmu)[None, :], compute_uv=False)
        floor = 10.0 * sig[10] / frob_norm_weighted(ref, m.wx, m.wmu)
        dts, errs = [], []
        for j in (3, 5, 7, 9):
            dt = 0.1 / 2**j
            st, _, _ = from_full(f0, 10, m)
            out, _ = integrate(m, st, "gap", dt, round(1.0 / dt))
            err = rel_err(reconstruct(out), ref, m)
            if err > floor:
                dts.append(dt)
                errs.append(err)
        assert len(dts) >= 3
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 0.8 <= slope <= 1.2

    def test_basis_alignment_in_diffusive_regime(self):
        m_probe = build(n_x=64, n_mu=16)
        f0 = generic_matrix(m_probe)
        resid = {}
        for eps in (1e-1, 1e-2, 1e-3):
            m = build(n_x=64, n_mu=16, eps=eps)
            st, _, _ = from_full(f0, 4, m)
            out = gap_step(m, st, 0.1)
            vals = []
            for g in (np.ones(16), m.quad.nodes.astype(float)):
                proj = out.v @ (out.v.T @ (m.wmu * g))
                vals.append(weighted_norm(g - proj, m.wmu)
                            / weighted_norm(g, m.wmu))
            resid[eps] = vals
        for idx in (0, 1):
            assert resid[1e-2][idx] <= 0.5 * resid[1e-1][idx]
            assert resid[1e-3][idx] <= 0.5 * resid[1e-2][idx]

    @pytest.mark.parametrize("eps, route", [(1.0, "taylor"),
                                            (1e-3, "structured")])
    def test_debug_trace_records_routes(self, eps, route):
        m = build(eps=eps)
        st, _, _ = from_full(generic_matrix(m), 3, m)
        _, trace = integrate(m, st, "bug", 0.05, 1, debug=True)
        assert [(t.substep, t.route) for t in trace] == [
            ("L", route), ("K", route), ("S", None)]

    # both open with L, as GAP does; PSI's S sits between L and K, BUG's
    # after K
    @pytest.mark.parametrize("scheme,order", [
        ("psi", ["L", "S", "K"]), ("bug", ["L", "K", "S"])])
    def test_debug_trace_reads_each_schemes_substeps(self, scheme, order):
        m = build(eps=0.5)
        st, _, _ = from_full(generic_matrix(m), 3, m)
        _, trace = integrate(m, st, scheme, 0.05, 2, debug=True)
        assert [(t.step_index, t.substep) for t in trace] == [
            (i, name) for i in range(2) for name in order]

    def test_debug_trace_records_substeps(self):
        m = build()
        st, _, _ = from_full(generic_matrix(m), 3, m)
        out, trace = integrate(m, st, "gap", 0.05, 2, debug=True)
        assert [t.substep for t in trace] == ["L", "K", "L", "K"]
        assert all(np.isfinite(t.pre_norm) and np.isfinite(t.post_norm)
                   for t in trace)
        assert all(t.orth_defect <= 1e-10 for t in trace
                   if t.orth_defect is not None)
        assert any(t.orth_defect is not None for t in trace)

    def test_debug_trace_warns_on_basis_defect(self, monkeypatch, caplog):
        # every new basis scaled by 1 + 1e-9 has a defect of about 2e-9:
        # above the trace's 1e-10 warning level, and inside the 1e-8
        # tolerance with which the next step's assembly checks it
        qr_fn = integrators.weighted_mgs

        def scaled(*args, **kwargs):
            qr = qr_fn(*args, **kwargs)
            return dataclasses.replace(qr, q=(1.0 + 1e-9) * qr.q)

        monkeypatch.setattr(integrators, "weighted_mgs", scaled)
        m = build()
        st, _, _ = from_full(generic_matrix(m), 3, m)
        with caplog.at_level(logging.WARNING, logger=integrators.__name__):
            _, trace = integrate(m, st, "gap", 0.05, 2, debug=True)
        warned = [r.getMessage() for r in caplog.records]
        assert len(warned) == 4
        assert all(re.fullmatch(r"step [12]: (angular|spatial) basis defect "
                                r"\S+ exceeds 1e-10", w) for w in warned)
        assert [t.substep for t in trace] == ["L", "K", "L", "K"]
        assert all(1e-10 < t.orth_defect <= 1e-8 for t in trace)

    def test_deficient_columns_reported_in_diffusive_limit(self):
        # at eps = 1e-4 most spatial columns collapse; each collapsed column
        # must be reported and replaced, leaving S with a nonnegative diagonal
        m = build(n_x=64, n_mu=16, eps=1e-4)
        x, mu = m.grid.points, m.quad.nodes
        coeffs = [1.0, -0.1, -0.01, 1e-3, 1e-4]
        f0 = coeffs[0] * np.ones((64, 16))
        for k, c in enumerate(coeffs[1:], start=1):
            f0 += c * np.outer(np.sin(k * np.pi * x), mu**k)
        st, _, _ = from_full(f0, 5, m)
        out, trace = integrate(m, st, "gap", 0.1, 3, debug=True)
        assert any(t.replaced_columns for t in trace)
        assert np.all(np.diag(out.s) >= 0.0)

    @pytest.mark.parametrize("eps", [1.0, 1e-2, 1e-4])
    @pytest.mark.parametrize("dt", [0.1, 0.01])
    def test_mass_drift_bounded(self, eps, dt):
        # GAP conserves mass only up to its rank decisions; the worst drift
        # over this grid is 2.1e-8 (eps = 1e-4, dt = 0.1, both L and K on
        # the structured route), and the bound leaves 14x of room
        m = build(n_x=64, n_mu=16, eps=eps)
        x, mu = m.grid.points, m.quad.nodes
        coeffs = [1.0, -0.1, -0.01, 1e-3, 1e-4]
        f0 = coeffs[0] * np.ones((64, 16))
        for k, c in enumerate(coeffs[1:], start=1):
            f0 += c * np.outer(np.sin(k * np.pi * x), mu**k)
        st, _, _ = from_full(f0, 5, m)
        out, _ = integrate(m, st, "gap", dt, round(1.0 / dt))
        mass0 = m.grid.dx * np.sum(reconstruct(st) @ m.wmu)
        mass1 = m.grid.dx * np.sum(reconstruct(out) @ m.wmu)
        assert abs(mass1 - mass0) <= 3e-7 * abs(mass0)

    @pytest.mark.parametrize("eps", [1.0, 1e-2, 1e-4])
    @pytest.mark.parametrize("dt", [0.1, 0.01])
    def test_mass_drift_at_roundoff(self, eps, dt):
        # on the grid above, the constant stays in span(V), and the mass
        # rule of model.angular_blocks keeps C_mu from turning the 1e-15
        # roundoff of |V^T w|^2 into a drift of 1e-15 dt/eps^2 per step
        # (1.8e-8 at eps = 1e-4 without it); worst measured 9.3e-15
        m = build(n_x=64, n_mu=16, eps=eps)
        f0 = initial_matrix(
            RunConfig(initial_condition="poly_fourier",
                      ic_coeffs=[1.0, -0.1, -0.01, 1e-3, 1e-4]),
            m.grid, m.quad)
        st, _, _ = from_full(f0, 5, m)
        out, _ = integrate(m, st, "gap", dt, round(1.0 / dt))
        mass0 = m.grid.dx * np.sum(reconstruct(st) @ m.wmu)
        mass1 = m.grid.dx * np.sum(reconstruct(out) @ m.wmu)
        assert abs(mass1 - mass0) <= 1e-12 * abs(mass0)


    # fig1's shape: 1000 x 100, rank 5, the parabolic start, dt = 0.1 to
    # t = 1.  The K flow's mean Fourier row, which carries the mass, is
    # pure collision and takes the closed form with C_mu's theta; through
    # the Pade slices the drift read 3.7e-13 and 8.2e-12, now 6.2e-16 at
    # both eps
    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    def test_fig1_mass_drift_at_roundoff(self, eps):
        m = build(n_x=1000, n_mu=100, eps=eps)
        f0 = initial_matrix(RunConfig(initial_condition="parabolic"),
                            m.grid, m.quad)
        st, _, _ = from_full(f0, 5, m)
        out, _ = integrate(m, st, "gap", 0.1, 10)
        mass0 = m.grid.dx * np.sum(reconstruct(st) @ m.wmu)
        mass1 = m.grid.dx * np.sum(reconstruct(out) @ m.wmu)
        assert abs(mass1 - mass0) <= 1e-14 * abs(mass0)

class TestReference:
    def test_mass_conserved(self):
        m = build(n_x=48, n_mu=12, eps=0.5)
        f0 = generic_matrix(m)
        f1 = reference_step(m, f0, 0.2)
        m0 = m.grid.dx * np.sum(f0 @ m.wmu)
        m1 = m.grid.dx * np.sum(f1 @ m.wmu)
        assert abs(m1 - m0) <= 1e-10 * abs(m0)

    @pytest.mark.parametrize("eps", [0.1, 1e-2, 1e-3, 1e-4])
    def test_mass_drift_at_roundoff(self, eps):
        # the mean mode is pure collision and takes its closed form; through
        # a squared expm its mass drifted with t/eps^2 (3e-8 at eps = 1e-4)
        m = build(n_x=48, n_mu=12, eps=eps)
        f0 = np.outer((m.grid.points - 1.0) ** 2 + 1.0, 1.0 + m.quad.nodes**2)
        f1 = reference_step(m, f0, 1.0)
        m0 = m.grid.dx * np.sum(f0 @ m.wmu)
        m1 = m.grid.dx * np.sum(f1 @ m.wmu)
        assert abs(m1 - m0) <= 1e-14 * abs(m0)

    def test_overflow_raises_without_warning(self):
        m = build(n_x=16, n_mu=4, eps=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError,
                               match="reference flow overflowed"):
                reference_step(m, np.full((16, 4), 1e308), 0.1)

    def test_weighted_norm_non_increasing(self):
        m = build(n_x=48, n_mu=12, eps=0.5)
        f0 = generic_matrix(m)
        f1 = reference_step(m, f0, 0.2)
        n0 = frob_norm_weighted(f0, m.wx, m.wmu)
        n1 = frob_norm_weighted(f1, m.wx, m.wmu)
        assert n1 <= n0 * (1.0 + 1e-10)

    @pytest.mark.parametrize("n_x, n_mu", [(32, 8), (64, 16)])
    def test_diffusive_reference_matches_limit(self, n_x, n_mu):
        # continuous-level AP: the full solve approaches the diffusion limit
        m = build(n_x=n_x, n_mu=n_mu, eps=1e-4)
        rho0 = 1.0 + 0.5 * np.sin(np.pi * m.grid.points)
        f0 = np.outer(rho0, np.ones(n_mu))
        out, _ = integrate(m, f0, "reference", 1.0, 1)
        rho = density(m, out)
        rho_lim = diffusion_limit_density(m, density(m, f0), 1.0)
        assert weighted_norm(rho - rho_lim, m.wx) <= \
            1e-3 * weighted_norm(rho_lim, m.wx)

    def test_coalesced_equals_stepped(self):
        m = build(n_x=32, n_mu=8, eps=0.8)
        f0 = generic_matrix(m)
        whole, _ = integrate(m, f0, "reference", 0.1, 10)
        stepped = f0
        for _ in range(10):
            stepped = reference_step(m, stepped, 0.1)
        assert rel_err(whole, stepped, m) <= 10 * EXPMV_TOL

    def test_size_cap(self, monkeypatch):
        # the cap counts exponentials times max(n_mu, 32)^3: the D_x
        # symbols of n_x = 64 take 16 distinct nonzero magnitudes, those of
        # n_x = 63 take 31, so at n_mu = 8 the work is 16 * 32^3 and
        # 31 * 32^3
        for n_x, n_expm in ((64, 16), (63, 31)):
            m = build(n_x=n_x, n_mu=8)
            monkeypatch.setattr(integrators, "REFERENCE_SIZE_CAP",
                                n_expm * 32**3 - 1)
            with pytest.raises(SizeCapError):
                reference_step(m, np.ones((n_x, 8)), 0.1)
            monkeypatch.setattr(integrators, "REFERENCE_SIZE_CAP",
                                n_expm * 32**3)
            reference_step(m, np.ones((n_x, 8)), 0.1)

    def test_n_mu_above_dense_limit_rejected(self, monkeypatch):
        from rte_lowrank import model as model_module

        def no_expm(a):
            raise AssertionError("an exponential was computed")

        monkeypatch.setattr(model_module, "dense_expm", no_expm)
        n_mu = 2001
        m = build(n_x=4, n_mu=n_mu)
        # n_x = 4 has one nonzero symbol: one exponential, 2001^3 > the cap
        with pytest.raises(SizeCapError) as err:
            reference_step(m, np.ones((4, n_mu)), 0.1)
        assert f"work 1 * {n_mu}^3" in str(err.value)

    @pytest.mark.parametrize("parity", [0, 1])
    @given(half=strategies.integers(1, 19), n_mu=strategies.integers(2, 12),
           log_eps=strategies.floats(-4.0, 1.0),
           log_t=strategies.floats(-4.0, 0.0),
           seed=strategies.integers(0, 2**32 - 1))
    def test_matches_dense_expm_oracle(self, parity, half, n_mu, log_eps,
                                       log_t, seed):
        eps, t = 10.0**log_eps, 10.0**log_t
        n_x = 2 * half + parity
        m = build(n_x=n_x, n_mu=n_mu, eps=eps)
        rng = np.random.default_rng(seed)
        # the constant carries the isotropic mode, which survives the
        # 1/eps^2 collision decay and keeps the relative error meaningful
        f0 = 1.0 + rng.standard_normal((n_x, n_mu))
        oracle = unvec(sla.expm(t * oracles.full_operator_matrix(m).toarray())
                       @ vec(f0), f0.shape)
        out = reference_step(m, f0, t)
        err = np.linalg.norm(out - oracle) / np.linalg.norm(oracle)
        assert err <= (1e-10 if eps >= 1e-2 else 1e-7)



def k_flow_oracle(m, sub, dt, k0, expm_batch):
    """The exact K flow mode by mode: one slice per nonzero symbol, and the
    closed collision form with C_mu and its theta for the zero symbol."""
    eps, r = m.eps, sub.b_mu.shape[0]
    rows = np.fft.rfft(k0, axis=0)
    zero = m.diff.d_x_symbol == 0.0
    gens = (-(dt / eps) * m.diff.d_x_symbol[~zero, None, None] * sub.b_mu
            + (dt / eps**2) * (sub.c_mu - np.eye(r)))
    prop = np.stack([expm_batch(g[None])[0] for g in gens])
    rows[~zero] = np.einsum("qi,qij->qj", rows[~zero], prop)
    rows[zero] = model_module.collision_flow(
        dt / eps**2, sub.theta, rows[zero], rows[zero] @ sub.c_mu)
    return np.fft.irfft(rows, n=m.grid.n_x, axis=0)

class TestModePairing:
    # D_x has the same symbol at the rfft modes q and n_x/2 - q, so the exact
    # flows take one exponential per distinct nonzero symbol: 12 of the 13
    # distinct symbols of the 25 modes at n_x = 48, and 24 of the 25 at
    # n_x = 49.  The zero symbol is pure collision and takes its closed
    # form, C_mu's in the K flow and W_mu's in the reference.  Sharing
    # changes no bit of the output against a mode-by-mode flow through the
    # same routine.
    PAIRS = [(48, 13), (49, 25)]

    @pytest.mark.parametrize("n_x, distinct", PAIRS)
    def test_k_flow(self, monkeypatch, n_x, distinct):
        eps, dt, r = 0.01, 0.1, 3
        m = build(n_x=n_x, n_mu=8, eps=eps)
        rng = np.random.default_rng(n_x)
        sub = assemble_substeps(m, basis_with_constant(n_x, r, m.wx, rng),
                                basis_with_constant(8, r, m.wmu, rng))
        k0 = rng.standard_normal((n_x, r))
        expm_batch = integrators._expm_batch
        slices = []

        def counted(mats):
            slices.append(len(mats))
            return expm_batch(mats)

        monkeypatch.setattr(integrators, "_expm_batch", counted)
        out = _propagate_k_structured(m, sub, dt, k0)
        assert slices == [distinct - 1]
        assert np.array_equal(out, k_flow_oracle(m, sub, dt, k0, expm_batch))

    @pytest.mark.parametrize("n_x, distinct", PAIRS)
    def test_reference(self, monkeypatch, n_x, distinct):
        from rte_lowrank import model as model_module

        eps, t, n_mu = 0.01, 0.1, 8
        m = build(n_x=n_x, n_mu=n_mu, eps=eps)
        f0 = 1.0 + np.random.default_rng(n_x).standard_normal((n_x, n_mu))
        dense_expm = model_module.dense_expm
        calls = []

        def counted(a):
            calls.append(a)
            return dense_expm(a)

        monkeypatch.setattr(model_module, "dense_expm", counted)
        out = model_module.full_flow(m, f0, t)
        # the zero symbol, the mean mode and for even n_x Nyquist, is pure
        # collision and takes its closed form, not an exponential
        assert len(calls) == distinct - 1

        mu_flip = np.diag(m.quad.nodes)[:, ::-1]
        coll = (t / eps**2) * (oracles.w_mu_matrix(m) - np.eye(n_mu))
        rows = np.fft.rfft(f0, axis=0)
        rows = (0.5 - 0.5j) * (rows + 1j * rows[:, ::-1])
        zero = m.diff.d_x_symbol == 0.0
        for q in np.flatnonzero(~zero):
            d = m.diff.d_x_symbol[q]
            rows[q] = rows[q] @ dense_expm((t / eps) * d.imag * mu_flip + coll)
        rows[zero] = model_module.collision_flow(
            t / eps**2, 1.0, rows[zero],
            0.5 * (rows[zero] @ m.wmu)[:, None])
        rows = (0.5 + 0.5j) * (rows - 1j * rows[:, ::-1])
        assert np.array_equal(out, np.fft.irfft(rows, n=n_x, axis=0))


class TestLiveModes:
    # the exact K flow propagates only the rows of rfft(K) whose largest
    # entry is at least u times top, the largest entry of all rows, and
    # leaves the others zero.  Every row's flow is a 2-norm contraction, so
    # the dropped rows change the result by at most sqrt(n_rows r) u top.
    @staticmethod
    def substep(n_x, n_mu, r, eps, rng):
        m = build(n_x=n_x, n_mu=n_mu, eps=eps)
        sub = assemble_substeps(m, basis_with_constant(n_x, r, m.wx, rng),
                                basis_with_constant(n_mu, r, m.wmu, rng))
        return m, sub

    @pytest.mark.parametrize("parity", [0, 1])
    @given(half=strategies.integers(1, 19), n_mu=strategies.integers(2, 12),
           rank=strategies.integers(1, 6), band=strategies.integers(1, 4),
           log_eps=strategies.floats(-4.0, 1.0),
           log_dt=strategies.floats(-4.0, 0.0),
           seed=strategies.integers(0, 2**32 - 1))
    def test_matches_every_row_oracle(self, parity, half, n_mu, rank, band,
                                      log_eps, log_dt, seed):
        eps, dt = 10.0**log_eps, 10.0**log_dt
        n_x = 2 * half + parity
        r = min(rank, n_mu, n_x)
        rng = np.random.default_rng(seed)
        m, sub = self.substep(n_x, n_mu, r, eps, rng)
        # a band of data rows, then tail rows at 1e-20..1e-13 of the band
        n_rows = n_x // 2 + 1
        rows = (rng.standard_normal((n_rows, r))
                + 1j * rng.standard_normal((n_rows, r)))
        tail = rows[band:]
        tail *= (np.abs(rows[:band]).max()
                 * 10.0 ** rng.uniform(-20.0, -13.0, (len(tail), 1))
                 / np.abs(tail).max(axis=1, keepdims=True))
        # the irfft rounds the tail rows; the rule sees the rfft of k0
        k0 = np.fft.irfft(rows, n=n_x, axis=0)

        expm_batch = integrators._expm_batch
        slices = []

        def counted(mats):
            slices.append(len(mats))
            return expm_batch(mats)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(integrators, "_expm_batch", counted)
            out = _propagate_k_structured(m, sub, dt, k0)
        mag = np.abs(np.fft.rfft(k0, axis=0)).max(axis=1)
        live = mag >= np.finfo(float).eps * mag.max()
        # the live rows of nonzero symbol, one slice per distinct scale;
        # the zero symbol takes the closed form, so no batch when it is
        # the only live one
        scales = np.unique(-(dt / eps) * m.diff.d_x_symbol[
            live & (m.diff.d_x_symbol != 0.0)])
        assert slices == ([len(scales)] if len(scales) else [])

        # scipy's expm of every row's generator, no row skipped
        gens = (-(dt / eps) * m.diff.d_x_symbol[:, None, None] * sub.b_mu
                + (dt / eps**2) * (sub.c_mu - np.eye(r)))
        oracle = np.fft.irfft(
            np.einsum("qi,qij->qj", np.fft.rfft(k0, axis=0), sla.expm(gens)),
            n=n_x, axis=0)
        tol = 1e-10 if eps >= 1e-2 else 1e-7
        dropped = np.sqrt(n_rows * r) * np.finfo(float).eps * mag.max()
        assert (np.linalg.norm(out - oracle)
                <= tol * np.linalg.norm(oracle) + dropped)

    @pytest.mark.parametrize("parity", [0, 1])
    @given(half=strategies.integers(1, 19), n_mu=strategies.integers(2, 12),
           band=strategies.integers(1, 4),
           log_eps=strategies.floats(-4.0, 1.0),
           log_t=strategies.floats(-4.0, 0.0),
           seed=strategies.integers(0, 2**32 - 1))
    def test_reference_matches_every_row_oracle(self, parity, half, n_mu,
                                                band, log_eps, log_t, seed):
        # the reference takes the same live rows.  Each of its row flows is
        # a contraction in the w_mu-weighted norm, so a dropped row moves
        # the result by at most sqrt(2) u top there, and all of them by
        # sqrt(2 n_rows) u top; the spatial w_mu-norm is at most the rfft's
        eps, t = 10.0**log_eps, 10.0**log_t
        n_x = 2 * half + parity
        m = build(n_x=n_x, n_mu=n_mu, eps=eps)
        rng = np.random.default_rng(seed)
        n_rows = n_x // 2 + 1
        rows = (rng.standard_normal((n_rows, n_mu))
                + 1j * rng.standard_normal((n_rows, n_mu)))
        tail = rows[band:]
        tail *= (np.abs(rows[:band]).max()
                 * 10.0 ** rng.uniform(-20.0, -13.0, (len(tail), 1))
                 / np.abs(tail).max(axis=1, keepdims=True))
        f0 = np.fft.irfft(rows, n=n_x, axis=0)

        dense_expm = model_module.dense_expm
        calls = []

        def counted(a):
            calls.append(a)
            return dense_expm(a)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model_module, "dense_expm", counted)
            out = model_module.full_flow(m, f0, t)
        mag = np.abs(np.fft.rfft(f0, axis=0)).max(axis=1)
        live = mag >= np.finfo(float).eps * mag.max()
        symbol = m.diff.d_x_symbol
        assert len(calls) == len(np.unique(symbol[live & (symbol != 0.0)]))

        # scipy's expm of every row's generator, no row skipped
        gens = (-(t / eps) * symbol[:, None, None] * np.diag(m.quad.nodes)
                + (t / eps**2) * (oracles.w_mu_matrix(m) - np.eye(n_mu)))
        oracle = np.fft.irfft(
            np.einsum("qi,qij->qj", np.fft.rfft(f0, axis=0), sla.expm(gens)),
            n=n_x, axis=0)
        sq = np.sqrt(m.wmu)
        tol = 1e-10 if eps >= 1e-2 else 1e-7
        dropped = np.sqrt(2 * n_rows) * np.finfo(float).eps * mag.max()
        assert (np.linalg.norm((out - oracle) * sq)
                <= tol * np.linalg.norm(oracle * sq) + dropped)

    def test_full_spectrum_is_bit_identical(self):
        # random rows all carry data, so every row is propagated: the
        # nonzero symbols through the same batch as a flow that skips none,
        # the zero symbols by the closed collision form
        eps, dt, r, n_x = 1e-3, 0.1, 3, 48
        rng = np.random.default_rng(1)
        m, sub = self.substep(n_x, 8, r, eps, rng)
        k0 = rng.standard_normal((n_x, r))
        out = _propagate_k_structured(m, sub, dt, k0)
        zero = m.diff.d_x_symbol == 0.0
        rows = np.fft.rfft(k0, axis=0)
        rows[~zero] = integrators._propagate_modes(
            -(dt / eps) * m.diff.d_x_symbol[~zero], sub.b_mu,
            (dt / eps**2) * (sub.c_mu - np.eye(r)), rows[~zero])
        rows[zero] = model_module.collision_flow(
            dt / eps**2, sub.theta, rows[zero], rows[zero] @ sub.c_mu)
        assert np.array_equal(out, np.fft.irfft(rows, n=n_x, axis=0))

    def test_zero_factor_gives_exact_zeros(self):
        rng = np.random.default_rng(2)
        m, sub = self.substep(48, 8, 3, 1e-3, rng)
        out = _propagate_k_structured(m, sub, 0.1, np.zeros((48, 3)))
        assert out.shape == (48, 3)
        assert not np.any(out)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_nonfinite_factor_raises_without_warning(self, monkeypatch,
                                                      value):
        # the structured K substep of a GAP step is handed a K with one
        # nonfinite entry, through the inner product that forms it
        m = build(n_x=64, n_mu=16, eps=1e-3)
        st, _, _ = from_full(generic_matrix(m), 3, m)
        inner = integrators.weighted_inner

        def poisoned(a, b, w):
            out = inner(a, b, w)
            out[0, 0] = value
            return out

        monkeypatch.setattr(integrators, "weighted_inner", poisoned)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError, match="spatial"):
                gap_step(m, st, 0.1)

    # GAP against the exact flow at a diffusive shape, t = 1, dt = 0.1.
    # Measured at 400 x 40, rank 5, [parabolic, poly_fourier]: every row
    # propagated 3.8e-11, 1.5e-10 at eps = 1e-3 and 1.1e-8, 1.6e-8 at
    # 1e-4; live rows only 1.3e-10, 1.9e-10 and 2.1e-8, 1.7e-8.  The
    # bounds are 10x the worst of both.  A threshold of 1e-6 in place of
    # u read 5.1e-7 and 5.1e-7 on the parabolic start.
    @pytest.mark.parametrize("start", ["parabolic", "poly_fourier"])
    @pytest.mark.parametrize("eps, bound", [(1e-3, 2e-9), (1e-4, 2.2e-7)])
    def test_gap_against_reference(self, start, eps, bound):
        m = build(n_x=400, n_mu=40, eps=eps)
        x, mu = m.grid.points, m.quad.nodes
        if start == "parabolic":
            f0 = np.outer((x - 1.0) ** 2 + 1.0, 1.0 + mu**2)
        else:
            # the seed-0 coefficients of the diffusive-eps benchmark
            f0 = np.ones((400, 40))
            for k, c in enumerate([-0.1, -0.01, 1e-3, 1e-4], start=1):
                f0 += c * np.outer(np.sin(k * np.pi * x), mu**k)
        st, _, _ = from_full(f0, 5, m)
        out, _ = integrate(m, st, "gap", 0.1, 10)
        ref = reference_step(m, f0, 1.0)
        assert rel_err(reconstruct(out), ref, m) <= bound


def dissipative_stack(rng, n, log_norms, complex_):
    """Slices A with A + A^H <= 0, so ||exp(A)||_2 <= 1, at given 1-norms."""
    def draw():
        g = rng.standard_normal((n, n))
        return g + 1j * rng.standard_normal((n, n)) if complex_ else g

    mats = []
    for log_norm in log_norms:
        g, h = draw(), draw()
        a = 0.5 * (g - g.conj().T) - rng.uniform(0.0, 1.0) * h @ h.conj().T
        mats.append(a * (10.0**log_norm / np.abs(a).sum(axis=0).max()))
    return np.array(mats)


def mp_expm(a, dps=40):
    """exp(a) by mpmath at dps digits, rounded to complex128."""
    import mpmath

    with mpmath.workdps(dps):
        e = mpmath.expm(mpmath.matrix(a.tolist()))
        return np.array([[complex(e[i, j]) for j in range(a.shape[1])]
                         for i in range(a.shape[0])])


class TestExpmBatch:
    # _expm_batch scales slice j by 2^-s_j before scipy's Pade step and
    # squares the stack in batched rounds; every slice must still be
    # exp(A_j).  On dissipative slices ||exp(A)|| <= 1, and the kernel and
    # scipy differ by at most 7.4 u max(1, ||A||_1) over 300 random stacks;
    # the bound leaves 60x of room.
    @given(n=strategies.integers(1, 6),
           log_norms=strategies.lists(strategies.floats(-8.0, 8.0),
                                      max_size=6),
           complex_=strategies.booleans(),
           seed=strategies.integers(0, 2**32 - 1))
    def test_matches_scipy_slice_by_slice(self, n, log_norms, complex_, seed):
        # the first two slices pin the stack's 1-norms to span 1e-8..1e8,
        # so the squaring counts s_j differ within one stack
        mats = dissipative_stack(np.random.default_rng(seed), n,
                                 [-8.0, 8.0] + log_norms, complex_)
        out = integrators._expm_batch(mats.copy())
        assert out.dtype == mats.dtype
        for a, e in zip(mats, out):
            err = np.abs(e - sla.expm(a)).max()
            assert err <= 1e-13 * max(1.0, np.abs(a).sum(axis=0).max())

    @pytest.mark.parametrize("flow", ["K", "L"])
    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    def test_stiff_blocks_match_mpmath(self, flow, eps):
        # the generators of the structured flows at dt / eps^2 up to 1e7;
        # scipy and the kernel both reach about 70 u ||A||_1 against the
        # oracle at eps = 1e-4, and the bound is 1e-15 ||A||_1
        dt, r, n_mu = 0.1, 3, 6
        m = build(n_x=16, n_mu=n_mu, eps=eps)
        rng = np.random.default_rng(7)
        sub = assemble_substeps(m, basis_with_constant(16, r, m.wx, rng),
                                basis_with_constant(n_mu, r, m.wmu, rng))
        if flow == "K":
            scale = -(dt / eps) * m.diff.d_x_symbol[[0, 1, 3, 5]]
            b, c = sub.b_mu, (dt / eps**2) * (sub.c_mu - np.eye(r))
        else:
            gam = np.linalg.eigvalsh(0.5j * (sub.a_x - sub.a_x.T))
            scale = (-1j * dt / eps) * gam
            b = np.diag(m.quad.nodes)
            c = (dt / eps**2) * (oracles.w_mu_matrix(m) - np.eye(n_mu))
        mats = scale[:, None, None] * b + c
        out = integrators._expm_batch(mats.copy())
        for a, e in zip(mats, out):
            err = np.abs(e - mp_expm(a)).max()
            assert err <= 1e-15 * max(1.0, np.abs(a).sum(axis=0).max())

    @pytest.mark.parametrize("value", [1e308, np.nan, 1e200])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_nonfinite_stack_raises_without_warning(self, value, dtype):
        mats = np.full((3, 4, 4), value, dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError):
                integrators._expm_batch(mats)


class TestConjugateFolding:
    # the real flip-form L blocks obey exp(M(-a)) = J exp(M(a)) J, so the L
    # flow exponentiates |a_j| once per +-g pair of A_x, and the zero of an
    # odd rank takes the closed form (TestPureCollisionRows): floor(r/2)
    # slices.  Sharing a slice changes no bit against a mode-by-mode
    # flip-form flow through the same kernel.
    @staticmethod
    def scales(m, sub, dt):
        gam = np.linalg.eigh(0.5j * (sub.a_x - sub.a_x.T))[0]
        return (dt / m.eps) * (0.5 * (gam - gam[::-1]))

    @staticmethod
    def mode_by_mode(m, sub, dt, l0, expm_batch):
        """The propagated flip-basis rows, one slice per mode."""
        eps, n_mu = m.eps, m.quad.n_mu
        u = np.linalg.eigh(0.5j * (sub.a_x - sub.a_x.T))[1]
        mu_flip = np.diag(m.quad.nodes)[:, ::-1]
        coll = (dt / eps**2) * (oracles.w_mu_matrix(m) - np.eye(n_mu))
        rows = model_module.to_flip_basis((l0 @ u).T)
        for j, aj in enumerate(TestConjugateFolding.scales(m, sub, dt)):
            e = expm_batch((abs(aj) * mu_flip + coll)[None])[0]
            y = rows[j, ::-1] if aj < 0 else rows[j]
            y = np.stack((y.real, y.imag)) @ e
            y = y[0] + 1j * y[1]
            rows[j] = y[::-1] if aj < 0 else y
        return rows

    @staticmethod
    def counted_flow(monkeypatch, m, sub, dt, l0):
        """The flow, the slice count of each batch, and the flip-basis rows
        before and after propagation."""
        expm_batch = integrators._expm_batch
        # the originals: flip_flow looks the names up in the model module,
        # so the spies must not call them through it
        to_flip_basis = model_module.to_flip_basis
        from_flip_basis = model_module.from_flip_basis
        slices, rows = [], {}

        def counted(mats):
            slices.append(len(mats))
            return expm_batch(mats)

        def to_flip(y):
            rows["in"] = to_flip_basis(y)
            return rows["in"].copy()

        def from_flip(y):
            rows["out"] = y.copy()
            return from_flip_basis(y)

        monkeypatch.setattr(integrators, "_expm_batch", counted)
        monkeypatch.setattr(model_module, "to_flip_basis", to_flip)
        monkeypatch.setattr(model_module, "from_flip_basis", from_flip)
        out = _propagate_l_structured(m, _skew_modes(sub.a_x), dt, l0)
        return out, slices, rows["in"], rows["out"]

    @classmethod
    def assert_nonzero_rows_mode_by_mode(cls, monkeypatch, m, sub, dt, l0):
        expm_batch = integrators._expm_batch
        out, slices, _, rows = cls.counted_flow(monkeypatch, m, sub, dt, l0)
        rank = l0.shape[1]
        assert slices == [rank // 2]
        live = cls.scales(m, sub, dt) != 0.0
        assert np.count_nonzero(live) == 2 * (rank // 2)
        assert np.array_equal(
            rows[live], cls.mode_by_mode(m, sub, dt, l0, expm_batch)[live])
        return out

    @pytest.mark.parametrize("rank", [4, 5])
    def test_exact_pairs_share_a_slice(self, monkeypatch, rank):
        eps, dt, n_mu = 1e-3, 0.1, 8
        m = build(n_x=16, n_mu=n_mu, eps=eps)
        rng = np.random.default_rng(rank)
        sub = assemble_substeps(m, basis_with_constant(16, rank, m.wx, rng),
                                basis_with_constant(n_mu, rank, m.wmu, rng))
        # 2 x 2 rotation blocks, permuted: eigh returns exact +-g pairs
        a_x = np.zeros((rank, rank))
        for k, g in enumerate([0.7, 2.5]):
            a_x[2 * k, 2 * k + 1], a_x[2 * k + 1, 2 * k] = g, -g
        perm = rng.permutation(rank)
        sub = dataclasses.replace(sub, a_x=a_x[perm][:, perm])
        gam, u = np.linalg.eigh(0.5j * (sub.a_x - sub.a_x.T))
        assert np.array_equal(gam[::-1], -gam)

        l0 = rng.standard_normal((n_mu, rank))
        self.assert_nonzero_rows_mode_by_mode(monkeypatch, m, sub, dt, l0)

    @pytest.mark.parametrize("rank", [4, 5, 6, 7])
    def test_roundoff_pairs_share_a_slice(self, monkeypatch, rank):
        # a generic A_x, whose +-g pairs eigh returns equal only to roundoff
        eps, dt, n_mu = 1e-3, 0.1, 8
        m = build(n_x=16, n_mu=n_mu, eps=eps)
        rng = np.random.default_rng(rank)
        sub = assemble_substeps(m, basis_with_constant(16, rank, m.wx, rng),
                                basis_with_constant(n_mu, rank, m.wmu, rng))
        gam = np.linalg.eigh(0.5j * (sub.a_x - sub.a_x.T))[0]
        assert not np.array_equal(gam[::-1], -gam)
        assert np.allclose(gam[::-1], -gam, rtol=0.0, atol=1e-12)

        l0 = rng.standard_normal((n_mu, rank))
        self.assert_nonzero_rows_mode_by_mode(monkeypatch, m, sub, dt, l0)


class TestStatelessModel:
    # the structured L flow keeps no state between substeps: the model is
    # its inputs, and every substep batches the same floor(r/2) slices
    @staticmethod
    def substep(rank, eps=1e-3, n_mu=8):
        m = build(n_x=16, n_mu=n_mu, eps=eps)
        rng = np.random.default_rng(rank)
        sub = assemble_substeps(m, basis_with_constant(16, rank, m.wx, rng),
                                basis_with_constant(n_mu, rank, m.wmu, rng))
        return m, sub, rng.standard_normal((n_mu, rank))

    @pytest.mark.parametrize("rank", [4, 5, 6, 7])
    def test_later_substeps_batch_only_nonzero_scales(self, monkeypatch,
                                                      rank):
        dt = 0.1
        m, sub, l0 = self.substep(rank)
        first = TestConjugateFolding.assert_nonzero_rows_mode_by_mode(
            monkeypatch, m, sub, dt, l0)
        monkeypatch.undo()
        second = TestConjugateFolding.assert_nonzero_rows_mode_by_mode(
            monkeypatch, m, sub, dt, l0)
        assert np.array_equal(first, second)

    def test_steps_equal_steps_on_a_copied_model(self):
        m = build(n_x=64, n_mu=16, eps=1e-3)
        st, _, _ = from_full(generic_matrix(m), 5, m)
        same = copied = st
        for _ in range(5):
            same = gap_step(m, same, 0.1)
            copied = gap_step(dataclasses.replace(m), copied, 0.1)
        for a, b in zip((same.x, same.s, same.v),
                        (copied.x, copied.s, copied.v)):
            assert np.array_equal(a, b)


class TestPureCollisionRows:
    # the rows of the structured L flow whose scale is exactly 0, the zero
    # of an odd rank and every row when A_x = 0, take the closed form
    # W_mu + e^-c (I - W_mu), c = dt/eps^2, of the collision flow, against
    # 40-digit mpmath of exp(c (W_mu - I)).  The data c (W_mu - I) carries
    # rounding of relative size u, and its weights sum to 2 only to
    # roundoff, so the flow is defined to about u max(1, c).  The worst
    # error, in units of u max(1, c) max|y|, was 1.17 for the closed form
    # and 1.65 for the Pade slices it replaces; the bound is 10x that.
    @pytest.mark.parametrize("dt", [1e-3, 0.1])
    @pytest.mark.parametrize("eps", [10.0, 1.0, 0.1, 1e-2, 1e-4])
    @pytest.mark.parametrize("n_mu", [6, 8])
    @pytest.mark.parametrize("a_x", ["odd rank", "zero"])
    def test_zero_rows_match_mpmath(self, monkeypatch, a_x, n_mu, eps, dt):
        rank = 5 if a_x == "odd rank" else 4
        m, sub, l0 = TestStatelessModel.substep(rank, eps=eps, n_mu=n_mu)
        if a_x == "zero":
            sub = dataclasses.replace(sub, a_x=np.zeros((rank, rank)))
        coll = (dt / eps**2) * (oracles.w_mu_matrix(m) - np.eye(n_mu))
        e = mp_expm(coll).real
        out, slices, rows_in, rows_out = TestConjugateFolding.counted_flow(
            monkeypatch, m, sub, dt, l0)
        zero = TestConjugateFolding.scales(m, sub, dt) == 0.0
        assert np.count_nonzero(zero) == (1 if a_x == "odd rank" else rank)
        assert slices == ([rank // 2] if a_x == "odd rank" else [])
        bound = 17.0 * np.finfo(float).eps * max(1.0, dt / eps**2)
        y = rows_in[zero]
        assert (np.abs(rows_out[zero] - y @ e).max()
                <= bound * np.abs(y).max())
        if a_x == "zero":
            # every row is pure collision, so the flow is L -> E^T L
            assert (np.abs(out - e.T @ l0).max()
                    <= bound * np.abs(l0).max())


def spied_mode_flow(monkeypatch):
    """Record the scale and the rows before and after each ``mode_flow``
    call the substeps make, in a list of dicts."""
    seen = []
    mode_flow = integrators.mode_flow

    def spy(scale, rows, *args):
        call = {"scale": scale.copy(), "in": rows.copy()}
        call["out"] = mode_flow(scale, rows, *args).copy()
        seen.append(call)
        return call["out"]

    monkeypatch.setattr(integrators, "mode_flow", spy)
    return seen


def assert_zero_rows_match_mpmath(call, c_mu, c, n_zero):
    """The rows of scale 0 against 40-digit mpmath of exp(c (C_mu - I)).

    The bound of TestPureCollisionRows, times the growth e^-c of a
    backward flow (c < 0).
    """
    zero = call["scale"] == 0.0
    assert np.count_nonzero(zero) == n_zero
    e = mp_expm(c * (c_mu - np.eye(len(c_mu)))).real
    y = call["in"][zero]
    bound = (17.0 * np.finfo(float).eps * max(1.0, abs(c))
             * max(1.0, np.exp(-c)))
    assert np.abs(call["out"][zero] - y @ e).max() <= bound * np.abs(y).max()


class TestCollisionBlockRows:
    # the K flow's rows of D_x symbol 0 (the mean mode, and the Nyquist mode
    # for even n_x) and the S substep's zero mode at odd rank are pure
    # collision under C_mu and take the closed form of TestPureCollisionRows
    # with theta from angular_blocks: 1 under the mass rule when V holds the
    # constant, |V^T w|^2/2 below 1 for a random V.  The worst error, in
    # units of the bound's u max(1, |c|) max|y| e^max(0, -c), was 1.6 over
    # these grids; the bound is 17.
    @staticmethod
    def substep(n_x, n_mu, r, eps, basis, rng):
        m = build(n_x=n_x, n_mu=n_mu, eps=eps)
        v = (basis_with_constant(n_mu, r, m.wmu, rng) if basis == "constant"
             else weighted_mgs(rng.standard_normal((n_mu, r)), m.wmu).q)
        sub = assemble_substeps(m, basis_with_constant(n_x, r, m.wx, rng), v)
        assert (sub.theta == 1.0) == (basis == "constant")
        return m, sub

    @pytest.mark.parametrize("dt", [1e-3, 0.1])
    @pytest.mark.parametrize("eps", [10.0, 1.0, 0.1, 1e-2, 1e-4])
    @pytest.mark.parametrize("basis", ["constant", "random"])
    @pytest.mark.parametrize("n_x", [48, 49])
    def test_k_zero_symbol_rows(self, monkeypatch, n_x, basis, eps, dt):
        rng = np.random.default_rng(n_x)
        m, sub = self.substep(n_x, 8, 3, eps, basis, rng)
        seen = spied_mode_flow(monkeypatch)
        _propagate_k_structured(m, sub, dt, rng.standard_normal((n_x, 3)))
        assert_zero_rows_match_mpmath(seen[0], sub.c_mu, dt / eps**2,
                                      2 - n_x % 2)

    # backward, the flow grows like e^(dt/eps^2); these eps keep it below
    # e^0.4, where the bound still reads roundoff
    @pytest.mark.parametrize("sign, eps", [
        *((1.0, eps) for eps in (10.0, 1.0, 0.1, 1e-2, 1e-4)),
        *((-1.0, eps) for eps in (10.0, 1.0, 0.5))])
    @pytest.mark.parametrize("dt", [1e-3, 0.1])
    @pytest.mark.parametrize("basis", ["constant", "random"])
    @pytest.mark.parametrize("rank", [3, 5])
    def test_s_zero_mode(self, monkeypatch, rank, basis, dt, sign, eps):
        rng = np.random.default_rng(rank)
        m, sub = self.substep(16, 8, rank, eps, basis, rng)
        seen = spied_mode_flow(monkeypatch)
        solve_s(m, sub, dt, rng.standard_normal((rank, rank)), sign, None, 0)
        assert_zero_rows_match_mpmath(seen[0], sub.c_mu, sign * dt / eps**2,
                                      1)


class TestSConjugatePairs:
    # B_mu and C_mu are real, so the S substep's blocks obey
    # exp(dt G(-g)) = conj(exp(dt G(g))): it exponentiates |g| once per +-g
    # pair of A_x, and the zero of an odd rank takes the closed form
    # (TestCollisionBlockRows): floor(r/2) sla.expm calls.  Sharing an
    # exponential changes no bit against a mode-by-mode flow through the
    # same kernel, and the conjugate agrees with the exponential of the
    # block of -g to roundoff.
    @staticmethod
    def counted_flow(monkeypatch, m, sub, dt, s0, sign):
        """The S substep's sla.expm count and its mode_flow call."""
        calls = []

        def counted(a):
            calls.append(a.shape)
            return sla.expm(a)

        monkeypatch.setattr(integrators, "sla",
                            types.SimpleNamespace(expm=counted))
        seen = spied_mode_flow(monkeypatch)
        solve_s(m, sub, dt, s0, sign, None, 0)
        return calls, seen[0]

    @staticmethod
    def assert_pairs_share(monkeypatch, m, sub, dt, s0, sign):
        rank = len(s0)
        calls, call = TestSConjugatePairs.counted_flow(monkeypatch, m, sub,
                                                       dt, s0, sign)
        assert calls == [(rank, rank)] * (rank // 2)
        scale, live = call["scale"], call["scale"] != 0.0
        assert np.count_nonzero(live) == 2 * (rank // 2)
        assert np.array_equal(np.sort(scale), -np.sort(scale)[::-1])
        b = (1j * sign) * sub.b_mu
        coll = (sign * dt / m.eps**2) * (sub.c_mu - np.eye(rank))
        for j in np.flatnonzero(live):
            y = call["in"][j:j + 1].copy()
            mirror = np.conj if scale[j] < 0 else (lambda z: z)
            y = mirror(model_module.expm_rows(
                sla.expm, np.abs(scale[j:j + 1]), b, coll, mirror(y)))
            assert np.array_equal(call["out"][j:j + 1], y)
            direct = call["in"][j] @ sla.expm(scale[j] * b + coll)
            assert (np.abs(call["out"][j] - direct).max()
                    <= 1e-14 * np.abs(direct).max())

    SIGNS = [pytest.param(1.0, 1e-3, id="forward"),
             pytest.param(-1.0, 0.5, id="backward")]

    @pytest.mark.parametrize("sign, eps", SIGNS)
    @pytest.mark.parametrize("rank", [4, 5])
    def test_exact_pairs_share_one_exponential(self, monkeypatch, rank,
                                               sign, eps):
        m, sub, _ = TestStatelessModel.substep(rank, eps=eps)
        rng = np.random.default_rng(rank)
        # 2 x 2 rotation blocks, permuted: eigh returns exact +-g pairs
        a_x = np.zeros((rank, rank))
        for k, g in enumerate([0.7, 2.5]):
            a_x[2 * k, 2 * k + 1], a_x[2 * k + 1, 2 * k] = g, -g
        perm = rng.permutation(rank)
        sub = dataclasses.replace(sub, a_x=a_x[perm][:, perm])
        gam = np.linalg.eigh(0.5j * (sub.a_x - sub.a_x.T))[0]
        assert np.array_equal(gam[::-1], -gam)
        self.assert_pairs_share(monkeypatch, m, sub, 0.1,
                                rng.standard_normal((rank, rank)), sign)

    @pytest.mark.parametrize("sign, eps", SIGNS)
    @pytest.mark.parametrize("rank", [4, 5, 6, 7])
    def test_roundoff_pairs_share_one_exponential(self, monkeypatch, rank,
                                                  sign, eps):
        # a generic A_x, whose +-g pairs eigh returns equal only to roundoff
        m, sub, _ = TestStatelessModel.substep(rank, eps=eps)
        gam = np.linalg.eigh(0.5j * (sub.a_x - sub.a_x.T))[0]
        assert not np.array_equal(gam[::-1], -gam)
        assert np.allclose(gam[::-1], -gam, rtol=0.0, atol=1e-12)
        rng = np.random.default_rng(rank)
        self.assert_pairs_share(monkeypatch, m, sub, 0.1,
                                rng.standard_normal((rank, rank)), sign)


class TestOneRule:
    # the exact flows share one rule for their mode rows: no row of scale
    # exactly 0 reaches an exponential kernel, each PSI and BUG S substep
    # makes floor(r/2) sla.expm calls, and each step decomposes each A_x it
    # reads once, by one eigh and no SVD
    @staticmethod
    def start(eps, rank):
        m = build(n_x=48, n_mu=12, eps=eps)
        st, _, _ = from_full(generic_matrix(m), rank, m)
        return m, st

    @pytest.mark.parametrize("rank", [4, 5])
    @pytest.mark.parametrize("eps", [1e-3, 1.0])
    def test_no_zero_scale_reaches_a_kernel(self, monkeypatch, eps, rank):
        m, st = self.start(eps, rank)
        scales = []
        propagate_modes = integrators._propagate_modes
        expm_rows = model_module.expm_rows

        def batch_spy(scale, *args):
            scales.append(scale)
            return propagate_modes(scale, *args)

        def row_spy(expm, scale, *args):
            scales.append(scale)
            return expm_rows(expm, scale, *args)

        monkeypatch.setattr(integrators, "_propagate_modes", batch_spy)
        monkeypatch.setattr(integrators, "expm_rows", row_spy)
        monkeypatch.setattr(model_module, "expm_rows", row_spy)
        for name, step in ALL_STEPS:
            if name != "psi" or eps == 1.0:
                step(m, st, 0.1)
        reference_step(m, reconstruct(st), 0.1)
        assert scales
        assert all(np.all(s != 0.0) for s in scales)

    @pytest.mark.parametrize("rank", [4, 5, 6])
    @pytest.mark.parametrize("name, eps", [("psi", 1.0), ("bug", 1.0),
                                           ("bug", 1e-3)])
    def test_s_substep_takes_floor_half_rank_expms(self, monkeypatch, name,
                                                   eps, rank):
        m, st = self.start(eps, rank)
        blocks = []

        def counted(a):
            blocks.append(a.ndim)
            return sla.expm(a)

        monkeypatch.setattr(integrators, "sla",
                            types.SimpleNamespace(expm=counted))
        dict(ALL_STEPS)[name](m, st, 0.1)
        # 3-D stacks are the structured L and K routes
        assert blocks.count(2) == rank // 2

    # PSI's backward S substep overflows at eps = 1e-3, so it runs at 1 only
    @pytest.mark.parametrize("name, eps, eigh_calls", [
        ("gap", 1e-3, 1), ("gap", 1.0, 1), ("psi", 1.0, 1), ("bug", 1e-3, 2),
        ("bug", 1.0, 2)])
    def test_one_eigh_per_a_x_and_no_svd(self, monkeypatch, name, eps,
                                         eigh_calls):
        m, st = self.start(eps, 5)
        eigh, calls = np.linalg.eigh, []

        def counted(a):
            calls.append(a.shape)
            return eigh(a)

        def no_svd(*args, **kwargs):
            raise AssertionError("SVD inside a step")

        monkeypatch.setattr(np.linalg, "eigh", counted)
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        dict(ALL_STEPS)[name](m, st, 0.1)
        assert calls == [(5, 5)] * eigh_calls

class TestRealLBlocks:
    # the structured L flow exponentiates the real flip-form blocks
    # M(a) = a diag(mu) J + (dt/eps^2)(W_mu - I), a = (dt/eps) g
    @staticmethod
    def blocks(eps, sign=1.0):
        dt, r, n_mu = 0.1, 3, 6
        m = build(n_x=16, n_mu=n_mu, eps=eps)
        rng = np.random.default_rng(7)
        sub = assemble_substeps(m, basis_with_constant(16, r, m.wx, rng),
                                basis_with_constant(n_mu, r, m.wmu, rng))
        gam = np.linalg.eigvalsh(0.5j * (sub.a_x - sub.a_x.T))
        a = sign * (dt / eps) * np.abs(gam)
        mu_flip = np.diag(m.quad.nodes)[:, ::-1]
        coll = (dt / eps**2) * (oracles.w_mu_matrix(m) - np.eye(n_mu))
        return a[:, None, None] * mu_flip + coll

    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    def test_stiff_blocks_match_mpmath(self, eps):
        # the bound of TestExpmBatch::test_stiff_blocks_match_mpmath
        mats = self.blocks(eps)
        assert mats.dtype == float
        out = integrators._expm_batch(mats.copy())
        for a, e in zip(mats, out):
            err = np.abs(e - mp_expm(a)).max()
            assert err <= 1e-15 * max(1.0, np.abs(a).sum(axis=0).max())

    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    def test_negative_scale_is_the_flipped_block(self, eps):
        # exp(M(-a)) = J exp(M(a)) J, with J M(a) J = M(-a) exactly
        pos, neg = self.blocks(eps), self.blocks(eps, sign=-1.0)
        assert np.array_equal(pos[:, ::-1, ::-1], neg)
        e_pos = integrators._expm_batch(pos.copy())
        e_neg = integrators._expm_batch(neg.copy())
        for a, ep, en in zip(pos, e_pos, e_neg):
            err = np.abs(ep[::-1, ::-1] - en).max()
            assert err <= 1e-15 * max(1.0, np.abs(a).sum(axis=0).max())

    @pytest.mark.parametrize("name", ["gap", "psi", "bug"])
    def test_nonfinite_factor_raises_without_warning(self, name):
        # S[0, 0] = inf makes L = V S^T nonfinite on the exact L route;
        # the eigenbasis change L U would turn it into NaNs with a warning
        m = build(n_x=64, n_mu=16, eps=1e-3)
        st, _, _ = from_full(generic_matrix(m), 3, m)
        st.s[0, 0] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError, match="angular"):
                integrate(m, st, name, 0.1, 1)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_nonfinite_flow_output_raises(self, value):
        # the weighted QR that every flow output goes to checks it, in both
        # of its rank rules, before its Householder QR and without a warning
        l1 = np.ones((6, 3))
        l1[2, 1] = value
        for whole_factor in (False, True):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericalFailureError, match="not finite"):
                    weighted_mgs(l1, np.ones(6), whole_factor=whole_factor)


class TestRankDecision:
    # the diffusive L flow collapses the angular columns, and which of them
    # the weighted QR keeps must not be decided by roundoff: a relative
    # perturbation of 1e-12 in every L propagator must leave GAP's error
    # against the exact flow within 10x of the clean run.  With the
    # per-column decision alone (complex blocks) it rose from 1.4e-8 to
    # 3.2e-5..1.1e-4; with the real blocks and no rank decision the clean
    # run itself read 1.2e-5.  Measured here: clean 1.6e-8, noisy
    # 2.8e-10..1.6e-8.
    def test_noisy_l_propagators_keep_the_error(self, monkeypatch):
        eps, dt, n_steps, n_mu = 1e-4, 0.1, 3, 16
        m = build(n_x=64, n_mu=n_mu, eps=eps)
        x, mu = m.grid.points, m.quad.nodes
        coeffs = [1.0, -0.1, -0.01, 1e-3, 1e-4]
        f0 = coeffs[0] * np.ones((64, n_mu))
        for k, c in enumerate(coeffs[1:], start=1):
            f0 += c * np.outer(np.sin(k * np.pi * x), mu**k)
        st, _, _ = from_full(f0, 5, m)
        ref = reference_step(m, f0, n_steps * dt)
        expm_batch = integrators._expm_batch

        def gap_error(noise_seed):
            rng = np.random.default_rng(noise_seed)

            def noisy(mats):
                out = expm_batch(mats)
                if out.shape[-1] == n_mu and noise_seed is not None:
                    out = out + (1e-12 * np.abs(out).max()
                                 * rng.standard_normal(out.shape))
                return out

            monkeypatch.setattr(integrators, "_expm_batch", noisy)
            # the noise reaches the batched slices; the pure-collision
            # rows take the closed form
            out, _ = integrate(dataclasses.replace(m), st, "gap", dt,
                               n_steps)
            return rel_err(reconstruct(out), ref, m)

        clean = gap_error(None)
        assert clean <= 1e-7
        noisy_errors = [gap_error(seed) for seed in range(6)]
        assert max(noisy_errors) <= 10.0 * clean, (clean, noisy_errors)


class TestWholeFactorRule:
    # on the structured L route the weighted QR judges each column against
    # the largest one, in its own QR.  On real flow outputs that decides as
    # the column-by-column rule of oracles.drop_roundoff_columns followed by
    # the per-column QR: the same columns are replaced, from the same
    # Legendre candidates in the same order, so q is bit-identical.
    @staticmethod
    def l_substep_qrs(monkeypatch, n_mu, run):
        """Call run() with the steps' weighted QR spied on.

        Returns (input, ladder, result) of each QR of an angular factor.
        """
        seen = []

        def spy(a, w, ladder=None, **kwargs):
            res = weighted_mgs(a, w, ladder=ladder, **kwargs)
            if a.shape[0] == n_mu:
                seen.append((a.copy(), ladder, res))
            return res

        monkeypatch.setattr(integrators, "weighted_mgs", spy)
        run()
        monkeypatch.undo()
        return seen

    @staticmethod
    def assert_oracle_decides_alike(m, seen):
        for out, ladder, res in seen:
            ref = weighted_mgs(oracles.drop_roundoff_columns(out, m.wmu),
                               m.wmu, ladder=ladder)
            assert res.replaced_columns == ref.replaced_columns
            assert np.array_equal(res.q, ref.q)

    @pytest.mark.parametrize("eps", [1e-3, 1e-4])
    @pytest.mark.parametrize("rank", [4, 5, 6, 7])
    @pytest.mark.parametrize("pairs", ["exact", "roundoff"])
    def test_substeps_match_the_column_by_column_rule(self, monkeypatch,
                                                     pairs, rank, eps):
        # the setups of TestConjugateFolding and TestStatelessModel, two
        # substeps each.  Every case but
        # exact pairs at rank 4, eps = 1e-3 replaces one to four columns.
        dt, n_mu = 0.1, 8
        m, sub, l0 = TestStatelessModel.substep(rank, eps=eps, n_mu=n_mu)
        if pairs == "exact":
            a_x = np.zeros((rank, rank))
            for k, g in enumerate([0.7, 2.5, 1.3][:rank // 2]):
                a_x[2 * k, 2 * k + 1], a_x[2 * k + 1, 2 * k] = g, -g
            sub = dataclasses.replace(sub, a_x=a_x)
        trace = []

        def run():
            for _ in range(2):
                integrators._factor_substep(m, sub, _skew_modes(sub.a_x), dt,
                                            "L", l0, trace, 0)

        seen = self.l_substep_qrs(monkeypatch, n_mu, run)
        assert [t.route for t in trace] == ["structured"] * 2
        assert len(seen) == 2
        self.assert_oracle_decides_alike(m, seen)

    @pytest.mark.parametrize("noise_seed", [None, 0, 1])
    def test_gap_steps_match_the_column_by_column_rule(self, monkeypatch,
                                                      noise_seed):
        # the setup of TestRankDecision, clean and with 1e-12 noise on
        # every L propagator
        eps, dt, n_mu = 1e-4, 0.1, 16
        m = build(n_x=64, n_mu=n_mu, eps=eps)
        x, mu = m.grid.points, m.quad.nodes
        f0 = np.ones((64, n_mu))
        for k, c in enumerate([-0.1, -0.01, 1e-3, 1e-4], start=1):
            f0 += c * np.outer(np.sin(k * np.pi * x), mu**k)
        st, _, _ = from_full(f0, 5, m)
        expm_batch = integrators._expm_batch
        rng = np.random.default_rng(noise_seed)

        def noisy(mats):
            out = expm_batch(mats)
            if out.shape[-1] == n_mu and noise_seed is not None:
                out = out + (1e-12 * np.abs(out).max()
                             * rng.standard_normal(out.shape))
            return out

        def run():
            monkeypatch.setattr(integrators, "_expm_batch", noisy)
            _, trace = integrate(m, st, "gap", dt, 3, debug=True)
            assert all(t.route == "structured" for t in trace)

        seen = self.l_substep_qrs(monkeypatch, n_mu, run)
        assert len(seen) == 3
        assert all(res.replaced_columns for _, _, res in seen)
        self.assert_oracle_decides_alike(m, seen)
