import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given
from hypothesis import strategies

from rte_lowrank import integrators, wlinalg
from rte_lowrank.exceptions import (
    DegenerateStateError,
    NumericalFailureError,
    SizeCapError,
)
from rte_lowrank.grids import build_diff_matrices, gauss_legendre, uniform_grid
from rte_lowrank.integrators import (
    _STRUCTURED_THRESHOLD,
    StepConfig,
    _fourier_ladder,
    _legendre_ladder,
    _norm_bound,
    _propagate_k_structured,
    _propagate_l_structured,
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
    full_operator,
    full_rhs,
    make_model,
    operator_K,
    operator_L,
)
from rte_lowrank.state import (
    from_full,
    orthonormality_defects,
    reconstruct,
)
from rte_lowrank.wlinalg import (
    DENSE_EXPM_LIMIT,
    expmv,
    frob_norm_weighted,
    unvec,
    vec,
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
        st, _ = from_full(generic_matrix(m), 3, m.grid, m.quad)
        out = step(m, st, StepConfig(dt=1e-12))
        assert rel_err(reconstruct(out), reconstruct(st), m) <= 1e-9

    @pytest.mark.parametrize("name,step", ALL_STEPS)
    @pytest.mark.parametrize("eps", [1.0, 1e-2])
    def test_orthonormality_after_step(self, name, step, eps):
        if name == "psi" and eps < 1:
            pytest.skip("backward substep diverges for small eps")
        m = build(eps=eps)
        st, _ = from_full(generic_matrix(m), 4, m.grid, m.quad)
        out = step(m, st, StepConfig(dt=0.05))
        assert max(orthonormality_defects(out, m.grid, m.quad)) <= 1e-10

    def test_integrate_one_step_equals_direct_call(self):
        m = build()
        st, _ = from_full(generic_matrix(m), 3, m.grid, m.quad)
        cfg = StepConfig(dt=0.02)
        direct = gap_step(m, st, cfg)
        via, _ = integrate(m, st, "gap", cfg, 1)
        assert np.array_equal(reconstruct(direct), reconstruct(via))

    def test_unknown_scheme(self):
        m = build()
        st, _ = from_full(generic_matrix(m), 2, m.grid, m.quad)
        with pytest.raises(ValueError):
            integrate(m, st, "rk4", StepConfig(dt=0.1), 1)

    def test_degenerate_state_detected(self):
        m = build()
        st, _ = from_full(generic_matrix(m), 3, m.grid, m.quad)
        st.s = np.zeros_like(st.s)
        with pytest.raises(DegenerateStateError):
            gap_step(m, st, StepConfig(dt=0.1))

    def test_step_config_validation(self):
        with pytest.raises(ValueError):
            StepConfig(dt=0.0)
        with pytest.raises(ValueError):
            StepConfig(dt=0.1, expmv_tol=0.5)


class TestOracleEquivalence:
    def test_full_rank_matches_reference(self):
        # full angular rank makes the co-range projection exact
        m = build(n_x=16, n_mu=8)
        f0 = 1.0 + 0.3 * np.outer(np.sin(np.pi * m.grid.points), m.quad.nodes)
        st, _ = from_full(f0, 8, m.grid, m.quad)
        cfg = StepConfig(dt=1e-3)
        ref = reference_step(m, f0, cfg)
        for name, step in ALL_STEPS:
            out = step(m, st, cfg)
            assert rel_err(reconstruct(out), ref, m) <= 1e-5, name

    def test_diffusive_single_step_matches_limit(self):
        # one large step at eps = 1e-6 lands on the discrete diffusion limit
        m = build(n_x=200, n_mu=16, eps=1e-6)
        rho0 = (4.0 / 3.0) * ((m.grid.points - 1.0) ** 2 + 1.0)
        f0 = np.outer(rho0, np.ones(16))
        st, _ = from_full(f0, 2, m.grid, m.quad)
        out = gap_step(m, st, StepConfig(dt=0.1))
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
            st, _ = from_full(f0, 1, m.grid, m.quad)
            cfg = StepConfig(dt=0.05)
            a = reconstruct(gap_step(m, st, cfg))
            b = reconstruct(bug_step(m, st, cfg))
            assert frob_norm_weighted(a - b, m.wx, m.wmu) <= \
                1e-10 * frob_norm_weighted(a, m.wx, m.wmu)

    def test_structured_and_expmv_routes_agree(self, monkeypatch):
        m = build(n_x=48, n_mu=12, eps=0.05)
        st, _ = from_full(generic_matrix(m), 4, m.grid, m.quad)
        monkeypatch.setattr(integrators, "_STRUCTURED_THRESHOLD", 0.0)
        out_s = gap_step(m, st, StepConfig(dt=0.02))
        monkeypatch.setattr(integrators, "_STRUCTURED_THRESHOLD", np.inf)
        out_e = gap_step(m, st, StepConfig(dt=0.02, expmv_tol=1e-12))
        assert rel_err(reconstruct(out_s), reconstruct(out_e), m) <= 1e-9


def basis_with_constant(n, r, w, rng):
    """w-orthonormal n x r basis whose first column is constant."""
    cols = np.column_stack([np.ones(n), rng.standard_normal((n, r - 1))])
    return weighted_mgs(cols, w).q


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
    # operator, structured flow, and the row count of the propagated factor
    FLOWS = {
        "K": (operator_K, _propagate_k_structured, lambda m: m.grid.n_x),
        "L": (operator_L, _propagate_l_structured, lambda m: m.quad.n_mu),
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
        operator, propagate, rows = self.FLOWS[flow]
        y0 = rng.standard_normal((rows(m), r))
        oracle = unvec(sla.expm(dt * operator(m, sub).matrix.toarray())
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
        operator = operator_L if factor == "L" else operator_K
        exact = np.linalg.norm(dt * operator(m, sub).matrix.toarray(), 2)
        assert dt * _norm_bound(m, sub, factor) >= exact

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
        st, _ = from_full(generic_matrix(m), 4, m.grid, m.quad)
        for _, step in ALL_STEPS:
            step(m, st, StepConfig(dt=0.02))
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
        # the route _solve_substep takes while dt times the bound is at most
        # the threshold: expmv with its segments sized by that bound
        eps, dt = 10.0**log_eps, 10.0**log_dt
        m = build(n_x=2 * half + parity, n_mu=n_mu, eps=eps)
        r = min(rank, n_mu, m.grid.n_x)
        rng = np.random.default_rng(seed)
        x = basis_with_constant(m.grid.n_x, r, m.wx, rng)
        v = basis_with_constant(n_mu, r, m.wmu, rng)
        sub = assemble_substeps(m, x, v)
        bound = _norm_bound(m, sub, factor)
        assume(dt * bound <= _STRUCTURED_THRESHOLD)
        op = (operator_L if factor == "L" else operator_K)(m, sub)
        y0 = vec(rng.standard_normal((n_mu if factor == "L" else m.grid.n_x,
                                      r)))
        oracle = sla.expm(dt * op.matrix.toarray()) @ y0
        out = expmv(op, dt, y0, 1e-10, norm=bound)
        # the requested tolerance; the worst of 3400 scanned cases was 5.7e-12
        assert np.linalg.norm(out - oracle) <= 1e-10 * np.linalg.norm(oracle)


class TestSSubstep:
    @staticmethod
    def galerkin_generator(m, sub, x):
        """G(S) = X^T diag(dx) unvec(K-apply(vec(X S))), column by column.

        Built from the K operator's action, not from a Kronecker formula, so
        a transposed factor in the substep's own generator shows.
        """
        r = x.shape[1]
        op = operator_K(m, sub)
        gen = np.empty((r * r, r * r))
        for j in range(r * r):
            k_dot = unvec(op.apply(vec(x @ unvec(np.eye(r * r)[j], (r, r)))),
                          (m.grid.n_x, r))
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
        # overflows or loses every digit to cancellation
        assume(sign > 0 or dt / eps**2 <= 30.0)
        m = build(n_x=n_x, n_mu=n_mu, eps=eps)
        r = min(rank, n_mu)
        rng = np.random.default_rng(seed)
        x = basis_with_constant(n_x, r, m.wx, rng)
        v = basis_with_constant(n_mu, r, m.wmu, rng)
        sub = assemble_substeps(m, x, v)
        s0 = rng.standard_normal((r, r))
        gen = sign * self.galerkin_generator(m, sub, x)
        oracle = sla.expm(dt * gen) @ vec(s0)
        out = _solve_s_substep(m, sub, StepConfig(dt), s0, sign, "test")
        assert (np.linalg.norm(vec(out) - oracle)
                <= 1e-10 * np.linalg.norm(oracle))


class TestRegimeGrid:
    # every cell ends finite or raises the documented error; the one
    # expected divergence is PSI's backward substep once dt/eps^2 is large
    @pytest.mark.parametrize("dt", [1e-3, 0.1])
    @pytest.mark.parametrize("eps", [10.0, 0.1, 1e-2, 1e-4])
    @pytest.mark.parametrize("scheme", ["gap", "psi", "bug"])
    def test_finite_or_documented_failure(self, scheme, eps, dt):
        m = build(n_x=32, n_mu=8, eps=eps)
        st, _ = from_full(generic_matrix(m), 3, m.grid, m.quad)
        stiffness = dt / eps**2
        assert stiffness <= 100 or stiffness >= 1e3
        if scheme == "psi" and stiffness >= 1e3:
            with pytest.raises(NumericalFailureError):
                integrate(m, st, scheme, StepConfig(dt=dt), 2)
            return
        out, _ = integrate(m, st, scheme, StepConfig(dt=dt), 2)
        assert np.all(np.isfinite(reconstruct(out)))


class TestPsiInstability:
    def test_backward_substep_overflow_reports_hint(self):
        m = build(n_x=64, n_mu=16, eps=1e-3)
        st, _ = from_full(generic_matrix(m), 4, m.grid, m.quad)
        with pytest.raises(NumericalFailureError) as err:
            psi_step(m, st, StepConfig(dt=0.1))
        assert "backward" in str(err.value)

    def test_backward_substep_amplifies_at_moderate_eps(self):
        m = build(n_x=64, n_mu=16, eps=0.05)
        st, _ = from_full(generic_matrix(m), 4, m.grid, m.quad)
        trace = []
        psi_step(m, st, StepConfig(dt=0.1, debug=True), trace=trace)
        s_rec = [t for t in trace if t.substep == "S"][0]
        assert s_rec.post_norm > s_rec.pre_norm


class TestGapProperties:
    @pytest.mark.parametrize("eps", [1.0, 1e-2, 1e-4])
    def test_weighted_norm_non_increasing(self, eps):
        m = build(n_x=64, n_mu=16, eps=eps)
        st, _ = from_full(generic_matrix(m), 4, m.grid, m.quad)
        cfg = StepConfig(dt=0.1)
        prev = float(np.linalg.norm(st.s))
        for _ in range(5):
            st = gap_step(m, st, cfg)
            cur = float(np.linalg.norm(st.s))
            assert cur <= prev * (1.0 + 10 * cfg.expmv_tol)
            prev = cur

    def test_first_order_convergence_downscaled(self):
        # fitted slope against the dense reference on a reduced grid
        m = build(n_x=100, n_mu=32)
        x, mu = m.grid.points, m.quad.nodes
        f0 = np.ones((100, 32))
        for k in range(1, 11):
            f0 += 10.0 ** (-k) * np.outer(np.sin(k * np.pi * x), mu**k)
        ref, _ = integrate(m, f0, "reference", StepConfig(dt=1.0), 1)
        sig = np.linalg.svd(np.sqrt(m.wx)[:, None] * ref
                            * np.sqrt(m.wmu)[None, :], compute_uv=False)
        floor = 10.0 * sig[10] / frob_norm_weighted(ref, m.wx, m.wmu)
        dts, errs = [], []
        for j in (3, 5, 7, 9):
            dt = 0.1 / 2**j
            st, _ = from_full(f0, 10, m.grid, m.quad)
            out, _ = integrate(m, st, "gap", StepConfig(dt=dt), round(1.0 / dt))
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
            st, _ = from_full(f0, 4, m.grid, m.quad)
            out = gap_step(m, st, StepConfig(dt=0.1))
            vals = []
            for g in (np.ones(16), m.quad.nodes.astype(float)):
                proj = out.v @ (out.v.T @ (m.wmu * g))
                vals.append(weighted_norm(g - proj, m.wmu)
                            / weighted_norm(g, m.wmu))
            resid[eps] = vals
        for idx in (0, 1):
            assert resid[1e-2][idx] <= 0.5 * resid[1e-1][idx]
            assert resid[1e-3][idx] <= 0.5 * resid[1e-2][idx]

    def test_debug_trace_records_substeps(self):
        m = build()
        st, _ = from_full(generic_matrix(m), 3, m.grid, m.quad)
        out, trace = integrate(m, st, "gap", StepConfig(dt=0.05, debug=True), 2)
        assert [t.substep for t in trace] == ["L", "K", "L", "K"]
        assert all(np.isfinite(t.pre_norm) and np.isfinite(t.post_norm)
                   for t in trace)
        assert all(t.orth_defect <= 1e-10 for t in trace
                   if t.orth_defect is not None)
        assert any(t.orth_defect is not None for t in trace)

    def test_deficient_columns_reported_in_diffusive_limit(self):
        # at eps = 1e-4 most spatial columns collapse; each collapsed column
        # must be reported and replaced, leaving S with a nonnegative diagonal
        m = build(n_x=64, n_mu=16, eps=1e-4)
        x, mu = m.grid.points, m.quad.nodes
        coeffs = [1.0, -0.1, -0.01, 1e-3, 1e-4]
        f0 = coeffs[0] * np.ones((64, 16))
        for k, c in enumerate(coeffs[1:], start=1):
            f0 += c * np.outer(np.sin(k * np.pi * x), mu**k)
        st, _ = from_full(f0, 5, m.grid, m.quad)
        out, trace = integrate(m, st, "gap", StepConfig(dt=0.1, debug=True),
                               3)
        assert any(t.replaced_columns for t in trace)
        assert np.all(np.diag(out.s) >= 0.0)


class TestReference:
    def test_mass_conserved(self):
        m = build(n_x=48, n_mu=12, eps=0.5)
        f0 = generic_matrix(m)
        cfg = StepConfig(dt=0.2)
        f1 = reference_step(m, f0, cfg)
        m0 = m.grid.dx * np.sum(f0 @ m.wmu)
        m1 = m.grid.dx * np.sum(f1 @ m.wmu)
        assert abs(m1 - m0) <= 1e-10 * abs(m0)

    def test_weighted_norm_non_increasing(self):
        m = build(n_x=48, n_mu=12, eps=0.5)
        f0 = generic_matrix(m)
        f1 = reference_step(m, f0, StepConfig(dt=0.2))
        n0 = frob_norm_weighted(f0, m.wx, m.wmu)
        n1 = frob_norm_weighted(f1, m.wx, m.wmu)
        assert n1 <= n0 * (1.0 + 1e-10)

    @pytest.mark.parametrize("n_x, n_mu", [(32, 8), (64, 16)])
    def test_diffusive_reference_matches_limit(self, n_x, n_mu):
        # continuous-level AP: the full solve approaches the diffusion limit
        m = build(n_x=n_x, n_mu=n_mu, eps=1e-4)
        rho0 = 1.0 + 0.5 * np.sin(np.pi * m.grid.points)
        f0 = np.outer(rho0, np.ones(n_mu))
        out, _ = integrate(m, f0, "reference", StepConfig(dt=1.0), 1)
        rho = density(m, out)
        rho_lim = diffusion_limit_density(m, density(m, f0), 1.0)
        assert weighted_norm(rho - rho_lim, m.wx) <= \
            1e-3 * weighted_norm(rho_lim, m.wx)

    def test_coalesced_equals_stepped(self):
        m = build(n_x=32, n_mu=8, eps=0.8)
        f0 = generic_matrix(m)
        cfg = StepConfig(dt=0.1)
        whole, _ = integrate(m, f0, "reference", cfg, 10)
        stepped = f0
        for _ in range(10):
            stepped = reference_step(m, stepped, cfg)
        assert rel_err(whole, stepped, m) <= 10 * cfg.expmv_tol

    def test_size_cap(self):
        m = build(n_x=64, n_mu=8)
        with pytest.raises(SizeCapError):
            reference_step(m, np.ones((64, 8)), StepConfig(dt=0.1),
                           size_cap=100)

    def test_n_mu_above_dense_limit_rejected(self, monkeypatch):
        from rte_lowrank import model as model_module

        def no_expm(a):
            raise AssertionError("an exponential was computed")

        monkeypatch.setattr(model_module, "dense_expm", no_expm)
        n_mu = DENSE_EXPM_LIMIT + 1
        m = build(n_x=4, n_mu=n_mu)
        with pytest.raises(SizeCapError) as err:
            reference_step(m, np.ones((4, n_mu)), StepConfig(dt=0.1))
        assert str(DENSE_EXPM_LIMIT) in str(err.value)

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
        oracle = unvec(sla.expm(t * full_operator(m).matrix.toarray())
                       @ vec(f0), f0.shape)
        out = reference_step(m, f0, StepConfig(dt=t))
        err = np.linalg.norm(out - oracle) / np.linalg.norm(oracle)
        assert err <= (1e-10 if eps >= 1e-2 else 1e-7)
