import dataclasses
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from oracles import unvec, vec
from rte_lowrank.exceptions import OrthonormalityError
from rte_lowrank.grids import build_diff_matrices, gauss_legendre, uniform_grid
from rte_lowrank.integrators import gap_step
from rte_lowrank.model import (
    EPS_MIN,
    RteModel,
    SubstepMatrices,
    angular_blocks,
    assemble_substeps,
    density,
    diffusion_limit_density,
    expm_rows,
    full_operator,
    full_rhs,
    make_model,
    normal_component,
    operator_K,
    operator_L,
    spatial_block,
)
from rte_lowrank.state import from_full
from rte_lowrank.wlinalg import (
    expmv,
    frob_norm_weighted,
    weighted_inner,
    weighted_mgs,
    weighted_norm,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def build(n_x=32, n_mu=8, eps=1.0, a=0.0, b=2.0):
    grid = uniform_grid(a, b, n_x)
    quad = gauss_legendre(n_mu)
    diff = build_diff_matrices(grid)
    return make_model(grid, quad, diff, eps)


def random_orthobases(model, r, seed):
    rng = np.random.default_rng(seed)
    x = weighted_mgs(rng.standard_normal((model.grid.n_x, r)), model.wx).q
    v = weighted_mgs(rng.standard_normal((model.quad.n_mu, r)), model.wmu).q
    return x, v


class TestModelBasics:
    def test_model_is_its_inputs(self):
        # nothing derived is stored: the flows build what they need
        assert [f.name for f in dataclasses.fields(RteModel)] == [
            "grid", "quad", "diff", "eps"]

    def test_eps_range(self):
        grid = uniform_grid(0, 2, 8)
        quad = gauss_legendre(4)
        diff = build_diff_matrices(grid)
        with pytest.raises(ValueError):
            make_model(grid, quad, diff, 0.0)
        with pytest.raises(ValueError):
            make_model(grid, quad, diff, 11.0)

    def test_eps_floor_keeps_the_collision_scale_finite(self):
        # EPS_MIN is the smallest eps whose square is a normal double
        tiny = np.finfo(float).tiny
        assert EPS_MIN**2 >= tiny
        assert np.nextafter(EPS_MIN, 0.0)**2 < tiny
        assert np.isfinite(1.0 / EPS_MIN**2)
        grid = uniform_grid(0, 2, 8)
        quad = gauss_legendre(4)
        diff = build_diff_matrices(grid)
        assert make_model(grid, quad, diff, EPS_MIN).eps == EPS_MIN
        for eps in (np.nextafter(EPS_MIN, 0.0), 1e-160, 1e-300):
            with pytest.raises(ValueError):
                make_model(grid, quad, diff, eps)


class TestExpmRows:
    # the per-row kernel of the reference and the S substep: one exponential
    # per distinct scale, and each row rounds as it would alone
    @pytest.mark.parametrize("unit", [1.0, 1j], ids=["real", "imaginary"])
    def test_one_exponential_per_distinct_scale(self, unit):
        rng = np.random.default_rng(0)
        b, c = rng.standard_normal((2, 5, 5))
        scale = unit * np.array([0.5, 1.5, 0.5, -2.0, 1.5, 0.5])
        y = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        calls = []

        def counting_expm(a):
            calls.append(a)
            return sla.expm(a)

        out = expm_rows(counting_expm, scale, b, c, y.copy())
        assert len(calls) == 3
        for i in range(len(scale)):
            assert np.array_equal(out[i], y[i] @ sla.expm(scale[i] * b + c))


class TestFullRhs:
    def test_constant_gives_zero(self):
        m = build(eps=0.1)
        f = 3.0 * np.ones((32, 8))
        scale = frob_norm_weighted(f, m.wx, m.wmu)
        assert np.abs(full_rhs(m, f)).max() <= 1e-13 * scale / m.eps**2

    def test_angularly_constant_kills_collision(self):
        m = build(eps=0.5)
        rho = np.sin(np.pi * m.grid.points) + 2.0
        f = np.outer(rho, np.ones(8))
        out = full_rhs(m, f)
        d_x = oracles.d_x_matrix(m.grid)
        transport = -(d_x @ f) * m.quad.nodes[None, :] / m.eps
        assert np.abs(out - transport).max() <= 1e-13 * np.abs(f).max() / m.eps**2

    def test_odd_angular_profile_collision(self):
        # f = g(x) mu has zero angular mean, so the collision term is -f/eps^2
        m = build(eps=0.3)
        g = np.cos(np.pi * m.grid.points)
        f = np.outer(g, m.quad.nodes)
        out = full_rhs(m, f)
        d_x = oracles.d_x_matrix(m.grid)
        transport = -(d_x @ f) * m.quad.nodes[None, :] / m.eps
        collision = out - transport
        assert np.abs(collision + f / m.eps**2).max() <= \
            1e-13 * np.abs(f / m.eps**2).max()

    def test_shape_mismatch(self):
        m = build()
        with pytest.raises(ValueError):
            full_rhs(m, np.ones((8, 32)))


class TestFullOperator:
    def test_apply_matches_matrix_form(self):
        m = build(eps=0.7)
        op = full_operator(m)
        rng = np.random.default_rng(0)
        for _ in range(10):
            f = rng.standard_normal((32, 8))
            lhs = vec(op.apply(f))
            rhs = vec(full_rhs(m, f))
            assert np.abs(lhs - rhs).max() <= 1e-13 * np.abs(rhs).max()

    def test_sparse_matrix_matches_apply(self):
        m = build(eps=0.7)
        op = full_operator(m)
        rng = np.random.default_rng(1)
        u = rng.standard_normal(np.prod(op.shape))
        lhs = oracles.full_operator_matrix(m) @ u
        rhs = vec(op.apply(unvec(u, op.shape)))
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()

    def test_mass_functional_annihilated(self):
        m = build(eps=0.2)
        rng = np.random.default_rng(2)
        for _ in range(5):
            f = rng.standard_normal((32, 8))
            out = full_operator(m).apply(f)
            mass_rate = m.grid.dx * np.sum(out @ m.wmu)
            scale = frob_norm_weighted(f, m.wx, m.wmu)
            assert abs(mass_rate) <= 1e-12 * scale / m.eps

    def test_operator_linearity(self):
        m = build()
        op = full_operator(m)
        rng = np.random.default_rng(3)
        u, v = rng.standard_normal((2, *op.shape))
        lhs = op.apply(1.7 * u - 0.3 * v)
        rhs = 1.7 * op.apply(u) - 0.3 * op.apply(v)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


class TestAssembleSubsteps:
    def test_single_constant_angular_column(self):
        m = build(n_mu=16)
        v = np.ones((16, 1)) / np.sqrt(2.0)
        x = np.ones((32, 1)) / np.sqrt(2.0)  # ||1||_dx^2 = n_x dx = 2
        sub = assemble_substeps(m, x, v)
        assert abs(sub.b_mu[0, 0]) <= 1e-14
        assert sub.c_mu[0, 0] == pytest.approx(1.0, abs=1e-13)
        assert abs(sub.a_x[0, 0]) <= 1e-14

    def test_diffusion_coefficient_entry(self):
        # v-basis (1/sqrt(2), sqrt(3/2) mu) gives the 1/sqrt(3) coupling
        m = build(n_mu=16)
        v = np.column_stack([
            np.ones(16) / np.sqrt(2.0),
            np.sqrt(1.5) * m.quad.nodes,
        ])
        x, _ = random_orthobases(m, 2, seed=0)
        sub = assemble_substeps(m, x, v)
        expected = np.array([[0.0, 1.0 / np.sqrt(3.0)],
                             [1.0 / np.sqrt(3.0), 0.0]])
        assert np.abs(sub.b_mu - expected).max() <= 1e-12

    def test_non_orthonormal_basis_rejected(self):
        m = build()
        x, v = random_orthobases(m, 3, seed=1)
        with pytest.raises(OrthonormalityError) as err:
            assemble_substeps(m, 2.0 * x, v)
        assert "x_basis" in str(err.value)

    @pytest.mark.parametrize("n_x, n_mu, r", [(7, 3, 1), (32, 8, 3),
                                              (41, 12, 6), (200, 100, 10)])
    def test_block_builders_are_the_assembly(self, n_x, n_mu, r):
        # the steps build their second Galerkin blocks from these builders
        # on bases the weighted QR just returned; they must round as the
        # checked assembly does
        m = build(n_x=n_x, n_mu=n_mu)
        x, v = random_orthobases(m, r, seed=n_x)
        built = SubstepMatrices(spatial_block(m, x), *angular_blocks(m, v))
        sub = assemble_substeps(m, x, v)
        for field in ("a_x", "b_mu", "c_mu", "theta"):
            assert np.array_equal(getattr(built, field), getattr(sub, field))

    @pytest.mark.parametrize("seed", range(20))
    def test_structure_on_random_bases(self, seed):
        m = build(n_x=40, n_mu=12)
        x, v = random_orthobases(m, 4, seed=seed)
        sub = assemble_substeps(m, x, v)
        assert np.abs(sub.a_x + sub.a_x.T).max() <= 1e-12
        assert np.abs(sub.b_mu - sub.b_mu.T).max() <= 1e-13
        c = sub.c_mu
        assert np.abs(c - c.T).max() <= 1e-12
        ev = np.linalg.eigvalsh(c)
        assert ev.min() >= -1e-12
        assert np.sort(ev)[:-1].max() <= 1e-12 * max(ev.max(), 1e-30)
        vw = v.T @ m.wmu
        assert np.trace(c) == pytest.approx(0.5 * np.dot(vw, vw), abs=1e-12)

    @pytest.mark.parametrize("parity", [0, 1])
    @given(half=st.integers(1, 20), n_mu=st.integers(2, 12),
           rank=st.integers(1, 10), grading=st.floats(0.0, 12.0),
           seed=st.integers(0, 2**32 - 1))
    @example(half=1, n_mu=3, rank=2, grading=0.0, seed=0)
    def test_a_x_rounds_as_the_csr_product(self, parity, half, n_mu, rank,
                                           grading, seed):
        # A_x feeds the roundoff-decided column choices of the weighted QR,
        # so its stencil must round exactly as the CSR product D_x X
        m = build(n_x=2 * half + parity, n_mu=n_mu)
        r = min(rank, n_mu, m.grid.n_x)
        rng = np.random.default_rng(seed)
        rows = 10.0 ** (-grading * rng.random((m.grid.n_x, 1)))
        cols = 10.0 ** rng.uniform(-12.0, 2.0, r)
        x = weighted_mgs(rows * rng.standard_normal((m.grid.n_x, r)) * cols,
                         m.wx).q
        v = weighted_mgs(rng.standard_normal((n_mu, r)) * cols, m.wmu).q
        sub = assemble_substeps(m, x, v)
        d_x = oracles.d_x_matrix(m.grid)
        assert np.array_equal(sub.a_x, m.grid.dx * (x.T @ (d_x @ x)))


class TestSubstepOperators:
    def test_l_operator_matches_direct_evaluation(self):
        m = build(eps=0.4)
        x, v = random_orthobases(m, 3, seed=2)
        sub = assemble_substeps(m, x, v)
        op = operator_L(m, sub)
        rng = np.random.default_rng(4)
        l = rng.standard_normal((8, 3))
        direct = (-(m.quad.nodes[:, None] * (l @ sub.a_x.T)) / m.eps
                  + (oracles.w_mu_matrix(m).T @ l - l) / m.eps**2)
        assert np.abs(op.apply(l) - direct).max() <= \
            1e-13 * np.abs(direct).max()
        matrix = oracles.operator_L_matrix(m, sub)
        assert np.abs(unvec(matrix @ vec(l), l.shape) - direct).max() <= \
            1e-12 * np.abs(direct).max()

    def test_l_collision_relaxation_closed_form(self):
        # with a_x = 0 the flow is exp(t (W^T - I)/eps^2), and W^T is a
        # projection, so exp(t(W^T - I)) = W^T + e^{-t}(I - W^T) exactly
        m = build(eps=1.0, n_mu=12)
        r = 2
        sub = SubstepMatrices(np.zeros((r, r)), np.zeros((r, r)), np.eye(r),
                              1.0)
        op = operator_L(m, sub)
        rng = np.random.default_rng(5)
        l = rng.standard_normal((12, r))
        t = 2.5
        norm = np.linalg.norm(oracles.operator_L_matrix(m, sub).toarray(), 2)
        out = expmv(op, t, l, 1e-12, norm)
        wt = oracles.w_mu_matrix(m).T
        oracle = wt @ l + np.exp(-t) * (l - wt @ l)
        assert np.abs(out - oracle).max() <= 1e-10 * np.abs(l).max()

    def test_l_constant_column_no_collision(self):
        m = build(eps=0.2, n_mu=16)
        v = np.ones((16, 1)) / np.sqrt(2.0)
        x = np.ones((32, 1)) / np.sqrt(2.0)
        sub = assemble_substeps(m, x, v)
        op = operator_L(m, sub)
        l = 3.0 * v  # angularly constant column
        out = op.apply(l)
        assert np.abs(out).max() <= 1e-13 / m.eps**2

    def test_k_operator_matches_direct_evaluation(self):
        m = build(eps=0.4)
        x, v = random_orthobases(m, 3, seed=6)
        sub = assemble_substeps(m, x, v)
        op = operator_K(m, sub)
        rng = np.random.default_rng(7)
        k = rng.standard_normal((32, 3))
        direct = (-(oracles.d_x_matrix(m.grid) @ k @ sub.b_mu) / m.eps
                  + (k @ sub.c_mu - k) / m.eps**2)
        assert np.abs(op.apply(k) - direct).max() <= \
            1e-13 * np.abs(direct).max()
        matrix = oracles.operator_K_matrix(m, sub)
        assert np.abs(unvec(matrix @ vec(k), k.shape) - direct).max() <= \
            1e-12 * np.abs(direct).max()

    def test_k_mode_damping_pattern(self):
        # c_mu = diag(1, 0): first column undamped, second damped at 1/eps^2
        m = build(n_mu=16)
        v = np.column_stack([
            np.ones(16) / np.sqrt(2.0),
            np.sqrt(1.5) * m.quad.nodes,
        ])
        x, _ = random_orthobases(m, 2, seed=8)
        sub = assemble_substeps(m, x, v)
        assert np.abs(sub.c_mu - np.diag([1.0, 0.0])).max() <= 1e-12

    def test_k_column_decay_with_zero_transport(self):
        m = build()
        r = 2
        sub = SubstepMatrices(np.zeros((r, r)), np.zeros((r, r)),
                              np.diag([1.0, 0.0]), 1.0)
        op = operator_K(m, sub)
        rng = np.random.default_rng(9)
        k = rng.standard_normal((32, r))
        norm = np.linalg.norm(oracles.operator_K_matrix(m, sub).toarray(), 2)
        out = expmv(op, 25.0, k, 1e-12, norm)
        assert np.abs(out[:, 0] - k[:, 0]).max() <= 1e-10 * np.abs(k).max()
        assert np.abs(out[:, 1]).max() <= 1e-10


class TestApplyMatchesMatrix:
    # the applies run the two-point D_x stencil and the rank-one collision;
    # the oracles are Kronecker products of the CSR D_x and of W_mu
    OPERATORS = {
        "L": (operator_L, oracles.operator_L_matrix),
        "K": (operator_K, oracles.operator_K_matrix),
        "full": (lambda m, sub: full_operator(m),
                 lambda m, sub: oracles.full_operator_matrix(m)),
    }

    @pytest.mark.parametrize("which", ["L", "K", "full"])
    @pytest.mark.parametrize("parity", [0, 1])
    @given(half=st.integers(1, 19), n_mu=st.integers(2, 12),
           rank=st.integers(1, 6), log_eps=st.floats(-4.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    # n_x = 2 and 3, where both stencil neighbours are wraparound rows
    @example(half=1, n_mu=3, rank=2, log_eps=-1.0, seed=0)
    def test_apply_matches_matrix(self, which, parity, half, n_mu, rank,
                                  log_eps, seed):
        m = build(n_x=2 * half + parity, n_mu=n_mu, eps=10.0**log_eps)
        r = min(rank, n_mu, m.grid.n_x)
        x, v = random_orthobases(m, r, seed)
        sub = assemble_substeps(m, x, v)
        operator, oracle_matrix = self.OPERATORS[which]
        op = operator(m, sub)
        u = np.random.default_rng(seed + 1).standard_normal(np.prod(op.shape))
        oracle = oracle_matrix(m, sub) @ u
        assert np.linalg.norm(vec(op.apply(unvec(u, op.shape))) - oracle) <= \
            1e-13 * np.linalg.norm(oracle)

    def test_package_does_not_import_scipy_sparse(self):
        # D_x lives as its stencil and its symbol; the CSR forms are oracles
        probe = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                 "import rte_lowrank.experiments; "
                 "print('scipy.sparse' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "False"


class TestDensity:
    def test_isotropic_unit(self):
        m = build()
        assert density(m, np.ones((32, 8))) == pytest.approx(np.ones(32))

    def test_analytic_angular_integral(self):
        # (1/2) int (1 + mu^2) dmu = 4/3
        m = build(n_x=50, n_mu=6)
        a = (m.grid.points - 1.0) ** 2 + 1.0
        f = np.outer(a, 1.0 + m.quad.nodes**2)
        assert np.abs(density(m, f) - (4.0 / 3.0) * a).max() <= 1e-12

    def test_odd_profile_integrates_to_zero(self):
        m = build(n_mu=14)
        f = np.outer(np.ones(32), m.quad.nodes**3)
        assert np.abs(density(m, f)).max() <= 1e-13


class TestDiffusionLimit:
    def test_zero_time(self):
        m = build()
        rho = np.sin(np.pi * m.grid.points)
        assert np.array_equal(diffusion_limit_density(m, rho, 0.0), rho)

    def test_negative_time_rejected(self):
        m = build()
        with pytest.raises(ValueError):
            diffusion_limit_density(m, np.ones(32), -1.0)

    def test_constant_profile_fixed(self):
        m = build()
        rho = 2.5 * np.ones(32)
        out = diffusion_limit_density(m, rho, 3.0)
        assert np.abs(out - rho).max() <= 1e-12

    def test_sine_decay_against_discrete_eigenvalue(self):
        m = build(n_x=200)
        rho = np.sin(np.pi * m.grid.points)
        out = diffusion_limit_density(m, rho, 1.0)
        lam = -(2.0 / m.grid.dx**2) * (1.0 - np.cos(np.pi * m.grid.dx)) / 3.0
        discrete_oracle = np.exp(lam) * rho
        assert np.abs(out - discrete_oracle).max() <= 1e-12
        continuum = np.exp(-np.pi**2 / 3.0) * rho
        rel = np.abs(out - continuum).max() / np.abs(continuum).max()
        assert rel <= 1e-3

    @given(n_x=st.integers(2, 300), t=st.floats(1e-4, 10.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_expm_oracle(self, n_x, t, seed):
        m = build(n_x=n_x)
        rho = 1.0 + np.random.default_rng(seed).standard_normal(n_x)
        out = diffusion_limit_density(m, rho, t)
        d_xx = oracles.d_xx_matrix(m.grid).toarray()
        oracle = sla.expm((t / 3.0) * d_xx) @ rho
        err = np.linalg.norm(out - oracle) / np.linalg.norm(oracle)
        assert err <= 1e-9


class TestTangentResidual:
    def _local_projector(self, model, state, g):
        # independent implementation of P = P_X + P_V - P_X P_V
        wx, wmu = model.wx, model.wmu
        px = state.x @ weighted_inner(state.x, g, wx)
        pv = weighted_inner(g.T, state.v, wmu) @ state.v.T
        pxpv = state.x @ weighted_inner(state.x, pv, wx)
        return px + pv - pxpv

    def test_matches_independent_projector(self):
        m = build(n_x=40, n_mu=10)
        rng = np.random.default_rng(10)
        f = rng.standard_normal((40, 10))
        state, _, _ = from_full(f, 3, m)
        g = full_rhs(m, state.x @ state.s @ state.v.T)
        resid = g - self._local_projector(m, state, g)
        expected = frob_norm_weighted(resid, m.wx, m.wmu)
        assert normal_component(m, state) == pytest.approx(expected, rel=1e-10)

    def test_projector_idempotence(self):
        m = build(n_x=40, n_mu=10)
        rng = np.random.default_rng(11)
        f = rng.standard_normal((40, 10))
        state, _, _ = from_full(f, 3, m)
        g = rng.standard_normal((40, 10))
        pg = self._local_projector(m, state, g)
        ppg = self._local_projector(m, state, pg)
        scale = frob_norm_weighted(pg, m.wx, m.wmu)
        assert frob_norm_weighted(ppg - pg, m.wx, m.wmu) <= 1e-11 * scale

    def test_full_rank_residual_vanishes(self):
        m = build(n_x=16, n_mu=8)
        rng = np.random.default_rng(12)
        f = rng.standard_normal((16, 8))
        state, _, _ = from_full(f, 8, m)
        g = full_rhs(m, state.x @ state.s @ state.v.T)
        scale = frob_norm_weighted(g, m.wx, m.wmu)
        assert normal_component(m, state) <= 1e-10 * scale

    def test_rank_one_isotropic_scaling(self):
        # for f = rho(x) x 1 the residual is (1/eps)(I - P_X)[d_x rho] x mu:
        # both it and ||rhs|| scale as 1/eps, so their ratio is eps-free
        ratios = []
        for eps in (1e-1, 1e-2, 1e-3):
            m = build(n_x=64, n_mu=8, eps=eps)
            rho = 1.0 + 0.5 * np.sin(np.pi * m.grid.points)
            f = np.outer(rho, np.ones(8))
            state, _, _ = from_full(f, 1, m)
            g = full_rhs(m, state.x @ state.s @ state.v.T)
            scale = frob_norm_weighted(g, m.wx, m.wmu)
            ratios.append(normal_component(m, state) / scale)
        assert np.ptp(ratios) <= 1e-10 * max(ratios)

    def test_propagates_orthonormality_error(self):
        m = build()
        rng = np.random.default_rng(13)
        f = rng.standard_normal((32, 8))
        state, _, _ = from_full(f, 2, m)
        state.x = 2.0 * state.x
        with pytest.raises(OrthonormalityError):
            normal_component(m, state)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_30_digit_dense_formula_at_eps_1e_4(self, seed):
        # after one GAP step at eps = 1e-4 the state sits near the
        # collision's equilibrium, and the dense formula's 1/eps^2 terms
        # cancel: in float64 it is 3.7e-7 to 2.3e-6 off its own 30-digit
        # value, which the closed form meets to at most 3.5e-16 over these
        # seeds; the bound is 10x that
        m = build(n_x=12, n_mu=6, eps=1e-4)
        f = np.random.default_rng(seed).standard_normal((12, 6))
        state, _, _ = from_full(f, 3, m)
        state = gap_step(m, state, 0.1)
        to_mp = np.vectorize(mpmath.mpf, otypes=[object])
        with mpmath.workdps(30):
            exact = oracles.tangent_residual(
                m, to_mp(state.x), to_mp(state.s), to_mp(state.v))
            closed = abs(normal_component(m, state) - exact) / exact
            dense = abs(oracles.tangent_residual(m, state.x, state.s, state.v)
                        - exact) / exact
        assert closed <= 3.5e-15
        assert dense > 3.5e-15


class TestSemiDiscreteIdentities:
    @pytest.mark.parametrize("eps", [1.0, 1e-1, 1e-2])
    def test_mass_conservation(self, eps):
        m = build(n_x=48, n_mu=12, eps=eps)
        rng = np.random.default_rng(14)
        for _ in range(5):
            f = rng.standard_normal((48, 12))
            rate = m.grid.dx * np.sum(full_rhs(m, f) @ m.wmu)
            scale = frob_norm_weighted(f, m.wx, m.wmu)
            assert abs(rate) <= 1e-12 * scale / eps

    @pytest.mark.parametrize("eps", [1.0, 1e-1, 1e-2])
    def test_dissipativity(self, eps):
        m = build(n_x=48, n_mu=12, eps=eps)
        rng = np.random.default_rng(15)
        for _ in range(5):
            f = rng.standard_normal((48, 12))
            rhs = full_rhs(m, f)
            inner = float(np.einsum("i,ij,j->", m.wx, f * rhs, m.wmu))
            scale = frob_norm_weighted(f, m.wx, m.wmu) ** 2
            assert inner <= 1e-12 * scale / eps
            # the transport part is skew, so the inner product equals the
            # collision dissipation -(1/eps^2) ||f - f W||_w^2
            defect = f @ oracles.w_mu_matrix(m) - f
            expected = -frob_norm_weighted(defect, m.wx, m.wmu) ** 2 / eps**2
            assert inner == pytest.approx(expected, rel=1e-10, abs=1e-12 * scale / eps)
