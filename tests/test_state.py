import numpy as np
import pytest

from rte_lowrank.grids import build_diff_matrices, gauss_legendre, uniform_grid
from rte_lowrank.model import make_model
from rte_lowrank.state import (
    LowRankState,
    error_report,
    from_full,
    load_state,
    reconstruct,
    save_state,
)
from rte_lowrank.wlinalg import (frob_norm_weighted, orthonormality_defect,
                                 weighted_inner, weighted_singular_values)


def build(n_x=40, n_mu=10, eps=1.0):
    grid = uniform_grid(0.0, 2.0, n_x)
    quad = gauss_legendre(n_mu)
    return make_model(grid, quad, build_diff_matrices(grid), eps)


def ladder_matrix(grid, quad):
    f = np.ones((grid.n_x, quad.n_mu))
    for k in range(1, 11):
        f += 10.0 ** (-k) * np.outer(np.sin(k * np.pi * grid.points),
                                     quad.nodes**k)
    return f


class TestFromFull:
    def test_exact_rank_one(self):
        m = build()
        rng = np.random.default_rng(0)
        f = np.outer(rng.standard_normal(40), rng.standard_normal(10))
        state, delta0, _ = from_full(f, 1, m)
        assert delta0 <= 1e-12 * frob_norm_weighted(f, m.wx, m.wmu)

    def test_separable_product_is_rank_one(self):
        # ((x-1)^2 + 1)(1 + mu^2) factorizes, so rank 2 is already exact
        m = build()
        f = np.outer((m.grid.points - 1.0) ** 2 + 1.0, 1.0 + m.quad.nodes**2)
        state, delta0, _ = from_full(f, 2, m)
        assert delta0 <= 1e-12 * frob_norm_weighted(f, m.wx, m.wmu)
        # brute-force spectrum confirms the rank-1 claim
        scaled = np.sqrt(m.wx)[:, None] * f * np.sqrt(m.wmu)[None, :]
        sig = np.linalg.svd(scaled, compute_uv=False)
        assert sig[1] <= 1e-13 * sig[0]

    def test_full_rank_is_exact(self):
        m = build(n_x=12, n_mu=6)
        rng = np.random.default_rng(1)
        f = rng.standard_normal((12, 6))
        state, delta0, _ = from_full(f, 6, m)
        assert delta0 <= 1e-11 * frob_norm_weighted(f, m.wx, m.wmu)

    def test_sigma_tail_is_first_discarded_value(self):
        m = build()
        rng = np.random.default_rng(3)
        f = rng.standard_normal((40, 10))
        _, _, sigma_tail = from_full(f, 4, m)
        sig = weighted_singular_values(f, m.wx, m.wmu)
        assert abs(sigma_tail - sig[4]) <= 1e-13 * sig[0]

    def test_rank_out_of_range(self):
        m = build()
        with pytest.raises(ValueError):
            from_full(np.ones((40, 10)), 11, m)

    def test_orthonormality_and_diag_s(self):
        m = build()
        rng = np.random.default_rng(2)
        f = rng.standard_normal((40, 10))
        state, _, _ = from_full(f, 4, m)
        dx_def = orthonormality_defect(state.x, m.wx)
        dv_def = orthonormality_defect(state.v, m.wmu)
        assert max(dx_def, dv_def) <= 1e-12
        assert np.abs(state.s - np.diag(np.diag(state.s))).max() == 0.0

    def test_idempotent_at_fixed_rank(self):
        m = build()
        rng = np.random.default_rng(3)
        f = rng.standard_normal((40, 10))
        s1, _, _ = from_full(f, 3, m)
        r1 = reconstruct(s1)
        s2, _, _ = from_full(r1, 3, m)
        r2 = reconstruct(s2)
        assert frob_norm_weighted(r2 - r1, m.wx, m.wmu) <= \
            1e-10 * frob_norm_weighted(r1, m.wx, m.wmu)

    def test_deterministic_signs(self):
        m = build()
        rng = np.random.default_rng(4)
        f = rng.standard_normal((40, 10))
        a, _, _ = from_full(f, 3, m)
        b, _, _ = from_full(f.copy(), 3, m)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.v, b.v)


class TestReconstruct:
    def test_round_trip_preserves_subspaces(self):
        m = build()
        rng = np.random.default_rng(5)
        f = rng.standard_normal((40, 10))
        s1, _, _ = from_full(f, 3, m)
        s2, _, _ = from_full(reconstruct(s1), 3, m)
        # sine-based principal angles (accurate for tiny angles)
        for u1, u2, w in ((s1.x, s2.x, m.wx), (s1.v, s2.v, m.wmu)):
            resid = u2 - u1 @ weighted_inner(u1, u2, w)
            sines = np.linalg.svd(np.sqrt(w)[:, None] * resid,
                                  compute_uv=False)
            assert sines.max() <= 1e-8

    def test_rank_one_outer_product(self):
        x = np.array([[1.0], [0.0]])
        v = np.array([[0.5], [0.5]])
        s = np.array([[2.0]])
        out = reconstruct(LowRankState(x, s, v))
        assert out == pytest.approx(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_zero_s(self):
        m = build()
        rng = np.random.default_rng(6)
        f = rng.standard_normal((40, 10))
        st, _, _ = from_full(f, 2, m)
        st.s = np.zeros((2, 2))
        assert np.abs(reconstruct(st)).max() == 0.0

    def test_norm_monitor(self):
        m = build()
        rng = np.random.default_rng(7)
        f = rng.standard_normal((40, 10))
        st, _, _ = from_full(f, 5, m)
        recon_norm = frob_norm_weighted(reconstruct(st), m.wx, m.wmu)
        assert np.linalg.norm(st.s) == pytest.approx(recon_norm, rel=1e-11)


class TestErrorReport:
    def test_identical_inputs(self):
        m = build()
        rng = np.random.default_rng(8)
        f = rng.standard_normal((40, 10))
        rep = error_report(f, f, m)
        assert rep.rel_l2_density <= 1e-15
        assert rep.rel_l2_full <= 1e-15

    def test_homogeneity(self):
        m = build()
        rng = np.random.default_rng(9)
        f = rng.standard_normal((40, 10)) + 3.0
        rep = error_report(2.0 * f, f, m)
        assert rep.rel_l2_density == pytest.approx(1.0, rel=1e-12)
        assert rep.rel_l2_full == pytest.approx(1.0, rel=1e-12)

    def test_ladder_spectrum_monotone(self):
        m = build(n_x=200, n_mu=32)
        f0 = ladder_matrix(m.grid, m.quad)
        rep = error_report(f0, f0, m)
        sig = np.asarray(rep.sigma_spectrum)
        assert np.all(np.diff(sig[:11]) < 0)
        assert np.all(sig[1:11] / sig[:10] <= 0.75)

    def test_zero_reference_guard(self):
        m = build()
        with pytest.raises(ZeroDivisionError):
            error_report(np.ones((40, 10)), np.zeros((40, 10)), m)

    def test_mass_value(self):
        m = build()
        f = np.ones((40, 10))
        rep = error_report(f, f, m)
        # dx * sum_i rho-free mass: 40 * dx * sum(w) = 2 * 2 = 4
        assert rep.mass == pytest.approx(4.0, rel=1e-13)

    def test_shape_mismatch(self):
        m = build()
        with pytest.raises(ValueError):
            error_report(np.ones((40, 10)), np.ones((10, 40)), m)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        m = build()
        rng = np.random.default_rng(11)
        f = rng.standard_normal((40, 10))
        st, _, _ = from_full(f, 3, m)
        path = tmp_path / "state.npz"
        save_state(st, path)
        back = load_state(path)
        assert np.array_equal(back.x, st.x)
        assert np.array_equal(back.s, st.s)
        assert np.array_equal(back.v, st.v)
        assert back.s.shape == (3, 3)

    @staticmethod
    def saved_factors(tmp_path, **changes):
        rng = np.random.default_rng(12)
        st, _, _ = from_full(rng.standard_normal((40, 10)), 3, build())
        path = tmp_path / "state.npz"
        np.savez(path, **{"x": st.x, "s": st.s, "v": st.v, **changes})
        return path

    def test_mismatched_s_rejected(self, tmp_path):
        path = self.saved_factors(tmp_path, s=np.eye(2))
        with pytest.raises(ValueError, match="'s'"):
            load_state(path)

    def test_nan_in_v_rejected(self, tmp_path):
        v = np.ones((10, 3))
        v[4, 1] = np.nan
        path = self.saved_factors(tmp_path, v=v)
        with pytest.raises(ValueError, match="'v'"):
            load_state(path)
