import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from rte_lowrank.grids import gauss_legendre
from rte_lowrank.wlinalg import (
    SparseOperator,
    dense_expm,
    expmv,
    weighted_inner,
    weighted_mgs,
    weighted_norm,
    weighted_truncated_svd,
)


def random_sparse_operator(dim, rng, scale=1.0, density=0.1):
    """A random operator on (dim,) vectors and its exact 2-norm."""
    m = sp.random(dim, dim, density=density, random_state=rng, format="csr")
    m = scale * (m - 0.5 * sp.identity(dim) * m.diagonal().mean())
    return (SparseOperator((dim,), lambda u: m @ u, name="test_op"),
            np.linalg.norm(m.toarray(), 2))


class TestWeightedInner:
    def test_ones_column_gl_weights(self):
        q = gauss_legendre(12)
        ones = np.ones((12, 1))
        assert weighted_inner(ones, ones, q.weights) == pytest.approx(np.array([[2.0]]))

    def test_identity_with_weights(self):
        out = weighted_inner(np.eye(2), np.eye(2), np.array([2.0, 2.0]))
        assert out == pytest.approx(np.array([[2.0, 0.0], [0.0, 2.0]]))

    def test_odd_symmetry(self):
        q = gauss_legendre(20)
        out = weighted_inner(np.ones((20, 1)), q.nodes[:, None], q.weights)
        assert abs(out[0, 0]) <= 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            weighted_inner(np.ones((3, 1)), np.ones((3, 1)), np.ones(4))


class TestWeightedMgs:
    def test_identity_unit_weights(self):
        res = weighted_mgs(np.eye(2), np.array([1.0, 1.0]))
        assert res.q == pytest.approx(np.eye(2), abs=1e-15)
        assert res.r_factor == pytest.approx(np.eye(2), abs=1e-15)
        assert res.replaced_columns == set()

    def test_identity_weight_two(self):
        res = weighted_mgs(np.eye(2), np.array([2.0, 2.0]))
        assert res.q == pytest.approx(np.eye(2) / np.sqrt(2.0), abs=1e-15)
        assert res.r_factor == pytest.approx(np.sqrt(2.0) * np.eye(2), abs=1e-15)

    def test_hand_gram_schmidt(self):
        a = np.array([[1.0, 1.0], [1.0, -1.0]])
        res = weighted_mgs(a, np.array([1.0, 1.0]))
        s = 1.0 / np.sqrt(2.0)
        assert res.q == pytest.approx(np.array([[s, s], [s, -s]]), abs=1e-15)
        assert res.r_factor == pytest.approx(np.sqrt(2.0) * np.eye(2), abs=1e-15)

    def test_wide_input_rejected(self):
        with pytest.raises(ValueError):
            weighted_mgs(np.ones((2, 3)), np.ones(2))

    @pytest.mark.parametrize("seed", range(5))
    def test_orthonormality_and_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        m, r = 40, 7
        a = rng.standard_normal((m, r))
        w = rng.random(m) + 0.1
        res = weighted_mgs(a, w)
        gram = weighted_inner(res.q, res.q, w)
        assert np.abs(gram - np.eye(r)).max() <= 1e-12
        recon = res.q @ res.r_factor
        for j in range(r):
            if j not in res.replaced_columns:
                denom = np.linalg.norm(a[:, j])
                assert np.linalg.norm(recon[:, j] - a[:, j]) <= 1e-10 * denom

    def test_rank_deficient_column_replaced(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((20, 3))
        a[:, 2] = 2.0 * a[:, 0] - a[:, 1]
        w = rng.random(20) + 0.5
        res = weighted_mgs(a, w)
        assert res.replaced_columns == {2}
        assert res.r_factor[2, 2] == 0.0
        gram = weighted_inner(res.q, res.q, w)
        assert np.abs(gram - np.eye(3)).max() <= 1e-12

    def test_replacement_is_deterministic(self):
        a = np.zeros((10, 2))
        a[:, 0] = np.arange(10.0) + 1.0
        w = np.ones(10)
        r1 = weighted_mgs(a, w)
        r2 = weighted_mgs(a, w)
        assert np.array_equal(r1.q, r2.q)
        assert r1.replaced_columns == {1}

    def test_ladder_that_does_not_span_rejected(self):
        # every candidate is the first column again, so column 1 stays
        # deficient after all m candidates
        a = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="do not span"):
            weighted_mgs(a, np.ones(2), ladder=lambda k: np.array([1.0, 0.0]))

    def test_badly_graded_columns_stay_orthonormal(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((50, 5))
        a[:, 3] *= 1e-13
        a[:, 4] *= 1e-9
        w = rng.random(50) + 0.2
        res = weighted_mgs(a, w)
        gram = weighted_inner(res.q, res.q, w)
        assert np.abs(gram - np.eye(5)).max() <= 1e-12

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_huge_column_is_kept(self, scale):
        # squaring the scale overflows; the column must neither warn nor
        # read as deficient.  The other columns fall below the absolute
        # floor, eps times the largest norm, so they are replaced.
        rng = np.random.default_rng(5)
        a = rng.standard_normal((30, 4))
        w = rng.random(30) + 0.2
        huge = a.copy()
        huge[:, 2] *= scale
        res = weighted_mgs(huge, w)
        assert res.replaced_columns == {0, 1, 3}
        assert np.abs(weighted_inner(res.q, res.q, w) - np.eye(4)).max() \
            <= 1e-12
        recon = res.q @ res.r_factor[:, 2]
        assert (np.linalg.norm(recon / scale - a[:, 2])
                <= 1e-12 * np.linalg.norm(a[:, 2]))
        # scaled as a whole, the factorization is the unscaled one
        res_all = weighted_mgs(scale * a, w)
        assert res_all.replaced_columns == set()
        assert np.abs(res_all.q - weighted_mgs(a, w).q).max() <= 1e-12

    def test_tiny_column_replaced_by_the_absolute_floor(self):
        # a 1e-300 column is far from the span of the others, so only the
        # floor, eps times the largest norm, makes it deficient; nothing
        # underflows on the way
        rng = np.random.default_rng(7)
        a = rng.standard_normal((30, 4))
        a[:, 1] *= 1e-300
        w = rng.random(30) + 0.2
        with np.errstate(under="warn"):
            res = weighted_mgs(a, w)
        assert res.replaced_columns == {1}
        assert res.r_factor[1, 1] == 0.0
        assert np.abs(weighted_inner(res.q, res.q, w) - np.eye(4)).max() \
            <= 1e-12
        recon = res.q @ res.r_factor
        for j in (0, 2, 3):
            assert (np.linalg.norm(recon[:, j] - a[:, j])
                    <= 1e-12 * np.linalg.norm(a[:, j]))
        assert np.linalg.norm(recon[:, 1] - a[:, 1]) <= 1e-299

    def test_one_householder_qr_per_attempt(self, monkeypatch):
        # a full-rank factor costs one QR; column 1 below is zero, its
        # first candidate e_0 lies in the span of column 0 and is passed
        # over, and e_1 is kept: two ladder attempts, three QRs
        calls = []
        qr = np.linalg.qr

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", spy)
        rng = np.random.default_rng(2)
        weighted_mgs(rng.standard_normal((20, 5)), rng.random(20) + 0.1)
        assert calls == [(20, 5)]
        calls.clear()
        a = np.zeros((3, 2))
        a[0, 0] = 1.0
        res = weighted_mgs(a, np.ones(3))
        assert res.replaced_columns == {1}
        assert calls == [(3, 2)] * 3
        assert np.array_equal(res.q, np.eye(3)[:, :2])


@st.composite
def qr_inputs(draw):
    """Graded columns under spread weights, some exactly zero or dependent.

    Returns (a, w, dependent) with dependent the indices of the columns that
    are zero or an exact combination of earlier generated columns.
    """
    r = draw(st.integers(1, 8))
    m = draw(st.integers(r, 40))
    w_exp = draw(st.lists(st.floats(-3.0, 3.0), min_size=m, max_size=m))
    grade = draw(st.lists(st.floats(-12.0, 0.0), min_size=r, max_size=r))
    kinds = draw(st.lists(st.sampled_from(["live", "zero", "dependent"]),
                          min_size=r, max_size=r))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((m, r)) * 10.0 ** np.array(grade)
    dependent = set()
    for j, kind in enumerate(kinds):
        live = [i for i in range(j) if kinds[i] == "live"]
        if kind == "zero" or (kind == "dependent" and not live):
            a[:, j] = 0.0
        elif kind == "dependent":
            a[:, j] = a[:, live] @ rng.standard_normal(len(live))
        if kind != "live":
            dependent.add(j)
    return a, 10.0 ** np.array(w_exp), dependent


class TestWeightedQrProperties:
    @given(qr_inputs())
    def test_contract(self, inputs):
        a, w, dependent = inputs
        res = weighted_mgs(a, w)
        m, r = a.shape
        q, rf = res.q, res.r_factor
        assert q.shape == (m, r) and rf.shape == (r, r)
        assert np.abs(weighted_inner(q, q, w) - np.eye(r)).max() <= 1e-12
        assert np.array_equal(rf, np.triu(rf))
        assert dependent <= res.replaced_columns

        norms = [weighted_norm(a[:, j], w) for j in range(r)]
        floor = np.finfo(float).eps * max(norms)
        for j in range(r):
            err = weighted_norm(q @ rf[:, j] - a[:, j], w)
            if j in res.replaced_columns:
                assert rf[j, j] == 0.0
                # what is left out is the residual the deficiency test saw
                assert err <= 2e-10 * max(norms[j], floor)
            else:
                assert rf[j, j] > 0.0
                assert err <= 1e-10 * norms[j]

        again = weighted_mgs(a, w)
        assert np.array_equal(again.q, q)
        assert np.array_equal(again.r_factor, rf)
        assert again.replaced_columns == res.replaced_columns

    @given(qr_inputs())
    def test_whole_factor_contract(self, inputs):
        # with whole_factor a column's residual is judged against the
        # largest column's w-norm, so every column at or below 1e-10 of it
        # is replaced, however far it is from its predecessors' span
        a, w, _ = inputs
        res = weighted_mgs(a, w, whole_factor=True)
        m, r = a.shape
        q, rf = res.q, res.r_factor
        assert np.abs(weighted_inner(q, q, w) - np.eye(r)).max() <= 1e-12
        assert np.array_equal(rf, np.triu(rf))

        norms = [weighted_norm(a[:, j], w) for j in range(r)]
        top = max(norms)
        for j in range(r):
            err = weighted_norm(q @ rf[:, j] - a[:, j], w)
            if j in res.replaced_columns:
                assert rf[j, j] == 0.0
                # the residual against the q columns before it
                assert err <= 2e-10 * top
            else:
                # 0.99: the test itself rounds the residual and the scale
                assert rf[j, j] > 0.99e-10 * top
                assert err <= 1e-10 * norms[j]

        again = weighted_mgs(a, w, whole_factor=True)
        assert np.array_equal(again.q, q)
        assert np.array_equal(again.r_factor, rf)
        assert again.replaced_columns == res.replaced_columns


class TestWeightedTruncatedSvd:
    def test_exact_rank_one(self):
        rng = np.random.default_rng(0)
        f = np.outer(rng.standard_normal(15), rng.standard_normal(9))
        wx = np.full(15, 0.3)
        wmu = rng.random(9) + 0.1
        x, s, v, tail = weighted_truncated_svd(f, 1, wx, wmu)
        recon = x @ s @ v.T
        scale = np.linalg.norm(f)
        assert np.linalg.norm(recon - f) <= 1e-12 * scale
        assert tail <= 1e-12 * s[0, 0]

    def test_two_known_modes(self):
        # construct f from w-orthonormal factors with singular values 3 and 1
        rng = np.random.default_rng(1)
        wx = rng.random(20) + 0.2
        wmu = rng.random(12) + 0.2
        qx = weighted_mgs(rng.standard_normal((20, 2)), wx).q
        qv = weighted_mgs(rng.standard_normal((12, 2)), wmu).q
        f = 3.0 * np.outer(qx[:, 0], qv[:, 0]) + 1.0 * np.outer(qx[:, 1], qv[:, 1])
        x, s, v, tail = weighted_truncated_svd(f, 1, wx, wmu)
        assert s[0, 0] == pytest.approx(3.0, abs=1e-12)
        assert tail == pytest.approx(1.0, abs=1e-12)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((10, 6))
        wx = rng.random(10) + 0.1
        wmu = rng.random(6) + 0.1
        x, s, v, tail = weighted_truncated_svd(f, 6, wx, wmu)
        assert np.linalg.norm(x @ s @ v.T - f) <= 1e-11 * np.linalg.norm(f)
        assert tail == 0.0

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            weighted_truncated_svd(np.ones((4, 3)), 4, np.ones(4), np.ones(3))

    def test_weighted_orthonormality_of_factors(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((14, 9))
        wx = rng.random(14) + 0.3
        wmu = rng.random(9) + 0.3
        x, s, v, _ = weighted_truncated_svd(f, 4, wx, wmu)
        assert np.abs(weighted_inner(x, x, wx) - np.eye(4)).max() <= 1e-12
        assert np.abs(weighted_inner(v, v, wmu) - np.eye(4)).max() <= 1e-12
        assert np.all(np.diff(np.diag(s)) <= 1e-14)

    @pytest.mark.parametrize("r", [1, 3, 7, 15])
    def test_optimality_matches_tail_energy(self, r):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((20, 30))
        wx = rng.random(20) + 0.1
        wmu = rng.random(30) + 0.1
        x, s, v, _ = weighted_truncated_svd(f, r, wx, wmu)
        scaled = np.sqrt(wx)[:, None] * f * np.sqrt(wmu)[None, :]
        sig = np.linalg.svd(scaled, compute_uv=False)
        expected = np.sqrt(np.sum(sig[r:] ** 2))
        resid = f - x @ s @ v.T
        err = np.sqrt(np.sum(wx[:, None] * resid**2 * wmu[None, :]))
        assert err == pytest.approx(expected, rel=1e-10, abs=1e-13)


class TestExpmv:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(0)
        op, norm = random_sparse_operator(17, rng)
        v = rng.standard_normal(17)
        assert np.array_equal(expmv(op, 0.0, v, 1e-10, norm), v)

    def test_diagonal_operator(self):
        d = np.linspace(-2.0, 1.0, 12)
        m = sp.diags(d).tocsr()
        op = SparseOperator((12,), lambda u: m @ u)
        v = np.ones(12)
        out = expmv(op, 0.7, v, 1e-12, 2.0)
        assert out == pytest.approx(np.exp(0.7 * d), rel=1e-11)

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-1.0, 1.0, (20, 20))
        m = sp.csr_matrix(a)
        op = SparseOperator((20,), lambda u: m @ u)
        v = rng.standard_normal(20)
        out = expmv(op, 1.0, v, 1e-10, np.linalg.norm(a, 2))
        oracle = dense_expm(a) @ v
        assert np.linalg.norm(out - oracle) <= 1e-9 * np.linalg.norm(oracle)

    def test_semigroup_property(self):
        rng = np.random.default_rng(6)
        tol = 1e-10
        for dim in (30, 120, 500):
            op, norm = random_sparse_operator(dim, rng, scale=2.0,
                                              density=0.02)
            v = rng.standard_normal(dim)
            whole = expmv(op, 0.9, v, tol, norm)
            parts = expmv(op, 0.5, expmv(op, 0.4, v, tol, norm), tol, norm)
            assert np.linalg.norm(whole - parts) <= 10 * tol * np.linalg.norm(whole)

    def test_skew_operator_preserves_weighted_norm(self):
        rng = np.random.default_rng(7)
        dim, tol = 60, 1e-10
        w = rng.random(dim) + 0.2
        s = rng.standard_normal((dim, dim)) * (rng.random((dim, dim)) < 0.2)
        s = sp.csr_matrix(s - s.T)
        m = sp.diags(1.0 / w) @ s  # skew in the w-inner product
        op = SparseOperator((dim,), lambda u: m @ u)
        v = rng.standard_normal(dim)
        out = expmv(op, 1.3, v, tol, np.linalg.norm(m.toarray(), 2))
        assert weighted_norm(out, w) == pytest.approx(
            weighted_norm(v, w), rel=10 * tol)

    def test_invalid_inputs(self):
        rng = np.random.default_rng(8)
        op, norm = random_sparse_operator(9, rng)
        with pytest.raises(ValueError):
            expmv(op, 1.0, np.ones(9), 0.0, norm)
        with pytest.raises(ValueError):
            expmv(op, 1.0, np.ones(8), 1e-10, norm)
        # the right size in another shape
        with pytest.raises(ValueError):
            expmv(op, 1.0, np.ones((9, 1)), 1e-10, norm)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("norm", [np.inf, np.nan])
    def test_nonfinite_norm_raises_without_warning(self, norm):
        from rte_lowrank.exceptions import NumericalFailureError
        op = SparseOperator((3,), lambda u: u, name="identity")
        with pytest.raises(NumericalFailureError, match="not finite"):
            expmv(op, 1.0, np.ones(3), 1e-10, norm)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_names_operator_and_time(self):
        from rte_lowrank.exceptions import NumericalFailureError
        d = sp.diags(np.full(6, 2000.0)).tocsr()
        op = SparseOperator((6,), lambda u: d @ u, name="hot_diagonal")
        with pytest.raises(NumericalFailureError) as err:
            expmv(op, 1.0, np.ones(6), 1e-10, 2000.0)
        assert "hot_diagonal" in str(err.value)

    def test_unconverged_taylor_segment_raises(self):
        from rte_lowrank.exceptions import NumericalFailureError
        # ||A|| = 50, so with the true norm the sum converges; told 0.5, one
        # segment of h ||A|| = 50 would need ~150 terms
        d = sp.diags(np.linspace(-50.0, 50.0, 11)).tocsr()
        op = SparseOperator((11,), lambda u: d @ u, name="underestimated")
        v = np.ones(11)
        assert expmv(op, 1.0, v, 1e-10, 50.0) == pytest.approx(
            np.exp(d.diagonal()), rel=1e-9)
        with pytest.raises(NumericalFailureError) as err:
            expmv(op, 1.0, v, 1e-10, 50.0 / 100.0)
        assert "underestimated" in str(err.value)
        assert "60 terms" in str(err.value)

    def test_sparse_operator_linearity(self):
        rng = np.random.default_rng(9)
        op, _ = random_sparse_operator(40, rng)
        u, v = rng.standard_normal((2, 40))
        lhs = op.apply(2.5 * u - 0.7 * v)
        rhs = 2.5 * op.apply(u) - 0.7 * op.apply(v)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(rhs), 1)


class TestDenseExpm:
    def test_zero_matrix(self):
        assert dense_expm(np.zeros((5, 5))) == pytest.approx(np.eye(5))

    def test_diagonal(self):
        out = dense_expm(np.diag([1.0, -1.0]))
        assert out == pytest.approx(np.diag([np.e, 1.0 / np.e]), abs=1e-13)

    def test_rotation_generator(self):
        out = dense_expm(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        expected = np.array([[np.cos(1), np.sin(1)], [-np.sin(1), np.cos(1)]])
        assert out == pytest.approx(expected, abs=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            dense_expm(np.zeros((2, 3)))
