import numpy as np
import pytest

from rte_lowrank.grids import build_diff_matrices, gauss_legendre, uniform_grid


class TestGaussLegendre:
    def test_n1_is_midpoint_rule(self):
        q = gauss_legendre(1)
        assert q.nodes == pytest.approx([0.0], abs=1e-15)
        assert q.weights == pytest.approx([2.0], abs=1e-15)

    def test_n2_analytic_roots(self):
        q = gauss_legendre(2)
        root = 1.0 / np.sqrt(3.0)
        assert q.nodes == pytest.approx([-root, root], abs=1e-15)
        assert q.weights == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_n20_integrates_mu_squared(self):
        q = gauss_legendre(20)
        assert np.dot(q.weights, q.nodes**2) == pytest.approx(2.0 / 3.0, abs=1e-13)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)

    @pytest.mark.parametrize("n", range(1, 65))
    def test_weights_and_symmetry(self, n):
        q = gauss_legendre(n)
        assert np.all(q.weights > 0)
        assert abs(q.weights.sum() - 2.0) <= 1e-13
        assert np.abs(q.nodes + q.nodes[::-1]).max() <= 1e-13
        assert np.all(np.diff(q.nodes) > 0) or n == 1
        assert np.all(np.abs(q.nodes) < 1.0) or n == 1

    @pytest.mark.parametrize("n", [2, 4, 7, 12, 20, 40, 64])
    def test_monomial_exactness(self, n):
        q = gauss_legendre(n)
        for k in range(2 * n):
            approx = np.dot(q.weights, q.nodes**k)
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            if exact == 0.0:
                assert abs(approx) <= 1e-13
            else:
                assert abs(approx - exact) <= 1e-12 * abs(exact)


class TestUniformGrid:
    def test_basic(self):
        g = uniform_grid(0.0, 2.0, 4)
        assert g.dx == pytest.approx(0.5)
        assert g.points == pytest.approx([0.0, 0.5, 1.0, 1.5])

    def test_fine_resolution(self):
        g = uniform_grid(0.0, 2.0, 1000)
        assert g.dx == pytest.approx(0.002, abs=1e-16)

    def test_minimal(self):
        g = uniform_grid(0.0, 1.0, 2)
        assert g.points == pytest.approx([0.0, 0.5])

    def test_invariants(self):
        g = uniform_grid(-1.0, 3.0, 17)
        assert g.dx > 0
        assert np.all(np.diff(g.points) > 0)
        assert g.points[-1] + g.dx == pytest.approx(g.b, rel=1e-14)

    def test_errors(self):
        with pytest.raises(ValueError):
            uniform_grid(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            uniform_grid(0.0, 1.0, 1)


class TestDiffMatrices:
    def test_dx_stencil_with_wrap(self):
        g = uniform_grid(0.0, 2.0, 4)
        d = build_diff_matrices(g)
        assert d.d_x[0].toarray().ravel() == pytest.approx([0.0, 1.0, 0.0, -1.0])

    def test_dx_annihilates_constants(self):
        g = uniform_grid(0.0, 2.0, 32)
        d = build_diff_matrices(g)
        assert np.abs(d.d_x @ np.ones(32)).max() <= 1e-14

    def test_dx_second_order_on_sine(self):
        g = uniform_grid(0.0, 2.0, 200)
        d = build_diff_matrices(g)
        approx = d.d_x @ np.sin(np.pi * g.points)
        exact = np.pi * np.cos(np.pi * g.points)
        bound = (np.pi * g.dx) ** 2 * np.pi / 6.0 * 2.0
        assert np.abs(approx - exact).max() <= bound

    def test_dx_antisymmetric_and_sums(self):
        g = uniform_grid(0.0, 2.0, 25)
        d = build_diff_matrices(g)
        dx_dense = d.d_x.toarray()
        assert np.abs(dx_dense + dx_dense.T).max() <= 1e-15
        assert np.abs(dx_dense.sum(axis=0)).max() <= 1e-15
        assert np.abs(dx_dense.sum(axis=1)).max() <= 1e-15

    def test_dxx_symmetric_zero_row_sums(self):
        g = uniform_grid(0.0, 2.0, 25)
        d = build_diff_matrices(g)
        dxx = d.d_xx.toarray()
        assert np.abs(dxx - dxx.T).max() <= 1e-15
        assert np.abs(dxx.sum(axis=1)).max() <= 1e-10

    def test_sparsity(self):
        g = uniform_grid(0.0, 2.0, 40)
        d = build_diff_matrices(g)
        assert d.d_x.nnz == 2 * 40
        assert d.d_xx.nnz == 3 * 40

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_dx_fourier_eigenvalues(self, k):
        # on [0, 2] the grid-resolved modes are e^{i k pi x}
        g = uniform_grid(0.0, 2.0, 64)
        d = build_diff_matrices(g)
        mode = np.exp(1j * k * np.pi * g.points)
        applied = d.d_x @ mode
        expected = 1j * np.sin(k * np.pi * g.dx) / g.dx * mode
        assert np.abs(applied - expected).max() <= 1e-12

    @pytest.mark.parametrize("n_x", [2, 3, 4, 5, 25, 64, 101])
    def test_symbols_are_rfft_of_first_column(self, n_x):
        g = uniform_grid(0.0, 2.0, n_x)
        d = build_diff_matrices(g)
        assert d.d_x_symbol.shape == d.d_xx_symbol.shape == (n_x // 2 + 1,)
        col_x = np.fft.rfft(d.d_x[:, [0]].toarray().ravel())
        col_xx = np.fft.rfft(d.d_xx[:, [0]].toarray().ravel())
        assert np.abs(d.d_x_symbol - col_x).max() <= 1e-14 / g.dx
        assert np.abs(d.d_xx_symbol - col_xx).max() <= 1e-14 / g.dx**2
