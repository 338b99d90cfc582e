"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  The two experiment-scale criteria drive the same code paths
as the CLI, through the configs checked in under exp/.
"""

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from rte_lowrank.exceptions import DegenerateStateError, NumericalFailureError
from rte_lowrank.experiments import (
    RunConfig,
    cmd_run,
    cmd_singvals,
    cmd_sweep_dt,
    cmd_sweep_eps,
    load_config,
)
from rte_lowrank.grids import build_diff_matrices, gauss_legendre, uniform_grid
from rte_lowrank.integrators import (
    EXPMV_TOL,
    bug_step,
    gap_step,
    psi_step,
    reference_step,
)
from rte_lowrank.model import assemble_substeps, full_rhs, make_model
from rte_lowrank.state import from_full, reconstruct
from rte_lowrank.wlinalg import (
    SparseOperator,
    dense_expm,
    expmv,
    frob_norm_weighted,
    orthonormality_defect,
    weighted_mgs,
    weighted_norm,
)

EXP_DIR = Path(__file__).resolve().parent.parent / "exp"


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"\n[FAIL] criterion {num}: {description}")
        raise
    print(f"\n[PASS] criterion {num}: {description}")


def build(n_x, n_mu, eps):
    grid = uniform_grid(0.0, 2.0, n_x)
    quad = gauss_legendre(n_mu)
    return make_model(grid, quad, build_diff_matrices(grid), eps)


def generic_matrix(model):
    x = model.grid.points
    mu = model.quad.nodes
    n_mu = model.quad.n_mu
    g1 = 1.0 + 0.3 * np.sin(np.pi * x) + 0.2 * np.cos(2 * np.pi * x)
    g2 = np.sin(np.pi * x) + 0.5 * np.cos(np.pi * x) + 0.3 * np.cos(2 * np.pi * x)
    g3 = np.cos(np.pi * x) * np.sin(2 * np.pi * x) + 0.4 * np.sin(np.pi * x)
    return (np.outer(g1, np.ones(n_mu)) + 0.4 * np.outer(g2, mu)
            + 0.2 * np.outer(g3, mu**2))


def test_criterion_1_ap_eps_sweep(tmp_path):
    with criterion(1, "AP eps-sweep: monotone decrease, <= 1e-4 at eps=1e-4"):
        cfg = load_config(EXP_DIR / "fig1.cfg")
        rows = cmd_sweep_eps(cfg, tmp_path)
        errs = {eps: err for eps, err, _ in rows}
        assert errs[1.0] > errs[0.1] > errs[0.01] > errs[0.001]
        assert errs[0.0001] <= 1e-4


def test_criterion_2_dt_convergence(tmp_path):
    with criterion(2, "dt-convergence: slope in [0.8, 1.2], plateau near "
                      "the 11th singular value"):
        cfg = load_config(EXP_DIR / "fig2.cfg")
        rows, slope, sigma_tail_rel = cmd_sweep_dt(cfg, tmp_path)
        assert slope is not None
        assert 0.8 <= slope <= 1.2
        plateau = min(err for _, err, _ in rows)
        assert plateau <= 10.0 * sigma_tail_rel
        assert plateau >= 0.1 * sigma_tail_rel


def test_criterion_3_full_rank_oracle_equivalence():
    with criterion(3, "full-rank GAP/PSI/BUG match the dense reference "
                      "within 1e-5"):
        m = build(16, 8, 1.0)
        f0 = 1.0 + 0.3 * np.outer(np.sin(np.pi * m.grid.points),
                                  m.quad.nodes)
        st, _, _ = from_full(f0, 8, m)
        ref = reference_step(m, f0, 1e-3)
        ref_norm = frob_norm_weighted(ref, m.wx, m.wmu)
        for step in (gap_step, psi_step, bug_step):
            out = reconstruct(step(m, st, 1e-3))
            err = frob_norm_weighted(out - ref, m.wx, m.wmu) / ref_norm
            assert err <= 1e-5, step.__name__


def test_criterion_4_expmv_oracle():
    with criterion(4, "expmv matches dense expm on 50 sparse operators "
                      "(incl. a 1/eps^2-stiff one) within 1e-8"):
        rng = np.random.default_rng(2024)
        cases = []
        for _ in range(49):
            dim = int(rng.integers(20, 201))
            a = sp.random(dim, dim, density=0.15, random_state=rng,
                          data_rvs=lambda n: rng.uniform(-1.0, 1.0, n),
                          format="csr")
            cases.append((a, 1.0))
        # stiff collision-like operator scaled by 1/eps^2, eps = 1e-3
        eps = 1e-3
        dim = 150
        u = rng.standard_normal(dim)
        u /= np.linalg.norm(u)
        proj = sp.csr_matrix(np.outer(u, u))
        s = sp.random(dim, dim, density=0.1, random_state=rng,
                      data_rvs=lambda n: rng.uniform(-1.0, 1.0, n),
                      format="csr")
        stiff = s + (proj - sp.identity(dim)) / eps**2
        cases.append((stiff, 2e-3))

        for a, t in cases:
            dim = a.shape[0]
            op = SparseOperator((dim,), lambda v, a=a: a @ v)
            v = rng.standard_normal(dim)
            got = expmv(op, t, v, 1e-10, np.linalg.norm(a.toarray(), 2))
            oracle = dense_expm(t * a.toarray()) @ v
            assert np.linalg.norm(got - oracle) <= \
                1e-8 * np.linalg.norm(oracle)


def test_criterion_5_structural_invariants():
    with criterion(5, "structural invariant suite (orthonormality, substep "
                      "matrices, mass, dissipativity, norm monotonicity)"):
        # orthonormality defects <= 1e-10 after every step
        for eps, steps in ((1.0, (gap_step, psi_step, bug_step)),
                           (1e-4, (gap_step, bug_step))):
            m = build(64, 16, eps)
            f0 = generic_matrix(m)
            for step in steps:
                st, _, _ = from_full(f0, 4, m)
                for _ in range(5):
                    st = step(m, st, 0.1)
                    assert max(orthonormality_defect(st.x, m.wx),
                               orthonormality_defect(st.v, m.wmu)) <= 1e-10

        # substep-matrix structure on 20 random orthonormal bases
        m = build(40, 12, 1.0)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = weighted_mgs(rng.standard_normal((40, 4)), m.wx).q
            v = weighted_mgs(rng.standard_normal((12, 4)), m.wmu).q
            sub = assemble_substeps(m, x, v)
            assert np.abs(sub.a_x + sub.a_x.T).max() <= 1e-12
            assert np.abs(sub.b_mu - sub.b_mu.T).max() <= 1e-13
            ev = np.linalg.eigvalsh(sub.c_mu)
            assert ev.min() >= -1e-12
            assert np.sort(ev)[:-1].max() <= 1e-12 * max(ev.max(), 1e-30)

        # semi-discrete mass conservation and dissipativity per 1/eps scale
        for eps in (1.0, 1e-2):
            m = build(48, 12, eps)
            for k in range(5):
                f = np.random.default_rng(k).standard_normal((48, 12))
                rhs = full_rhs(m, f)
                scale = frob_norm_weighted(f, m.wx, m.wmu)
                mass_rate = m.grid.dx * np.sum(rhs @ m.wmu)
                assert abs(mass_rate) <= 1e-12 * scale / eps
                inner = float(np.einsum("i,ij,j->", m.wx, f * rhs, m.wmu))
                assert inner <= 1e-12 * scale**2 / eps

        # GAP weighted norm non-increasing within 10 * EXPMV_TOL
        for eps in (1.0, 1e-3):
            m = build(64, 16, eps)
            st, _, _ = from_full(generic_matrix(m), 4, m)
            prev = float(np.linalg.norm(st.s))
            for _ in range(10):
                st = gap_step(m, st, 0.1)
                cur = float(np.linalg.norm(st.s))
                assert cur <= prev * (1.0 + 10 * EXPMV_TOL)
                prev = cur

        # reference conserves mass within 1e-10 relative
        m = build(48, 12, 0.5)
        f0 = generic_matrix(m)
        f1 = reference_step(m, f0, 0.2)
        m0 = m.grid.dx * np.sum(f0 @ m.wmu)
        m1 = m.grid.dx * np.sum(f1 @ m.wmu)
        assert abs(m1 - m0) <= 1e-10 * abs(m0)


def test_criterion_6_ap_diffusion_coefficient():
    with criterion(6, "squared angular coupling of the (1, mu) basis "
                      "equals 1/3"):
        for n_mu in (4, 16, 100):
            m = build(16, n_mu, 1.0)
            v = np.column_stack([
                np.ones(n_mu) / np.sqrt(2.0),
                np.sqrt(1.5) * m.quad.nodes,
            ])
            x = np.ones((16, 1)) / np.sqrt(2.0)
            x = np.column_stack([x[:, 0], np.zeros(16)])
            x[:, 1] = weighted_mgs(
                np.column_stack([x[:, 0], np.sin(np.pi * m.grid.points)]),
                m.wx).q[:, 1]
            sub = assemble_substeps(m, x, v)
            assert abs(sub.b_mu[0, 1] ** 2 - 1.0 / 3.0) <= 1e-12


def test_criterion_7_basis_alignment():
    with criterion(7, "projection residuals of {1, mu} halve (at least) per "
                      "eps decade"):
        m_probe = build(128, 32, 1.0)
        f0 = generic_matrix(m_probe)
        resid = {}
        for eps in (1e-1, 1e-2, 1e-3):
            m = build(128, 32, eps)
            st, _, _ = from_full(f0, 4, m)
            out = gap_step(m, st, 0.1)
            vals = []
            for g in (np.ones(32), m.quad.nodes.astype(float)):
                proj = out.v @ (out.v.T @ (m.wmu * g))
                vals.append(weighted_norm(g - proj, m.wmu)
                            / weighted_norm(g, m.wmu))
            resid[eps] = vals
        for idx in (0, 1):
            assert resid[1e-2][idx] <= 0.5 * resid[1e-1][idx]
            assert resid[1e-3][idx] <= 0.5 * resid[1e-2][idx]


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "identical config + seed give bit-identical outputs"):
        base = {
            "domain": [0.0, 2.0], "n_x": 64, "n_mu": 16, "rank": 4,
            "eps": 0.01, "dt": 0.1, "t_final": 0.5, "integrator": "gap",
            "initial_condition": "fourier_ladder", "seed": 123,
        }
        texts = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            cmd_run(RunConfig.from_dict(dict(base)), out)
            cmd_singvals(RunConfig.from_dict(dict(base)), out)
            result = (out / "result.json").read_text()
            result = "\n".join(l for l in result.splitlines()
                               if "wall_time" not in l)
            texts.append((result, (out / "singvals.csv").read_text()))
        assert texts[0] == texts[1]
