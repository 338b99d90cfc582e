"""The benchmark's tracer wraps functions by rebinding the names the package
modules look them up by.  Entering its instrumentation here makes a dropped
or renamed binding fail in the test suite, not only in a benchmark run."""

from pathlib import Path

import numpy as np
import pytest

from rte_lowrank.grids import build_diff_matrices, gauss_legendre, uniform_grid
from rte_lowrank.model import make_model
from rte_lowrank.state import from_full

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_finds_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing

    from rte_lowrank import integrators, model, wlinalg

    with tracing.instrument([], tracing.Tracer(), n_mu=8):
        assert model.dense_expm is not wlinalg.dense_expm
    assert model.dense_expm is wlinalg.dense_expm
    assert integrators.expmv is wlinalg.expmv


# PSI's backward S substep overflows at eps = 1e-3, so it runs at eps = 1 only
@pytest.mark.parametrize("scheme, eps, route", [
    pytest.param("gap", 1e-3, "structured", id="0.001-structured"),
    pytest.param("gap", 1.0, "expmv", id="1.0-expmv"),
    ("bug", 1e-3, "structured"), ("bug", 1.0, "expmv"),
    ("psi", 1.0, "expmv")])
def test_tracer_books_each_substep_route(monkeypatch, scheme, eps, route):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing

    from rte_lowrank import integrators

    grid = uniform_grid(0.0, 2.0, 48)
    quad = gauss_legendre(12)
    m = make_model(grid, quad, build_diff_matrices(grid), eps)
    x, mu = grid.points, quad.nodes
    f0 = (1.0 + 0.3 * np.outer(np.sin(np.pi * x), mu)
          + 0.1 * np.outer(np.cos(np.pi * x), mu**2))
    st, _, _ = from_full(f0, 4, m)
    tracer = tracing.Tracer()
    with tracing.instrument([], tracer, n_mu=quad.n_mu):
        getattr(integrators, f"{scheme}_step")(m, st, 0.02)
    routes = {key: n for key, n in tracer.counts.items()
              if key.startswith("integrators.route.")}
    # rank 4 < n_mu, so the block size tells the K stack from the L stack
    assert routes == {f"integrators.route.L.{route}": 1,
                      f"integrators.route.K.{route}": 1}
    # the S substep takes one 2-D exponential per +-g pair of A_x, 2 at
    # rank 4, each booked as S and never as a K stack
    assert tracer.names.count("integrators.expm_S") == 2 * (scheme != "gap")
    assert (tracer.names.count("integrators.expm_stack_K")
            == (route == "structured"))
    assert tracer.names.count("model.assemble_substeps") == 1
    assert "wlinalg.estimate_operator_norm" not in tracer.names


def test_tracer_counts_substep_applies(monkeypatch):
    # the per-layer apply counts are read through op.apply; an expmv route
    # that bypassed it would read 0 without failing any other test
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing

    from rte_lowrank import integrators

    grid = uniform_grid(0.0, 2.0, 48)
    quad = gauss_legendre(12)
    m = make_model(grid, quad, build_diff_matrices(grid), 1.0)
    x, mu = grid.points, quad.nodes
    f0 = 1.0 + 0.3 * np.outer(np.sin(np.pi * x), mu)
    st, _, _ = from_full(f0, 2, m)
    tracer = tracing.Tracer()
    with tracing.instrument([], tracer, n_mu=quad.n_mu):
        integrators.gap_step(m, st, 0.02)
    assert tracer.counts["model.operator_L.applies"] > 0
    assert tracer.counts["model.operator_K.applies"] > 0


def test_tracer_books_one_rank_start_per_sweep(monkeypatch, tmp_path):
    # state.from_full.s reads the span around the command's rank-r start;
    # a start built without the experiments binding would read 0
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing

    from rte_lowrank.experiments import RunConfig, cmd_sweep_eps

    cfg = RunConfig(n_x=32, n_mu=8, rank=3, eps=[1.0, 0.5], t_final=0.2)
    tracer, failures = tracing.Tracer(), []
    with tracing.instrument(failures, tracer, n_mu=cfg.n_mu):
        cmd_sweep_eps(cfg, tmp_path)
    assert failures == []
    assert tracer.names.count("state.from_full") == 1
