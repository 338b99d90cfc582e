"""The benchmark's tracer wraps functions by rebinding the names the package
modules look them up by.  Entering its instrumentation here makes a dropped
or renamed binding fail in the test suite, not only in a benchmark run."""

from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_finds_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing

    from rte_lowrank import integrators, model, wlinalg

    with tracing.instrument([], tracing.Tracer(), n_mu=8):
        assert model.dense_expm is not wlinalg.dense_expm
    assert model.dense_expm is wlinalg.dense_expm
    assert integrators.expmv is wlinalg.expmv
