"""Smoke test of the benchmark itself, at tiny sizes (under a minute).

    python3 bench/smoke.py            (or: python3 -m pytest bench/smoke.py)

Checks that every metric named in BENCHMARK.json is emitted, that a traced
run followed by an untraced run writes bit-identical CSV and JSON outputs
(the wrappers change no numerics and are restored), and that an injected
failing job is counted in `failed` without ending the run.
"""

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (sets BLAS threads before NumPy loads)
import workloads  # noqa: E402

_SMALL = {"n_x": 32, "n_mu": 16, "rank": 6, "n_terms": 4}
TINY = {
    "kinetic-dt": dict(_SMALL, dt=[0.1, 0.05, 0.025, 0.0125]),
    "diffusive-eps": dict(_SMALL),
    "schemes-ref": dict(_SMALL),
}


def _spec():
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _tmpdir():
    run.OUT_ROOT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.OUT_ROOT, prefix="smoke-")


def _tiny_run(out, name, trace):
    return run.run(name, 0, 0.01, trace, out_root=out, overrides=TINY[name])


def _outputs(directory):
    """CSV and JSON outputs with the wall-time fields left out."""
    texts = {}
    for path in sorted(directory.iterdir()):
        lines = path.read_text().splitlines()
        if path.suffix == ".csv":
            header = lines[0].split(",")
            keep = [i for i, h in enumerate(header) if "wall_time" not in h]
            lines = [",".join(line.split(",")[i] for i in keep)
                     for line in lines]
        elif path.suffix == ".json":
            lines = [line for line in lines if "wall_time" not in line]
        texts[path.name] = lines
    return texts


def _bindings():
    from rte_lowrank import experiments, integrators, model, wlinalg
    return {(mod.__name__, k): v for mod in (experiments, integrators, model,
                                             wlinalg)
            for k, v in vars(mod).items() if not k.startswith("__")}


def test_every_metric_is_emitted():
    spec = _spec()
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    with _tmpdir() as tmp:
        for name in workloads.WORKLOADS:
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                result = _tiny_run(Path(tmp), name, trace)["result"]
                assert result["correct"], (name, trace, result)
                assert result["failed"] == 0
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: m["unit"] for k, m in result["metrics"].items()}
                assert got == want, (name, key)


def test_traced_then_untraced_outputs_identical():
    for name, workload in workloads.WORKLOADS.items():
        with _tmpdir() as tmp:
            report = _tiny_run(Path(tmp), name, True)
            outdir = Path(tmp) / f"{name}-seed0-trace1"
            before = _bindings()
            run.run_rep(workload, outdir / "config.json", outdir / "after")
            assert _bindings() == before
            assert report["reps"][-1]["traced"]
            traced = _outputs(outdir / "traced")
            assert traced, name
            assert traced == _outputs(outdir / "after"), name


def test_injected_failure_is_counted():
    from rte_lowrank import experiments

    real = experiments.run_single
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("injected failure")
        return real(*args, **kwargs)

    experiments.run_single = flaky
    try:
        with _tmpdir() as tmp:
            result = _tiny_run(Path(tmp), "schemes-ref", False)["result"]
    finally:
        experiments.run_single = real
    assert result["failed"] == 1
    assert result["attempted"] == 4 * run.MIN_REPS
    assert not result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in _spec()["end_to_end"]}


if __name__ == "__main__":
    for test in (test_every_metric_is_emitted,
                 test_traced_then_untraced_outputs_identical,
                 test_injected_failure_is_counted):
        test()
        print(f"ok {test.__name__}")
