"""rte-lowrank benchmark runner.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1]

One workload runs in this process: one timed set-up, then whole runs of the
workload's `rte` command repeated until --seconds is spent (at least
MIN_REPS), each gated for correctness and followed by one timed set-up in a
fresh process.  With --trace 0 it reports the end-to-end metrics; with
--trace 1 it spends half the budget on untraced runs, then makes one traced
run and reports the per-layer metrics.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

`--workload all` (the default) runs every workload in its own process and
prints their tables.  Outputs, the generated config, the environment and
the spans go to .bench_out/<workload>-seed<N>-trace<T>/ under the checkout.
"""

import os

# one process generates the load, with single-threaded BLAS; set before
# NumPy is first imported
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from setup_probe import timed_setup  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".bench_out"

MIN_REPS = 3
CHILD_TIMEOUT_S = 170

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rel_err", "1"),
]

log = logging.getLogger("bench")


@dataclass
class Rep:
    """One whole run of the workload's command and its gate."""

    wall_s: float
    rel_err: float
    ok: list
    notes: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    root: int = -1


def run_rep(workload, config_path, outdir, tracer=None):
    """Run the command once on the config; gate its result."""
    from rte_lowrank import experiments

    cfg = experiments.load_config(config_path)
    cfg_dict = cfg.to_dict()
    command = getattr(experiments, workload.command)
    outdir.mkdir(parents=True, exist_ok=True)
    failures = []
    ret, root = None, -1
    with tracing.instrument(failures, tracer, cfg.n_mu):
        t0 = time.perf_counter()
        if tracer is not None:
            root = tracer.open(f"experiments.{workload.command}")
        try:
            ret = command(cfg, outdir)
        except Exception as err:  # a failed run is counted, not fatal
            log.exception("%s failed", workload.command)
            failures.append(repr(err))
        finally:
            if tracer is not None:
                tracer.close(root)
        wall = time.perf_counter() - t0
    n_jobs = len(workload.job_labels(cfg_dict))
    if ret is None:
        return Rep(wall, math.nan, [False] * n_jobs, [], failures, root)
    rel_err, ok, notes = workloads.check(workload, cfg_dict, ret)
    return Rep(wall, rel_err, ok, notes, failures, root)


def _probe_setup(config_path):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(config_path)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def environment():
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
    }


def _git_commit():
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run(name, seed, seconds, trace, out_root=OUT_ROOT, overrides=None):
    """Run one workload in this process; return the full report dict."""
    workload = workloads.WORKLOADS[name]
    outdir = Path(out_root) / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    cfg_dict = workloads.make_config(workload, seed, overrides)
    config_path = outdir / "config.json"
    config_path.write_text(json.dumps(cfg_dict, indent=2) + "\n")

    setups = [timed_setup(config_path)[0]]
    reps = []
    budget = seconds / 2 if trace else seconds
    min_reps = 1 if trace else MIN_REPS
    t_start = time.perf_counter()
    while True:
        reps.append(run_rep(workload, config_path, outdir / f"rep{len(reps)}"))
        if not trace:
            # spread over the run, like the runs they are compared with
            setups.append(_probe_setup(config_path))
        median_wall = statistics.median(r.wall_s for r in reps)
        if (len(reps) >= min_reps
                and time.perf_counter() - t_start + median_wall > budget):
            break

    errs = [r.rel_err for r in reps if math.isfinite(r.rel_err)]
    metrics = {
        "wall_s": median_wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        # 1.0 (all accuracy lost) when no run produced the error
        "rel_err": statistics.median(errs) if errs else 1.0,
    }
    units = dict(END_TO_END)
    traced = None
    if trace:
        tracer = tracing.Tracer()
        traced = run_rep(workload, config_path, outdir / "traced", tracer)
        reps.append(traced)
        tracer.write_spans(outdir / "spans.csv")
        metrics = tracing.per_layer_metrics(
            tracer, traced.root, traced.wall_s, traced.wall_s - median_wall)
        units = dict(tracing.PER_LAYER)

    attempted = sum(len(r.ok) for r in reps)
    failed = sum(not ok for r in reps for ok in r.ok)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    report = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "config_path": str(config_path.relative_to(ROOT))
        if config_path.is_relative_to(ROOT) else str(config_path),
        "config": cfg_dict,
        "environment": environment(),
        "setup_samples_s": setups,
        "jobs": workload.job_labels(cfg_dict),
        "reps": [{"wall_s": r.wall_s, "rel_err": r.rel_err, "ok": r.ok,
                  "notes": r.notes, "failures": r.failures,
                  "traced": r is traced} for r in reps],
        "result": result,
    }
    (outdir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return report


def print_report(report):
    env = report["environment"]
    result = report["result"]
    walls = [f"{r['wall_s']:.3f}" for r in report["reps"]]
    print(f"# workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}: {report['why']}")
    print(f"# environment: python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, BLAS {env['blas']} "
          f"(threads {env['blas_threads']}), nproc {env['nproc']}, "
          f"commit {env['git_commit']}")
    print(f"# config {report['config_path']}: "
          f"{json.dumps(report['config'], separators=(',', ':'))}")
    print(f"# runs: {len(walls)} ({', '.join(walls)} s); setup samples "
          + ", ".join(f"{s:.3f}" for s in report["setup_samples_s"]) + " s")
    rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
    rows += [("ops", result["attempted"], "count"),
             ("ops_failed", result["failed"], "count")]
    width = max(len(r[0]) for r in rows)
    for name, value, unit in rows:
        print(f"{name:<{width}}  {value:>14.6g}  {unit}")
    for i, r in enumerate(report["reps"]):
        for note in r["failures"] + ([] if all(r["ok"]) else r["notes"]):
            print(f"# run {i}: {note}")


def run_all(args):
    """Every workload in its own process; tables, then one JSON line."""
    results, status = {}, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"# workload {name} exited with {proc.returncode}")
            status = 1
            continue
        print("\n".join(lines[:-1]) + "\n")
        results[name] = json.loads(lines[-1])
    if status == 0:
        print(json.dumps(results))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    if args.workload == "all":
        return run_all(args)
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
