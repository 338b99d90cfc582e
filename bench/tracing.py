"""Spans and counters recorded from outside the program, by rebinding names.

`instrument()` wraps the public functions of each layer where the calling
module looks them up (`integrators` and `model` import `expmv`,
`weighted_mgs`, `assemble_substeps` and `dense_expm` by name, so the wrapper
must replace those bindings, not the defining module's), and restores every
binding on exit.  Without a tracer it installs only the job guard, which
turns an exception inside one job into a NaN result so the rest of the sweep
still runs and the gate counts that job as failed.

A span records name, start, end, parent span and job id.  Spans stay in
memory; `write_spans` saves them when the run ends.  Self time is a span's
duration minus that of its children, so the self times of all spans under
one root add up to the root's duration.
"""

import functools
import logging
import math
import statistics
import time
from collections import Counter
from contextlib import contextmanager

log = logging.getLogger("bench")

LAYERS = ("grids", "wlinalg", "model", "state", "integrators", "experiments")

# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("grids.build_s", "s"),
    ("grids.self_s", "s"),
    ("wlinalg.weighted_mgs.calls", "count"),
    ("wlinalg.weighted_mgs.s", "s"),
    ("wlinalg.weighted_mgs.replaced", "count"),
    ("wlinalg.expmv.calls", "count"),
    ("wlinalg.expmv.s", "s"),
    ("wlinalg.estimate_operator_norm.calls", "count"),
    ("wlinalg.estimate_operator_norm.applies", "count"),
    ("wlinalg.estimate_operator_norm.s", "s"),
    ("wlinalg.dense_expm.s", "s"),
    ("wlinalg.self_s", "s"),
    ("model.assemble_substeps.calls", "count"),
    ("model.assemble_substeps.s", "s"),
    ("model.diffusion_limit_density.s", "s"),
    ("model.operator_L.applies", "count"),
    ("model.operator_K.applies", "count"),
    ("model.full_operator.applies", "count"),
    ("model.self_s", "s"),
    ("integrators.step.gap.calls", "count"),
    ("integrators.step.psi.calls", "count"),
    ("integrators.step.bug.calls", "count"),
    ("integrators.step_ms.p50", "ms"),
    ("integrators.step_ms.p90", "ms"),
    ("integrators.step_ms.samples", "count"),
    ("integrators.route.L.expmv", "count"),
    ("integrators.route.L.structured", "count"),
    ("integrators.route.K.expmv", "count"),
    ("integrators.route.K.structured", "count"),
    ("integrators.expm_stack_L.s", "s"),
    ("integrators.expm_stack_K.s", "s"),
    ("integrators.expm_S.s", "s"),
    ("integrators.reference.calls", "count"),
    ("integrators.reference.s", "s"),
    ("integrators.reference.useful_ratio", "1"),
    ("integrators.step.self_s", "s"),
    ("integrators.self_s", "s"),
    ("state.error_report.calls", "count"),
    ("state.error_report.s", "s"),
    ("state.from_full.s", "s"),
    ("state.self_s", "s"),
    ("experiments.run_single.calls", "count"),
    ("experiments.run_single.s", "s"),
    ("experiments.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.self_sum_share", "1"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
]

_STEP_SPANS = ("integrators.step.gap", "integrators.step.psi",
               "integrators.step.bug")
_NORM_SPAN = "wlinalg.estimate_operator_norm"


class Tracer:
    """In-memory span store plus named counters, for one thread."""

    def __init__(self):
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.jobs = [], []
        self.stack = []
        self.job = 0
        self.counts = Counter()

    def open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.jobs.append(self.job)
        self.ends.append(math.nan)
        self.stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i):
        self.ends[i] = time.perf_counter()
        self.stack.pop()

    def innermost(self):
        return self.names[self.stack[-1]] if self.stack else None

    def durations(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self):
        dur = self.durations()
        own = list(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def write_spans(self, path):
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,job\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i] - t0:.9f},"
                         f"{self.ends[i] - t0:.9f},{self.parents[i]},"
                         f"{self.jobs[i]}\n")


def _spanned(tracer, name, fn, after=None):
    """fn inside a span named `name`, or `name(*args)` when callable;
    `after(result)` sees each return value."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(name(*args) if callable(name) else name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if after is not None:
            after(out)
        return out
    return wrapper


class _Patches:
    def __init__(self):
        self._saved = []

    def set(self, obj, attr, value):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def restore(self):
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)


class _ModuleProxy:
    """Stands in for a module, overriding some attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _job_guard(fn, failures):
    """run_single that returns a NaN result instead of raising."""
    from rte_lowrank.experiments import RunResult

    @functools.wraps(fn)
    def guarded(cfg, *args, **kwargs):
        try:
            return fn(cfg, *args, **kwargs)
        except Exception as err:  # one failed job must not end the run
            log.exception("job failed (%s)", type(err).__name__)
            failures.append(repr(err))
            nan = math.nan
            report = {"rel_l2_density": nan, "rel_l2_full": nan, "mass": nan,
                      "sigma_spectrum": []}
            return RunResult(cfg.to_dict(), "failed", report, nan, nan, 0,
                             0.0), None
    return guarded


@contextmanager
def instrument(failures, tracer=None, n_mu=None):
    """Install the job guard, and with a tracer every layer's wrappers.

    `n_mu` tells the L expm stack (n_mu x n_mu blocks) from the K stack
    (r x r blocks) by block size.
    """
    from rte_lowrank import experiments

    patches = _Patches()
    try:
        run_single = experiments.run_single
        if tracer is not None:
            _wrap_layers(tracer, patches, n_mu)
            run_single = _job_span(tracer, run_single)
        patches.set(experiments, "run_single",
                    _job_guard(run_single, failures))
        yield
    finally:
        patches.restore()


def _job_span(tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts["jobs"] += 1
        outer, tracer.job = tracer.job, tracer.counts["jobs"]
        i = tracer.open("experiments.run_single")
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)
            tracer.job = outer
    return wrapper


def _wrap_layers(tracer, patches, n_mu):
    import scipy.linalg as sla

    from rte_lowrank import experiments, integrators, model, wlinalg

    def span(module, attr, name, after=None):
        fn = getattr(module, attr)
        patches.set(module, attr, _spanned(tracer, name, fn, after))

    # grids, as build_setup looks them up
    for attr in ("uniform_grid", "gauss_legendre", "build_diff_matrices"):
        span(experiments, attr, f"grids.{attr}")

    # wlinalg
    def count_replaced(qr):
        tracer.counts["wlinalg.weighted_mgs.replaced"] += len(
            qr.replaced_columns)

    span(integrators, "weighted_mgs", "wlinalg.weighted_mgs", count_replaced)
    for mod in (integrators, model):
        span(mod, "expmv", "wlinalg.expmv")
    for mod in (model, wlinalg):
        span(mod, "dense_expm", "wlinalg.dense_expm")
    span(wlinalg, "estimate_operator_norm", _NORM_SPAN)

    # model
    span(integrators, "assemble_substeps", "model.assemble_substeps")
    span(experiments, "diffusion_limit_density",
         "model.diffusion_limit_density")

    def counted_operator(factory, key, route=None):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            op = factory(*args, **kwargs)
            apply = op.apply

            def counted_apply(u):
                tracer.counts[key] += 1
                if tracer.innermost() == _NORM_SPAN:
                    tracer.counts[_NORM_SPAN + ".applies"] += 1
                return apply(u)

            op.apply = counted_apply
            if route is not None:
                tracer.counts[route] += 1
            return op
        return make

    for attr, route in (("operator_L", "integrators.route.L.expmv"),
                        ("operator_K", "integrators.route.K.expmv"),
                        ("full_operator", None)):
        patches.set(integrators, attr, counted_operator(
            getattr(integrators, attr), f"model.{attr}.applies", route))

    # integrators
    for scheme in ("gap", "psi", "bug"):
        span(integrators, f"{scheme}_step", f"integrators.step.{scheme}")

    def integrate_span(model_, initial, scheme, *args):
        return ("integrators.reference" if scheme == "reference"
                else "integrators.integrate")

    span(experiments, "integrate", integrate_span)

    def expm_span(a, *args):
        if a.ndim == 2:
            return "integrators.expm_S"
        which = "L" if a.shape[-1] == n_mu else "K"
        tracer.counts[f"integrators.route.{which}.structured"] += 1
        return f"integrators.expm_stack_{which}"

    patches.set(integrators, "sla", _ModuleProxy(
        sla, expm=_spanned(tracer, expm_span, sla.expm)))

    # state
    span(experiments, "error_report", "state.error_report")
    span(experiments, "from_full", "state.from_full")


def per_layer_metrics(tracer, root, wall_s, overhead_s):
    """Per-layer metric values from the spans under the span `root`.

    One command needs at most one dense reference, so the useful share of
    reference builds is 1 / calls (0 when the command builds none).
    """
    dur = tracer.durations()
    own = tracer.self_times()
    under = _descendants(tracer, root)

    total, calls = Counter(), Counter()
    layer_self = Counter()
    step_self = 0.0
    steps_ms = []
    for i in under:
        name = tracer.names[i]
        total[name] += dur[i]
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += own[i]
        if name in _STEP_SPANS:
            step_self += own[i]
            steps_ms.append(1e3 * dur[i])

    c = tracer.counts
    refs = calls["integrators.reference"]
    p50 = statistics.median(steps_ms) if steps_ms else 0.0
    p90 = (statistics.quantiles(steps_ms, n=10)[8] if len(steps_ms) > 1
           else p50)
    values = {
        "grids.build_s": sum(total[f"grids.{a}"] for a in (
            "uniform_grid", "gauss_legendre", "build_diff_matrices")),
        "wlinalg.weighted_mgs.calls": calls["wlinalg.weighted_mgs"],
        "wlinalg.weighted_mgs.s": total["wlinalg.weighted_mgs"],
        "wlinalg.weighted_mgs.replaced": c["wlinalg.weighted_mgs.replaced"],
        "wlinalg.expmv.calls": calls["wlinalg.expmv"],
        "wlinalg.expmv.s": total["wlinalg.expmv"],
        "wlinalg.estimate_operator_norm.calls": calls[_NORM_SPAN],
        "wlinalg.estimate_operator_norm.applies": c[_NORM_SPAN + ".applies"],
        "wlinalg.estimate_operator_norm.s": total[_NORM_SPAN],
        "wlinalg.dense_expm.s": total["wlinalg.dense_expm"],
        "model.assemble_substeps.calls": calls["model.assemble_substeps"],
        "model.assemble_substeps.s": total["model.assemble_substeps"],
        "model.diffusion_limit_density.s":
            total["model.diffusion_limit_density"],
        "model.operator_L.applies": c["model.operator_L.applies"],
        "model.operator_K.applies": c["model.operator_K.applies"],
        "model.full_operator.applies": c["model.full_operator.applies"],
        "integrators.step.gap.calls": calls["integrators.step.gap"],
        "integrators.step.psi.calls": calls["integrators.step.psi"],
        "integrators.step.bug.calls": calls["integrators.step.bug"],
        "integrators.step_ms.p50": p50,
        "integrators.step_ms.p90": p90,
        "integrators.step_ms.samples": len(steps_ms),
        "integrators.route.L.expmv": c["integrators.route.L.expmv"],
        "integrators.route.L.structured": c["integrators.route.L.structured"],
        "integrators.route.K.expmv": c["integrators.route.K.expmv"],
        "integrators.route.K.structured": c["integrators.route.K.structured"],
        "integrators.expm_stack_L.s": total["integrators.expm_stack_L"],
        "integrators.expm_stack_K.s": total["integrators.expm_stack_K"],
        "integrators.expm_S.s": total["integrators.expm_S"],
        "integrators.reference.calls": refs,
        "integrators.reference.s": total["integrators.reference"],
        "integrators.reference.useful_ratio":
            1.0 / refs if refs else 0.0,
        "integrators.step.self_s": step_self,
        "state.error_report.calls": calls["state.error_report"],
        "state.error_report.s": total["state.error_report"],
        "state.from_full.s": total["state.from_full"],
        "experiments.run_single.calls": calls["experiments.run_single"],
        "experiments.run_single.s": total["experiments.run_single"],
        "trace.wall_s": wall_s,
        "trace.self_sum_share": sum(layer_self.values()) / wall_s,
        "trace.overhead_s": overhead_s,
        "trace.spans": len(under),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self[layer]
    return {name: values[name] for name, _ in PER_LAYER}


def _descendants(tracer, root):
    """Indices of root and every span opened inside it."""
    inside = {root}
    for i in range(root + 1, len(tracer.names)):
        if tracer.parents[i] in inside:
            inside.add(i)
    return sorted(inside)
