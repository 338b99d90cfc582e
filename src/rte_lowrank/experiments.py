"""Config-driven experiment runners: single runs, parameter sweeps, metrics.

Configs are JSON files (see exp/*.cfg for the two stock experiments).  Every
command writes plot-ready CSV tables plus a result.json echoing the resolved
configuration, so a run is reproducible from its own output directory.
"""

import json
import logging
import math
import os
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .exceptions import ConfigError, DegenerateStateError, NumericalFailureError
from .grids import build_diff_matrices, gauss_legendre, uniform_grid
from .integrators import integrate
from .model import EPS_MIN, density, diffusion_limit_density, make_model
from .state import error_report, from_full, reconstruct, report_to_dict
from .wlinalg import (frob_norm_weighted, weighted_norm,
                      weighted_singular_values)

log = logging.getLogger(__name__)

OUTPUT_DIR_ENV = "RTE_OUTPUT_DIR"

INTEGRATORS = ("gap", "psi", "bug", "reference")
INITIAL_CONDITIONS = ("parabolic", "fourier_ladder", "poly_fourier")


@dataclass
class RunConfig:
    """One experiment description.

    ``eps`` and ``dt`` may be scalars (single runs) or lists (sweeps).
    ``initial_condition`` selects the value matrix at t=0:

    - "parabolic":      ((x-1)^2 + 1)(1 + mu^2)
    - "fourier_ladder": 1 + sum_{k=1..10} 10^-k sin(k pi x) mu^k
    - "poly_fourier":   ic_coeffs[0] + sum_k ic_coeffs[k] sin(k pi x) mu^k
    """

    domain: tuple = (0.0, 2.0)
    n_x: int = 200
    n_mu: int = 16
    rank: int = 5
    eps: object = 1.0
    dt: object = 0.1
    t_final: float = 1.0
    integrator: str = "gap"
    initial_condition: str = "parabolic"
    ic_coeffs: Optional[list] = None
    output_dir: Optional[str] = None
    seed: int = 0  # validated, but selects nothing
    debug_trace: bool = False
    compare_reference: bool = False

    def validate(self, allow_zero_t=False):
        for name in ("n_x", "n_mu", "rank", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        _as_float("t_final", self.t_final)
        a, b = self.domain
        if not b > a:
            raise ConfigError(f"domain: need b > a, got {self.domain}")
        if self.n_x < 2 or self.n_mu < 2:
            raise ConfigError("n_x and n_mu must both be >= 2")
        if not 1 <= self.rank <= min(self.n_x, self.n_mu):
            raise ConfigError(f"rank {self.rank} out of range")
        if self.t_final < 0 or (self.t_final == 0 and not allow_zero_t):
            raise ConfigError(f"t_final must be positive, got {self.t_final}")
        if self.integrator not in INTEGRATORS:
            raise ConfigError(f"integrator: unknown value {self.integrator!r}")
        if self.initial_condition not in INITIAL_CONDITIONS:
            raise ConfigError(
                f"initial_condition: unknown value {self.initial_condition!r}")
        if self.initial_condition == "poly_fourier":
            if not isinstance(self.ic_coeffs, list) or not self.ic_coeffs:
                raise ConfigError(
                    "poly_fourier needs a nonempty ic_coeffs list")
            _as_floats("ic_coeffs", self.ic_coeffs)
        for e in np.atleast_1d(np.asarray(self.eps, dtype=float)):
            if not EPS_MIN <= e <= 10.0:
                raise ConfigError(
                    f"eps entries must lie in [2**-511, 10], got {e}")
        for d in (self.dt if isinstance(self.dt, list) else [self.dt]):
            if not d > 0:
                raise ConfigError(f"dt must be positive, got {d}")
            if self.t_final > 0:
                n_steps(self.t_final, d)
        return self

    def to_dict(self):
        d = asdict(self)
        d["domain"] = list(self.domain)
        return d

    @classmethod
    def from_dict(cls, d):
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        cfg = cls(**d)
        # before resolve_output_dir reads output_dir, and before a truthy
        # string can switch a flag on
        if cfg.output_dir is not None and not isinstance(cfg.output_dir, str):
            raise ConfigError(
                f"output_dir must be a string, got {cfg.output_dir!r}")
        for name in ("debug_trace", "compare_reference"):
            if not isinstance(getattr(cfg, name), bool):
                raise ConfigError(
                    f"{name} must be true or false, got {getattr(cfg, name)!r}")
        if not isinstance(cfg.domain, (list, tuple)) or len(cfg.domain) != 2:
            raise ConfigError(f"domain: need [a, b], got {cfg.domain!r}")
        cfg.domain = tuple(_as_floats("domain", cfg.domain))
        cfg.eps = _as_floats("eps", cfg.eps)
        cfg.dt = _as_floats("dt", cfg.dt)
        return cfg


def _as_float(name, value):
    """value as a float; a ConfigError unless it is a finite int or float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return float(value)


def _as_floats(name, value):
    """A list of numbers as a list of floats, a number as a float."""
    if isinstance(value, (list, tuple)):
        return [_as_float(name, v) for v in value]
    return _as_float(name, value)


@dataclass
class RunResult:
    """Metrics of one completed integration."""

    config: dict
    reference_kind: str
    error_report: dict
    delta0: float
    sigma_tail: float
    n_steps: int
    wall_time_seconds: float
    diagnostics: Optional[list] = field(default=None)


def n_steps(t_final, dt):
    """round(t_final / dt), validating that dt divides t_final."""
    n = int(round(t_final / dt))
    if n < 1 or abs(n * dt - t_final) > 1e-9 * t_final:
        raise ConfigError(
            f"dt={dt} does not divide t_final={t_final} "
            f"(n_steps={n}, residual={abs(n * dt - t_final):.3e})"
        )
    return n


def load_config(path, overrides=()):
    """Parse a JSON config file and apply key=value overrides."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError(
            f"config must be a JSON object, got {type(data).__name__}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        data[key.strip()] = value
    return RunConfig.from_dict(data)


def resolve_output_dir(cfg, out=None):
    path = out or cfg.output_dir or os.environ.get(OUTPUT_DIR_ENV) or "out"
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot use output directory {path}: {err}") from err
    return path


def build_setup(cfg):
    """Grid, quadrature, and finite-difference matrices for a config."""
    grid = uniform_grid(cfg.domain[0], cfg.domain[1], cfg.n_x)
    quad = gauss_legendre(cfg.n_mu)
    diff = build_diff_matrices(grid)
    return grid, quad, diff


def initial_matrix(cfg, grid, quad):
    """Dense value matrix of the configured initial condition."""
    x = grid.points
    mu = quad.nodes
    if cfg.initial_condition == "parabolic":
        return np.outer((x - 1.0) ** 2 + 1.0, 1.0 + mu**2)
    if cfg.initial_condition == "fourier_ladder":
        coeffs = [1.0] + [10.0 ** (-k) for k in range(1, 11)]
    else:
        coeffs = [float(c) for c in cfg.ic_coeffs]
    f = coeffs[0] * np.ones((grid.n_x, quad.n_mu))
    for k, c in enumerate(coeffs[1:], start=1):
        f += c * np.outer(np.sin(k * np.pi * x), mu**k)
    return f


def _reference(cfg, model, f0, kind):
    """The (matrix, kind, weighted spectrum) a command measures its jobs by.

    kind "dense" is the exact flow of the full system from f0 over
    cfg.t_final; kind "diffusion_limit" is the diffusion-limit density of
    f0 at cfg.t_final, lifted as constant in angle.  Errors are relative to
    the reference's weighted norm and to its density's, so a reference
    with either norm zero raises ConfigError before any job runs.
    """
    if kind == "dense":
        ref, _ = integrate(model, f0, "reference", cfg.t_final, 1)
    else:
        rho = diffusion_limit_density(model, density(model, f0), cfg.t_final)
        ref = np.outer(rho, np.ones(model.quad.n_mu))
    wx, wmu = model.wx, model.wmu
    zero = [name for name, norm in (
        ("density norm", weighted_norm(density(model, ref), wx)),
        ("weighted norm", frob_norm_weighted(ref, wx, wmu))) if norm == 0.0]
    if zero:
        raise ConfigError(
            f"the {kind} reference has zero {' and '.join(zero)}, so "
            f"relative errors are undefined; check the initial condition")
    return ref, kind, weighted_singular_values(ref, wx, wmu)


def _model_and_initial(cfg, eps):
    """The model at eps on the config's grid, and the initial matrix."""
    grid, quad, diff = build_setup(cfg)
    return (make_model(grid, quad, diff, _as_float("eps", eps)),
            initial_matrix(cfg, grid, quad))


def run_single(cfg, model, f0, dt, reference, start):
    """Integrate f0 under model over cfg.t_final in steps of dt.

    ``reference`` is a ``_reference`` triple to measure the error against
    and ``start`` is ``from_full(f0, cfg.rank, model)``, the rank-r state
    with its delta0 and sigma_tail; a command builds each once and shares
    them among its jobs.  Returns (RunResult, final matrix).
    """
    dt = _as_float("dt", dt)
    n = n_steps(cfg.t_final, dt)

    t0 = time.perf_counter()
    state, delta0, sigma_tail = start
    if cfg.integrator == "reference":
        f_final, trace = integrate(model, f0, "reference", dt, n,
                                   debug=cfg.debug_trace)
        delta0 = 0.0
    else:
        final, trace = integrate(model, state, cfg.integrator, dt, n,
                                 debug=cfg.debug_trace)
        f_final = reconstruct(final)

    ref, kind, spectrum = reference
    report = error_report(f_final, ref, model, spectrum)
    wall = time.perf_counter() - t0
    return RunResult(
        config=cfg.to_dict(),
        reference_kind=kind,
        error_report=report_to_dict(report),
        delta0=float(delta0),
        sigma_tail=float(sigma_tail),
        n_steps=n,
        wall_time_seconds=wall,
        diagnostics=None if trace is None else [asdict(t) for t in trace],
    ), f_final


def _write_json(path, data):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(value)
    return f"{float(value):.16e}"


def write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def cmd_run(cfg, outdir):
    """Single integration; writes result.json (+ errors.csv vs dense ref)."""
    cfg.validate()
    if isinstance(cfg.eps, list) or isinstance(cfg.dt, list):
        raise ConfigError("run needs scalar eps and dt; use a sweep command")
    model, f0 = _model_and_initial(cfg, cfg.eps)
    kind = "dense" if cfg.compare_reference else "diffusion_limit"
    result, _ = run_single(cfg, model, f0, cfg.dt,
                           _reference(cfg, model, f0, kind),
                           from_full(f0, cfg.rank, model))
    _write_json(Path(outdir) / "result.json", asdict(result))
    if cfg.compare_reference:
        rep = result.error_report
        write_csv(
            Path(outdir) / "errors.csv",
            ["t_final", "rel_l2_density", "rel_l2_full", "mass"],
            [(cfg.t_final, rep["rel_l2_density"], rep["rel_l2_full"],
              rep["mass"])],
        )
    return result


def cmd_sweep_eps(cfg, outdir):
    """One run per eps against the diffusion-limit density; writes CSV."""
    cfg.validate()
    eps_list = cfg.eps if isinstance(cfg.eps, list) else [cfg.eps]
    if not eps_list:
        raise ConfigError("eps list is empty")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError("eps list must be strictly descending")

    # the diffusion-limit density does not depend on eps: lift it once
    lift_model, f0 = _model_and_initial(cfg, eps_list[0])
    reference = _reference(cfg, lift_model, f0, "diffusion_limit")
    start = from_full(f0, cfg.rank, lift_model)
    grid, quad, diff = lift_model.grid, lift_model.quad, lift_model.diff

    results = [run_single(cfg, make_model(grid, quad, diff, eps), f0, cfg.dt,
                          reference, start)[0]
               for eps in eps_list]
    rows = [
        (eps, res.error_report["rel_l2_density"], res.wall_time_seconds)
        for eps, res in zip(eps_list, results)
    ]
    write_csv(Path(outdir) / "sweep_eps.csv",
              ["eps", "rel_l2_density", "wall_time_seconds"], rows)
    summary = replace(
        results[-1], config=cfg.to_dict(), diagnostics=None,
        wall_time_seconds=sum(r.wall_time_seconds for r in results))
    _write_json(Path(outdir) / "result.json", asdict(summary))
    return rows


def fit_slope(dts, errors, floor):
    """OLS slope of log error vs log dt, restricted to errors above floor."""
    pts = [(math.log(d), math.log(e)) for d, e in zip(dts, errors) if e > floor]
    if len(pts) < 2:
        return None
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    return float(np.polyfit(xs, ys, 1)[0])


def cmd_sweep_dt(cfg, outdir):
    """GAP error vs time step against one coalesced reference; writes CSV."""
    cfg.validate()
    dt_list = cfg.dt if isinstance(cfg.dt, list) else [cfg.dt]
    if not dt_list:
        raise ConfigError("dt list is empty")

    model, f0 = _model_and_initial(cfg, cfg.eps)
    reference = _reference(cfg, model, f0, "dense")
    ref, _, sigma = reference
    start = from_full(f0, cfg.rank, model)
    ref_norm = frob_norm_weighted(ref, model.wx, model.wmu)
    r = cfg.rank
    sigma_tail = float(sigma[r]) if r < len(sigma) else 0.0
    sigma_tail_rel = sigma_tail / ref_norm

    rows = []
    for dt in dt_list:
        res, _ = run_single(cfg, model, f0, dt, reference, start)
        rows.append((dt, res.error_report["rel_l2_full"], sigma_tail))
    write_csv(Path(outdir) / "sweep_dt.csv",
              ["dt", "rel_l2_full", "sigma_tail"], rows)

    slope = fit_slope([row[0] for row in rows], [row[1] for row in rows],
                      10.0 * sigma_tail_rel)
    _write_json(Path(outdir) / "sweep_dt_summary.json", {
        "config": cfg.to_dict(),
        "slope": slope,
        "sigma_tail": sigma_tail,
        "sigma_tail_rel": sigma_tail_rel,
        "reference_norm": ref_norm,
        "errors": [row[1] for row in rows],
    })
    return rows, slope, sigma_tail_rel


def cmd_singvals(cfg, outdir):
    """Weighted singular values of the reference solution at t_final."""
    cfg.validate(allow_zero_t=True)
    model, f0 = _model_and_initial(cfg, cfg.eps)
    f = f0
    if cfg.t_final > 0:
        f, _ = integrate(model, f0, "reference", cfg.t_final, 1)
    sigma = weighted_singular_values(f, model.wx, model.wmu)
    rows = [(k + 1, s) for k, s in enumerate(sigma)]
    write_csv(Path(outdir) / "singvals.csv", ["index", "sigma"], rows)
    return sigma


def cmd_compare(cfg, outdir):
    """gap/psi/bug/reference errors against the dense reference at fixed eps.

    A scheme that raises, or ends with rel_l2_full not at most 1, is
    ``diverged``, with NaN errors.
    """
    cfg.validate()
    model, f0 = _model_and_initial(cfg, cfg.eps)
    reference = _reference(cfg, model, f0, "dense")
    ref, _, sigma = reference
    start = from_full(f0, cfg.rank, model)

    rows = []
    for scheme in ("gap", "psi", "bug"):
        try:
            res, _ = run_single(replace(cfg, integrator=scheme), model, f0,
                                cfg.dt, reference, start)
            full = res.error_report["rel_l2_full"]
            # farther from the reference than the zero matrix is: a finite
            # blow-up, reported as a raised divergence is
            if not full <= 1.0:
                raise NumericalFailureError(
                    f"rel_l2_full = {full:.3e} against the reference")
            rows.append((scheme, full, res.error_report["rel_l2_density"],
                         "ok"))
        except (NumericalFailureError, DegenerateStateError) as err:
            log.warning("%s diverged: %s", scheme, err)
            rows.append((scheme, math.nan, math.nan, "diverged"))
    # the reference row measures the reference computed above against itself
    report = error_report(ref, ref, model, sigma)
    rows.append(("reference", report.rel_l2_full, report.rel_l2_density, "ok"))
    write_csv(Path(outdir) / "compare.csv",
              ["scheme", "rel_l2_full", "rel_l2_density", "status"], rows)
    return rows
