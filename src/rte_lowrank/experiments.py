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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .exceptions import ConfigError, DegenerateStateError, NumericalFailureError
from .grids import build_diff_matrices, gauss_legendre, uniform_grid
from .integrators import StepConfig, integrate
from .model import density, diffusion_limit_density, make_model
from .state import error_report, from_full, reconstruct, report_to_dict
from .wlinalg import (frob_norm_weighted, weighted_singular_values,
                      weighted_truncated_svd)

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
    substep_solver: str = "exponential"
    expmv_tol: float = 1e-10
    exponential_method: str = "auto"
    output_dir: Optional[str] = None
    seed: int = 0
    basis_pinning: bool = False
    debug_trace: bool = False
    compare_reference: bool = False
    workers: int = 1

    def validate(self, allow_zero_t=False):
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
        if self.initial_condition == "poly_fourier" and not self.ic_coeffs:
            raise ConfigError("poly_fourier needs a nonempty ic_coeffs list")
        for e in np.atleast_1d(np.asarray(self.eps, dtype=float)):
            if not 0.0 < e <= 10.0:
                raise ConfigError(f"eps entries must lie in (0, 10], got {e}")
        if self.t_final > 0:
            for d in np.atleast_1d(np.asarray(self.dt, dtype=float)):
                n_steps(self.t_final, float(d))
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
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
        cfg.domain = tuple(float(v) for v in cfg.domain)
        if isinstance(cfg.eps, list):
            cfg.eps = [float(v) for v in cfg.eps]
        else:
            cfg.eps = float(cfg.eps)
        if isinstance(cfg.dt, list):
            cfg.dt = [float(v) for v in cfg.dt]
        else:
            cfg.dt = float(cfg.dt)
        return cfg


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

    def to_dict(self):
        return {
            "config": self.config,
            "reference_kind": self.reference_kind,
            "error_report": self.error_report,
            "delta0": self.delta0,
            "sigma_tail": self.sigma_tail,
            "n_steps": self.n_steps,
            "wall_time_seconds": self.wall_time_seconds,
            "diagnostics": self.diagnostics,
        }


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
    path.mkdir(parents=True, exist_ok=True)
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


def step_config(cfg, dt):
    return StepConfig(
        dt=dt,
        substep_solver=cfg.substep_solver,
        expmv_tol=cfg.expmv_tol,
        exponential_method=cfg.exponential_method,
        basis_pinning=cfg.basis_pinning,
        debug=cfg.debug_trace,
        seed=cfg.seed,
    )


def _diffusion_lift(model, f0, t):
    """Angularly constant matrix carrying the diffusion-limit density."""
    rho = diffusion_limit_density(model, density(model, f0), t)
    return np.outer(rho, np.ones(model.quad.n_mu))


def _trace_to_dicts(trace):
    if trace is None:
        return None
    return [
        {
            "step_index": t.step_index,
            "substep": t.substep,
            "pre_norm": t.pre_norm,
            "post_norm": t.post_norm,
            "orth_defect": t.orth_defect,
            "replaced_columns": list(t.replaced_columns),
            "seed": t.seed,
        }
        for t in trace
    ]


def run_single(cfg, dt=None, eps=None, model=None, f0=None,
               reference_matrix=None):
    """Execute one integration and assemble its RunResult.

    ``dt``/``eps`` override the config scalars (used by sweeps).  The error
    report compares against a dense reference solution when
    cfg.compare_reference is set (or one is supplied), and against the
    angularly lifted diffusion-limit density otherwise.
    """
    dt = float(dt if dt is not None else cfg.dt)
    eps = float(eps if eps is not None else cfg.eps)
    n = n_steps(cfg.t_final, dt)

    t0 = time.perf_counter()
    if model is None:
        grid, quad, diff = build_setup(cfg)
        model = make_model(grid, quad, diff, eps)
    else:
        grid, quad = model.grid, model.quad
    if f0 is None:
        f0 = initial_matrix(cfg, grid, quad)

    scfg = step_config(cfg, dt)
    wx = model.wx
    _, _, _, sigma_tail = weighted_truncated_svd(f0, cfg.rank, wx, model.wmu)

    if cfg.integrator == "reference":
        final, trace = integrate(model, f0, "reference", scfg, n)
        f_final = final
        delta0 = 0.0
    else:
        state, delta0 = from_full(f0, cfg.rank, grid, quad)
        final, trace = integrate(model, state, cfg.integrator, scfg, n)
        f_final = reconstruct(final)

    if reference_matrix is not None:
        ref, kind = reference_matrix, "dense"
    elif cfg.compare_reference:
        ref, _ = integrate(model, f0, "reference", step_config(cfg, cfg.t_final), 1)
        kind = "dense"
    else:
        ref, kind = _diffusion_lift(model, f0, cfg.t_final), "diffusion_limit"

    report = error_report(f_final, ref, model)
    wall = time.perf_counter() - t0
    return RunResult(
        config=cfg.to_dict(),
        reference_kind=kind,
        error_report=report_to_dict(report),
        delta0=float(delta0),
        sigma_tail=float(sigma_tail),
        n_steps=n,
        wall_time_seconds=wall,
        diagnostics=_trace_to_dicts(trace),
    ), f_final


def write_result_json(result, outdir, name="result.json"):
    path = Path(outdir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


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


def _run_jobs(jobs, workers):
    """Evaluate thunks, possibly concurrently, preserving input order."""
    if workers <= 1 or len(jobs) <= 1:
        return [job() for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(job) for job in jobs]
        return [f.result() for f in futures]


def cmd_run(cfg, outdir):
    """Single integration; writes result.json (+ errors.csv vs dense ref)."""
    cfg.validate()
    if isinstance(cfg.eps, list) or isinstance(cfg.dt, list):
        raise ConfigError("run needs scalar eps and dt; use a sweep command")
    result, _ = run_single(cfg)
    write_result_json(result, outdir)
    if result.reference_kind == "dense":
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

    grid, quad, diff = build_setup(cfg)
    f0 = initial_matrix(cfg, grid, quad)
    # the diffusion-limit density does not depend on eps: lift it once
    lift_model = make_model(grid, quad, diff, eps_list[0])
    lift = _diffusion_lift(lift_model, f0, cfg.t_final)

    def job(eps):
        model = make_model(grid, quad, diff, eps)
        return run_single(cfg, eps=eps, model=model, f0=f0,
                          reference_matrix=lift)

    results = _run_jobs([lambda e=e: job(e) for e in eps_list], cfg.workers)
    rows = [
        (eps, res.error_report["rel_l2_density"], res.wall_time_seconds)
        for eps, (res, _) in zip(eps_list, results)
    ]
    write_csv(Path(outdir) / "sweep_eps.csv",
              ["eps", "rel_l2_density", "wall_time_seconds"], rows)
    summary = RunResult(
        config=cfg.to_dict(), reference_kind="diffusion_limit",
        error_report=results[-1][0].error_report,
        delta0=results[-1][0].delta0, sigma_tail=results[-1][0].sigma_tail,
        n_steps=results[-1][0].n_steps,
        wall_time_seconds=sum(r.wall_time_seconds for r, _ in results),
    )
    write_result_json(summary, outdir)
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

    grid, quad, diff = build_setup(cfg)
    model = make_model(grid, quad, diff, float(cfg.eps))
    f0 = initial_matrix(cfg, grid, quad)
    ref, _ = integrate(model, f0, "reference", step_config(cfg, cfg.t_final), 1)
    ref_norm = frob_norm_weighted(ref, model.wx, model.wmu)
    sigma = weighted_singular_values(ref, model.wx, model.wmu)
    r = cfg.rank
    sigma_tail = float(sigma[r]) if r < len(sigma) else 0.0
    sigma_tail_rel = sigma_tail / ref_norm

    def job(dt):
        res, _ = run_single(cfg, dt=dt, model=model, f0=f0,
                            reference_matrix=ref)
        return res

    results = _run_jobs([lambda d=d: job(d) for d in dt_list], cfg.workers)
    rows = [
        (dt, res.error_report["rel_l2_full"], sigma_tail)
        for dt, res in zip(dt_list, results)
    ]
    write_csv(Path(outdir) / "sweep_dt.csv",
              ["dt", "rel_l2_full", "sigma_tail"], rows)

    slope = fit_slope([row[0] for row in rows], [row[1] for row in rows],
                      10.0 * sigma_tail_rel)
    summary = {
        "config": cfg.to_dict(),
        "slope": slope,
        "sigma_tail": sigma_tail,
        "sigma_tail_rel": sigma_tail_rel,
        "reference_norm": ref_norm,
        "errors": [row[1] for row in rows],
    }
    summary_path = Path(outdir) / "sweep_dt_summary.json"
    summary_path.parent.mkdir(parents=True, exist_ok=True)
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return rows, slope, sigma_tail_rel


def cmd_singvals(cfg, outdir):
    """Weighted singular values of the reference solution at t_final."""
    cfg.validate(allow_zero_t=True)
    grid, quad, diff = build_setup(cfg)
    model = make_model(grid, quad, diff, float(cfg.eps))
    f0 = initial_matrix(cfg, grid, quad)
    if cfg.t_final == 0:
        ref = f0
    else:
        ref, _ = integrate(model, f0, "reference",
                           step_config(cfg, cfg.t_final), 1)
    sigma = weighted_singular_values(ref, model.wx, model.wmu)
    rows = [(k + 1, s) for k, s in enumerate(sigma)]
    write_csv(Path(outdir) / "singvals.csv", ["index", "sigma"], rows)
    return sigma


def cmd_compare(cfg, outdir):
    """gap/psi/bug/reference errors against the dense reference at fixed eps."""
    cfg.validate()
    grid, quad, diff = build_setup(cfg)
    model = make_model(grid, quad, diff, float(cfg.eps))
    f0 = initial_matrix(cfg, grid, quad)
    ref, _ = integrate(model, f0, "reference", step_config(cfg, cfg.t_final), 1)

    rows = []
    for scheme in ("gap", "psi", "bug"):
        sub = RunConfig.from_dict({**cfg.to_dict(), "integrator": scheme})
        try:
            res, _ = run_single(sub, model=model, f0=f0, reference_matrix=ref)
            rows.append((scheme, res.error_report["rel_l2_full"],
                         res.error_report["rel_l2_density"], "ok"))
        except (NumericalFailureError, DegenerateStateError) as err:
            log.warning("%s diverged: %s", scheme, err)
            rows.append((scheme, math.nan, math.nan, "diverged"))
    # the reference row measures the reference computed above against itself
    report = error_report(ref, ref, model)
    rows.append(("reference", report.rel_l2_full, report.rel_l2_density, "ok"))
    write_csv(Path(outdir) / "compare.csv",
              ["scheme", "rel_l2_full", "rel_l2_density", "status"], rows)
    return rows
