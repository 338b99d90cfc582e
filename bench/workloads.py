"""The benchmark's workloads: seeded configs and per-job correctness gates.

A workload is one public `rte` command (sweep-dt, sweep-eps or compare) on a
config file generated from a seed.  The seed draws the signs of the
`poly_fourier` initial-condition coefficients (magnitudes decay as 10^-k) and
is also the `StepConfig` seed, which feeds the seeded replacement columns of
the weighted QR.  The program sees only the generated config file.

This module imports no NumPy, so the runner can pin BLAS threads before the
first NumPy import.
"""

import math
import random
from dataclasses import dataclass

# criterion 1: errors fall with eps and reach this at the smallest eps
DIFFUSIVE_MAX_ERR = 1e-4
# criterion 2: the fitted dt slope and the plateau window around sigma_tail
SLOPE_RANGE = (0.8, 1.2)
PLATEAU_RANGE = (0.1, 10.0)
# every scheme of `rte compare` at eps = 0.1, dt = 0.01 lands below this
# (measured: GAP ~6e-13, PSI ~1.5e-12, BUG ~4.7e-8, reference exactly 0)
SCHEME_TOL = 1e-5


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # attribute of rte_lowrank.experiments
    n_terms: int        # poly_fourier terms after the constant
    config: dict        # everything but ic_coeffs and seed
    why: str

    def job_labels(self, cfg):
        """One label per job (one integration plus its check) of one run."""
        if self.command == "cmd_compare":
            return ["gap", "psi", "bug", "reference"]
        key = "dt" if self.command == "cmd_sweep_dt" else "eps"
        return [f"{key}={v:g}" for v in cfg[key]]


_BASE = {
    "domain": [0.0, 2.0],
    "t_final": 1.0,
    "integrator": "gap",
    "initial_condition": "poly_fourier",
}

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "kinetic-dt", "cmd_sweep_dt", 10,
            dict(_BASE, n_x=200, n_mu=100, rank=10, eps=1.0,
                 dt=[0.1, 0.05, 0.025, 0.0125, 0.00625, 0.003125,
                     0.0015625]),
            "fig2 shape at eps = 1: 1270 cheap GAP steps, so per-step "
            "overhead (weighted MGS, Taylor expmv, norm estimate) is the "
            "whole cost"),
        Workload(
            "diffusive-eps", "cmd_sweep_eps", 4,
            dict(_BASE, n_x=1000, n_mu=100, rank=5,
                 eps=[1.0, 0.1, 0.01, 0.001, 0.0001], dt=0.1),
            "fig1 shape down to eps = 1e-4: few heavy steps in the "
            "structured K/L expm stacks and the dense diffusion lift"),
        Workload(
            "schemes-ref", "cmd_compare", 10,
            dict(_BASE, n_x=200, n_mu=100, rank=10, eps=0.1, dt=0.01),
            "rte compare at eps = 0.1: GAP, PSI, BUG and the dense "
            "reference; the only run of the S substep and of expmv on the "
            "full operator"),
    )
}


def ic_coeffs(seed, n_terms):
    """1 followed by +/-10^-k for k = 1..n_terms, signs drawn from the seed."""
    rng = random.Random(seed)
    return [1.0] + [float((1.0 if rng.random() < 0.5 else -1.0) * 10.0 ** -k)
                    for k in range(1, n_terms + 1)]


def make_config(workload, seed, overrides=None):
    """The config dict the program reads, as plain JSON-safe floats."""
    cfg = dict(workload.config)
    cfg.update(overrides or {})
    cfg["ic_coeffs"] = ic_coeffs(seed, cfg.pop("n_terms", workload.n_terms))
    cfg["seed"] = int(seed)
    return cfg


def _finite(v):
    return isinstance(v, float) and math.isfinite(v)


def check(workload, cfg, ret):
    """Gate one command result: (rel_err, per-job pass flags, notes).

    rel_err is NaN when the value it is defined on is missing.
    """
    if workload.command == "cmd_sweep_dt":
        return _check_sweep_dt(ret)
    if workload.command == "cmd_sweep_eps":
        return _check_sweep_eps(ret)
    return _check_compare(ret)


def _check_sweep_dt(ret):
    """Criterion 2: slope in range; a reached plateau sits near sigma_tail."""
    rows, slope, sigma_tail_rel = ret
    errs = [float(r[1]) for r in rows]
    ok = [_finite(e) and e > 0 for e in errs]
    notes = []
    if slope is None or not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
        notes.append(f"slope {slope} outside {SLOPE_RANGE}")
    finite = [e for e in errs if _finite(e)]
    if finite:
        plateau = min(finite)
        lo, hi = (f * sigma_tail_rel for f in PLATEAU_RANGE)
        if plateau <= hi and plateau < lo:
            notes.append(f"plateau {plateau:.3e} below {lo:.3e}")
    if notes:
        ok = [False] * len(ok)
    smallest = min(range(len(rows)), key=lambda i: rows[i][0])
    notes.append(f"slope={slope}")
    return errs[smallest], ok, notes


def _check_sweep_eps(rows):
    """Criterion 1: errors strictly fall with eps; the last is small."""
    errs = [float(r[1]) for r in rows]
    ok = []
    for j, e in enumerate(errs):
        good = _finite(e)
        if j > 0:
            good = good and e < errs[j - 1]
        if j == len(errs) - 1:
            good = good and e <= DIFFUSIVE_MAX_ERR
        ok.append(good)
    return errs[-1], ok, []


def _check_compare(rows):
    """Every scheme finishes with finite output within SCHEME_TOL."""
    ok = [status == "ok" and _finite(float(full)) and float(full) <= SCHEME_TOL
          for _, full, _, status in rows]
    lowrank = [float(full) for scheme, full, _, _ in rows
               if scheme != "reference"]
    rel_err = max(lowrank) if all(map(_finite, lowrank)) else math.nan
    return rel_err, ok, []
