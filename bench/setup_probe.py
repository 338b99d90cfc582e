"""Time the benchmark's set-up: import rte_lowrank, load the generated config,
build grids and model, and evaluate the initial condition.

Run as a script, `python3 bench/setup_probe.py <config.json>` prints the
seconds one set-up takes in a fresh process, which is the only way to time
the import more than once.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def timed_setup(config_path):
    """Seconds for one set-up, and the objects it built."""
    t0 = time.perf_counter()
    from rte_lowrank import experiments, model

    if not Path(experiments.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"rte_lowrank was found outside {SRC}: "
                          f"{experiments.__file__}")
    cfg = experiments.load_config(config_path)
    grid, quad, diff = experiments.build_setup(cfg)
    eps = cfg.eps[0] if isinstance(cfg.eps, list) else cfg.eps
    rte_model = model.make_model(grid, quad, diff, eps)
    f0 = experiments.initial_matrix(cfg, grid, quad)
    return time.perf_counter() - t0, (cfg, rte_model, f0)


if __name__ == "__main__":
    seconds, _ = timed_setup(sys.argv[1])
    print(repr(seconds))
