"""Command-line front end.

Usage:
    rte run|sweep-eps|sweep-dt|singvals|compare --config <path>
        [--out <dir>] [--override key=value ...]

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 size-cap
rejection.
"""

import argparse
import logging
import os
import sys
from pathlib import Path

from .exceptions import ConfigError, NumericalFailureError, SizeCapError
from .experiments import (
    cmd_compare,
    cmd_run,
    cmd_singvals,
    cmd_sweep_dt,
    cmd_sweep_eps,
    load_config,
)

_COMMANDS = {
    "run": cmd_run,
    "sweep-eps": cmd_sweep_eps,
    "sweep-dt": cmd_sweep_dt,
    "singvals": cmd_singvals,
    "compare": cmd_compare,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rte",
        description="Low-rank integrators for the scaled radiative transfer "
                    "equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", help="output directory (default: ./out)")
        p.add_argument("--override", nargs="*", action="extend", default=[],
                       metavar="KEY=VAL",
                       help="config field overrides (values parsed as JSON)")
        p.add_argument("-v", "--verbose", action="store_true")
    return parser


def _check_out(path):
    """ConfigError unless the nearest existing ancestor of path is a
    writable directory.

    Checked before any job, so an unusable --out (say, a path below a
    regular file) stops the command before its work; nothing is made
    here, the command's first write makes the directory.
    """
    probe = path.absolute()
    while not probe.exists():
        probe = probe.parent
    if not (probe.is_dir() and os.access(probe, os.W_OK | os.X_OK)):
        raise ConfigError(f"cannot use output directory {path}: {probe} is "
                          f"not a writable directory")


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(args.config, args.override)
        # made by the command's first write, after its own checks
        outdir = Path(args.out or "out")
        _check_out(outdir)
        _COMMANDS[args.command](cfg, outdir)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except SizeCapError as err:
        print(f"size-cap rejection: {err}", file=sys.stderr)
        return 4
    except NumericalFailureError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    print(f"wrote results to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
