"""Command-line front end.

Usage:
    rte run|sweep-eps|sweep-dt|singvals|compare --config <path>
        [--out <dir>] [--override key=value ...]

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 size-cap
rejection.
"""

import argparse
import logging
import sys

from .exceptions import (
    ConfigError,
    DegenerateStateError,
    NumericalFailureError,
    SizeCapError,
)
from .experiments import (
    cmd_compare,
    cmd_run,
    cmd_singvals,
    cmd_sweep_dt,
    cmd_sweep_eps,
    load_config,
    resolve_output_dir,
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
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--override", nargs="*", default=[], metavar="KEY=VAL",
                       help="config field overrides (values parsed as JSON)")
        p.add_argument("-v", "--verbose", action="store_true")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(args.config, args.override)
        outdir = resolve_output_dir(cfg, args.out)
        _COMMANDS[args.command](cfg, outdir)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except SizeCapError as err:
        print(f"size-cap rejection: {err}", file=sys.stderr)
        return 4
    except (NumericalFailureError, DegenerateStateError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    print(f"wrote results to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
