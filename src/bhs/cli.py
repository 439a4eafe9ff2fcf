"""Command-line entry point.

Subcommands mirror the scenario modes plus a data-file checker:

    bhs forward <scenario>        synthesize far-field data
    bhs lsm <scenario>            linear-sampling reconstruction
    bhs esm <scenario>            extended-sampling localization
    bhs esm-multilevel <scenario> halving-radius localization
    bhs verify <farfield-file>    print grid metadata and reciprocity residual

All configuration lives in the scenario file; flags only select output
paths and verbosity.
"""

from __future__ import annotations

import argparse
import sys

from .exceptions import BhsError, ConfigError, FormatError
from . import fileio
from .forward import reciprocity_residual
from .scenario import MODES, load_scenario, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bhs", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"run a {mode} scenario")
        p.add_argument("scenario", help="scenario file (key=value lines)")
        p.add_argument("-o", "--out", default=None, help="output path prefix override")
        p.add_argument("-q", "--quiet", action="store_true", help="suppress progress output")
    v = sub.add_parser("verify", help="check a far-field data file")
    v.add_argument("datafile", help="far-field file to inspect")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _verify(args.datafile)
        scenario = load_scenario(args.scenario)
        if scenario.mode != args.command:
            raise ConfigError(
                f"scenario mode is {scenario.mode!r} but the {args.command!r} command was invoked"
            )
        outputs, diagnostics = run(scenario, out=args.out)
        if not args.quiet:
            for key in sorted(diagnostics):
                print(f"{key}={diagnostics[key]}")
            for path in outputs:
                print(f"wrote {path}")
        return 0
    except (ConfigError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BhsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _verify(path: str) -> int:
    F, kappa = fileio.read_farfield(path)
    print(f"kappa={kappa:.17g}")
    print(f"N={len(F)}")
    print("directions=equiangular, theta_i = 2*pi*i/N, 0-based")
    print(f"reciprocity_residual={reciprocity_residual(F):.6e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
