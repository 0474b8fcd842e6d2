"""szilard-sim: run one sweep target and write its CSV plus manifest.

    szilard-sim <preset|custom> [--config FILE] [--out FILE] [--workers K]
                [--rel-tol X] [--max-terms M] [--eq38-literal]
                [--lambda LIST] [--nu LIST] [--N LIST]

Each flag is a config key, written over the --config file's value before
one spec_from_config call resolves the target: --out and --workers are
[run] output and workers, --rel-tol and --max-terms are [policy] rel_tol and
max_terms, --eq38-literal is [parameters] literal_denominator = true, and
--lambda, --nu and --N are [list.strength], [list.nu] and [list.N] values.
So a flag is checked, and fails, exactly as its key does.

Exit codes: 0 success, 1 bad configuration, 2 every grid point failed,
3 output not writable.
"""

import argparse
import sys

from .errors import ConfigError, OutputError, SzilardError
from .sweeps import (load_config, preset, preset_names, run_sweep,
                     spec_from_config)

__all__ = ["main"]


def _build_parser():
    """The parser; each flag's dest names the config key it sets, as
    'section:key'."""
    parser = argparse.ArgumentParser(
        prog="szilard-sim",
        description="Quantum Szilard engine sweeps: evaluate one preset "
                    "grid (or a config-defined custom grid) and write a "
                    "CSV with its run manifest.")
    parser.add_argument("target", metavar="target",
                        help="one of: " + ", ".join(preset_names()))
    parser.add_argument("--config", metavar="FILE",
                        help="INI config; sections [run], [policy], "
                             "[parameters], [axis.*], [list.*].  A run "
                             "manifest is itself a valid config.")
    parser.add_argument("--out", metavar="FILE", dest="run:output",
                        help="CSV output path")
    parser.add_argument("--workers", metavar="K", dest="run:workers",
                        help="recorded in the run manifest; evaluation "
                             "is serial, so K changes nothing")
    parser.add_argument("--rel-tol", metavar="X", dest="policy:rel_tol",
                        help="series tail tolerance")
    parser.add_argument("--max-terms", metavar="M", dest="policy:max_terms",
                        help="hard cap on series length")
    parser.add_argument("--eq38-literal", action="store_const", const="true",
                        dest="parameters:literal_denominator",
                        help="Morse efficiency denominator without the "
                             "logarithm (verbatim variant)")
    parser.add_argument("--lambda", metavar="LIST", dest="list.strength:values",
                        help="comma list of barrier strengths (fig6)")
    parser.add_argument("--nu", metavar="LIST", dest="list.nu:values",
                        help="comma list of power-law exponents")
    parser.add_argument("--N", metavar="LIST", dest="list.N:values",
                        help="comma list of particle counts")
    return parser


def _resolve_spec(args):
    """The spec of the target, the --config file and the flags, each flag
    written into the config as its key, over the file's value."""
    if args.target == "custom" and args.config is None:
        raise ConfigError("custom target needs --config")
    base = None if args.target == "custom" else preset(args.target)
    cp = load_config(args.config)
    for dest, value in vars(args).items():
        if ":" in dest and value is not None:
            section, key = dest.split(":")
            if not cp.has_section(section):
                cp.add_section(section)
            cp.set(section, key, value)
    return spec_from_config(base, cp)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        spec = _resolve_spec(args)
        outcome = run_sweep(spec)
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SzilardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"{spec.target}: {outcome.points} points, {outcome.failed} failed,"
          f" {outcome.wall_clock:.2f} s -> {outcome.csv_path}")
    if outcome.failed:
        print(f"failed points recorded in {outcome.manifest_path}")
    if outcome.points and outcome.failed == outcome.points:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
