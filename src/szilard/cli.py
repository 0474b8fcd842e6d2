"""szilard-sim: run one sweep target and write its CSV plus manifest.

    szilard-sim <preset|custom> [--config FILE] [--out FILE] [--workers K]
                [--rel-tol X] [--max-terms M] [--eq38-literal]
                [--lambda LIST] [--nu LIST] [--N LIST]

Exit codes: 0 success, 1 bad configuration, 2 every grid point failed,
3 output not writable.
"""

import argparse
import sys
from dataclasses import replace

from .ensembles import TruncationPolicy
from .errors import ConfigError, OutputError, SzilardError
from .sweeps import (load_config, parse_integer, parse_quantity, preset,
                     preset_names, run_sweep, spec_from_config)

__all__ = ["main"]


def _build_parser():
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
    parser.add_argument("--out", metavar="FILE", help="CSV output path")
    parser.add_argument("--workers", metavar="K",
                        help="recorded in the run manifest; evaluation "
                             "is serial, so K changes nothing")
    parser.add_argument("--rel-tol", metavar="X", dest="rel_tol",
                        help="series tail tolerance")
    parser.add_argument("--max-terms", metavar="M", dest="max_terms",
                        help="hard cap on series length")
    parser.add_argument("--eq38-literal", action="store_true", dest="literal",
                        help="Morse efficiency denominator without the "
                             "logarithm (verbatim variant)")
    parser.add_argument("--lambda", dest="strengths", metavar="LIST",
                        help="comma list of barrier strengths (fig6)")
    parser.add_argument("--nu", dest="nus", metavar="LIST",
                        help="comma list of power-law exponents")
    parser.add_argument("--N", dest="counts", metavar="LIST",
                        help="comma list of particle counts")
    return parser


def _parse_list(raw, as_int=False):
    parse = parse_integer if as_int else parse_quantity
    values = tuple(parse(v) for v in raw.split(",") if v.strip())
    if not values:
        raise ConfigError("empty value list")
    return values


def _override_list(spec, key, values, flag):
    if key not in spec.lists:
        raise ConfigError(f"{flag} does not apply to target {spec.target!r}")
    lists = dict(spec.lists)
    lists[key] = values
    return replace(spec, lists=lists)


def _resolve_spec(args):
    if args.target == "custom":
        if not args.config:
            raise ConfigError("custom target needs --config")
        spec = spec_from_config(None, load_config(args.config))
    else:
        spec = preset(args.target)
        if args.config:
            spec = spec_from_config(spec, load_config(args.config))

    if args.out:
        spec = replace(spec, output=args.out)
    # numbers parse here, like their config keys, and not as argparse
    # types: parse_args would let a ConfigError escape main
    if args.workers is not None:
        spec = replace(spec, workers=parse_integer(args.workers))
        if spec.workers < 1:
            raise ConfigError("--workers must be at least 1")
    if args.rel_tol is not None or args.max_terms is not None:
        policy = TruncationPolicy(
            rel_tol=spec.policy.rel_tol if args.rel_tol is None
            else parse_quantity(args.rel_tol),
            max_terms=spec.policy.max_terms if args.max_terms is None
            else parse_integer(args.max_terms))
        spec = replace(spec, policy=policy)
    if args.literal:
        if spec.family != "morse-cycle":
            raise ConfigError(
                "--eq38-literal applies to the Morse targets only")
        params = dict(spec.params)
        params["literal_denominator"] = True
        spec = replace(spec, params=params)
    if args.strengths:
        spec = _override_list(spec, "strength",
                              _parse_list(args.strengths), "--lambda")
    if args.nus:
        spec = _override_list(spec, "nu", _parse_list(args.nus), "--nu")
    if args.counts:
        spec = _override_list(spec, "N",
                              _parse_list(args.counts, as_int=True), "--N")
    return spec


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
