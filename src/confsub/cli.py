"""Command-line entry point.

Commands::

    confsub verify <manifest> [--tol T] [--checks a,b|all] [--points N]
                              [--seed S] [--format text|json]
    confsub example <id>      [--tol T] [--format text|json]
    confsub list-checks

Exit status: 0 when no check hard-fails (hypothesis-not-met records,
published-value divergences, and convention-sensitive flagged failures
do not fail a run), 1 on any hard failure, 2 on invalid input.
"""

from __future__ import annotations

import argparse
import sys

from . import report
from .manifest import (EXAMPLE_IDS, KNOWN_CHECKS, ManifestError,
                       load_manifest, parse_tolerance)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _tolerance(text):
    try:
        return parse_tolerance(text)
    except ManifestError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="confsub",
        description="numerical verification of conformal-submersion "
                    "curvature identities and Ricci-soliton relations")
    subs = parser.add_subparsers(dest="command", required=True)

    verify = subs.add_parser("verify", help="run the checks of a manifest")
    verify.add_argument("manifest", help="path to a manifest file")
    verify.add_argument("--tol", type=float, default=None,
                        help="override the manifest tolerance")
    verify.add_argument("--checks", default=None,
                        help="comma-separated check ids, or 'all'")
    verify.add_argument("--points", type=int, default=None,
                        help="override points.count for box sampling")
    verify.add_argument("--seed", type=int, default=None,
                        help="override points.seed for box sampling")
    verify.add_argument("--format", choices=("text", "json"), default="text")

    example = subs.add_parser(
        "example", help="compare a built-in example against its "
                        "published values")
    example.add_argument("example_id", choices=EXAMPLE_IDS)
    example.add_argument("--tol", type=_tolerance, default=1e-6)
    example.add_argument("--format", choices=("text", "json"),
                         default="text")

    subs.add_parser("list-checks", help="print every known check id")
    return parser


def _verify(args):
    overrides = {}
    if args.tol is not None:
        overrides["tolerance"] = repr(args.tol)
    if args.checks is not None:
        overrides["checks"] = args.checks
    if args.points is not None:
        overrides["points.count"] = str(args.points)
    if args.seed is not None:
        overrides["points.seed"] = str(args.seed)
    job = load_manifest(args.manifest, overrides=overrides)
    rep = report.run_job(job)
    if args.format == "json":
        print(report.to_json(rep))
    else:
        print(report.to_text(rep))
    return rep.exit_code


def _example(args):
    from . import catalog  # only this command reads the catalog

    rep = catalog.run_example(args.example_id, tol=args.tol)
    if args.format == "json":
        print(report.example_report_to_json(rep))
    else:
        print(report.example_report_to_text(rep))
    return EXIT_OK if rep.counts["fail"] == 0 else EXIT_FAIL


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _verify(args)
        if args.command == "example":
            return _example(args)
        for check_id in KNOWN_CHECKS:
            print(check_id)
        return EXIT_OK
    except (FileNotFoundError, ValueError) as exc:
        # ValueError covers ManifestError, ExprError, DegenerateMetricError
        # and EvaluationError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
