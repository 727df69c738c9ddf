"""Command-line driver: degree reports, regression checks, interpolation.

Four subcommands:

* ``legendrian --degree N`` / ``pencil --degree N`` print a degree
  report (text or JSON);
* ``verify`` recomputes the d=2 Legendrian localization and compares
  the fiber multiset, the six fractions, and the total against the
  frozen constants it holds;
* ``interpolate --family F --min A --max B`` recomputes degrees,
  interpolates the exact counting polynomial, and compares it with the
  closed form (``--partial`` compares pointwise instead).

This module holds the parser, the flag checks and main.  The bodies of
the subcommands are in foldeg.commands (legendrian, pencil, interpolate)
and foldeg.verify, and main imports the one it runs when it dispatches,
so a cold ``import foldeg.cli`` compiles neither.  Each body returns its
report as (JSON dict, text lines, ok) and prints nothing; main checks
the flags and that --out can be written before any body runs, then
writes --out, prints the chosen format and maps errors to exit codes.

Exit codes: 0 success; 1 for a failed computation check, any
ArithmeticError (a non-integral localization sum, e_k, interpolant or
closed form, a fiber of the wrong count or too short a table,
MethodDisagreement, SaturationRankError; a ZeroDivisionError or
OverflowError too), reported on one ``error:`` line, or any
verify/interpolate mismatch; 2 for invalid weights or bad usage (a degree
below the family's minimum, --jobs below 1, an --out file that cannot be
written, the empty path included), reported on one ``error:`` line.  All
output is deterministic for fixed flags.
"""

import argparse
import json
import os
import re
import sys
from importlib import import_module

from .exact import DEFAULT_WEIGHTS, InadmissibleWeights, WeightSystem
from .limits import METHOD_FLAGS
from .polyfit import FAMILIES, InsufficientPoints

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    """A flag value the command cannot run with (exit code 2)."""


def _parse_weights(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "expected 4 comma-separated integers, got %r" % (text,)
        )
    try:
        return WeightSystem(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "weights must be integers, got %r" % (text,)
        ) from None


def _add_common_flags(
    sub, jobs_help="worker processes for independent tasks (default 1)"
):
    sub.add_argument("--weights", type=_parse_weights, default=DEFAULT_WEIGHTS,
                     metavar="a,b,c,d", help="torus weights (default 0,2,7,10)")
    sub.add_argument("--format", choices=("text", "json"), default="text",
                     help="output format (default text)")
    sub.add_argument("--out", metavar="FILE",
                     help="also write the JSON report to FILE")
    if jobs_help:
        sub.add_argument("--jobs", type=int, default=1, metavar="K", help=jobs_help)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="foldeg",
        description="Exact localization degrees of foliation families on P^3.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    leg = subparsers.add_parser(
        "legendrian", help="degree of the Legendrian family"
    )
    leg.add_argument("--degree", type=int, required=True, metavar="N")
    leg.add_argument(
        "--method",
        choices=sorted(METHOD_FLAGS),
        default=None,
        help="limit computation route (default: both for d <= 4, image above)",
    )
    _add_common_flags(
        leg, jobs_help="accepted and checked (K >= 1), but has no effect: "
        "one limit computation serves all six fixed points"
    )
    leg.set_defaults(body="commands.cmd_degree")

    pen = subparsers.add_parser(
        "pencil", help="degree of the pencil-of-planes family"
    )
    pen.add_argument("--degree", type=int, required=True, metavar="N")
    _add_common_flags(pen, jobs_help=None)
    pen.set_defaults(body="commands.cmd_degree")

    ver = subparsers.add_parser(
        "verify", help="regression-check the d=2 computation against frozen constants"
    )
    ver.add_argument("--example", action="store_true",
                     help="also check the worked tangency example")
    ver.add_argument("--format", choices=("text", "json"), default="text")
    ver.add_argument("--out", metavar="FILE")
    ver.set_defaults(body="verify.cmd_verify")

    itp = subparsers.add_parser(
        "interpolate", help="interpolate computed degrees and compare closed forms"
    )
    itp.add_argument("--family", choices=FAMILIES, required=True)
    itp.add_argument("--min", type=int, required=True, metavar="A")
    itp.add_argument("--max", type=int, required=True, metavar="B")
    itp.add_argument(
        "--partial",
        action="store_true",
        help="compare pointwise instead of interpolating (any range)",
    )
    _add_common_flags(itp)
    itp.set_defaults(body="commands.cmd_interpolate")

    return parser


def _join_weights(argv):
    """Join "--weights -4,0,2,7", which argparse reads as two flags, into
    "--weights=-4,0,2,7", after --weights or any prefix of it down to
    --w, as argparse takes; only a minus sign and a digit are joined."""
    words = []
    for word in argv:
        flag = words[-1] if words else ""
        if len(flag) > 2 and "--weights".startswith(flag) and re.match(r"-\d", word):
            word = words.pop() + "=" + word
        words.append(word)
    return words


def _check_out(path):
    """Refuse an --out path that cannot be written (UsageError): the
    empty path, one that names a directory, or one whose directory is
    missing or not writable.  Nothing is created."""
    folder = os.path.dirname(path) or "."
    reason = ("Is a directory" if os.path.isdir(path)
              else "No such file or directory"
              if not path or not os.path.isdir(folder)
              else None if os.access(folder, os.W_OK) else "Permission denied")
    if reason:
        raise UsageError("cannot write %s: %s" % (path, reason))


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_join_weights(sys.argv[1:] if argv is None else argv))
    family = FAMILIES.get(args.command)
    try:
        if family and args.degree < family.min_degree:
            raise UsageError(
                "%s family needs --degree >= %d, got %d"
                % (family.name, family.min_degree, args.degree)
            )
        if getattr(args, "jobs", 1) < 1:
            raise UsageError("--jobs must be at least 1, got %d" % args.jobs)
        if hasattr(args, "weights"):
            args.weights.require_admissible()
        if args.out is not None:
            _check_out(args.out)
        # the subcommand's body is imported only now, when it runs
        where, name = args.body.split(".")
        json_dict, lines, ok = getattr(import_module("." + where, __package__), name)(args)
        report = json.dumps(json_dict, indent=2)
        # the file first, so a report that cannot be saved is not printed
        if args.out is not None:
            try:
                with open(args.out, "w") as fh:
                    fh.write(report + "\n")
            except OSError as exc:
                raise UsageError(
                    "cannot write %s: %s" % (args.out, exc.strerror or exc))
    except (InadmissibleWeights, UsageError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_MISMATCH
    except InsufficientPoints as exc:
        parser.error(str(exc))
    print(report if args.format == "json" else "\n".join(lines))
    return EXIT_OK if ok else EXIT_MISMATCH


if __name__ == "__main__":
    raise SystemExit(main())
