"""Command-line driver: degree reports, regression checks, interpolation.

Four subcommands:

* ``legendrian --degree N`` / ``pencil --degree N`` print a degree
  report (text or JSON);
* ``verify`` recomputes the d=2 Legendrian localization and compares
  the fiber multiset, the six fractions, and the total against the
  frozen constants in foldeg.reference;
* ``interpolate --family F --min A --max B`` recomputes degrees,
  interpolates the exact counting polynomial, and compares it with the
  closed form (``--partial`` compares pointwise instead).

Each subcommand returns its report as (JSON dict, text lines, ok) and
prints nothing; main checks the flags, writes --out, prints the chosen
format and maps errors to exit codes.

Exit codes: 0 success; 1 for a failed computation check, any
ArithmeticError (a non-integral localization sum, e_k, interpolant or
closed form, a fiber of the wrong count or too short a table,
MethodDisagreement, SaturationRankError; a ZeroDivisionError or
OverflowError too), reported on one ``error:`` line, or any
verify/interpolate mismatch; 2 for invalid weights or bad usage (a degree
below the family's minimum, --jobs below 1, an --out file that cannot be
written), reported on one ``error:`` line.  All output is deterministic
for fixed flags.
"""

import argparse
import json
import re
import sys
from fractions import Fraction

from .bott import default_method, legendrian_degree
from .exact import DEFAULT_WEIGHTS, InadmissibleWeights, WeightSystem, elementary_symmetric
from .fields import AntisymmetricForm, MonomialField, contract
from .limits import METHOD_BOTH, METHOD_IMAGE, METHOD_KERNEL, limit_fiber_weights
from .pencil import pencil_degree
from .polyfit import (
    FAMILIES,
    InsufficientPoints,
    compute_degree_points,
    family_closed_form,
    interpolate_family,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

METHOD_FLAGS = {"image": METHOD_IMAGE, "kernel": METHOD_KERNEL, "both": METHOD_BOTH}


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


def cmd_degree(args):
    method = None
    if args.command == "pencil":
        report = pencil_degree(args.degree, args.weights)
    else:
        method = METHOD_FLAGS[args.method] if args.method else default_method(args.degree)
        # --jobs is parsed and checked but fans nothing out: the image route
        # computes no limit, and kernel and both compute the six in turn
        report = legendrian_degree(args.degree, args.weights, method=method)
    lines = [
        "family: %s" % report.family,
        "d: %d" % report.d,
        "weights: %s" % ",".join(map(str, report.weights)),
    ]
    if method:
        lines.append("method: %s" % method)
    return report.to_json_dict(), lines + [
        "contribution (%d,%d): %d/%d" % (*c.pair, c.numerator, c.denominator)
        for c in report.contributions
    ] + ["degree: %d" % report.degree], True


def run_verify_checks(example=False):
    """The regression checks behind ``foldeg verify``.

    Recomputes the d=2 Legendrian localization at the default weights and
    compares each piece against the frozen constants; returns a list of
    (name, passed, detail) triples.  With example, it also contracts
    x2*dx1 - x1*dx2 + x4*dx3 - x3*dx4 against the quadratic field
    x1^2*d/dx1 + x1*x2*d/dx2 + x3*x4*d/dx3 + x4^2*d/dx4; tangency means
    the contraction is identically zero.
    """
    # imported here: only verify reads the frozen constants, so the
    # other commands do not load them
    from . import reference

    checks = []

    def check(name, ok, computed, frozen):
        checks.append((name, ok, "computed %s, frozen %s" % (computed, frozen)))

    quotient = limit_fiber_weights((3, 4), 2, method=METHOD_BOTH).quotient_weights
    fiber, frozen_fiber = list(quotient), list(reference.D2_P34_QUOTIENT_WEIGHTS)
    check("fiber-weights-d2-pair34", fiber == frozen_fiber, fiber, frozen_fiber)
    e5 = elementary_symmetric(5, quotient)
    check("fiber-e5-d2-pair34", e5 == reference.D2_P34_E5, e5, reference.D2_P34_E5)

    report = legendrian_degree(2, method=METHOD_BOTH)
    frozen = reference.LEGENDRIAN_D2_CONTRIBUTIONS
    for contrib, (pair, num, den) in zip(report.contributions, frozen):
        check(
            "contribution-d2-pair%d%d" % pair,
            contrib.pair == pair and contrib.value == Fraction(num, den),
            "%d/%d" % (contrib.numerator, contrib.denominator),
            "%d/%d" % (num, den),
        )
    degree = reference.LEGENDRIAN_D2_DEGREE
    check("total-degree-d2", report.degree == degree, report.degree, degree)

    if example:
        leftover = contract(AntisymmetricForm({(1, 2): 1, (3, 4): 1}), (
            MonomialField(1, (2, 0, 0, 0), 1),
            MonomialField(1, (1, 1, 0, 0), 2),
            MonomialField(1, (0, 0, 1, 1), 3),
            MonomialField(1, (0, 0, 0, 2), 4),
        ))
        checks.append(("example-tangency", not leftover, (
            "contraction is nonzero: %r" % (leftover,) if leftover
            else "contraction vanishes identically")))

    return checks


def cmd_verify(args):
    checks = run_verify_checks(example=args.example)
    json_dict = {
        "checks": [
            {"name": name, "passed": ok, "detail": detail}
            for name, ok, detail in checks
        ],
        "passed": sum(ok for _, ok, _ in checks),
        "total": len(checks),
    }
    lines = [
        "PASS %s" % name if ok else "FAIL %s: %s" % (name, detail)
        for name, ok, detail in checks
    ] + ["%(passed)d/%(total)d checks passed" % json_dict]
    return json_dict, lines, json_dict["passed"] == len(checks)


def cmd_interpolate(args):
    family = args.family
    lowest = FAMILIES[family].min_degree
    if not lowest <= args.min <= args.max:
        raise InsufficientPoints(
            "need %d <= min <= max, got %d..%d" % (lowest, args.min, args.max)
        )
    if args.partial:
        lines = ["family: %s" % family, "mode: pointwise"]
        points = []
        for d, degree in compute_degree_points(
            family, args.min, args.max, args.weights, jobs=args.jobs
        ):
            expected = family_closed_form(family, d)
            ok = degree == expected
            lines.append(
                "d=%d: computed %d, closed form %d, %s"
                % (d, degree, expected, "match" if ok else "MISMATCH")
            )
            points.append({"d": d, "degree": str(degree),
                           "closed_form": str(expected), "match": ok})
        json_dict = {"family": family, "mode": "pointwise", "points": points}
        json_dict.update(matches=sum(p["match"] for p in points), total=len(points))
        lines.append("%(matches)d/%(total)d points match" % json_dict)
        return json_dict, lines, json_dict["matches"] == len(points)

    poly = interpolate_family(
        family, args.min, args.max, args.weights, jobs=args.jobs
    )
    # pointwise, at bound + 1 degrees, so that the verdict does not rest
    # on the interpolator that made poly
    bound = FAMILIES[family].degree_bound
    ok = poly.degree <= bound and all(
        poly(d) == family_closed_form(family, d)
        for d in range(lowest, lowest + bound + 1))
    json_dict = {
        "family": family,
        "d_min": args.min,
        "d_max": args.max,
        "degree": poly.degree,
        "coefficients": poly.to_strings(),
        "polynomial": poly.render(),
        "matches_closed_form": ok,
    }
    lines = [
        "family: %s" % family,
        "points: d=%d..%d" % (args.min, args.max),
        "polynomial degree: %d (bound %d)" % (poly.degree, bound),
        "polynomial: %s" % json_dict["polynomial"],
        "closed form match: %s" % ("yes" if ok else "NO"),
    ]
    return json_dict, lines, ok


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
    leg.set_defaults(func=cmd_degree)

    pen = subparsers.add_parser(
        "pencil", help="degree of the pencil-of-planes family"
    )
    pen.add_argument("--degree", type=int, required=True, metavar="N")
    _add_common_flags(pen, jobs_help=None)
    pen.set_defaults(func=cmd_degree)

    ver = subparsers.add_parser(
        "verify", help="regression-check the d=2 computation against frozen constants"
    )
    ver.add_argument("--example", action="store_true",
                     help="also check the worked tangency example")
    ver.add_argument("--format", choices=("text", "json"), default="text")
    ver.add_argument("--out", metavar="FILE")
    ver.set_defaults(func=cmd_verify)

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
    itp.set_defaults(func=cmd_interpolate)

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
        json_dict, lines, ok = args.func(args)
        report = json.dumps(json_dict, indent=2)
        # the file first, so a report that cannot be saved is not printed
        if args.out:
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
