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

Exit codes: 0 success; 1 for a non-integral localization sum or any
verify/interpolate mismatch; 2 for invalid weights or bad usage (a
degree below the family's minimum, --jobs below 1, an --out file that
cannot be written), reported on one ``error:`` line.  All output is
deterministic for fixed flags.
"""

import argparse
import json
import sys
from fractions import Fraction

from .bott import NonIntegralDegree, default_method, legendrian_degree
from .exact import InadmissibleWeights, WeightMultiset, WeightSystem
from .fields import AntisymmetricForm, MonomialField, contract
from .limits import (
    METHOD_BOTH,
    METHOD_IMAGE,
    METHOD_KERNEL,
    limit_fiber_weights,
)
from .pencil import pencil_degree
from .polyfit import (
    FAMILIES,
    InsufficientPoints,
    compute_degree_points,
    family_closed_form,
    family_closed_form_polynomial,
    interpolate_family,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

METHOD_FLAGS = {
    "image": METHOD_IMAGE,
    "kernel": METHOD_KERNEL,
    "both": METHOD_BOTH,
}


class UsageError(ValueError):
    """A flag value the command cannot run with (exit code 2)."""


def _check_usage(args):
    family = FAMILIES.get(args.command)
    if family and args.degree < family.min_degree:
        raise UsageError(
            "%s family needs --degree >= %d, got %d"
            % (family.name, family.min_degree, args.degree)
        )
    if getattr(args, "jobs", 1) < 1:
        raise UsageError("--jobs must be at least 1, got %d" % args.jobs)


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


def _emit(args, json_dict, text_lines):
    # the file first, so a report that cannot be saved is not printed
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                json.dump(json_dict, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise UsageError(
                "cannot write %s: %s" % (args.out, exc.strerror or exc)
            ) from None
    if args.format == "json":
        print(json.dumps(json_dict, indent=2))
    else:
        for line in text_lines:
            print(line)


def _degree_text(report, method=None):
    lines = [
        "family: %s" % report.family,
        "d: %d" % report.d,
        "weights: %s" % ",".join(str(v) for v in report.weights.values),
    ]
    if method is not None:
        lines.append("method: %s" % method)
    for c in report.contributions:
        lines.append(
            "contribution (%d,%d): %d/%d" % (c.pair + (c.numerator, c.denominator))
        )
    lines.append("degree: %d" % report.degree)
    return lines


def cmd_legendrian(args):
    method = METHOD_FLAGS[args.method] if args.method else default_method(args.degree)
    # --jobs is parsed and checked but has nothing to fan out: the six
    # fixed points share one limit computation
    report = legendrian_degree(args.degree, args.weights, method=method)
    _emit(args, report.to_json_dict(), _degree_text(report, method))
    return EXIT_OK


def cmd_pencil(args):
    report = pencil_degree(args.degree, args.weights)
    _emit(args, report.to_json_dict(), _degree_text(report))
    return EXIT_OK


def _example_tangency_check():
    """Contract x2*dx1 - x1*dx2 + x4*dx3 - x3*dx4 against the quadratic
    field x1^2*d/dx1 + x1*x2*d/dx2 + x3*x4*d/dx3 + x4^2*d/dx4; tangency
    means the contraction is identically zero."""
    form = AntisymmetricForm({(1, 2): 1, (3, 4): 1})
    field = (
        MonomialField(1, (2, 0, 0, 0), 1),
        MonomialField(1, (1, 1, 0, 0), 2),
        MonomialField(1, (0, 0, 1, 1), 3),
        MonomialField(1, (0, 0, 0, 2), 4),
    )
    leftover = contract(form, field)
    if leftover:
        return False, "contraction is nonzero: %r" % (leftover,)
    return True, "contraction vanishes identically"


def run_verify_checks(example=False):
    """The regression checks behind ``foldeg verify``.

    Recomputes the d=2 Legendrian localization at the default weights and
    compares each piece against the frozen constants; returns a list of
    (name, passed, detail) triples.
    """
    # imported here: only verify reads the frozen constants, so the
    # other commands do not load them
    from . import reference

    checks = []

    res = limit_fiber_weights((3, 4), 2, method=METHOD_BOTH)
    got_fiber = tuple(res.quotient_weights)
    want_fiber = tuple(reference.D2_P34_QUOTIENT_WEIGHTS)
    checks.append(
        (
            "fiber-weights-d2-pair34",
            got_fiber == want_fiber,
            "computed %r, frozen %r" % (list(got_fiber), list(want_fiber)),
        )
    )
    got_e5 = WeightMultiset(got_fiber).elementary_symmetric(5)
    checks.append(
        (
            "fiber-e5-d2-pair34",
            got_e5 == reference.D2_P34_E5,
            "computed %d, frozen %d" % (got_e5, reference.D2_P34_E5),
        )
    )

    report = legendrian_degree(2, method=METHOD_BOTH)
    for contrib, (pair, num, den) in zip(
        report.contributions, reference.LEGENDRIAN_D2_CONTRIBUTIONS
    ):
        ok = (
            contrib.pair == pair
            and Fraction(contrib.numerator, contrib.denominator)
            == Fraction(num, den)
        )
        checks.append(
            (
                "contribution-d2-pair%d%d" % pair,
                ok,
                "computed %d/%d, frozen %d/%d"
                % (contrib.numerator, contrib.denominator, num, den),
            )
        )

    checks.append(
        (
            "total-degree-d2",
            report.degree == reference.LEGENDRIAN_D2_DEGREE,
            "computed %d, frozen %d"
            % (report.degree, reference.LEGENDRIAN_D2_DEGREE),
        )
    )

    if example:
        ok, detail = _example_tangency_check()
        checks.append(("example-tangency", ok, detail))

    return checks


def cmd_verify(args):
    checks = run_verify_checks(example=args.example)
    lines = []
    for name, ok, detail in checks:
        if ok:
            lines.append("PASS %s" % name)
        else:
            lines.append("FAIL %s: %s" % (name, detail))
    passed = sum(1 for _, ok, _ in checks if ok)
    lines.append("%d/%d checks passed" % (passed, len(checks)))
    json_dict = {
        "checks": [
            {"name": name, "passed": ok, "detail": detail}
            for name, ok, detail in checks
        ],
        "passed": passed,
        "total": len(checks),
    }
    _emit(args, json_dict, lines)
    return EXIT_OK if passed == len(checks) else EXIT_MISMATCH


def cmd_interpolate(args):
    family = args.family
    if args.min < 2 or args.max < args.min:
        raise InsufficientPoints(
            "need 2 <= min <= max, got %d..%d" % (args.min, args.max)
        )
    if args.partial:
        points = compute_degree_points(
            family, args.min, args.max, args.weights, jobs=args.jobs
        )
        rows = []
        matches = 0
        for d, degree in points:
            expected = family_closed_form(family, d)
            ok = degree == expected
            matches += ok
            rows.append((d, degree, expected, ok))
        lines = ["family: %s" % family, "mode: pointwise"]
        for d, degree, expected, ok in rows:
            lines.append(
                "d=%d: computed %d, closed form %d, %s"
                % (d, degree, expected, "match" if ok else "MISMATCH")
            )
        lines.append("%d/%d points match" % (matches, len(rows)))
        json_dict = {
            "family": family,
            "mode": "pointwise",
            "points": [
                {
                    "d": d,
                    "degree": str(degree),
                    "closed_form": str(expected),
                    "match": ok,
                }
                for d, degree, expected, ok in rows
            ],
            "matches": matches,
            "total": len(rows),
        }
        _emit(args, json_dict, lines)
        return EXIT_OK if matches == len(rows) else EXIT_MISMATCH

    poly = interpolate_family(
        family, args.min, args.max, args.weights, jobs=args.jobs
    )
    expected = family_closed_form_polynomial(family)
    ok = poly == expected
    lines = [
        "family: %s" % family,
        "points: d=%d..%d" % (args.min, args.max),
        "polynomial degree: %d (bound %d)"
        % (poly.degree, FAMILIES[family].degree_bound),
        "polynomial: %s" % poly.render(),
        "closed form match: %s" % ("yes" if ok else "NO"),
    ]
    json_dict = {
        "family": family,
        "d_min": args.min,
        "d_max": args.max,
        "degree": poly.degree,
        "coefficients": poly.to_strings(),
        "polynomial": poly.render(),
        "matches_closed_form": ok,
    }
    _emit(args, json_dict, lines)
    return EXIT_OK if ok else EXIT_MISMATCH


def _add_common_flags(
    sub, jobs_help="worker processes for independent tasks (default 1)"
):
    sub.add_argument(
        "--weights",
        type=_parse_weights,
        default=WeightSystem((0, 2, 7, 10)),
        metavar="a,b,c,d",
        help="torus weights (default 0,2,7,10)",
    )
    sub.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )
    sub.add_argument(
        "--out",
        metavar="FILE",
        help="also write the JSON report to FILE",
    )
    if jobs_help:
        sub.add_argument(
            "--jobs", type=int, default=1, metavar="K", help=jobs_help
        )


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
    leg.set_defaults(func=cmd_legendrian)

    pen = subparsers.add_parser(
        "pencil", help="degree of the pencil-of-planes family"
    )
    pen.add_argument("--degree", type=int, required=True, metavar="N")
    _add_common_flags(pen, jobs_help=None)
    pen.set_defaults(func=cmd_pencil)

    ver = subparsers.add_parser(
        "verify", help="regression-check the d=2 computation against frozen constants"
    )
    ver.add_argument(
        "--example",
        action="store_true",
        help="also check the worked tangency example",
    )
    ver.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
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


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_usage(args)
        if hasattr(args, "weights"):
            args.weights.require_admissible()
        return args.func(args)
    except (InadmissibleWeights, UsageError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except NonIntegralDegree as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_MISMATCH
    except InsufficientPoints as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
