"""The bodies of the subcommands legendrian, pencil and interpolate.

foldeg.cli parses and checks the flags, and imports this module only
when it runs one of these commands, so neither ``import foldeg.cli`` nor
``foldeg verify`` compiles it.  Each body returns its report as (JSON
dict, text lines, ok) and prints nothing.  The degrees and the
interpolant are computed through their modules at call time
(bott.legendrian_degree, not a name bound here when this module loads),
so a wrapper put on the package's functions before or after this module
loads sees these calls, and one taken off again no longer does.

>>> from foldeg.cli import build_parser
>>> _, lines, ok = cmd_degree(build_parser().parse_args(["pencil", "--degree", "3"]))
>>> lines[-1], ok
('degree: 13300', True)
"""

from . import bott, pencil, polyfit
from .limits import METHOD_FLAGS
from .polyfit import FAMILIES, InsufficientPoints, family_closed_form


def cmd_degree(args):
    method = None
    if args.command == "pencil":
        report = pencil.pencil_degree(args.degree, args.weights)
    else:
        method = METHOD_FLAGS[args.method] if args.method else bott.default_method(args.degree)
        # --jobs is parsed and checked but fans nothing out: the image route
        # computes no limit, and kernel and both compute the six in turn
        report = bott.legendrian_degree(args.degree, args.weights, method=method)
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
        for d, degree in polyfit.compute_degree_points(
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

    poly = polyfit.interpolate_family(
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
