"""Answer checks that do not trust the program under test.

Nothing here imports foldeg.  The two published closed forms are carried
as plain integer arithmetic, reports are read through their JSON form,
and interpolants through their coefficient lists.  Every check returns a
list of problems; an empty list means the answer is right.
"""

import json
from fractions import Fraction
from math import comb

PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

# Polynomial degree of each counting function in d.
DEGREE_BOUNDS = {"legendrian": 15, "pencil": 12}


def legendrian_closed_form(d):
    """C(d+2,4)(d^3+9d^2+14d+24)(d^8+34d^7+...+29808)/38880."""
    cubic = d**3 + 9 * d**2 + 14 * d + 24
    octic = (
        d**8 + 34 * d**7 + 475 * d**6 + 3430 * d**5 + 13480 * d**4
        + 29872 * d**3 + 45444 * d**2 + 44856 * d + 29808
    )
    return _integral(Fraction(comb(d + 2, 4) * cubic * octic, 38880), d)


def pencil_closed_form(d):
    """5 C(d+4,5) C(d+3,3) (d^2+2d+3)(d^2+6d+11)/108."""
    value = Fraction(
        5 * comb(d + 4, 5) * comb(d + 3, 3)
        * (d * d + 2 * d + 3) * (d * d + 6 * d + 11),
        108,
    )
    return _integral(value, d)


def _integral(value, d):
    if value.denominator != 1:
        raise ArithmeticError("closed form is not an integer at d=%d" % d)
    return value.numerator


CLOSED_FORMS = {"legendrian": legendrian_closed_form, "pencil": pencil_closed_form}


def check_report(family, d, weights, report):
    """Check one degree report, given as its JSON dict, against the
    closed form, and re-add its contributions from num/den."""
    problems = []
    if report.get("family", "legendrian") != family:
        problems.append("family %r, asked %r" % (report.get("family"), family))
    if report.get("d") != d:
        problems.append("d %r, asked %r" % (report.get("d"), d))
    if tuple(report.get("weights", ())) != tuple(weights):
        problems.append("weights %r, asked %r" % (report.get("weights"), weights))
    contributions = report.get("contributions", [])
    pairs = sorted(tuple(c["pair"]) for c in contributions)
    if pairs != list(PAIRS):
        problems.append("contributions cover pairs %r" % (pairs,))
    total = Fraction(0)
    for c in contributions:
        num, den = int(c["num"]), int(c["den"])
        if den == 0:
            problems.append("zero denominator at pair %r" % (c["pair"],))
            continue
        total += Fraction(num, den)
        if "value" in c and Fraction(c["value"]) != Fraction(num, den):
            problems.append("value %s != %s/%s" % (c["value"], num, den))
    degree = int(report["degree"])
    if total != degree:
        problems.append("contributions sum to %s, report says %d" % (total, degree))
    expected = CLOSED_FORMS[family](d)
    if degree != expected:
        problems.append("degree %d, closed form %d" % (degree, expected))
    return problems


def _evaluate(coefficients, x):
    acc = Fraction(0)
    for c in reversed(coefficients):
        acc = acc * x + c
    return acc


def check_interpolant(family, coefficients, d_max):
    """An interpolant of degree at most the family's bound that matches
    the closed form at bound + 1 integers past d_max is the closed form:
    two such polynomials agreeing on that many points are identical."""
    coeffs = [Fraction(c) for c in coefficients]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    bound = DEGREE_BOUNDS[family]
    problems = []
    if len(coeffs) - 1 > bound:
        problems.append("interpolant degree %d > %d" % (len(coeffs) - 1, bound))
    for x in range(d_max + 1, d_max + bound + 2):
        got = _evaluate(coeffs, x)
        want = CLOSED_FORMS[family](x)
        if got != want:
            problems.append("interpolant(%d) = %s, closed form %d" % (x, got, want))
            break
    return problems


def check_weight_independence(degrees):
    """degrees maps (family, d, weights) to a degree; for each (family, d)
    every weight system must give the same number.  Returns the problems
    and the keys they concern."""
    by_point = {}
    for (family, d, weights), degree in degrees.items():
        by_point.setdefault((family, d), {})[weights] = degree
    problems, keys = [], []
    for (family, d), per_weights in sorted(by_point.items()):
        if len(set(per_weights.values())) > 1:
            problems.append(
                "%s d=%d depends on the weights: %r" % (family, d, per_weights)
            )
            keys += [(family, d, w) for w in per_weights]
    return problems, keys


def check_verify(exit_code, output):
    """`foldeg verify --example --format json`: exit 0, every check passed,
    and the worked tangency example among them."""
    problems = []
    if exit_code != 0:
        problems.append("verify exited %r" % (exit_code,))
    try:
        result = json.loads(output)
    except ValueError:
        return problems + ["verify output is not JSON: %r" % (output[-200:],)]
    checks = result.get("checks", [])
    failed = [c["name"] for c in checks if not c.get("passed")]
    if failed:
        problems.append("verify checks failed: %s" % ", ".join(failed))
    if not checks or result.get("passed") != len(checks) or result.get("total") != len(checks):
        problems.append(
            "verify passed %r of %r (%d listed)"
            % (result.get("passed"), result.get("total"), len(checks))
        )
    if "example-tangency" not in {c["name"] for c in checks}:
        problems.append("verify skipped the tangency example")
    return problems
