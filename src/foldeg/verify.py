"""The regression checks behind ``foldeg verify``, and their report.

foldeg.cli imports this module only when it runs ``verify``, so a cold
start compiles neither it nor what only it reads: the frozen constants
of foldeg.reference and the form algebra of foldeg.forms, which the
worked tangency example contracts.  Like foldeg.commands, it calls the
package's functions through their modules when it runs
(bott.legendrian_degree), so that a wrapper put on them, before or
after this module loads, sees these calls until it is taken off.

>>> [name for name, ok, _ in run_verify_checks(example=True) if not ok]
[]
"""

from fractions import Fraction

from . import bott, exact, limits, reference
from .forms import AntisymmetricForm, MonomialField, contract
from .limits import METHOD_BOTH


def run_verify_checks(example=False):
    """The regression checks behind ``foldeg verify``.

    Recomputes the d=2 Legendrian localization at the default weights and
    compares each piece against the frozen constants; returns a list of
    (name, passed, detail) triples.  With example, it also contracts
    x2*dx1 - x1*dx2 + x4*dx3 - x3*dx4 against the quadratic field
    x1^2*d/dx1 + x1*x2*d/dx2 + x3*x4*d/dx3 + x4^2*d/dx4; tangency means
    the contraction is identically zero.
    """
    checks = []

    def check(name, ok, computed, frozen):
        checks.append((name, ok, "computed %s, frozen %s" % (computed, frozen)))

    quotient = limits.limit_fiber_weights((3, 4), 2, method=METHOD_BOTH).quotient_weights
    fiber, frozen_fiber = list(quotient), list(reference.D2_P34_QUOTIENT_WEIGHTS)
    check("fiber-weights-d2-pair34", fiber == frozen_fiber, fiber, frozen_fiber)
    e5 = exact.elementary_symmetric(5, quotient)
    check("fiber-e5-d2-pair34", e5 == reference.D2_P34_E5, e5, reference.D2_P34_E5)

    report = bott.legendrian_degree(2, method=METHOD_BOTH)
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
