"""The regression checks behind ``foldeg verify``, the frozen constants
they compare against, and their report.

foldeg.cli imports this module only when it runs ``verify``, so a cold
start compiles neither it, with its constants, nor what only it reads:
the form algebra of foldeg.forms, which the worked tangency example
contracts.  Like foldeg.commands, it calls the package's functions
through their modules when it runs (bott.legendrian_degree), so that a
wrapper put on them, before or after this module loads, sees these
calls until it is taken off.

>>> [name for name, ok, _ in run_verify_checks(example=True) if not ok]
[]
"""

from fractions import Fraction

from . import bott, exact, limits
from .forms import AntisymmetricForm, MonomialField, contract
from .limits import METHOD_BOTH

# ---------------------------------------------------------------------------
# Frozen reference values.  Each was produced by the pipeline itself at
# the default weight system (0, 2, 7, 10) and then cross-checked by an
# independent route (a second elimination method, a symbolic fixed-point
# transport, or a closed-form evaluation).  They are inlined so that
# verify detects regressions without recomputing oracles, and read as
# module globals when the checks run.
#
# Degree-2 Legendrian localization: the six fixed points in canonical
# order (1,2), (1,3), (1,4), (2,3), (2,4), (3,4).  Each contribution is
# e5(fiber weights) / e5(tangent weights) written with the raw
# (unreduced) numerator and denominator, the denominator normalized to
# be positive.
LEGENDRIAN_D2_CONTRIBUTIONS = (
    ((1, 2), 833800359, 42000),
    ((1, 3), -38740434, 1500),
    ((1, 4), 7716777, 336),
    ((2, 3), -4199874, 336),
    ((2, 4), -3398841, 1500),
    ((3, 4), -105534, 42000),
)

LEGENDRIAN_D2_DEGREE = 2224

# The limit fiber at the fixed point (3,4) for d = 2: twenty quotient
# weights and the elementary symmetric value e5 used in the localization
# numerator.
D2_P34_QUOTIENT_WEIGHTS = (
    -10, -8, -7, -6, -5, -3, -3, -2, -1, 0,
    0, 2, 2, 3, 4, 4, 5, 7, 10, 13,
)
D2_P34_E5 = 105534


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
    fiber, frozen_fiber = list(quotient), list(D2_P34_QUOTIENT_WEIGHTS)
    check("fiber-weights-d2-pair34", fiber == frozen_fiber, fiber, frozen_fiber)
    e5 = exact.elementary_symmetric(5, exact.PowerSums.of(quotient, 5))
    check("fiber-e5-d2-pair34", e5 == D2_P34_E5, e5, D2_P34_E5)

    report = bott.legendrian_degree(2, method=METHOD_BOTH)
    for contrib, (pair, num, den) in zip(report.contributions,
                                         LEGENDRIAN_D2_CONTRIBUTIONS):
        check(
            "contribution-d2-pair%d%d" % pair,
            contrib.pair == pair and contrib.value == Fraction(num, den),
            "%d/%d" % (contrib.numerator, contrib.denominator),
            "%d/%d" % (num, den),
        )
    check("total-degree-d2", report.degree == LEGENDRIAN_D2_DEGREE,
          report.degree, LEGENDRIAN_D2_DEGREE)

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
