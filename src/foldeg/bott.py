"""Torus localization for the Legendrian family.

The degree of the closure of the degree-d Legendrian foliations inside
the space of antisymmetric forms is a sum over the six torus-fixed
points [kappa_ij]: at each one, the top elementary symmetric function of
the limit fiber weights (from foldeg.limits) divided by the product of
the five tangent weights of the form space.  The sum of these rational
numbers must be an integer — a hard error otherwise, since a non-integer
can only mean a wrong fiber.
"""

from collections import namedtuple
from fractions import Fraction

from .exact import (
    DEFAULT_WEIGHTS,
    WeightMultiset,
    as_weight_system,
    scalar_to_string,
)
from .fields import P5_PAIRS
from .limits import (
    METHOD_BOTH,
    METHOD_IMAGE,
    METHODS,
    as_fixed_point,
    fixed_points_p5,
    limit_fiber_weights,
)

LEGENDRIAN_MIN_DEGREE = 2


class NonIntegralDegree(ArithmeticError):
    """A localization sum came out non-integral (always a bug, never data)."""


def tangent_weights_p5(fp, weights=DEFAULT_WEIGHTS):
    """Tangent weights of the form space at [kappa_ij]: the five values
    (w_k + w_l) - (w_i + w_j) over the other pairs.

    >>> list(tangent_weights_p5((1, 2), (0, 2, 7, 10)))
    [5, 7, 8, 10, 15]
    """
    fp = as_fixed_point(fp)
    w = as_weight_system(weights).require_admissible()
    s = w.pair_sum(fp.pair)
    return WeightMultiset(
        w.pair_sum(q) - s for q in P5_PAIRS if q != fp.pair
    )


FixedPointContribution = namedtuple(
    "FixedPointContribution", "pair numerator denominator value"
)
FixedPointContribution.__doc__ = (
    "One localization summand: value = numerator/denominator with the "
    "raw Euler numbers kept unreduced (denominator normalized positive)."
)


def default_method(d):
    """Run both limit routes as a cross-check for small d, where the
    kernel-limit route is cheap; the image route alone above that."""
    return METHOD_BOTH if d <= 4 else METHOD_IMAGE


class DegreeReport:
    """Result of one localization run: the per-point contributions and
    the integer degree they sum to."""

    __slots__ = ("family", "d", "weights", "contributions", "degree")

    def __init__(self, family, d, weights, contributions, degree):
        self.family = family
        self.d = d
        self.weights = weights
        self.contributions = tuple(contributions)
        self.degree = degree

    def to_json_dict(self):
        out = {}
        if self.family != "legendrian":
            out["family"] = self.family
        out["d"] = self.d
        out["weights"] = list(self.weights.values)
        out["contributions"] = [
            {
                "pair": list(c.pair),
                "num": str(c.numerator),
                "den": str(c.denominator),
                "value": scalar_to_string(c.value),
            }
            for c in self.contributions
        ]
        out["degree"] = str(self.degree)
        return out

    def __repr__(self):
        return "DegreeReport(%s, d=%d, degree=%d)" % (
            self.family,
            self.d,
            self.degree,
        )


def _normalized_contribution(pair, num, den):
    if den < 0:
        num, den = -num, -den
    return FixedPointContribution(pair, num, den, Fraction(num, den))


def _sum_contributions(family, d, w, contributions):
    total = sum((c.value for c in contributions), Fraction(0))
    if total.denominator != 1:
        raise NonIntegralDegree(
            "%s localization sum %s is not an integer (d=%d, weights %r)"
            % (family, scalar_to_string(total), d, w.values)
        )
    return DegreeReport(family, d, w, contributions, int(total))


def _legendrian_task(args):
    pair, d, wvalues, method = args
    res = limit_fiber_weights(pair, d, wvalues, method)
    return pair, tuple(res.quotient_weights)


def legendrian_degree(d, weights=DEFAULT_WEIGHTS, method=None, jobs=1):
    """Degree of the degree-d Legendrian family by localization.

    method is one of the foldeg.limits METHODS (None picks
    default_method(d)); jobs > 1 distributes the six fixed points over
    worker processes.
    """
    if d < LEGENDRIAN_MIN_DEGREE:
        raise ValueError("legendrian family needs d >= 2, got %r" % (d,))
    w = as_weight_system(weights)
    w.require_admissible()
    if method is None:
        method = default_method(d)
    if method not in METHODS:
        raise ValueError("unknown method %r" % (method,))

    fps = fixed_points_p5()
    if jobs > 1:
        # imported here: it pulls in multiprocessing, which serial runs
        # never need
        from concurrent.futures import ProcessPoolExecutor

        tasks = [(fp.pair, d, w.values, method) for fp in fps]
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            fibers = dict(pool.map(_legendrian_task, tasks))
    else:
        fibers = dict(
            _legendrian_task((fp.pair, d, w.values, method)) for fp in fps
        )

    contributions = []
    for fp in fps:
        quotient = WeightMultiset(fibers[fp.pair])
        tangent = tangent_weights_p5(fp, w)
        # the integrand has the dimension of the ambient space of forms,
        # which is the number of tangent weights (5): e_5 over e_5
        k = len(tangent)
        num = quotient.elementary_symmetric(k)
        den = tangent.elementary_symmetric(k)
        contributions.append(_normalized_contribution(fp.pair, num, den))
    return _sum_contributions("legendrian", d, w, contributions)
