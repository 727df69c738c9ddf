"""Torus localization for the Legendrian family.

The degree of the closure of the degree-d Legendrian foliations inside
the space of antisymmetric forms is a sum over the six torus-fixed
points [kappa_ij]: at each one, the top elementary symmetric function of
the limit fiber weights (from foldeg.limits) divided by the product of
the five tangent weights of the form space.  The sum of these rational
numbers must be an integer — a hard error otherwise, since a non-integer
can only mean a wrong fiber.

The six limit fibers are one fiber moved around by S_4.  A coordinate
permutation sigma carries the path kappa_12 + t*kappa_34 to the path at
[kappa_sigma(1)sigma(2)], up to the sign of t, and the limit is fixed by
the whole torus T^4, so its Z^4 characters do not depend on the weight
system.  The image route therefore computes the fiber once per degree,
at SOURCE_PAIR, as characters; pair (k,l) takes it through
sigma = (k, l, m, n), {m,n} the complement, with weights
sum chi_i * w_sigma(i).  The kernel route and "both" still compute all
six fibers directly, and "both" also checks each against the
transported one.
"""

from collections import namedtuple
from fractions import Fraction
from operator import itemgetter

from .exact import (
    DEFAULT_WEIGHTS,
    WeightMultiset,
    as_weight_system,
    scalar_to_string,
)
from .fields import P5_PAIRS, complementary_pair
from .limits import (
    METHOD_BOTH,
    METHOD_IMAGE,
    METHODS,
    MethodDisagreement,
    as_fixed_point,
    fixed_points_p5,
    limit_fiber_weights,
)

LEGENDRIAN_MIN_DEGREE = 2

# The fixed point whose limit fiber the image route computes; the other
# five are reached from it by a coordinate permutation.
SOURCE_PAIR = (1, 2)


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


def transport_characters(characters, sigma):
    """Move characters by the coordinate permutation i -> sigma[i-1]:
    chi goes to chi' with chi'_sigma(i) = chi_i.  Returned sorted.

    >>> transport_characters([(2, -1, 0, 0)], (3, 4, 1, 2))
    ((0, 0, 2, -1),)
    """
    move = itemgetter(*(sigma.index(j) for j in (1, 2, 3, 4)))
    return tuple(sorted(map(move, characters)))


def _source_permutation(pair):
    """The permutation (k, l, m, n) that takes SOURCE_PAIR to pair (k, l),
    and its complement (3, 4) to the complement (m, n)."""
    return tuple(pair) + complementary_pair(pair)


def _source_fiber(d, weights):
    """The image fiber at SOURCE_PAIR as characters: one limit
    computation; the weights only organize it."""
    return limit_fiber_weights(
        SOURCE_PAIR, d, weights, METHOD_IMAGE
    ).quotient_characters


def fiber_characters(d, pair):
    """The image fiber at [kappa_pair] as sorted Z^4 characters,
    transported from SOURCE_PAIR."""
    pair = as_fixed_point(pair).pair
    return transport_characters(
        _source_fiber(d, DEFAULT_WEIGHTS), _source_permutation(pair)
    )


def character_weights(characters, weights):
    """Evaluate Z^4 characters at a weight system: chi -> sum chi_i * w_i.

    >>> list(character_weights([(2, -1, 0, 0), (0, 0, 1, 0)], (0, 2, 7, 10)))
    [-2, 7]
    """
    w1, w2, w3, w4 = as_weight_system(weights).values
    return WeightMultiset(
        a * w1 + b * w2 + c * w3 + e * w4 for a, b, c, e in characters
    )


def transported_fiber(characters, pair, weights):
    """Numeric fiber at pair from the characters at SOURCE_PAIR: the
    characters moved by sigma (transport_characters), evaluated at the
    weights."""
    return character_weights(
        transport_characters(characters, _source_permutation(pair)), weights
    )


def legendrian_degree(d, weights=DEFAULT_WEIGHTS, method=None):
    """Degree of the degree-d Legendrian family by localization.

    method is one of the foldeg.limits METHODS (None picks
    default_method(d)).  The image route takes all six fibers from one
    limit computation (_source_fiber); the kernel route and "both"
    compute each fixed point directly, and "both" raises
    MethodDisagreement unless every direct fiber equals the one
    transported from its own SOURCE_PAIR result.
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
    if method == METHOD_IMAGE:
        characters = _source_fiber(d, w)
        fibers = {
            fp.pair: transported_fiber(characters, fp.pair, w) for fp in fps
        }
    else:
        direct = {
            fp.pair: limit_fiber_weights(fp.pair, d, w, method) for fp in fps
        }
        fibers = {pair: res.quotient_weights for pair, res in direct.items()}
        if method == METHOD_BOTH:
            characters = direct[SOURCE_PAIR].quotient_characters
            for pair, fiber in fibers.items():
                if transported_fiber(characters, pair, w) != fiber:
                    raise MethodDisagreement(
                        "transported and direct fibers disagree at %r, d=%d"
                        % (pair, d)
                    )

    contributions = []
    for fp in fps:
        quotient = fibers[fp.pair]
        tangent = tangent_weights_p5(fp, w)
        # the integrand has the dimension of the ambient space of forms,
        # which is the number of tangent weights (5): e_5 over e_5
        k = len(tangent)
        num = quotient.elementary_symmetric(k)
        den = tangent.elementary_symmetric(k)
        contributions.append(_normalized_contribution(fp.pair, num, den))
    return _sum_contributions("legendrian", d, w, contributions)
