"""Torus localization: one routine for both families.

Both degrees are Bott sums over the six torus-fixed points, named by the
index pairs (i,j) of P5_PAIRS: at each one, the top elementary symmetric
function of the fiber weights divided by the one of the tangent weights
(Ellingsrud-Stromme, Bott's formula and enumerative geometry, JAMS 1996).
The sum must be an integer -- a hard error otherwise, since a
non-integer can only mean a wrong fiber.  A family is data (Family): its
minimum degree, polynomial bound, fibers, tangent weights and published
closed form; localize computes the sum for any of them.  This module
holds the Legendrian family (LEGENDRIAN, legendrian_degree), whose
parameter space is the P^5 of antisymmetric forms; foldeg.pencil holds
the pencil family.

The six Legendrian limit fibers are one fiber moved around by S_4.  A
coordinate permutation sigma carries the path kappa_12 + t*kappa_34 to
the path at [kappa_sigma(1)sigma(2)], up to the sign of t, and the limit
is fixed by the whole torus T^4, so its Z^4 characters do not depend on
the weight system.  The image route therefore computes the fiber once
per degree, at SOURCE_PAIR, as characters; pair (k,l) takes it through
sigma = (k, l, m, n), {m,n} the complement, with weights
sum chi_i * w_sigma(i).  The kernel route and "both" still compute all
six fibers directly ("both" from one contraction per fixed point, shared
by its two routes), and "both" also checks each against the transported
one.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

from .exact import (
    DEFAULT_WEIGHTS,
    RationalPolynomial,
    WeightMultiset,
    as_weight_system,
    scalar_to_string,
)
from .fields import P5_PAIRS, as_fixed_point, complementary_pair
from .limits import (
    METHOD_BOTH,
    METHOD_IMAGE,
    METHODS,
    MethodDisagreement,
    limit_fiber_weights,
)

# The fixed point whose limit fiber the image route computes; the other
# five are reached from it by a coordinate permutation.
SOURCE_PAIR = (1, 2)


class NonIntegralDegree(ArithmeticError):
    """A localization sum came out non-integral (always a bug, never data)."""


def tangent_weights_p5(pair, weights=DEFAULT_WEIGHTS):
    """Tangent weights of the form space at [kappa_ij]: the five values
    (w_k + w_l) - (w_i + w_j) over the other pairs.

    >>> list(tangent_weights_p5((1, 2), (0, 2, 7, 10)))
    [5, 7, 8, 10, 15]
    """
    pair = as_fixed_point(pair)
    w = as_weight_system(weights).require_admissible()
    s = w.pair_sum(pair)
    return WeightMultiset(
        w.pair_sum(q) - s for q in P5_PAIRS if q != pair
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


class Family(namedtuple(
    "Family",
    "name min_degree degree_bound fibers tangent_weights "
    "closed_form_polynomial",
)):
    """One family of foliations, as the data its localization needs.

    fibers(d, weights, **options) yields (pair, fiber weights) at the six
    fixed points in P5_PAIRS order; tangent_weights(pair, weights) gives
    the tangent weights of the parameter space there.  degree_bound is
    the degree of the counting polynomial in d (thrice the dimension of
    the parameter space) and closed_form_polynomial() returns the
    published one.
    """

    __slots__ = ()

    def closed_form(self, d):
        """The published degree at d: the closed-form polynomial
        evaluated exactly, which must be an integer."""
        if d < self.min_degree:
            raise ValueError(
                "the %s closed form starts at d = %d, got %r"
                % (self.name, self.min_degree, d)
            )
        value = self.closed_form_polynomial()(d)
        if value.denominator != 1:
            raise ArithmeticError("closed form not integral at d=%d" % d)
        return int(value)


def localize(family, d, weights=DEFAULT_WEIGHTS, **options):
    """Degree of a Family in degree d by Bott's formula.

    Each fixed point contributes e_n(fiber) / e_n(tangent), with n the
    dimension of the parameter space (the number of tangent weights);
    options go to family.fibers.  Fibers are taken one at a time, so
    only one is alive at once.  Raises NonIntegralDegree unless the sum
    is an integer.
    """
    if d < family.min_degree:
        raise ValueError(
            "%s family needs d >= %d, got %r"
            % (family.name, family.min_degree, d)
        )
    w = as_weight_system(weights).require_admissible()
    contributions = []
    for pair, fiber in family.fibers(d, w, **options):
        tangent = family.tangent_weights(pair, w)
        n = len(tangent)
        num = fiber.elementary_symmetric(n)
        den = tangent.elementary_symmetric(n)
        if den < 0:
            num, den = -num, -den
        contributions.append(
            FixedPointContribution(pair, num, den, Fraction(num, den))
        )
    total = sum((c.value for c in contributions), Fraction(0))
    if total.denominator != 1:
        raise NonIntegralDegree(
            "%s localization sum %s is not an integer (d=%d, weights %r)"
            % (family.name, scalar_to_string(total), d, w.values)
        )
    return DegreeReport(family.name, d, w, contributions, int(total))


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
    pair = as_fixed_point(pair)
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


def legendrian_fibers(d, weights, method=None):
    """(pair, image fiber weights) at the six fixed forms.

    method is one of the foldeg.limits METHODS (None picks
    default_method(d)).  The image route takes all six fibers from one
    limit computation (_source_fiber); the kernel route and "both"
    compute each fixed point directly, and "both" raises
    MethodDisagreement unless every direct fiber equals the one
    transported from its own SOURCE_PAIR result.
    """
    if method is None:
        method = default_method(d)
    if method not in METHODS:
        raise ValueError("unknown method %r" % (method,))
    if method == METHOD_IMAGE:
        characters = _source_fiber(d, weights)
        for pair in P5_PAIRS:
            yield pair, transported_fiber(characters, pair, weights)
        return
    for pair in P5_PAIRS:
        res = limit_fiber_weights(pair, d, weights, method)
        if method == METHOD_BOTH:
            if pair == SOURCE_PAIR:  # the first of P5_PAIRS
                characters = res.quotient_characters
            moved = transported_fiber(characters, pair, weights)
            if moved != res.quotient_weights:
                raise MethodDisagreement(
                    "transported and direct fibers disagree at %r, d=%d"
                    % (pair, d)
                )
        yield pair, res.quotient_weights


@lru_cache(maxsize=None)
def legendrian_closed_form_polynomial():
    """The published Legendrian degree, a polynomial of degree 15:
    C(d+2,4) * (d^3+9d^2+14d+24) * (d^8+34d^7+...+29808) / 38880.

    >>> legendrian_closed_form_polynomial()(2)
    Fraction(2224, 1)
    """
    # C(d+2,4) = (d^4 + 2d^3 - d^2 - 2d) / 24
    return (
        RationalPolynomial([0, -2, -1, 2, 1])
        * RationalPolynomial([24, 14, 9, 1])
        * RationalPolynomial(
            [29808, 44856, 45444, 29872, 13480, 3430, 475, 34, 1]
        )
        * Fraction(1, 24 * 38880)
    )


# The P^5 of antisymmetric forms: five tangent weights, so e_5 / e_5.
LEGENDRIAN = Family(
    "legendrian", 2, 15, legendrian_fibers, tangent_weights_p5,
    legendrian_closed_form_polynomial,
)


def legendrian_degree(d, weights=DEFAULT_WEIGHTS, method=None):
    """Degree of the degree-d Legendrian family by localization; method
    picks the limit route (see legendrian_fibers)."""
    return localize(LEGENDRIAN, d, weights, method=method)
