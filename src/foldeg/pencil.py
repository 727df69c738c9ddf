"""The pencil family, localized over the Grassmannian of planes.

Foliations everywhere tangent to a varying pencil of planes form the
second family (PENCIL, pencil_degree).  The fixed points of the torus on
the Grassmannian G(2,4) are the coordinate pencils <x_i, x_j>, named by
the same pairs as the fixed forms; no saturation is needed here -- the
fiber of the twisted quotient sheaf at a fixed pencil is written down
directly as its power sums p_0..p_4 in closed form (pd_twisted_weights),
and foldeg.bott.localize sums e_4 over e_4 on the 4-dimensional G(2,4).
"""

from fractions import Fraction
from functools import lru_cache
from math import comb

from .bott import Family, localize
from .exact import (
    DEFAULT_WEIGHTS,
    RationalPolynomial,
    WeightMultiset,
    as_weight_system,
    monomial_power_sums,
)
from .fields import P5_PAIRS, as_fixed_point, complementary_pair


def tangent_weights_g24(pair, weights=DEFAULT_WEIGHTS):
    """Tangent weights of G(2,4) at <x_i, x_j>: the four differences
    w_k - w_i with k outside the pair and i inside.

    >>> list(tangent_weights_g24((1, 2), (0, 2, 7, 10)))
    [5, 7, 8, 10]
    """
    pair = as_fixed_point(pair)
    w = as_weight_system(weights).require_admissible()
    return WeightMultiset(
        w.weight(k) - w.weight(i)
        for k in complementary_pair(pair)
        for i in pair
    )


def pd_twisted_weights(pair, d, weights=DEFAULT_WEIGHTS, full=None):
    """Power sums p_0..p_4 of the twisted quotient sheaf's fiber at a
    fixed pencil: the C(d+4,3) degree-(d+1) monomial weights (full, if
    given, computed once for all six pencils; ValueError unless it has
    that size) less the d+2 of the monomials in the two complementary
    variables alone, each shifted by w_k + w_l (the line-bundle twist).
    """
    pair = as_fixed_point(pair)
    w = as_weight_system(weights).require_admissible()
    if full is None:
        full = monomial_power_sums(w.values, d + 1, 4)
    elif full.p[0] != comb(d + 4, 3):
        raise ValueError("full count of %d weights at d=%d" % (full.p[0], d))
    k, l = complementary_pair(pair)
    part = monomial_power_sums((w.weight(k), w.weight(l)), d + 1, 4)
    return (full - part).shifted(w.pair_sum((k, l)))


def pencil_fibers(d, weights):
    """(pair, twisted fiber power sums) at the six pencils, one at a time."""
    full = monomial_power_sums(weights.values, d + 1, 4)
    for pair in P5_PAIRS:
        yield pair, pd_twisted_weights(pair, d, weights, full)


@lru_cache(maxsize=None)
def pencil_closed_form_polynomial():
    """The published pencil degree, a polynomial of degree 12:
    5 * C(d+4,5) * C(d+3,3) * (d^2+2d+3) * (d^2+6d+11) / 108.

    >>> pencil_closed_form_polynomial()(2)
    Fraction(825, 1)
    """
    # C(d+4,5) = (d+4)(d+3)(d+2)(d+1)d / 120, C(d+3,3) = (d+3)(d+2)(d+1) / 6
    poly = (
        RationalPolynomial([3, 2, 1])
        * RationalPolynomial([11, 6, 1])
        * Fraction(5, 120 * 6 * 108)
    )
    for a in (4, 3, 2, 1, 0, 3, 2, 1):
        poly = poly * RationalPolynomial([a, 1])
    return poly


# G(2,4): four tangent weights, so e_4 / e_4.
PENCIL = Family(
    "pencil", 2, 12, pencil_fibers, tangent_weights_g24,
    pencil_closed_form_polynomial,
)


def pencil_degree(d, weights=DEFAULT_WEIGHTS):
    """Degree of the degree-d pencil family by localization."""
    return localize(PENCIL, d, weights)
