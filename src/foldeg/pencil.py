"""The pencil family, localized over the Grassmannian of planes.

Foliations everywhere tangent to a varying pencil of planes form the
second family (PENCIL, pencil_degree).  The fixed points of the torus on
the Grassmannian G(2,4) are the coordinate pencils <x_i, x_j>, named by
the same pairs as the fixed forms; no saturation is needed here -- the
fiber of the relevant twisted quotient sheaf at a fixed pencil is
written down directly from monomial weights, and foldeg.bott.localize
sums e_4 over e_4 on the 4-dimensional Grassmannian.
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
    monomial_weight,
    monomials_of_degree,
)
from .fields import P5_PAIRS, as_fixed_point, complementary_pair, phi_dimension


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


def _monomial_weights(d, w):
    """Weights of all degree-(d+1) monomials; the same at every pencil."""
    return WeightMultiset(
        monomial_weight(m, w) for m in monomials_of_degree(d + 1)
    )


def pd_twisted_weights(pair, d, weights=DEFAULT_WEIGHTS, monomial_weights=None):
    """Fiber weights of the twisted quotient sheaf at a fixed pencil.

    Take the weights of all degree-(d+1) monomials, remove the d+2
    weights a*w_k + b*w_l of the monomials in the two complementary
    variables alone, and shift everything by w_k + w_l (the line-bundle
    twist).  Size: C(d+4,3) - (d+2).  monomial_weights, if given, is
    that first multiset, computed once for all six pencils.
    """
    pair = as_fixed_point(pair)
    w = as_weight_system(weights).require_admissible()
    k, l = complementary_pair(pair)
    wk, wl = w.weight(k), w.weight(l)
    full = monomial_weights
    if full is None:
        full = _monomial_weights(d, w)
    removed = [a * wk + (d + 1 - a) * wl for a in range(d + 2)]
    twist = wk + wl
    return WeightMultiset(v + twist for v in full.difference(removed))


def pencil_fibers(d, weights):
    """(pair, twisted fiber weights) at the six fixed pencils, one at a
    time; the monomial weights are computed once for all six."""
    full = _monomial_weights(d, weights)
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


def pencil_rank_checks(d):
    """The dimension bookkeeping of the pencil construction.

    rank_Pd = C(d+4,3) - (d+2) is the rank of the quotient sheaf;
    rank_Pi_d = dim_phi - rank_Pd is the kernel, and it coincides with
    2*C(d+3,3) for every d (e.g. {7, 8, 15} at d=1, {16, 20, 36} at d=2,
    {30, 40, 70} at d=3) — the exact-rank oracle on a rank-2 form
    confirms the kernel values, see the pencil tests.
    """
    if d < 1:
        raise ValueError("need d >= 1, got %r" % (d,))
    dim_phi = phi_dimension(d)
    rank_pd = comb(d + 4, 3) - (d + 2)
    rank_pi = dim_phi - rank_pd
    if rank_pi != 2 * comb(d + 3, 3):
        raise ArithmeticError(
            "kernel-rank identity broke at d=%d: %d vs %d"
            % (d, rank_pi, 2 * comb(d + 3, 3))
        )
    return {"rank_Pd": rank_pd, "rank_Pi_d": rank_pi, "dim_phi": dim_phi}
