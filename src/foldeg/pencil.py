"""Localization for the pencil family over the Grassmannian of planes.

Foliations everywhere tangent to a varying pencil of planes form the
second family.  The fixed points of the torus on the Grassmannian G(2,4)
are the coordinate pencils <x_i, x_j>; no saturation is needed here —
the fiber of the relevant twisted quotient sheaf at a fixed pencil is
written down directly from monomial weights, and the degree is again a
six-point localization sum, now with e_4 over the 4-dimensional
Grassmannian.
"""

from collections import namedtuple
from fractions import Fraction
from math import comb

from .bott import _normalized_contribution, _sum_contributions
from .exact import (
    DEFAULT_WEIGHTS,
    WeightMultiset,
    as_weight_system,
    monomial_weight,
    monomials_of_degree,
)
from .fields import P5_PAIRS, complementary_pair, phi_dimension

PENCIL_MIN_DEGREE = 2


class FixedPointG24(namedtuple("FixedPointG24", "pair")):
    """The torus-fixed pencil spanned by the coordinates x_i, x_j."""

    __slots__ = ()

    @property
    def complement(self):
        return complementary_pair(self.pair)

    def __repr__(self):
        return "FixedPointG24(%d,%d)" % self.pair


def fixed_points_g24():
    """The six fixed pencils in canonical pair order."""
    return tuple(FixedPointG24(p) for p in P5_PAIRS)


def as_g24_fixed_point(fp):
    if isinstance(fp, FixedPointG24):
        return fp
    pair = tuple(fp)
    if pair not in P5_PAIRS:
        raise ValueError("not a fixed-pencil pair: %r" % (fp,))
    return FixedPointG24(pair)


def tangent_weights_g24(fp, weights=DEFAULT_WEIGHTS):
    """Tangent weights of G(2,4) at <x_i, x_j>: the four differences
    w_k - w_i with k outside the pair and i inside.

    >>> list(tangent_weights_g24((1, 2), (0, 2, 7, 10)))
    [5, 7, 8, 10]
    """
    fp = as_g24_fixed_point(fp)
    w = as_weight_system(weights).require_admissible()
    return WeightMultiset(
        w.weight(k) - w.weight(i)
        for k in fp.complement
        for i in fp.pair
    )


def _monomial_weights(d, w):
    """Weights of all degree-(d+1) monomials; the same at every pencil."""
    return WeightMultiset(
        monomial_weight(m, w) for m in monomials_of_degree(d + 1)
    )


def pd_twisted_weights(fp, d, weights=DEFAULT_WEIGHTS, monomial_weights=None):
    """Fiber weights of the twisted quotient sheaf at a fixed pencil.

    Take the weights of all degree-(d+1) monomials, remove the d+2
    weights a*w_k + b*w_l of the monomials in the two complementary
    variables alone, and shift everything by w_k + w_l (the line-bundle
    twist).  Size: C(d+4,3) - (d+2).  monomial_weights, if given, is
    that first multiset, computed once for all six pencils.
    """
    fp = as_g24_fixed_point(fp)
    w = as_weight_system(weights).require_admissible()
    k, l = fp.complement
    wk, wl = w.weight(k), w.weight(l)
    full = monomial_weights
    if full is None:
        full = _monomial_weights(d, w)
    removed = [a * wk + (d + 1 - a) * wl for a in range(d + 2)]
    twist = wk + wl
    return WeightMultiset(v + twist for v in full.difference(removed))


def pencil_degree(d, weights=DEFAULT_WEIGHTS):
    """Degree of the degree-d pencil family by localization.

    Summand at each fixed pencil: e_4 of the twisted fiber weights over
    e_4 (= the product) of the four tangent weights.
    """
    if d < PENCIL_MIN_DEGREE:
        raise ValueError("pencil family needs d >= 2, got %r" % (d,))
    w = as_weight_system(weights)
    w.require_admissible()
    full = _monomial_weights(d, w)
    contributions = []
    for fp in fixed_points_g24():
        fiber = pd_twisted_weights(fp, d, w, full)
        tangent = tangent_weights_g24(fp, w)
        k = len(tangent)
        num = fiber.elementary_symmetric(k)
        den = tangent.elementary_symmetric(k)
        contributions.append(_normalized_contribution(fp.pair, num, den))
    return _sum_contributions("pencil", d, w, contributions)


def pencil_degree_closed_form(d):
    """Closed form 5*C(d+4,5)*C(d+3,3)*(d^2+2d+3)*(d^2+6d+11)/108."""
    if d < PENCIL_MIN_DEGREE:
        raise ValueError("pencil family needs d >= 2, got %r" % (d,))
    value = Fraction(
        5 * comb(d + 4, 5) * comb(d + 3, 3)
        * (d * d + 2 * d + 3) * (d * d + 6 * d + 11),
        108,
    )
    if value.denominator != 1:
        raise ArithmeticError("closed form not integral at d=%d" % d)
    return int(value)


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
