"""The pencil family, localized over the Grassmannian of planes.

Foliations everywhere tangent to a varying pencil of planes form the
second family (PENCIL, pencil_degree).  A pencil <x_i, x_j> is the
decomposable form x_i ^ x_j up to scale, so G(2,4) is the Pfaff-Plucker
quadric in the P^5 of forms, off which the contact forms lie, with the
same six fixed points.  The fiber at <x_p, x_q> is the part of the
Legendrian split (foldeg.bott.split_power_sums) that the contraction
with kappa_pq reaches, twisted once per weight system and pair as a
table in d (_twisted_table) and evaluated at each d (pd_twisted_weights);
the tangent there has the weights w_j - w_i, i in the pair and j not
(tangent_weights_g24).
"""

from fractions import Fraction
from functools import lru_cache
from math import comb

from .bott import CACHED_PAIRS, Family, counted_fiber, localize, split_power_sums
from .exact import (
    DEFAULT_WEIGHTS,
    as_weight_system,
    power_sums_at,
)
from .fields import as_fixed_point, complementary_pair


def tangent_weights_g24(pair, weights=DEFAULT_WEIGHTS):
    """Tangent weights of G(2,4) at <x_p, x_q>: w_j - w_i for i in the
    pair and j in its complement, as a sorted tuple.

    >>> tangent_weights_g24((1, 2), (0, 2, 7, 10))
    (5, 7, 8, 10)
    """
    pair = as_fixed_point(pair)
    w = as_weight_system(weights).require_admissible()
    return tuple(sorted(w.weight(j) - w.weight(i)
                        for i in pair for j in complementary_pair(pair)))


@lru_cache(maxsize=CACHED_PAIRS)
def _twisted_table(pair, w):
    """The twisted fiber at <x_p, x_q> as Differences in d + 1, p_0..p_4,
    all that e_4 reads: the split's monomials that involve x_p or x_q,
    shifted by w_k + w_l, the line-bundle twist."""
    reached, _ = split_power_sums(pair, w, 4)
    twist = sum(w) - w.pair_sum(pair)
    return reached.shifted(twist)


def pd_twisted_weights(pair, d, weights):
    """Power sums p_0..p_4 of the twisted quotient sheaf's fiber at the
    pencil <x_p, x_q>: its table at d + 1, with the C(d+4,3) - (d+2)
    weights of the monomials that involve x_p or x_q."""
    pair = as_fixed_point(pair)
    w = as_weight_system(weights).require_admissible()
    return counted_fiber(power_sums_at(_twisted_table(pair, w), d + 1), d, d + 2)


def pencil_fiber(pair, d, weights):
    """pd_twisted_weights, found by name at each call, as perfbench's
    tracer wraps that name."""
    return pd_twisted_weights(pair, d, weights)


def pencil_formula(d):
    """The published pencil degree at an int d, a polynomial of degree 12:
    5 * C(d+4,5) * C(d+3,3) * (d^2+2d+3) * (d^2+6d+11) / 108.

    >>> pencil_formula(2)
    Fraction(825, 1)
    """
    return Fraction(5 * comb(d + 4, 5) * comb(d + 3, 3)
                    * (d * d + 2 * d + 3) * (d * d + 6 * d + 11), 108)


# G(2,4): four tangent weights, so e_4 / e_4.
PENCIL = Family(
    "pencil", 2, 12, pencil_fiber, tangent_weights_g24, pencil_formula,
)


def pencil_degree(d, weights=DEFAULT_WEIGHTS):
    """Degree of the degree-d pencil family by localization."""
    return localize(PENCIL, d, weights)
