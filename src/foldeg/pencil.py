"""The pencil family, localized over the Grassmannian of planes.

Foliations everywhere tangent to a varying pencil of planes form the
second family (PENCIL, pencil_degree).  A pencil <x_i, x_j> is the
decomposable form x_i ^ x_j up to scale, so G(2,4) is the Pfaff-Plucker
quadric in the P^5 of forms, off which the contact forms lie, with the
same six fixed points.  The fiber at <x_p, x_q> is the part of the
monomial split that the contraction with kappa_pq reaches, the
C(d+4,3) - (d+2) monomials that involve x_p or x_q, twisted as a table
in d (_twisted_table, PENCIL.shift).  The family's record
(foldeg.bott._fixed_points) makes the split once per weight system, up
to the p_4 that e_4 reads, as the tangent there has four weights
w_j - w_i, i in the pair and j not (tangent_weights_g24); localize
evaluates and counts the table at each d, as Family.fiber does.
"""

from fractions import Fraction
from math import comb

from .bott import Family, localize
from .exact import DEFAULT_WEIGHTS, as_weight_system
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


def _twisted_table(pair, w, reached, part):
    """The twisted fiber at <x_p, x_q> as Differences in d + 1, from the
    record's split (foldeg.bott._fixed_points): the monomials that
    involve x_p or x_q, reached, shifted by w_k + w_l, the line-bundle
    twist; the part in x_k, x_l alone is left out."""
    twist = sum(w) - w.pair_sum(pair)
    return reached.shifted(twist)


def pd_twisted_weights(pair, d, w, fiber):
    """The pencil's per-point check, which has nothing to check: it
    hands back the fiber it is given.  It stays because perfbench's
    tracer wraps this name and counts the weights of what it returns;
    ROADMAP item 1 removes it."""
    return fiber


def pencil_formula(d):
    """The published pencil degree at an int d, a polynomial of degree 12:
    5 * C(d+4,5) * C(d+3,3) * (d^2+2d+3) * (d^2+6d+11) / 108.

    >>> pencil_formula(2)
    Fraction(825, 1)
    """
    return Fraction(5 * comb(d + 4, 5) * comb(d + 3, 3)
                    * (d * d + 2 * d + 3) * (d * d + 6 * d + 11), 108)


# G(2,4): four tangent weights, so e_4 / e_4.  The check looks up
# pd_twisted_weights at each call, so a wrapper put on the name sees it.
PENCIL = Family(
    "pencil", 2, 12, shift=_twisted_table, removed=lambda d: d + 2,
    check=lambda *point: pd_twisted_weights(*point),
    tangent_weights=tangent_weights_g24, formula=pencil_formula)


def pencil_degree(d, weights=DEFAULT_WEIGHTS):
    """Degree of the degree-d pencil family by localization."""
    return localize(PENCIL, d, weights)
