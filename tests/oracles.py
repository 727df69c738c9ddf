"""Slow, direct versions of the exact layer, kept as test oracles.

Each is the plain algorithm the package used before it worked on
weight counts: e_k by the O(n*k) product recurrence over every value,
the pencil fiber by enumerating every monomial weight, and the
interpolant as a sum of Lagrange basis polynomials.  They share no
code with what they check beyond RationalPolynomial, the monomial list
and the complement of a pair.
"""

from fractions import Fraction

from foldeg.exact import RationalPolynomial, monomials_of_degree
from foldeg.fields import complementary_pair


def elementary_symmetric_recurrence(k, values):
    """e_k by expanding prod (1 + v*x) one value at a time."""
    e = [1] + [0] * k
    for seen, v in enumerate(values, start=1):
        for i in range(min(k, seen), 0, -1):
            e[i] += v * e[i - 1]
    return e[k]


def enumerated_pencil_fiber(pair, d, weights):
    """Twisted pencil fiber at pair as a sorted list: every degree-(d+1)
    monomial weight, less the d+2 of the monomials in the complementary
    variables alone, shifted by their weight sum."""
    k, l = complementary_pair(pair)
    wk, wl = weights[k - 1], weights[l - 1]
    full = sorted(
        sum(e * wi for e, wi in zip(m, weights))
        for m in monomials_of_degree(d + 1)
    )
    for a in range(d + 2):
        full.remove(a * wk + (d + 1 - a) * wl)
    return [v + wk + wl for v in full]


def lagrange_sum(points):
    """The interpolant as sum_i y_i * prod_{j != i} (x - x_j)/(x_i - x_j)."""
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    total = RationalPolynomial()
    for i, (xi, yi) in enumerate(pts):
        num = RationalPolynomial([1])
        den = Fraction(1)
        for j, (xj, _) in enumerate(pts):
            if j != i:
                num = num * RationalPolynomial([-xj, 1])
                den *= xi - xj
        total = total + num * (yi / den)
    return total
