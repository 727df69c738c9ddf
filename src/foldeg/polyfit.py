"""Closed degree formulas and interpolation of computed degree sequences.

Both families have polynomial degree counts: degree 15 in d for the
Legendrian family, degree 12 for the pencil family (three times the
fixed-locus dimension in each case).  This module evaluates the closed
forms exactly, expands them into coefficient vectors, and interpolates
freshly computed degree sequences to compare — polynomial identity, not
just pointwise agreement.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb

from .bott import legendrian_degree
from .exact import (
    DEFAULT_WEIGHTS,
    RationalPolynomial,
    as_weight_system,
    lagrange_interpolate,
)
from .pencil import pencil_degree, pencil_degree_closed_form

FAMILIES = ("legendrian", "pencil")

# Polynomial degrees of the two counting functions: thrice the dimension
# of the relevant fixed locus (5 for the form space, 4 for G(2,4)).
LEGENDRIAN_DEGREE_BOUND = 15
PENCIL_DEGREE_BOUND = 12

# Factors of the Legendrian closed form: a binomial prefactor C(d+2,4),
# a cubic, and an octic, over 2^5 * 3^5 * 5 = 38880.
_LEGENDRIAN_CUBIC = (24, 14, 9, 1)
_LEGENDRIAN_OCTIC = (29808, 44856, 45444, 29872, 13480, 3430, 475, 34, 1)
_LEGENDRIAN_DIVISOR = 38880


class InsufficientPoints(ValueError):
    """Fewer interpolation points than the polynomial degree demands."""


class IntegralityError(ArithmeticError):
    """An interpolated counting polynomial took a non-integer value."""


def legendrian_closed_form(d):
    """The published Legendrian degree polynomial, evaluated exactly.

    C(d+2,4) * (d^3+9d^2+14d+24) * (d^8+34d^7+...+29808) / 38880.

    >>> legendrian_closed_form(2)
    2224
    """
    if d < 2:
        raise ValueError("the closed form starts at d = 2, got %r" % (d,))
    cubic = sum(c * d**k for k, c in enumerate(_LEGENDRIAN_CUBIC))
    octic = sum(c * d**k for k, c in enumerate(_LEGENDRIAN_OCTIC))
    value = Fraction(comb(d + 2, 4) * cubic * octic, _LEGENDRIAN_DIVISOR)
    if value.denominator != 1:
        raise ArithmeticError("closed form not integral at d=%d" % d)
    return int(value)


@lru_cache(maxsize=None)
def legendrian_closed_form_polynomial():
    """The closed form expanded to a degree-15 coefficient vector."""
    # C(d+2,4) = (d^4 + 2d^3 - d^2 - 2d) / 24
    quartic = RationalPolynomial([0, -2, -1, 2, 1])
    poly = (
        quartic
        * RationalPolynomial(_LEGENDRIAN_CUBIC)
        * RationalPolynomial(_LEGENDRIAN_OCTIC)
        * Fraction(1, 24 * _LEGENDRIAN_DIVISOR)
    )
    if poly.degree != LEGENDRIAN_DEGREE_BOUND:
        raise ArithmeticError("legendrian closed form has wrong degree")
    return poly


@lru_cache(maxsize=None)
def pencil_closed_form_polynomial():
    """The pencil closed form expanded to a degree-12 coefficient vector.

    5 * C(d+4,5) * C(d+3,3) * (d^2+2d+3) * (d^2+6d+11) / 108 with
    C(d+4,5) = (d+4)(d+3)(d+2)(d+1)d/120, C(d+3,3) = (d+3)(d+2)(d+1)/6.
    """
    quintic = RationalPolynomial([1])
    for a in (4, 3, 2, 1, 0):
        quintic = quintic * RationalPolynomial([a, 1])
    cubic = RationalPolynomial([1])
    for a in (3, 2, 1):
        cubic = cubic * RationalPolynomial([a, 1])
    poly = (
        quintic
        * cubic
        * RationalPolynomial([3, 2, 1])
        * RationalPolynomial([11, 6, 1])
        * Fraction(5, 120 * 6 * 108)
    )
    if poly.degree != PENCIL_DEGREE_BOUND:
        raise ArithmeticError("pencil closed form has wrong degree")
    return poly


def family_closed_form(family, d):
    if family == "legendrian":
        return legendrian_closed_form(d)
    if family == "pencil":
        return pencil_degree_closed_form(d)
    raise ValueError("unknown family %r" % (family,))


def family_closed_form_polynomial(family):
    if family == "legendrian":
        return legendrian_closed_form_polynomial()
    if family == "pencil":
        return pencil_closed_form_polynomial()
    raise ValueError("unknown family %r" % (family,))


def family_degree_bound(family):
    if family == "legendrian":
        return LEGENDRIAN_DEGREE_BOUND
    if family == "pencil":
        return PENCIL_DEGREE_BOUND
    raise ValueError("unknown family %r" % (family,))


def _degree_task(args):
    family, d, wvalues = args
    if family == "legendrian":
        return d, legendrian_degree(d, wvalues).degree
    return d, pencil_degree(d, wvalues).degree


def compute_degree_points(family, d_min, d_max, weights=DEFAULT_WEIGHTS,
                          jobs=1):
    """Freshly computed (d, degree) pairs for d_min..d_max inclusive."""
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % (family,))
    if d_min < 2 or d_max < d_min:
        raise ValueError("need 2 <= d_min <= d_max")
    w = as_weight_system(weights)
    w.require_admissible()
    tasks = [(family, d, w.values) for d in range(d_min, d_max + 1)]
    if jobs > 1 and len(tasks) > 1:
        # imported here: it pulls in multiprocessing, which serial runs
        # never need
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            pairs = list(pool.map(_degree_task, tasks))
    else:
        pairs = [_degree_task(t) for t in tasks]
    return sorted(pairs)


def interpolate_family(family, d_min, d_max, weights=DEFAULT_WEIGHTS,
                       jobs=1, points=None):
    """Interpolate computed degrees into an exact polynomial in d.

    Needs at least bound+1 points (16 for legendrian, 13 for pencil);
    the result is spot-checked to take integer values at the three
    integers past d_max — a counting polynomial must — and handed back
    as a RationalPolynomial.  Pass points to reuse values computed
    elsewhere instead of recomputing.
    """
    bound = family_degree_bound(family)
    if d_max - d_min < bound:
        raise InsufficientPoints(
            "%s interpolation needs %d points, range %d..%d has %d"
            % (family, bound + 1, d_min, d_max, d_max - d_min + 1)
        )
    if points is None:
        points = compute_degree_points(family, d_min, d_max, weights, jobs)
    poly = lagrange_interpolate(points)
    for x in range(d_max + 1, d_max + 4):
        if poly(x).denominator != 1:
            raise IntegralityError(
                "interpolant is not integer-valued at d=%d" % x
            )
    return poly
