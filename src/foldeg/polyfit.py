"""The two families by name, and interpolation of computed degrees.

FAMILIES maps each family name to its Family record (foldeg.bott).  Both
counting functions are polynomials in d: degree 15 for the Legendrian
family, degree 12 for the pencil family (three times the dimension of
the parameter space in each case).  This module evaluates the published
closed forms exactly and interpolates freshly computed degree sequences
to compare -- polynomial identity, not just pointwise agreement.
"""

from .bott import LEGENDRIAN, localize
from .exact import (
    DEFAULT_WEIGHTS,
    as_weight_system,
    lagrange_interpolate,
)
from .pencil import PENCIL

FAMILIES = {f.name: f for f in (LEGENDRIAN, PENCIL)}


class InsufficientPoints(ValueError):
    """Too few interpolation points for the polynomial degree, or points
    that do not cover the requested range."""


class IntegralityError(ArithmeticError):
    """An interpolated counting polynomial took a non-integer value."""


def get_family(name):
    """The Family record called name; ValueError for an unknown name."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError("unknown family %r" % (name,)) from None


def family_closed_form(name, d):
    """The published degree of a family at d, exactly.

    >>> family_closed_form("legendrian", 2), family_closed_form("pencil", 2)
    (2224, 825)
    """
    return get_family(name).closed_form(d)


def family_closed_form_polynomial(name):
    """The published degree of a family as a RationalPolynomial in d."""
    return get_family(name).closed_form_polynomial()


def _degree_task(args):
    name, d, wvalues = args
    return d, localize(FAMILIES[name], d, wvalues).degree


def compute_degree_points(family, d_min, d_max, weights=DEFAULT_WEIGHTS,
                          jobs=1):
    """Freshly computed (d, degree) pairs for d_min..d_max inclusive."""
    lowest = get_family(family).min_degree
    if d_min < lowest or d_max < d_min:
        raise ValueError("need %d <= d_min <= d_max" % lowest)
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
    integers past d_max -- a counting polynomial must -- and handed back
    as a RationalPolynomial.  Pass points to reuse values computed
    elsewhere instead of recomputing; their abscissae must be exactly
    d_min..d_max.
    """
    bound = get_family(family).degree_bound
    if d_max - d_min < bound:
        raise InsufficientPoints(
            "%s interpolation needs %d points, range %d..%d has %d"
            % (family, bound + 1, d_min, d_max, d_max - d_min + 1)
        )
    if points is None:
        points = compute_degree_points(family, d_min, d_max, weights, jobs)
    elif sorted(d for d, _ in points) != list(range(d_min, d_max + 1)):
        raise InsufficientPoints(
            "points must be given at exactly d=%d..%d" % (d_min, d_max)
        )
    poly = lagrange_interpolate(points)
    for x in range(d_max + 1, d_max + 4):
        if poly(x).denominator != 1:
            raise IntegralityError(
                "interpolant is not integer-valued at d=%d" % x
            )
    return poly
