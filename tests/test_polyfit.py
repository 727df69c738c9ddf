"""Tests for closed degree formulas and interpolation."""

import re
from fractions import Fraction

import pytest

from foldeg.exact import lagrange_interpolate
from foldeg.polyfit import (
    FAMILIES,
    InsufficientPoints,
    IntegralityError,
    compute_degree_points,
    family_closed_form,
    family_closed_form_polynomial,
    get_family,
    interpolate_family,
)
from frozen import LEGENDRIAN_DEGREES, PENCIL_DEGREES
from oracles import fraction_horner, lagrange_sum

FROZEN = {"legendrian": LEGENDRIAN_DEGREES, "pencil": PENCIL_DEGREES}


def test_legendrian_closed_form_values():
    for d, expected in LEGENDRIAN_DEGREES.items():
        assert family_closed_form("legendrian", d) == expected
    with pytest.raises(ValueError):
        family_closed_form("legendrian", 1)
    # not truncated to d = 2 nor taken as d = 5: a float is refused
    for d in (2.5, 5.0):
        with pytest.raises(TypeError):
            family_closed_form("legendrian", d)


def test_closed_form_refuses_a_non_integral_formula():
    """A formula value that is not an integer raises ArithmeticError at
    closed_form, and so at the polynomial interpolated from it, rather
    than being truncated."""
    half = FAMILIES["legendrian"]._replace(formula=lambda d: Fraction(1, 2))
    with pytest.raises(ArithmeticError, match="not integral at d=2"):
        half.closed_form(2)
    with pytest.raises(ArithmeticError):
        half.closed_form_polynomial()


def test_closed_form_polynomials_interpolate_frozen_tables():
    """Each family's frozen table (16 Legendrian points, 13 pencil
    points) pins a polynomial of the family's degree bound; the closed
    form is that polynomial."""
    for name, table in FROZEN.items():
        bound = FAMILIES[name].degree_bound
        assert len(table) == bound + 1
        poly = family_closed_form_polynomial(name)
        assert poly.degree == bound
        d_min = min(table)
        ys = [table[d] for d in range(d_min, d_min + bound + 1)]
        assert lagrange_interpolate(d_min, ys) == poly
        assert poly == lagrange_sum(table.items())
        assert family_closed_form(name, 30) == poly(30)


def test_closed_form_values_equal_fraction_horner():
    """Family.closed_form, which evaluates in integers, gives what
    Horner's rule in Fractions gives on the same polynomial, inside and
    far outside the frozen tables."""
    for name in FAMILIES:
        coefficients = family_closed_form_polynomial(name).coefficients
        for d in (2, 17, 40, 100):
            value = family_closed_form(name, d)
            assert type(value) is int
            assert value == fraction_horner(coefficients, d)
    assert family_closed_form("legendrian", 17) == LEGENDRIAN_DEGREES[17]


def test_family_dispatch():
    assert list(FAMILIES) == ["legendrian", "pencil"]
    assert family_closed_form("legendrian", 2) == 2224
    assert family_closed_form("pencil", 2) == 825
    assert get_family("legendrian").degree_bound == 15
    assert get_family("pencil").degree_bound == 12
    assert all(get_family(n).name == n for n in FAMILIES)
    for bad in ("nonsense", ""):
        with pytest.raises(ValueError):
            family_closed_form(bad, 2)
        with pytest.raises(ValueError):
            family_closed_form_polynomial(bad)
        with pytest.raises(ValueError):
            get_family(bad)


def test_interpolation_of_frozen_points_recovers_polynomials():
    """Sixteen frozen Legendrian degrees pin the degree-15 polynomial;
    thirteen pencil degrees pin the degree-12 one.  The published
    polynomials are interpolated too, so each interpolant must also take
    the formula's values, which closed_form evaluates directly."""
    leg = interpolate_family(
        "legendrian", 2, 17, points=sorted(LEGENDRIAN_DEGREES.items())
    )
    assert leg == family_closed_form_polynomial("legendrian")
    pen = interpolate_family(
        "pencil", 2, 14, points=sorted(PENCIL_DEGREES.items())
    )
    assert pen == family_closed_form_polynomial("pencil")
    for d in range(2, 40):
        assert leg(d) == family_closed_form("legendrian", d), d
        assert pen(d) == family_closed_form("pencil", d), d


def test_interpolation_overdetermined_is_consistent():
    """One more point than necessary must give the same polynomial."""
    pts = sorted(LEGENDRIAN_DEGREES.items()) + [
        (18, family_closed_form("legendrian", 18))
    ]
    leg = interpolate_family("legendrian", 2, 18, points=pts)
    assert leg == family_closed_form_polynomial("legendrian")


def test_interpolation_from_fresh_pencil_degrees():
    """End to end for the pencil family: recompute the degrees by
    localization and interpolate (cheap enough for the default suite)."""
    poly = interpolate_family("pencil", 2, 14)
    assert poly == family_closed_form_polynomial("pencil")


def test_compute_degree_points():
    pts = compute_degree_points("pencil", 2, 4)
    assert pts == [(2, 825), (3, 13300), (4, 124950)]
    assert compute_degree_points("pencil", 2, 4, jobs=3) == pts
    with pytest.raises(ValueError):
        compute_degree_points("nonsense", 2, 4)
    with pytest.raises(ValueError):
        compute_degree_points("pencil", 1, 4)
    with pytest.raises(ValueError):
        compute_degree_points("pencil", 5, 4)


def test_insufficient_points_rejected():
    with pytest.raises(InsufficientPoints):
        interpolate_family("pencil", 2, 13)
    with pytest.raises(InsufficientPoints):
        interpolate_family("legendrian", 2, 16)


def test_given_points_must_cover_the_range():
    """Points passed in are checked against d_min..d_max: too few, a
    gap, or a point outside the window is rejected, not interpolated."""
    table = sorted(PENCIL_DEGREES.items())
    with pytest.raises(InsufficientPoints):
        interpolate_family("pencil", 2, 14, points=[(2, 825)])
    with pytest.raises(InsufficientPoints):
        interpolate_family("pencil", 2, 14, points=table[:-1])
    with pytest.raises(InsufficientPoints):
        interpolate_family("pencil", 2, 14, points=table[:-1] + [(15, 0)])
    with pytest.raises(InsufficientPoints):
        interpolate_family("pencil", 2, 14, points=table + table[:1])
    shuffled = table[::-1]
    assert interpolate_family("pencil", 2, 14, points=shuffled) == (
        family_closed_form_polynomial("pencil")
    )


def test_given_points_are_read_once():
    """points may be any iterable: an iterator or a generator of the
    true pencil degrees gives the published polynomial (the range check
    used to use it up, leaving the zero polynomial or degree -1)."""
    table = sorted(PENCIL_DEGREES.items())
    expected = family_closed_form_polynomial("pencil")
    assert interpolate_family("pencil", 2, 14, points=iter(table)) == expected
    assert interpolate_family(
        "pencil", 2, 14, points=((d, y) for d, y in table[::-1])) == expected


def test_integrality_guard():
    """A counting polynomial must take integer values; d^12/2 does not
    and must be rejected, at the first d where it is no integer."""
    pts = [(d, Fraction(d**12, 2)) for d in range(2, 15)]
    with pytest.raises(IntegralityError, match="at d=3 "):
        interpolate_family("pencil", 2, 14, points=pts)


def test_integrality_guard_sees_every_given_degree():
    """(d-15)(d-16)(d-17)/4 is an integer at d = 15, 16 and 17, just past
    the window, yet -1365/2 at d = 2: the interpolant of its values at
    d = 2..14 is not integer-valued, and the guard names d = 2."""
    pts = [(d, Fraction((d - 15) * (d - 16) * (d - 17), 4))
           for d in range(2, 15)]
    poly = lagrange_interpolate(2, [y for _, y in pts])
    assert [poly(d) for d in (15, 16, 17)] == [0, 0, 0]
    assert poly(2) == Fraction(-1365, 2)
    with pytest.raises(IntegralityError, match="^degree -1365/2 at d=2 "):
        interpolate_family("pencil", 2, 14, points=pts)


def test_integrality_guard_sees_one_half_at_the_last_point():
    """The true pencil degrees at d = 2..14 with 1/2 added to the last
    one only: the Lagrange basis polynomial of d = 14 takes the value 13
    at d = 15, so the interpolant is off by 13/2 there and the guard
    raises.  On the same points a short range, no points or a repeated
    abscissa raise InsufficientPoints first."""
    pts = sorted(PENCIL_DEGREES.items())
    pts[-1] = (14, pts[-1][1] + Fraction(1, 2))
    with pytest.raises(IntegralityError):
        interpolate_family("pencil", 2, 14, points=pts)
    poly = lagrange_interpolate(2, [y for _, y in pts])
    assert poly == lagrange_sum(pts)
    assert poly(15) - family_closed_form("pencil", 15) == Fraction(13, 2)
    with pytest.raises(InsufficientPoints):
        interpolate_family("pencil", 2, 13, points=pts[:-1])
    with pytest.raises(InsufficientPoints):
        interpolate_family("pencil", 2, 14, points=[])
    with pytest.raises(InsufficientPoints):
        interpolate_family("pencil", 2, 14, points=pts[:-1] + pts[-2:-1])


def test_lagrange_agrees_with_closed_form_sampling():
    """Interpolating closed-form samples at shifted abscissae still
    recovers the same polynomial (polynomials are determined by any
    bound+1 distinct points)."""
    poly = family_closed_form_polynomial("pencil")
    pts = [(d, poly(d)) for d in range(40, 40 + FAMILIES["pencil"].degree_bound + 1)]
    assert lagrange_interpolate(40, [y for _, y in pts]) == poly
    assert lagrange_sum(pts) == poly


def test_degrees_must_be_ints_or_fractions():
    """Given degrees are taken exactly: Fractions give what ints give,
    and a float, even one of integer value, raises TypeError naming it
    instead of being converted."""
    pts = sorted(PENCIL_DEGREES.items())
    as_fractions = [(Fraction(d), Fraction(y)) for d, y in pts]
    assert interpolate_family("pencil", 2, 14, points=as_fractions) == (
        family_closed_form_polynomial("pencil")
    )
    pts[3] = (5, float(pts[3][1]))
    with pytest.raises(TypeError, match=re.escape(repr(pts[3][1]))):
        interpolate_family("pencil", 2, 14, points=pts)
