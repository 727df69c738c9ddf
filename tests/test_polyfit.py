"""Tests for closed degree formulas and interpolation."""

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
from foldeg.reference import LEGENDRIAN_DEGREES, PENCIL_DEGREES

FROZEN = {"legendrian": LEGENDRIAN_DEGREES, "pencil": PENCIL_DEGREES}


def test_legendrian_closed_form_values():
    for d, expected in LEGENDRIAN_DEGREES.items():
        assert family_closed_form("legendrian", d) == expected
    with pytest.raises(ValueError):
        family_closed_form("legendrian", 1)


def test_closed_form_polynomials_interpolate_frozen_tables():
    """Each family's frozen table (16 Legendrian points, 13 pencil
    points) pins a polynomial of the family's degree bound; the closed
    form is that polynomial."""
    for name, table in FROZEN.items():
        bound = FAMILIES[name].degree_bound
        assert len(table) == bound + 1
        poly = family_closed_form_polynomial(name)
        assert poly.degree == bound
        assert lagrange_interpolate(sorted(table.items())) == poly
        assert family_closed_form(name, 30) == poly(30)


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
    thirteen pencil degrees pin the degree-12 one."""
    leg = interpolate_family(
        "legendrian", 2, 17, points=sorted(LEGENDRIAN_DEGREES.items())
    )
    assert leg == family_closed_form_polynomial("legendrian")
    pen = interpolate_family(
        "pencil", 2, 14, points=sorted(PENCIL_DEGREES.items())
    )
    assert pen == family_closed_form_polynomial("pencil")


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


def test_integrality_guard():
    """A counting polynomial must take integer values past the sample
    window; d^12/2 does not and must be rejected."""
    pts = [(d, Fraction(d**12, 2)) for d in range(2, 15)]
    with pytest.raises(IntegralityError):
        interpolate_family("pencil", 2, 14, points=pts)


def test_lagrange_agrees_with_closed_form_sampling():
    """Interpolating closed-form samples at shifted abscissae still
    recovers the same polynomial (polynomials are determined by any
    bound+1 distinct points)."""
    poly = family_closed_form_polynomial("pencil")
    pts = [(d, poly(d)) for d in range(40, 40 + FAMILIES["pencil"].degree_bound + 1)]
    assert lagrange_interpolate(pts) == poly
