"""Tests for the exact scalar / weight / polynomial layer."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from foldeg.exact import (
    DEFAULT_WEIGHTS,
    InadmissibleWeights,
    RationalPolynomial,
    WeightMultiset,
    WeightSystem,
    as_weight_system,
    elementary_symmetric,
    lagrange_interpolate,
    monomial_string,
    monomial_weight,
    monomials_of_degree,
    scalar_to_string,
)


def test_scalar_string_round_trip():
    rng = random.Random(101)
    for _ in range(200):
        x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        assert Fraction(scalar_to_string(x)) == x
    assert scalar_to_string(Fraction(6, 3)) == "2"
    assert scalar_to_string(Fraction(-1, 2)) == "-1/2"


def test_weight_system_basics():
    w = WeightSystem((0, 2, 7, 10))
    assert w.weight(1) == 0 and w.weight(4) == 10
    assert w.pair_sum((2, 3)) == 9
    assert list(w) == [0, 2, 7, 10]
    assert w == DEFAULT_WEIGHTS
    assert as_weight_system([0, 2, 7, 10]) == w
    assert as_weight_system(w) is w


def test_weight_admissibility():
    assert WeightSystem((0, 2, 7, 10)).is_admissible()
    assert WeightSystem((0, 1, 5, 13)).is_admissible()
    assert WeightSystem((1, 3, 9, 20)).is_admissible()
    # 0+3 == 1+2: colliding pair sums
    assert not WeightSystem((0, 1, 2, 3)).is_admissible()
    # repeated coordinate weight
    assert not WeightSystem((0, 0, 1, 5)).is_admissible()
    with pytest.raises(InadmissibleWeights):
        WeightSystem((0, 1, 2, 3)).require_admissible()
    with pytest.raises(InadmissibleWeights):
        WeightSystem((1, 2, 3))


def test_weight_admissibility_matches_definition():
    """Cross-check is_admissible against the raw definition on random
    small systems (which include plenty of inadmissible ones)."""
    rng = random.Random(202)
    seen_bad = seen_good = 0
    for _ in range(500):
        vals = tuple(rng.randint(-6, 6) for _ in range(4))
        w = WeightSystem(vals)
        sums = [a + b for a, b in combinations(vals, 2)]
        expected = len(set(vals)) == 4 and len(set(sums)) == 6
        assert w.is_admissible() == expected
        seen_bad += not expected
        seen_good += expected
    assert seen_bad and seen_good


def test_monomials_of_degree():
    assert monomials_of_degree(0) == ((0, 0, 0, 0),)
    assert monomials_of_degree(1)[0] == (1, 0, 0, 0)
    assert monomials_of_degree(1)[-1] == (0, 0, 0, 1)
    for k in range(7):
        monos = monomials_of_degree(k)
        assert len(monos) == comb(k + 3, 3)
        assert len(set(monos)) == len(monos)
        assert all(sum(m) == k and min(m) >= 0 for m in monos)
        # graded-lex with x1 > x2 > x3 > x4 means descending tuples
        assert list(monos) == sorted(monos, reverse=True)
    with pytest.raises(ValueError):
        monomials_of_degree(-1)


def test_monomial_weight_and_string():
    assert monomial_weight((1, 1, 0, 2), (0, 2, 7, 10)) == 22
    assert monomial_string((2, 0, 1, 0)) == "x1^2*x3"
    assert monomial_string((0, 0, 0, 0)) == "1"
    assert monomial_string((0, 1, 0, 1)) == "x2*x4"


def test_weight_multiset_operations():
    a = WeightMultiset([3, 1, 1, -2])
    assert a.values == (-2, 1, 1, 3)
    assert len(a) == 4
    assert a == WeightMultiset([1, -2, 3, 1])
    b = WeightMultiset(a.values + (1, 5))
    assert b.values == (-2, 1, 1, 1, 3, 5)
    assert b.difference([1, 1]).values == (-2, 1, 3, 5)
    with pytest.raises(ValueError):
        a.difference([7])
    with pytest.raises(ValueError):
        a.difference([1, 1, 1])


def test_elementary_symmetric_against_brute_force():
    rng = random.Random(303)
    for _ in range(60):
        n = rng.randint(0, 7)
        vals = [rng.randint(-9, 9) for _ in range(n)]
        for k in range(n + 1):
            brute = sum(
                _prod(c) for c in combinations(vals, k)
            )
            assert elementary_symmetric(k, vals) == brute
    assert elementary_symmetric(0, []) == 1
    with pytest.raises(ValueError):
        elementary_symmetric(3, [1, 2])
    with pytest.raises(ValueError):
        elementary_symmetric(-1, [1, 2])


def _prod(values):
    out = 1
    for v in values:
        out *= v
    return out


def test_rational_polynomial_arithmetic():
    rng = random.Random(404)
    for _ in range(100):
        a = _random_poly(rng)
        b = _random_poly(rng)
        x = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        assert (a + b)(x) == a(x) + b(x)
        assert (a - b)(x) == a(x) - b(x)
        assert (a * b)(x) == a(x) * b(x)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert (a * c)(x) == a(x) * c
        assert (c * a)(x) == c * a(x)


def _random_poly(rng):
    n = rng.randint(0, 6)
    return RationalPolynomial(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
    )


def test_rational_polynomial_normal_form():
    assert RationalPolynomial([1, 2, 0, 0]).coefficients == (1, 2)
    assert RationalPolynomial().degree == -1
    assert RationalPolynomial([0]).degree == -1
    assert RationalPolynomial([5]).degree == 0
    assert RationalPolynomial([0, 0, 3]).degree == 2
    zero = RationalPolynomial([1, 1]) - RationalPolynomial([1, 1])
    assert zero == RationalPolynomial()
    assert zero(Fraction(7)) == 0


def test_rational_polynomial_render():
    p = RationalPolynomial([3, 0, Fraction(-1, 2), 1])
    assert p.render() == "d^3 - 1/2*d^2 + 3"
    assert RationalPolynomial().render() == "0"
    assert RationalPolynomial([0, 1]).render("x") == "x"
    assert p.to_strings() == ["3", "0", "-1/2", "1"]


def test_lagrange_interpolation_round_trip():
    rng = random.Random(505)
    for _ in range(50):
        poly = _random_poly(rng)
        npts = len(poly.coefficients) + rng.randint(1, 3)
        xs = rng.sample(range(-20, 21), npts)
        pts = [(x, poly(x)) for x in xs]
        back = lagrange_interpolate(pts)
        assert back == poly
        for x, y in pts:
            assert back(x) == y


def test_lagrange_interpolation_validation():
    with pytest.raises(ValueError):
        lagrange_interpolate([])
    with pytest.raises(ValueError):
        lagrange_interpolate([(1, 1), (1, 2)])
