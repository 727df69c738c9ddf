"""Property tests of the exact layer against the direct oracles in
tests/oracles.py: e_k from power sums, the arithmetic of Differences and
the monomial power-sum tables, Newton's forward differences and the
interpolant at consecutive integers, and polynomial evaluation (need
hypothesis)."""

from collections import Counter
from fractions import Fraction
from itertools import zip_longest
from math import comb

import pytest

from foldeg.exact import (
    Differences,
    PowerSums,
    RationalPolynomial,
    elementary_symmetric,
    forward_differences,
    lagrange_interpolate,
    power_sum_differences,
)
from oracles import (
    counted_power_sum_differences,
    elementary_symmetric_recurrence,
    fraction_horner,
    lagrange_sum,
    multiset_difference,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.given(
    counts=st.dictionaries(
        st.integers(-10**6, 10**6), st.integers(1, 10**4), max_size=6
    ),
    k=st.integers(0, 6),
)
def test_power_sum_e_k_equals_the_recurrence(counts, k):
    """e_k by Newton's identities on the counts equals the product
    recurrence over every value, from PowerSums.of and from a list."""
    values = [v for v, m in counts.items() for _ in range(m)]
    k = min(k, len(values))
    expected = elementary_symmetric_recurrence(k, values)
    assert elementary_symmetric(k, PowerSums.of(values, k)) == expected
    assert elementary_symmetric(k, values) == expected


DIFFERENCES = st.lists(st.integers(-10**12, 10**12), max_size=8).map(Differences)


@hypothesis.given(a=DIFFERENCES, b=DIFFERENCES, c=st.integers(-10**6, 10**6))
@hypothesis.example(a=Differences([1, 2, 3]), b=Differences([5]), c=-1)
@hypothesis.example(a=Differences([5]), b=Differences([1, 2, 3]), c=0)
def test_differences_act_entry_by_entry(a, b, c):
    """+ and - of Differences of any two lengths, and an int factor, are
    the entrywise sums, differences and products, the shorter operand
    padded with zeros, and they are Differences again."""
    pairs = list(zip_longest(a, b, fillvalue=0))
    for got, want in ((a + b, [x + y for x, y in pairs]),
                      (a - b, [x - y for x, y in pairs]),
                      (c * a, [c * x for x in a])):
        assert type(got) is Differences and got == tuple(want)


WEIGHT_LISTS = st.lists(st.integers(-20, 20), min_size=1, max_size=4)


@hypothesis.given(
    ws=st.one_of(WEIGHT_LISTS, WEIGHT_LISTS.filter(lambda ws: len(ws) < 4)
                 .map(lambda ws: ws + [-sum(ws)])),
    top=st.integers(0, 6),
)
@hypothesis.example(ws=[-5, -1, 2, 4], top=5)
def test_power_sum_table_equals_the_counted_oracle(ws, top):
    """The table of p_0..p_top of the degree-n monomial weights, summed
    over a plain list of them, equals forward differences of the counted
    samples, for weights of either sign and of sum zero, where p_1 is
    the empty Differences."""
    table = power_sum_differences(tuple(ws), top).p
    assert all(type(f) is Differences for f in table)
    assert [tuple(f) for f in table] == counted_power_sum_differences(ws, top)


@hypothesis.given(
    values=st.lists(st.integers(-4, 4), max_size=12),
    removed=st.lists(st.integers(-4, 4), max_size=8),
)
def test_multiset_difference_is_counter_subtraction(values, removed):
    """On random int lists the difference is Counter subtraction, sorted,
    and it raises exactly when removed is not contained in values."""
    have, lost = Counter(values), Counter(removed)
    if all(lost[v] <= have[v] for v in lost):
        want = tuple(sorted((have - lost).elements()))
        assert multiset_difference(values, removed) == want
    else:
        with pytest.raises(ValueError):
            multiset_difference(values, removed)


@hypothesis.given(
    start=st.integers(-60, 60),
    n=st.integers(1, 20),
    deltas=st.lists(st.integers(-10**6, 10**6), max_size=20),
)
def test_consecutive_integer_interpolant_equals_the_lagrange_sum(
        start, n, deltas):
    """On int values at consecutive integers from start, the forward
    differences give the Lagrange sum.  The values are sum_k deltas[k]
    C(i, k), so fewer deltas than points leave zero high-order
    differences.  Every coefficient is still a Fraction, so to_strings()
    reads as before."""
    ys = [sum(a * comb(i, k) for k, a in enumerate(deltas)) for i in range(n)]
    points = list(enumerate(ys, start))
    poly = lagrange_interpolate(start, ys)
    assert poly == lagrange_sum(points)
    assert poly.degree <= min(len(deltas), n) - 1
    assert all(type(c) is Fraction for c in poly.coefficients)
    assert poly.to_strings() == lagrange_sum(points).to_strings()


@hypothesis.given(
    coefficients=st.lists(st.integers(-10**6, 10**6), max_size=10),
    start=st.integers(-60, 60),
)
def test_newton_sum_of_forward_differences_gives_the_values_back(
        coefficients, start):
    """The forward_differences of a random integer polynomial f of degree
    below m = len(coefficients), at the m points start..start + m - 1,
    give f(start + i) = sum_k D^k C(i, k) back, at those points and at
    the next ones, as the evaluation of a power-sum table on a binomial
    row needs of its samples."""
    def f(x):
        return sum(c * x ** i for i, c in enumerate(coefficients))

    m = len(coefficients)
    deltas = forward_differences([f(start + i) for i in range(m)])
    assert len(deltas) <= m
    for i in range(m + 6):
        assert sum(a * comb(i, k) for k, a in enumerate(deltas)) == f(start + i)


@hypothesis.given(
    start=st.integers(-60, 60),
    ys=st.lists(st.integers(-10**4, 10**4), min_size=1, max_size=12),
    data=st.data(),
)
def test_consecutive_points_with_a_fractional_ordinate(start, ys, data):
    """Values at consecutive integers with one that is not an integer
    take the same forward differences, in Fractions, and still give the
    Lagrange sum."""
    i = data.draw(st.integers(0, len(ys) - 1))
    ys = [Fraction(y) for y in ys]
    ys[i] += Fraction(1, data.draw(st.integers(2, 60)))
    poly = lagrange_interpolate(start, ys)
    assert poly == lagrange_sum(enumerate(ys, start))


@hypothesis.given(
    coefficients=st.lists(
        st.fractions(-10**4, 10**4, max_denominator=60), max_size=10
    ),
    x=st.one_of(
        st.integers(-10**3, 10**3),
        st.fractions(-100, 100, max_denominator=30),
    ),
)
def test_evaluation_equals_fraction_horner(coefficients, x):
    """Horner's rule in integers over the common denominator equals
    Horner's rule in Fractions, at int and Fraction x; the value is
    always a Fraction."""
    value = RationalPolynomial(coefficients)(x)
    assert type(value) is Fraction
    assert value == fraction_horner(coefficients, x)
