"""Tests for the exact scalar / weight / polynomial layer."""

import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from foldeg.exact import (
    DEFAULT_WEIGHTS,
    Differences,
    InadmissibleWeights,
    PowerSums,
    RationalPolynomial,
    WeightSystem,
    as_weight_system,
    binomial_row,
    elementary_symmetric,
    forward_differences,
    lagrange_interpolate,
    monomial_string,
    monomials_of_degree,
    power_sum_differences,
    power_sums_on_row,
    scalar_to_string,
)
from oracles import (
    elementary_symmetric_recurrence,
    fraction_horner,
    lagrange_sum,
    multiset_difference,
    stirling_monomial_power_sums,
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


def test_weight_system_requires_integers():
    """A non-integer weight is refused, not truncated: 2.9 used to
    become 2 and 1/2 become 0."""
    for bad in ((0, 2.9, 7, 10), (0, Fraction(1, 2), 7, 10),
                (0, 2.0, 7, 10), ("0", 2, 7, 10)):
        with pytest.raises(InadmissibleWeights):
            WeightSystem(bad)
    from foldeg import legendrian_degree, pencil_degree

    with pytest.raises(InadmissibleWeights):
        legendrian_degree(2, (0, 2.9, 7, 10))
    with pytest.raises(InadmissibleWeights):
        pencil_degree(2, (0, Fraction(1, 2), 7, 10))


def test_the_weight_cache_hands_a_checked_system_to_ints_alone():
    """(0, 2.0, 7, 10) and (0, Fraction(2), 7, 10) equal (0, 2, 7, 10)
    and hash alike, so they would find its cached tables and its cached
    admissibility; yet after it has been used they still raise at every
    entry point, and an inadmissible tuple raises again on a second
    call."""
    from foldeg import legendrian_degree, pencil_degree

    good = (0, 2, 7, 10)
    entry_points = (as_weight_system, lambda w: pencil_degree(2, w),
                    lambda w: legendrian_degree(2, w))
    for call in entry_points:
        call(good)
        for bad in ((0, 2.0, 7, 10), (0, Fraction(2), 7, 10)):
            assert bad == good and hash(bad) == hash(good)
            with pytest.raises(InadmissibleWeights):
                call(bad)
    for call in entry_points[1:]:
        for _ in range(2):
            with pytest.raises(InadmissibleWeights):
                call((0, 1, 2, 3))


def test_a_shared_weight_system_cannot_be_reassigned():
    """DEFAULT_WEIGHTS is shared by every caller, and the caches key on
    a system's values, so no system can take new values: an assignment
    would reach every other caller while the admissibility kept for the
    old values still answered.  Pickling gives the same system."""
    w = as_weight_system((0, 3, 10, 16))
    assert w.is_admissible()
    for shared in (w, DEFAULT_WEIGHTS):
        values = shared.values
        with pytest.raises(AttributeError):
            shared.values = (0, 1, 2, 3)
        assert shared.values == values and shared.is_admissible()
    assert pickle.loads(pickle.dumps(w)) == w


def test_a_weight_system_is_its_int_tuple():
    """A WeightSystem equals and hashes like the tuple of its ints, has
    len 4 and indexing, keeps its repr, and pickles under every protocol
    to an equal WeightSystem."""
    w = WeightSystem([0, 3, 10, 16])
    assert w == (0, 3, 10, 16) and hash(w) == hash((0, 3, 10, 16))
    assert len(w) == 4 and w[2] == 10 and type(w.values) is tuple
    assert repr(w) == "WeightSystem((0, 3, 10, 16))"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(w, protocol))
        assert type(back) is WeightSystem and back == w


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


def test_monomial_string():
    assert monomial_string((2, 0, 1, 0)) == "x1^2*x3"
    assert monomial_string((0, 0, 0, 0)) == "1"
    assert monomial_string((0, 1, 0, 1)) == "x2*x4"


def test_multiset_difference_keeps_multiplicities():
    """Multiplicities in, a sorted tuple out: a value held three times
    and removed twice is left once.  A Counter of the values may stand
    for them, and is copied, not changed."""
    values = [3, 1, 1, -2, 1, 5]
    assert multiset_difference(values, [1, 1]) == (-2, 1, 3, 5)
    assert multiset_difference(values, []) == (-2, 1, 1, 1, 3, 5)
    assert multiset_difference(values, reversed(values)) == ()
    counts = Counter(values)
    assert multiset_difference(counts, [5, 1]) == (-2, 1, 1, 3)
    assert counts == Counter(values)


def test_multiset_difference_refuses_a_value_not_contained():
    for values in ([3, 1, 1, -2], Counter([3, 1, 1, -2]), []):
        with pytest.raises(ValueError):
            multiset_difference(values, [7])


def test_multiset_difference_refuses_a_value_taken_too_often():
    """Removing one copy more than the values hold raises, also when the
    other removed values are all there."""
    with pytest.raises(ValueError):
        multiset_difference([3, 1, 1, -2], [1, 1, 1])
    with pytest.raises(ValueError):
        multiset_difference(Counter({5: 2, 0: 1}), [0, 5, 5, 5])


def test_power_sums_of_requires_integers():
    """A non-integer value raises instead of being truncated: [1.5, 2]
    used to equal [1, 2], and 7/2 used to become 3."""
    for bad in ([1.5, 2], [Fraction(7, 2)], [2.0], ["3"]):
        with pytest.raises(TypeError):
            PowerSums.of(bad, 2)
    assert PowerSums.of([True, 2], 2).p == (2, 3, 5)


def test_power_sums_of_reads_its_copies_once():
    """copies may be any iterable: an iterator gives what a list gives,
    p_0 included (it used to read 0, the count taken after the copies
    were used up)."""
    assert PowerSums.of([2, 3], 2, iter([2, 1])).p == (3, 7, 17)
    assert PowerSums.of([2, 3], 2, (c for c in [2, 1])).p == (
        PowerSums.of([2, 2, 3], 2).p)


def test_power_sums_of_repeats_equal_the_distinct_values_with_copies():
    """Without copies each value of the list counts once, so a list with
    repeats has the power sums of its distinct values taken with their
    multiplicities as copies, and p_j = sum v^j over the list."""
    rng = random.Random(5500)
    for _ in range(40):
        values = [rng.randint(-4, 4) for _ in range(rng.randint(0, 12))]
        top = rng.randint(0, 6)
        counts = Counter(values)
        got = PowerSums.of(values, top).p
        assert got == PowerSums.of(counts.keys(), top, counts.values()).p
        assert got == tuple(sum(v ** j for v in values)
                            for j in range(top + 1)), values


def test_elementary_symmetric_requires_integers():
    """Newton's identities divide exactly only on integers, so anything
    else is refused rather than answered wrongly."""
    for bad in ([Fraction(1, 2), 1], [1.5, 2], [Fraction(4, 2)]):
        with pytest.raises(ValueError):
            elementary_symmetric(1, bad)


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


def test_elementary_symmetric_takes_no_power_above_the_count(monkeypatch):
    """e_k of n integers asks PowerSums.of for p_0..p_min(k, n) only, so a
    k far above the count is refused at once rather than after k big
    power sums."""
    of = PowerSums.of.__func__

    def spied(cls, values, top):
        assert top <= len(values), top
        return of(cls, values, top)

    monkeypatch.setattr(PowerSums, "of", classmethod(spied))
    assert elementary_symmetric(2, [1, 2, 3]) == 11
    with pytest.raises(ValueError, match="no e_1000000000 of 2 values"):
        elementary_symmetric(10**9, [1, 2])


def test_power_sums_guard_newtons_step():
    """e_k from stored power sums: a division by j that is not exact
    raises instead of flooring (no two integers have p_1 = 1 and
    p_2 = 0), and so does asking above the highest power stored or above
    the count, each with the count and the powers at hand."""
    with pytest.raises(ArithmeticError):
        elementary_symmetric(2, PowerSums((2, 1, 0)))
    ps = PowerSums.of([1, 2, 3], 2)
    assert elementary_symmetric(2, ps) == 11 and len(ps) == 3
    with pytest.raises(ValueError, match="no e_3 of 3 values, p_0..p_2"):
        elementary_symmetric(3, ps)
    with pytest.raises(ValueError, match="no e_4 of 3 values, p_0..p_4"):
        elementary_symmetric(4, PowerSums.of([1, 2, 3], 4))


def test_power_sums_add_remove_and_shift():
    """+, - and shifted(c) give the power sums of the union, of the
    difference and of every value moved by c."""
    a, b = [-3, 1, 1, 4], [1, 4]

    def sums(values):
        return PowerSums.of(values, 5).p

    assert (PowerSums.of(a, 5) + PowerSums.of(b, 5)).p == sums(a + b)
    assert (PowerSums.of(a, 5) - PowerSums.of(b, 5)).p == sums([-3, 1])
    assert PowerSums.of(a, 5).shifted(-7).p == sums(v - 7 for v in a)


def _exponents(n, r):
    """Every exponent vector of a degree-n monomial in r variables."""
    if r == 1:
        yield (n,)
        return
    for a in range(n + 1):
        for rest in _exponents(n - a, r - 1):
            yield (a,) + rest


def test_monomial_power_sums_equal_the_enumeration():
    """The power sums p_0..p_top, top <= 8, of the degree-n monomial
    weights in r variables equal those of the enumerated monomials,
    beyond the n = 0..top + r - 1 at which they are sampled: n = 0..30
    for r = 2 and 3, n = 12..25 for r = 4."""
    rng = random.Random(18)
    for r, degrees in ((2, range(31)), (3, range(31)), (4, range(12, 26))):
        for n in degrees:
            ws = [rng.randint(-20, 20) for _ in range(r)]
            values = [sum(e * w for e, w in zip(m, ws))
                      for m in _exponents(n, r)]
            assert len(values) == comb(n + r - 1, r - 1)
            want = [sum(v ** j for v in values) for j in range(9)]
            for top in range(9):
                assert power_sums_on_row(
                    power_sum_differences(tuple(ws), top),
                    binomial_row(n, top + r)).p == tuple(
                    want[:top + 1]), (ws, n, top)


@pytest.mark.parametrize("n", (10**3, 10**6, 10**12))
def test_monomial_power_sums_equal_the_stirling_closed_form(n):
    """At degrees far beyond any enumeration, the power sums equal the
    closed form by Stirling numbers and C(n+r-1, s+r-1) in
    tests/oracles.py, in 2, 3 and 4 variables up to p_8."""
    rng = random.Random(n % 1009)
    for r in (2, 3, 4):
        for top in range(9):
            ws = [rng.randint(-30, 30) for _ in range(r)]
            assert power_sums_on_row(
                power_sum_differences(tuple(ws), top),
                binomial_row(n, top + r)).p == (
                stirling_monomial_power_sums(ws, n, top)), (ws, n, top)


def test_a_zero_sum_system_has_an_empty_first_power_sum():
    """Weights of sum zero give monomial weights of sum zero at every n,
    by symmetry, so p_1 is the empty Differences; p_0 = C(n+3, 3) and
    p_j, j >= 2, have degree j + 3, so as many differences plus one."""
    table = power_sum_differences((-5, -1, 2, 4), 5).p
    assert table[1] == Differences()
    assert [len(f) for f in table] == [4, 0, 6, 7, 8, 9]
    assert table[0] == (1, 3, 3, 1)  # C(n+3, 3) = sum_k C(3, k) C(n, k)


def test_forward_differences_stop_at_the_last_nonzero_one():
    """D^k y_0 up to the last nonzero one: none for zeros, the value of a
    constant, and a cubic's four, however many values follow."""
    assert forward_differences([0, 0, 0]) == []
    assert forward_differences([5]) == [5]
    assert forward_differences([5, 5, 5, 5]) == [5]
    cubic = [i ** 3 for i in range(9)]
    assert forward_differences(cubic) == [0, 1, 6, 6]
    assert forward_differences(cubic[:4]) == [0, 1, 6, 6]


@pytest.mark.parametrize("K", range(13))
def test_shift_and_newton_step_at_any_length(K):
    """shifted(c) and Newton's step at lengths the families never reach
    (they stop at p_5): the shifted sums are those of the moved values,
    and e_K is the product recurrence's, multiplicities included."""
    rng = random.Random(1900 + K)
    for _ in range(8):
        values = [rng.randint(-40, 40) for _ in range(rng.randint(K, K + 6))]
        c = rng.randint(-30, 30)
        ps = PowerSums.of(values, K)
        assert ps.shifted(c).p == PowerSums.of(
            (v + c for v in values), K).p, (values, c)
        assert elementary_symmetric(K, ps) == elementary_symmetric_recurrence(
            K, values), values


def _prod(values):
    out = 1
    for v in values:
        out *= v
    return out


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
    zero = RationalPolynomial([0, 0])
    assert zero == RationalPolynomial()
    assert zero(Fraction(7)) == 0


def test_a_polynomial_is_a_record():
    """RationalPolynomial is a namedtuple record: its coefficients cannot
    be reassigned, so a polynomial kept in a set is found there, and it
    keeps its repr and survives pickling.  Like every record it equals
    the bare tuple of its one field."""
    p = RationalPolynomial([1, Fraction(1, 2), 0])
    held = {p}
    with pytest.raises(AttributeError):
        p.coefficients = (Fraction(2),)
    assert p in held and p == RationalPolynomial([1, Fraction(1, 2)])
    assert p.coefficients == (1, Fraction(1, 2))
    assert repr(p) == "RationalPolynomial([Fraction(1, 1), Fraction(1, 2)])"
    assert repr(RationalPolynomial()) == "RationalPolynomial([])"
    assert pickle.loads(pickle.dumps(p)) == p
    assert p == (p.coefficients,)
    assert not {"__init__", "__eq__", "__hash__"} & set(vars(RationalPolynomial))


def test_make_and_replace_trim_a_polynomial():
    """namedtuple's _make, and _replace through it, go through __new__,
    so they trim and convert as the constructor does; pickling still
    gives the same polynomial."""
    assert RationalPolynomial._make([(1, 0)]) == RationalPolynomial([1])
    p = RationalPolynomial([1, 2])._replace(
        coefficients=(3, Fraction(1, 2), 0))
    assert type(p) is RationalPolynomial
    assert p.coefficients == (3, Fraction(1, 2)) and p.degree == 1
    assert all(type(c) is Fraction for c in p.coefficients)
    assert pickle.loads(pickle.dumps(p)) == p


def test_rational_polynomial_evaluation():
    """p(x) is a Fraction equal to Horner's rule in Fractions, at int
    and Fraction x: the zero polynomial gives Fraction(0), a constant
    itself, and coefficients over several denominators their sum."""
    zero, five = RationalPolynomial(), RationalPolynomial([5])
    p = RationalPolynomial([Fraction(-1, 6), 0, Fraction(3, 4), Fraction(2, 9)])
    for x in (0, 1, -3, 10**20, Fraction(1, 3), Fraction(-7, 4)):
        assert zero(x) == 0 and type(zero(x)) is Fraction
        assert five(x) == 5 and type(five(x)) is Fraction
        assert p(x) == fraction_horner(p.coefficients, x)
        assert type(p(x)) is Fraction
    assert p(Fraction(3, 2)) == Fraction(109, 48)


def test_rational_polynomial_render():
    p = RationalPolynomial([3, 0, Fraction(-1, 2), 1])
    assert p.render() == "d^3 - 1/2*d^2 + 3"
    assert RationalPolynomial().render() == "0"
    assert RationalPolynomial([0, 1]).render() == "d"
    assert p.to_strings() == ["3", "0", "-1/2", "1"]


def test_lagrange_interpolation_round_trip():
    """Values of a random polynomial with Fraction coefficients at
    consecutive integers from a random start give it back, and so does
    the Lagrange sum on the same points."""
    rng = random.Random(505)
    for _ in range(50):
        poly = _random_poly(rng)
        x0 = rng.randint(-20, 20)
        ys = [poly(x0 + i) for i in range(poly.degree + rng.randint(2, 4))]
        back = lagrange_interpolate(x0, ys)
        assert back == poly == lagrange_sum(enumerate(ys, x0))
        for i, y in enumerate(ys):
            assert back(x0 + i) == y
