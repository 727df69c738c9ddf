"""Property tests of the Legendrian fiber transport, of the contraction
matrix and the two limit routes, of the pencil fibers and of localize
under random admissible weights (need hypothesis)."""

from fractions import Fraction
from itertools import combinations
from math import comb, prod

import pytest

from collections import Counter

from foldeg import limits
from foldeg.bott import LEGENDRIAN, localize
from foldeg.exact import (
    PowerSums,
    WeightSystem,
    character_weights,
    binomial_row,
    elementary_symmetric,
    power_sums_on_row,
)
from foldeg.fields import P5_PAIRS, build_phi_basis, complementary_pair
from foldeg.limits import (
    METHOD_BOTH,
    METHOD_IMAGE,
    METHOD_KERNEL,
    limit_fiber_weights,
)
from foldeg.matrices import build_contraction_matrix
from foldeg.pencil import PENCIL, tangent_weights_g24
from foldeg.polyfit import FAMILIES
from frozen import LEGENDRIAN_DEGREES, PENCIL_DEGREES
from oracles import (
    SOURCE_PAIR,
    chain_kernel_counts,
    character_weight,
    counted_image_fiber,
    counted_monomial_weights,
    counted_pencil_fiber,
    enumerated_complement_weights,
    enumerated_monomial_weights,
    enumerated_pencil_fiber,
    fiber_characters,
    g24_tangent_from_p5,
    kernel_copies,
    kernel_counts_by_block,
    rref_phi_basis,
    split_chains,
    split_monomial_weights,
    weight_ordered_basis,
)
from test_bott import assert_published_for_every_d

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _admissible(values):
    return len({a + b for a, b in combinations(values, 2)}) == 6


ADMISSIBLE_WEIGHTS = st.lists(
    st.integers(-12, 24), min_size=4, max_size=4, unique=True
).filter(_admissible)


@hypothesis.given(values=ADMISSIBLE_WEIGHTS, d=st.integers(2, 5))
def test_source_characters_do_not_depend_on_weights(values, d):
    """The character fiber at SOURCE_PAIR is the same whatever admissible
    weights organize its computation."""
    direct = limit_fiber_weights(SOURCE_PAIR, d, values, METHOD_IMAGE)
    assert direct.quotient_characters == fiber_characters(d, SOURCE_PAIR)


@hypothesis.given(values=ADMISSIBLE_WEIGHTS)
def test_closed_form_equals_the_weighted_routes(values):
    """The closed form equals both routes' characters, and its weights
    both routes' quotient weights, under any admissible weights, at all
    six pairs, d = 1..10."""
    w = WeightSystem(values)
    for d in range(1, 11):
        for pair in P5_PAIRS:
            closed = fiber_characters(d, pair)
            weights = character_weights(closed, w)
            for method in (METHOD_IMAGE, METHOD_KERNEL):
                res = limit_fiber_weights(pair, d, w, method)
                assert res.quotient_characters == closed, (pair, d, method)
                assert res.quotient_weights == weights, (pair, d, method)


@hypothesis.given(
    values=ADMISSIBLE_WEIGHTS, pair=st.sampled_from(P5_PAIRS),
    d=st.integers(1, 8),
)
def test_kernel_rule_equals_the_echelon_oracle_under_any_weights(
        values, pair, d):
    """Chain by chain, the rank rule counts what the [M(1)^T | I]
    echelon of the union-find blocks counts under any admissible
    weights."""
    want = kernel_counts_by_block(
        build_contraction_matrix(pair, d, weight_ordered_basis(d, values)))
    for chain in split_chains(limits._chains(d, pair)):
        chars = [chi for chi, _ in chain]
        got = dict(zip(chars, kernel_copies(
            chain, limits._kernel_rule(chain))))
        assert Counter(got) == want[frozenset(chars)]


ENTRY = st.integers(-2, 2)


@hypothesis.given(fields=st.lists(
    st.lists(st.tuples(ENTRY, ENTRY), min_size=1, max_size=3),
    min_size=1, max_size=6,
))
@hypothesis.example(fields=[[(1, 1)], [(0, 1)]])
# A one-field character (0,0), (x,0), (0,y) or (x,y), decided by two
# truth tests, after an absorbing predecessor ((1, 0): A = Q below it)
# and after a non-absorbing one ((0, 1): A = 0 below it).  The last
# character, (0, 1), counts 1 exactly when the middle one absorbs.
@hypothesis.example(fields=[[(1, 0)], [(0, 0)], [(0, 1)]])
@hypothesis.example(fields=[[(1, 0)], [(2, 0)], [(0, 1)]])
@hypothesis.example(fields=[[(1, 0)], [(0, -1)], [(0, 1)]])
@hypothesis.example(fields=[[(1, 0)], [(2, -1)], [(0, 1)]])
@hypothesis.example(fields=[[(0, 1)], [(0, 0)], [(0, 1)]])
@hypothesis.example(fields=[[(0, 1)], [(2, 0)], [(0, 1)]])
@hypothesis.example(fields=[[(0, 1)], [(0, -1)], [(0, 1)]])
@hypothesis.example(fields=[[(0, 1)], [(2, -1)], [(0, 1)]])
# Three fields to one character: A_K is read off every high entry, here
# the third field's alone, and the minor of the second and third fields
# is the only one that does not vanish.
@hypothesis.example(fields=[[(0, 0), (0, 0), (0, 1)], [(0, 1)]])
@hypothesis.example(fields=[[(0, 0), (1, 0), (0, 1)]])
def test_kernel_rule_holds_on_any_chain(fields):
    """The rank rule is the echelon oracle on any chain with two rows per
    character, not only on the contraction's.  There A_K is 0 only above
    the top character and below the bottom one, so the test
    "rank [low; high] > rank high" changes no count; here, as in the
    first example, it does."""
    chain = [((K,), tuple(f)) for K, f in enumerate(fields)]
    assert kernel_copies(chain, limits._kernel_rule(chain)) == (
        chain_kernel_counts(chain))


@hypothesis.given(values=ADMISSIBLE_WEIGHTS, d=st.integers(1, 8))
def test_a_pair_and_its_complement_share_m1(values, d):
    """The paths at kappa_ij and at kappa_kl both pass through
    kappa_ij + kappa_kl at t = 1, so the two contraction matrices have
    the same integer entries c0 + c1 there."""
    basis = weight_ordered_basis(d, values)

    def m1(pair):
        matrix = build_contraction_matrix(pair, d, basis)
        return {rc: c0 + c1 for rc, (c0, c1) in matrix.entries.items()}

    for pair in P5_PAIRS:
        assert m1(pair) == m1(complementary_pair(pair))


@hypothesis.given(values=ADMISSIBLE_WEIGHTS)
def test_closed_form_basis_matches_rref_oracle_under_any_weights(values):
    """Field for field, coefficient for coefficient and weight for
    weight, the closed-form basis, put in the echelon basis's order by
    the weights of its characters, is the echelon basis under any
    admissible weights, at every d = 1..6."""
    for d in range(1, 7):
        got = [(f.terms, character_weight(f.character, values))
               for f in weight_ordered_basis(d, values)]
        assert got == rref_phi_basis(d, values)


@hypothesis.given(values=ADMISSIBLE_WEIGHTS)
def test_basis_weight_multiset_equals_the_echelon_weights(values):
    """The basis weights, each distinct character evaluated once and its
    multiplicity added, are the weights of the echelon basis under any
    admissible weights, at every d = 1..8."""
    for d in range(1, 9):
        want = tuple(sorted(wt for _, wt in rref_phi_basis(d, values)))
        assert character_weights(
            build_phi_basis(d).characters.elements(), values) == want


@hypothesis.given(values=ADMISSIBLE_WEIGHTS, pair=st.sampled_from(P5_PAIRS))
def test_both_routes_agree_under_any_weights(values, pair):
    """The image and the kernel route pass their rank checks and agree
    at any fixed point under any admissible weights, at every
    d = 1..8: no SaturationRankError and no MethodDisagreement."""
    for d in range(1, 9):
        res = limit_fiber_weights(pair, d, values, METHOD_BOTH)
        assert res.method == METHOD_BOTH


@hypothesis.given(
    values=ADMISSIBLE_WEIGHTS,
    case=st.one_of(
        st.tuples(st.just("legendrian"), st.integers(2, 5)),
        st.tuples(st.just("pencil"), st.integers(2, 14)),
    ),
)
def test_localize_gives_the_frozen_degree(values, case):
    """localize reproduces the frozen degree tables under any admissible
    weights: Legendrian d = 2..5 (the default route, so "both" for
    d <= 4), pencil d = 2..14."""
    name, d = case
    table = {"legendrian": LEGENDRIAN_DEGREES, "pencil": PENCIL_DEGREES}[name]
    assert localize(FAMILIES[name], d, values).degree == table[d]


@hypothesis.given(
    values=ADMISSIBLE_WEIGHTS,
    sigma=st.permutations((1, 2, 3, 4)),
    case=st.one_of(
        st.tuples(st.just("legendrian"), st.integers(2, 4)),
        st.tuples(st.just("pencil"), st.integers(2, 10)),
    ),
)
def test_contributions_are_s4_equivariant(values, sigma, case):
    """Relabeling the coordinates by sigma permutes the fixed points:
    the contribution at pair p under the weights w o sigma equals the one
    at sigma(p) under w, numerator and denominator alike.  Legendrian
    d <= 4 goes through "both", so every fiber is computed directly;
    pencil d <= 10."""
    name, d = case
    options = {"method": METHOD_BOTH} if name == "legendrian" else {}
    family = FAMILIES[name]

    def contributions(weights):
        return {
            c.pair: (c.numerator, c.denominator)
            for c in localize(family, d, weights, **options).contributions
        }

    base = contributions(values)
    moved = contributions([values[s - 1] for s in sigma])
    for pair in P5_PAIRS:
        image = tuple(sorted(sigma[i - 1] for i in pair))
        assert moved[pair] == base[image]


@hypothesis.given(values=ADMISSIBLE_WEIGHTS)
@hypothesis.example(values=[9, -4, 2, 0])
@hypothesis.example(values=[24, 3, -12, 5])
def test_monomial_weight_progressions_equal_the_enumeration(values):
    """The count by progressions, which the counted oracles share, is
    the enumerated count of the degree-(d+1) monomial weights, and at
    all six pairs the removed weights are those of the monomials in
    x_k, x_l alone, d = 0..30."""
    w = WeightSystem(values)
    for d in range(31):
        full = counted_monomial_weights(d, w)
        assert full == Counter(enumerated_monomial_weights(d, w)), d
        for pair in P5_PAIRS:
            _, removed = split_monomial_weights(pair, d, w, full)
            assert removed == Counter(
                enumerated_complement_weights(pair, d, w)), (pair, d)


@hypothesis.given(values=ADMISSIBLE_WEIGHTS, d=st.integers(0, 10))
def test_pencil_fiber_counts_equal_the_enumerated_fiber(values, d):
    """The twisted fiber counted from one Counter of monomial weights is
    the enumerated, sorted and differenced fiber at all six pencils, and
    the closed-form power sums are p_0..p_4 of that fiber."""
    for pair in P5_PAIRS:
        expected = enumerated_pencil_fiber(pair, d, values)
        assert counted_pencil_fiber(pair, d, values) == Counter(expected)
        fiber = PENCIL.fiber(pair, d, values)
        assert fiber.p == tuple(sum(v ** j for v in expected)
                                for j in range(5))
        assert len(fiber) == len(expected)


@hypothesis.settings(max_examples=4)  # each example counts 60 degrees
@hypothesis.given(values=ADMISSIBLE_WEIGHTS)
@hypothesis.example(values=[9, -4, 2, 0])
def test_power_sum_numerators_equal_the_counted_routes(values):
    """At every pair, d = 1..60, e_5 of the Legendrian image fiber and
    e_4 of the pencil fiber taken from closed-form power sums equal
    those of the counted fibers, and the power sums count C(d+4,3) and
    C(d+4,3) - (d+2) weights."""
    w = WeightSystem(values)
    for d in range(1, 61):
        counted = counted_monomial_weights(d, w)
        for pair in P5_PAIRS:
            fiber = LEGENDRIAN.fiber(pair, d, w)
            assert len(fiber) == comb(d + 4, 3)
            image = counted_image_fiber(pair, d, w, counted)
            assert elementary_symmetric(5, fiber) == elementary_symmetric(
                5, PowerSums.of(image.keys(), 5, image.values())), (pair, d)
            fiber = PENCIL.fiber(pair, d, w)
            assert len(fiber) == comb(d + 4, 3) - (d + 2)
            twisted = counted_pencil_fiber(pair, d, w, counted)
            assert elementary_symmetric(4, fiber) == elementary_symmetric(
                4, PowerSums.of(twisted.keys(), 4, twisted.values())), (pair, d)


@hypothesis.given(values=ADMISSIBLE_WEIGHTS)
def test_g24_tangent_is_the_p5_tangent_less_the_normal(values):
    """At all six pencils the tangent of G(2,4), the four differences
    w_k - w_i, is that of P^5 less the kappa_kl normal."""
    for pair in P5_PAIRS:
        assert tangent_weights_g24(pair, values) == (
            g24_tangent_from_p5(pair, values)), pair


@hypothesis.given(values=ADMISSIBLE_WEIGHTS)
def test_both_families_are_published_for_every_d_under_any_weights(values):
    """Weight independence for every d at once: at any admissible
    weights, the degree bound of the fiber tables and 21 Legendrian and
    17 pencil degrees prove each Bott sum the published polynomial
    (assert_published_for_every_d)."""
    for name in ("legendrian", "pencil"):
        assert_published_for_every_d(name, WeightSystem(values))


@hypothesis.given(values=ADMISSIBLE_WEIGHTS, d=st.integers(2, 40))
def test_degree_is_the_sum_of_the_fraction_contributions(values, d):
    """localize adds the six contributions in ints over a common
    denominator; the degree it reports is their sum as Fractions, and
    each value is the Fraction num/den of its own numbers."""
    for name in ("legendrian", "pencil"):
        report = localize(FAMILIES[name], d, values)
        assert report.degree == sum(c.value for c in report.contributions)
        for c in report.contributions:
            assert type(c.value) is Fraction and c.denominator > 0
            assert c.value == Fraction(c.numerator, c.denominator)


@hypothesis.given(values=ADMISSIBLE_WEIGHTS, d=st.integers(2, 200),
                  name=st.sampled_from(("legendrian", "pencil")))
def test_each_numerator_is_e_n_of_the_public_fiber(values, d, name):
    """localize and Family.fiber read one record and evaluate it on one
    path: at every pair each contribution's numerator is the sign of
    the tangent product times e_n of Family.fiber(pair, d, w), and its
    denominator is the product's absolute value.  That fiber is the
    pair's table evaluated alone at d + 1, on a binomial row as long as
    its own longest p_j."""
    family = FAMILIES[name]
    report = localize(family, d, values)
    for pair, c in zip(P5_PAIRS, report.contributions):
        tangent = family.tangent_weights(pair, values)
        euler = prod(tangent)
        fiber = family.fiber(pair, d, values)
        table = family.table(pair, WeightSystem(values))
        alone = power_sums_on_row(
            table, binomial_row(d + 1, max(map(len, table.p))))
        assert fiber.p == alone.p
        assert c.pair == pair and c.denominator == abs(euler)
        assert c.numerator == (-1 if euler < 0 else 1) * elementary_symmetric(
            len(tangent), fiber)


@hypothesis.given(values=ADMISSIBLE_WEIGHTS)
def test_tangent_euler_class_is_the_product_of_the_weights(values):
    """At the six fixed points of both families the product of the
    tangent weights, which localize takes for e_n(tangent), is nonzero
    and equals e_n by Newton's step, and it is each contribution's
    denominator up to sign."""
    w = WeightSystem(values)
    for name, d in (("legendrian", 5), ("pencil", 2)):
        family = FAMILIES[name]
        report = localize(family, d, w)
        for pair, c in zip(P5_PAIRS, report.contributions):
            tangent = family.tangent_weights(pair, w)
            euler = prod(tangent)
            assert euler != 0
            assert euler == elementary_symmetric(len(tangent), tangent)
            assert c.denominator == abs(euler)
