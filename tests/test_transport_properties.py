"""Property tests of the Legendrian fiber transport, of the contraction
matrix and the two limit routes, of the pencil fibers and of localize
under random admissible weights (need hypothesis)."""

from itertools import combinations

import pytest

from foldeg.bott import SOURCE_PAIR, fiber_characters, localize
from foldeg.fields import P5_PAIRS, build_phi_basis, complementary_pair
from foldeg.limits import (
    METHOD_BOTH,
    METHOD_IMAGE,
    build_contraction_matrix,
    limit_fiber_weights,
)
from foldeg.pencil import pd_twisted_weights, pencil_degree
from foldeg.polyfit import FAMILIES, family_closed_form
from foldeg.reference import LEGENDRIAN_DEGREES, PENCIL_DEGREES
from oracles import enumerated_pencil_fiber

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


@hypothesis.given(values=ADMISSIBLE_WEIGHTS, d=st.integers(1, 8))
def test_a_pair_and_its_complement_share_m1(values, d):
    """The paths at kappa_ij and at kappa_kl both pass through
    kappa_ij + kappa_kl at t = 1, so the two contraction matrices have
    the same integer entries c0 + c1 there."""
    basis = build_phi_basis(d, values)

    def m1(pair):
        matrix = build_contraction_matrix(pair, d, basis)
        return {rc: c0 + c1 for rc, (c0, c1) in matrix.entries.items()}

    for pair in P5_PAIRS:
        assert m1(pair) == m1(complementary_pair(pair))


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


@hypothesis.given(values=ADMISSIBLE_WEIGHTS, d=st.integers(0, 10))
def test_pencil_fiber_counts_equal_the_enumerated_fiber(values, d):
    """The twisted fiber built from one Counter of monomial weights is
    the enumerated, sorted and differenced fiber at all six pencils."""
    for pair in P5_PAIRS:
        fiber = pd_twisted_weights(pair, d, values)
        expected = enumerated_pencil_fiber(pair, d, values)
        assert list(fiber) == expected
        assert len(fiber) == len(expected)


@hypothesis.given(values=ADMISSIBLE_WEIGHTS, d=st.integers(2, 12))
def test_pencil_degree_is_the_closed_form_under_any_weights(values, d):
    """Weight independence against the published formula itself, not
    against a frozen table."""
    assert pencil_degree(d, values).degree == family_closed_form("pencil", d)
