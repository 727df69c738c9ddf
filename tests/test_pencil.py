"""Tests for the pencil-of-planes localization on the Grassmannian."""

import json
from math import comb
from operator import add

import pytest

from foldeg.bott import FiberCountError
from foldeg.exact import (
    DEFAULT_WEIGHTS,
    Differences,
    InadmissibleWeights,
    PowerSums,
    character_weights,
    elementary_symmetric,
    monomials_of_degree,
    power_sum_differences,
)
from foldeg.fields import (
    P5_PAIRS,
    build_phi_basis,
    complementary_pair,
    phi_dimension,
    tangent_kernel_dimension,
)
from foldeg.forms import AntisymmetricForm
from foldeg.matrices import integer_contraction, rank
from foldeg.pencil import PENCIL, pencil_degree, tangent_weights_g24
from foldeg.polyfit import family_closed_form
from frozen import (
    ALT_WEIGHTS_A,
    ALT_WEIGHTS_B,
    PENCIL_D2_DEGREE,
    PENCIL_D3_DEGREE,
    PENCIL_DEGREES,
)
from oracles import (
    elementary_symmetric_recurrence,
    enumerated_pencil_fiber,
    kernel_dimension_by_rank,
)


def test_fixed_pencils():
    """The fixed pencils are the six pairs, in canonical order; anything
    else is rejected."""
    pairs = [c.pair for c in pencil_degree(2).contributions]
    assert pairs == list(P5_PAIRS)
    for bad in ((3, 3), (2, 1)):
        with pytest.raises(ValueError):
            tangent_weights_g24(bad)
        with pytest.raises(ValueError):
            PENCIL.fiber(bad, 2, DEFAULT_WEIGHTS)


def test_tangent_weights():
    assert list(tangent_weights_g24((1, 2), (0, 2, 7, 10))) == [5, 7, 8, 10]
    assert list(tangent_weights_g24((3, 4), (0, 2, 7, 10))) == [
        -10,
        -8,
        -7,
        -5,
    ]
    for pair in P5_PAIRS:
        tw = tangent_weights_g24(pair, DEFAULT_WEIGHTS)
        assert len(tw) == 4
        assert all(v != 0 for v in tw)


def test_twisted_fiber_size():
    for d in (2, 3, 4):
        for pair in P5_PAIRS:
            fibre = PENCIL.fiber(pair, d, DEFAULT_WEIGHTS)
            assert len(fibre) == comb(d + 4, 3) - (d + 2)


def test_twisted_fiber_needs_every_removed_weight():
    """Each fiber is its table at d + 1, and its count must be the
    C(d+4,3) monomial weights less the d + 2 removed; a table that lacks a
    weight, or keeps the removed ones, is refused rather than read as
    another fiber."""
    fiber = PENCIL.fiber((1, 2), 2, DEFAULT_WEIGHTS)
    expected = enumerated_pencil_fiber((1, 2), 2, DEFAULT_WEIGHTS.values)
    assert fiber.p == PowerSums.of(expected, 4).p
    table = PENCIL.table((1, 2), DEFAULT_WEIGHTS)
    short = table - PowerSums([Differences([1])] + [Differences()] * 4)
    for bad, count in ((short, 15),
                       (power_sum_differences(DEFAULT_WEIGHTS.values, 5), 20)):
        family = PENCIL._replace(shift=lambda *split: bad)
        with pytest.raises(FiberCountError,
                           match="fiber count %d, not 16" % count):
            family.fiber((1, 2), 2, DEFAULT_WEIGHTS)


SYSTEMS = ((0, 2, 7, 10), (9, -4, 2, 0), (1, 3, 9, 20))


def _contraction_image(pair, basis):
    """The integer contraction of kappa_pq on a basis, the rows it
    reaches, and their degree-(d+1) monomials twisted by e_k + e_l as
    Z^4 characters."""
    monomials = monomials_of_degree(basis.d + 1)
    entries = integer_contraction(AntisymmetricForm.koszul(pair), basis)
    reached = sorted({row for row, _ in entries})
    twist = tuple(int(i in complementary_pair(pair)) for i in (1, 2, 3, 4))
    return entries, reached, [tuple(map(add, monomials[row], twist))
                              for row in reached]


def test_pencil_fiber_is_the_twisted_contraction_image():
    """The pencil fiber from the contraction itself, d = 1..6: at each
    kappa_pq the integer contraction reaches exactly the degree-(d+1)
    monomials that involve x_p or x_q, and its rank is their number,
    C(d+4,3) - (d+2), so its image is their span.  Those monomials
    twisted by e_k + e_l, as Z^4 characters, have the power sums of
    PENCIL.fiber under three weight systems."""
    for d in range(1, 7):
        basis, monomials = build_phi_basis(d), monomials_of_degree(d + 1)
        for pair in P5_PAIRS:
            p, q = pair
            entries, reached, characters = _contraction_image(pair, basis)
            assert reached == [i for i, m in enumerate(monomials)
                               if m[p - 1] or m[q - 1]], (d, pair)
            rows = {row: [0] * len(basis) for row in reached}
            for (row, col), v in entries.items():
                rows[row][col] = v
            assert rank(list(rows.values()), len(basis)) == len(reached)
            assert len(reached) == comb(d + 4, 3) - (d + 2)
            for values in SYSTEMS:
                fiber = PENCIL.fiber(pair, d, values)
                weights = character_weights(characters, values)
                assert PowerSums.of(weights, 4).p == fiber.p, (d, pair, values)


@pytest.mark.parametrize("d", (10, 20))
def test_pencil_e4_is_that_of_the_twisted_contraction_image(d):
    """At larger d the contraction route is compared as e_4, by the
    recurrence oracle: the rows that kappa_pq reaches, twisted by
    e_k + e_l, have the e_4 of PENCIL.fiber at every pair under
    three weight systems.  Their rank is checked at d = 1..6 above."""
    basis = build_phi_basis(d)
    for pair in P5_PAIRS:
        _, reached, characters = _contraction_image(pair, basis)
        assert len(reached) == comb(d + 4, 3) - (d + 2)
        for values in SYSTEMS:
            fiber = PENCIL.fiber(pair, d, values)
            weights = character_weights(characters, values)
            assert elementary_symmetric_recurrence(4, weights) == (
                elementary_symmetric(4, fiber)), (pair, values)


def test_degrees_match_frozen_and_closed_form():
    for d in (2, 3, 4, 5, 6):
        report = pencil_degree(d)
        assert report.degree == PENCIL_DEGREES[d]
        assert report.degree == family_closed_form("pencil", d)
    assert PENCIL_DEGREES[2] == PENCIL_D2_DEGREE
    assert PENCIL_DEGREES[3] == PENCIL_D3_DEGREE


@pytest.mark.parametrize("weights", (DEFAULT_WEIGHTS, (3, -5, 11, 0)))
def test_published_polynomial_pointwise_at_high_degree(weights):
    """The pencil degree is the published one at d = 40, 60 and 100, also
    under weights with a negative entry."""
    for d in (40, 60, 100):
        report = pencil_degree(d, weights)
        assert report.degree == family_closed_form("pencil", d), d


def test_weight_independence():
    for d in (2, 3):
        degrees = {
            pencil_degree(d, ws).degree
            for ws in (DEFAULT_WEIGHTS, ALT_WEIGHTS_A, ALT_WEIGHTS_B)
        }
        assert degrees == {PENCIL_DEGREES[d]}


def _pencil_ranks(d):
    """(rank P_d, rank Pi_d, dim Phi_d): the quotient sheaf has rank
    C(d+4,3) - (d+2) and the kernel Pi_d the rest of Phi_d."""
    rank_pd = comb(d + 4, 3) - (d + 2)
    return rank_pd, phi_dimension(d) - rank_pd, phi_dimension(d)


def test_rank_checks_table():
    assert _pencil_ranks(1) == (7, 8, 15)
    assert _pencil_ranks(2) == (16, 20, 36)
    assert _pencil_ranks(3) == (30, 40, 70)
    for d in range(1, 12):
        rank_pd, rank_pi, dim_phi = _pencil_ranks(d)
        assert rank_pd + rank_pi == dim_phi
        assert rank_pi == 2 * comb(d + 3, 3)


def test_rank_checks_against_exact_kernel_oracle():
    """rank Pi_d is the tangency kernel of a rank-2 (decomposable) form;
    the exact rank computation and tangent_kernel_dimension must agree
    with the closed formula."""
    form = AntisymmetricForm.koszul((1, 2))
    for d in (1, 2, 3):
        assert kernel_dimension_by_rank(form, d) == _pencil_ranks(d)[1]
        assert tangent_kernel_dimension(form, d) == _pencil_ranks(d)[1]


def test_json_schema():
    report = pencil_degree(2)
    out = report.to_json_dict()
    assert out["family"] == "pencil"
    assert out["d"] == 2
    assert out["weights"] == [0, 2, 7, 10]
    assert out["degree"] == "825"
    assert len(out["contributions"]) == 6
    assert all(
        set(c) == {"pair", "num", "den", "value"}
        for c in out["contributions"]
    )
    json.dumps(out)


def test_input_validation():
    with pytest.raises(ValueError):
        pencil_degree(PENCIL.min_degree - 1)
    with pytest.raises(InadmissibleWeights):
        pencil_degree(2, (0, 1, 2, 3))
    with pytest.raises(ValueError):
        family_closed_form("pencil", 1)
