"""Tests for the pencil-of-planes localization on the Grassmannian."""

import json
from math import comb

import pytest

from foldeg.exact import InadmissibleWeights, PowerSums, monomial_power_sums
from foldeg.fields import (
    P5_PAIRS,
    AntisymmetricForm,
    phi_dimension,
    tangent_kernel_dimension,
)
from foldeg.pencil import (
    PENCIL,
    pd_twisted_weights,
    pencil_degree,
    pencil_fibers,
    tangent_weights_g24,
)
from foldeg.polyfit import family_closed_form
from foldeg.reference import (
    ALT_WEIGHTS_A,
    ALT_WEIGHTS_B,
    DEFAULT_WEIGHTS,
    PENCIL_D2_DEGREE,
    PENCIL_D3_DEGREE,
    PENCIL_DEGREES,
)


def test_fixed_pencils():
    """The fixed pencils are the six pairs, in canonical order; anything
    else is rejected."""
    pairs = [pair for pair, _ in pencil_fibers(2, DEFAULT_WEIGHTS)]
    assert pairs == list(P5_PAIRS)
    assert pencil_degree(2).contributions[0].pair == (1, 2)
    for bad in ((3, 3), (2, 1)):
        with pytest.raises(ValueError):
            tangent_weights_g24(bad)
        with pytest.raises(ValueError):
            pd_twisted_weights(bad, 2)


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
            fibre = pd_twisted_weights(pair, d, DEFAULT_WEIGHTS)
            assert len(fibre) == comb(d + 4, 3) - (d + 2)


def test_twisted_fiber_needs_every_removed_weight():
    """The d+2 removed weights are subtracted from the shared full count,
    so that count must hold all C(d+4,3) monomial weights; one that
    lacks a weight, or counts another degree, is refused rather than
    read as a smaller fiber."""
    full = monomial_power_sums(DEFAULT_WEIGHTS.values, 3, 4)  # d = 2
    fiber = pd_twisted_weights((1, 2), 2, DEFAULT_WEIGHTS, full)
    assert fiber.p == pd_twisted_weights((1, 2), 2, DEFAULT_WEIGHTS).p
    short = full - PowerSums((1, 30, 900, 27000, 810000))  # x_4^3 dropped
    for bad in (short, monomial_power_sums(DEFAULT_WEIGHTS.values, 2, 4)):
        with pytest.raises(ValueError):
            pd_twisted_weights((1, 2), 2, DEFAULT_WEIGHTS, bad)


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
    the exact rank computation must agree with the closed formula."""
    form = AntisymmetricForm.koszul((1, 2))
    for d in (1, 2, 3):
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
