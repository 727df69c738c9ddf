"""Tests for the Legendrian localization sum."""

import json
from fractions import Fraction
from itertools import permutations

import pytest

import foldeg.bott as bott
import foldeg.fields as fields
import foldeg.limits as limits
from foldeg.bott import (
    LEGENDRIAN,
    SOURCE_PAIR,
    NonIntegralDegree,
    character_weights,
    default_method,
    fiber_characters,
    legendrian_degree,
    tangent_weights_p5,
    transport_characters,
    transported_fiber,
)
from foldeg.exact import InadmissibleWeights, WeightMultiset, WeightSystem
from foldeg.fields import P5_PAIRS
from foldeg.limits import (
    METHOD_BOTH,
    METHOD_IMAGE,
    METHOD_KERNEL,
    MethodDisagreement,
    _chain_fiber,
    limit_fiber_weights,
)
from foldeg.reference import (
    ALT_WEIGHTS_A,
    ALT_WEIGHTS_B,
    D2_P34_SYMBOLIC_WEIGHTS,
    DEFAULT_WEIGHTS,
    LEGENDRIAN_D2_CONTRIBUTIONS,
    LEGENDRIAN_D2_DEGREE,
    LEGENDRIAN_D3_DEGREE,
)


def test_tangent_weights():
    assert list(tangent_weights_p5((1, 2), (0, 2, 7, 10))) == [5, 7, 8, 10, 15]
    assert list(tangent_weights_p5((3, 4), (0, 2, 7, 10))) == [
        -15,
        -10,
        -8,
        -7,
        -5,
    ]
    for pair in P5_PAIRS:
        tw = tangent_weights_p5(pair, DEFAULT_WEIGHTS)
        assert len(tw) == 5
        assert all(v != 0 for v in tw)
    with pytest.raises(InadmissibleWeights):
        tangent_weights_p5((1, 2), (0, 1, 2, 3))


def test_default_method_switchover():
    assert default_method(2) == METHOD_BOTH
    assert default_method(4) == METHOD_BOTH
    assert default_method(5) == METHOD_IMAGE
    assert default_method(17) == METHOD_IMAGE


def test_d2_contribution_table():
    """The six d=2 summands, raw numerator and denominator, in canonical
    fixed-point order."""
    report = legendrian_degree(2)
    assert report.family == "legendrian"
    assert report.degree == LEGENDRIAN_D2_DEGREE
    assert len(report.contributions) == 6
    got = [
        (c.pair, c.numerator, c.denominator) for c in report.contributions
    ]
    assert got == list(LEGENDRIAN_D2_CONTRIBUTIONS)
    for c in report.contributions:
        assert c.denominator > 0
        assert c.value == Fraction(c.numerator, c.denominator)
    assert sum(c.value for c in report.contributions) == report.degree


def test_d3_degree():
    assert legendrian_degree(3).degree == LEGENDRIAN_D3_DEGREE


def test_weight_independence_d2():
    degrees = {
        legendrian_degree(2, ws).degree
        for ws in (DEFAULT_WEIGHTS, ALT_WEIGHTS_A, ALT_WEIGHTS_B)
    }
    assert degrees == {LEGENDRIAN_D2_DEGREE}


def test_methods_give_same_degree():
    for method in (METHOD_IMAGE, METHOD_KERNEL, METHOD_BOTH):
        assert legendrian_degree(2, method=method).degree == (
            LEGENDRIAN_D2_DEGREE
        )


def test_json_schema():
    report = legendrian_degree(2)
    out = report.to_json_dict()
    # the Legendrian family is the default: no "family" key
    assert "family" not in out
    assert out["d"] == 2
    assert out["weights"] == [0, 2, 7, 10]
    assert out["degree"] == "2224"
    assert len(out["contributions"]) == 6
    first = out["contributions"][0]
    assert first == {
        "pair": [1, 2],
        "num": "833800359",
        "den": "42000",
        "value": "39704779/2000",
    }
    json.dumps(out)  # must be serializable as-is


def test_input_validation():
    with pytest.raises(ValueError):
        legendrian_degree(LEGENDRIAN.min_degree - 1)
    with pytest.raises(InadmissibleWeights):
        legendrian_degree(2, (0, 1, 2, 3))
    with pytest.raises(ValueError):
        legendrian_degree(2, method="nonsense")
    assert issubclass(NonIntegralDegree, ArithmeticError)


def test_weights_accept_plain_sequences():
    report = legendrian_degree(2, [0, 2, 7, 10])
    assert report.degree == LEGENDRIAN_D2_DEGREE
    assert report.weights == WeightSystem((0, 2, 7, 10))


@pytest.mark.parametrize(
    "weights", (DEFAULT_WEIGHTS, ALT_WEIGHTS_A, ALT_WEIGHTS_B),
    ids=lambda w: ",".join(map(str, w.values)),
)
def test_transport_matches_direct_fibers(weights):
    """Every coordinate permutation sigma carries the fiber at
    SOURCE_PAIR, as characters, onto the directly computed fiber at
    sigma(SOURCE_PAIR); in particular the permutation the image route
    picks for each pair does."""
    for d in range(2, 7):
        source = limit_fiber_weights(SOURCE_PAIR, d, weights)
        characters = source.quotient_characters
        direct = {
            pair: limit_fiber_weights(pair, d, weights).quotient_weights
            for pair in P5_PAIRS
        }
        for sigma in permutations((1, 2, 3, 4)):
            pair = tuple(sorted(sigma[:2]))
            moved = transport_characters(characters, sigma)
            assert character_weights(moved, weights) == direct[pair], (d, sigma)
        for pair in P5_PAIRS:
            assert transported_fiber(characters, pair, weights) == direct[pair]


def test_image_route_computes_one_limit_per_degree(monkeypatch):
    """The image route builds the chain fiber once per degree, under any
    weights, and neither a field basis nor a contraction matrix."""
    builds, calls = [], []

    def counting_chains(d):
        builds.append(d)
        return _chain_fiber(d)

    def counting(pair, d, weights, method):
        calls.append((pair, method))
        return limit_fiber_weights(pair, d, weights, method)

    def refused(*args):
        raise AssertionError("the image route built a global structure")

    monkeypatch.setattr(bott, "_chain_fiber", counting_chains)
    monkeypatch.setattr(bott, "limit_fiber_weights", counting)
    bott._source_fiber.cache_clear()
    with monkeypatch.context() as m:
        for module in (fields, limits):
            m.setattr(module, "build_phi_basis", refused)
        m.setattr(limits, "build_contraction_matrix", refused)
        image = legendrian_degree(5, method=METHOD_IMAGE)
        legendrian_degree(5, ALT_WEIGHTS_A, method=METHOD_IMAGE)
    bott._source_fiber.cache_clear()
    assert builds == [5] and calls == []
    kernel = legendrian_degree(5, method=METHOD_KERNEL)
    assert image.contributions == kernel.contributions
    assert len(calls) == 6


def test_both_checks_transported_fibers(monkeypatch):
    """method="both" compares each direct fiber with the one transported
    from its own SOURCE_PAIR result, and raises on a mismatch."""
    assert legendrian_degree(3, method=METHOD_BOTH).degree == (
        LEGENDRIAN_D3_DEGREE
    )
    original = bott.transported_fiber

    def off_at_34(characters, pair, weights):
        fiber = original(characters, pair, weights)
        if pair != (3, 4):
            return fiber
        return WeightMultiset(v + 1 if i == 0 else v
                              for i, v in enumerate(fiber))

    monkeypatch.setattr(bott, "transported_fiber", off_at_34)
    with pytest.raises(MethodDisagreement):
        legendrian_degree(3, method=METHOD_BOTH)
    # the image route has no direct fiber to compare with; the
    # integrality of the sum is what catches a wrong one there
    with pytest.raises(NonIntegralDegree):
        legendrian_degree(3, method=METHOD_IMAGE)


def test_fiber_characters_reproduce_the_frozen_table():
    """The symbolic d = 2 fiber at (3,4) is the character fiber moved
    there from SOURCE_PAIR."""
    got = fiber_characters(2, (3, 4))
    assert sorted(got) == sorted(D2_P34_SYMBOLIC_WEIGHTS)
    assert character_weights(got, DEFAULT_WEIGHTS) == (
        limit_fiber_weights((3, 4), 2).quotient_weights
    )
