"""Property tests of the Legendrian fiber transport, of the two limit
routes and of localize under random admissible weights (need
hypothesis)."""

from itertools import combinations

import pytest

from foldeg.bott import SOURCE_PAIR, fiber_characters, localize
from foldeg.fields import P5_PAIRS
from foldeg.limits import METHOD_BOTH, METHOD_IMAGE, limit_fiber_weights
from foldeg.polyfit import FAMILIES
from foldeg.reference import LEGENDRIAN_DEGREES, PENCIL_DEGREES

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


@hypothesis.given(
    values=ADMISSIBLE_WEIGHTS,
    pair=st.sampled_from(P5_PAIRS),
    d=st.integers(1, 6),
)
def test_both_routes_agree_under_any_weights(values, pair, d):
    """The image and the kernel route pass their rank checks and agree
    at any fixed point under any admissible weights: no
    SaturationRankError and no MethodDisagreement."""
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
