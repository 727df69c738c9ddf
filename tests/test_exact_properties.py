"""Property tests of the exact layer against the direct oracles in
tests/oracles.py: e_k from power sums, and the Newton-form interpolant
(need hypothesis)."""

import pytest

from foldeg.exact import (
    WeightMultiset,
    elementary_symmetric,
    lagrange_interpolate,
)
from oracles import elementary_symmetric_recurrence, lagrange_sum

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
    recurrence over every value, for a WeightMultiset and for a list."""
    values = [v for v, m in counts.items() for _ in range(m)]
    k = min(k, len(values))
    expected = elementary_symmetric_recurrence(k, values)
    assert WeightMultiset(values).elementary_symmetric(k) == expected
    assert elementary_symmetric(k, values) == expected


@hypothesis.given(
    xs=st.lists(st.integers(-60, 60), min_size=1, max_size=12, unique=True),
    data=st.data(),
)
def test_newton_interpolant_equals_the_lagrange_sum(xs, data):
    """Divided differences give the same polynomial as the Lagrange sum
    on distinct abscissae in any order, gaps and signs included, with
    Fraction ordinates."""
    ys = data.draw(st.lists(
        st.fractions(-10**4, 10**4, max_denominator=60),
        min_size=len(xs), max_size=len(xs),
    ))
    points = list(zip(xs, ys))
    assert lagrange_interpolate(points) == lagrange_sum(points)
