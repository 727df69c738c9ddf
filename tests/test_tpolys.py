"""Tests for integer polynomials in the deformation parameter t."""

import random
from fractions import Fraction

from foldeg.tpolys import TP_ZERO, tp_add, tp_mul, tp_neg, tp_sub, tp_trim


def _random_tp(rng, maxdeg=5, bound=9):
    return tp_trim(
        [rng.randint(-bound, bound) for _ in range(rng.randint(0, maxdeg))]
    )


def _eval(a, x):
    """Reference evaluation with exact arithmetic."""
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def test_trim_and_zero():
    assert tp_trim([0, 0, 0]) == TP_ZERO
    assert tp_trim([1, 2, 0]) == (1, 2)
    assert tp_trim([]) == TP_ZERO


def test_arithmetic_matches_evaluation():
    rng = random.Random(111)
    for _ in range(300):
        a = _random_tp(rng)
        b = _random_tp(rng)
        x = Fraction(rng.randint(-7, 7), rng.randint(1, 4))
        assert _eval(tp_add(a, b), x) == _eval(a, x) + _eval(b, x)
        assert _eval(tp_sub(a, b), x) == _eval(a, x) - _eval(b, x)
        assert _eval(tp_mul(a, b), x) == _eval(a, x) * _eval(b, x)
        assert _eval(tp_neg(a), x) == -_eval(a, x)


def test_results_are_normalized():
    """No operation may leave trailing zero coefficients behind."""
    rng = random.Random(222)
    for _ in range(300):
        a = _random_tp(rng)
        b = _random_tp(rng)
        for out in (tp_add(a, b), tp_sub(a, b), tp_mul(a, b)):
            assert out == tp_trim(out)
    assert tp_add((1, 2), (-1, -2)) == TP_ZERO
    assert tp_mul((0, 1), TP_ZERO) == TP_ZERO
