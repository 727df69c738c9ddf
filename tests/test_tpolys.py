"""Tests for integer polynomials in the deformation parameter t."""

import random
from fractions import Fraction

import pytest

from foldeg.tpolys import (
    TP_ZERO,
    tp_add,
    tp_constant_term,
    tp_divexact,
    tp_mul,
    tp_neg,
    tp_scale,
    tp_shift_down,
    tp_sub,
    tp_trim,
    tp_valuation,
)


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
    assert tp_constant_term(TP_ZERO) == 0
    assert tp_constant_term((4, 1)) == 4


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
        c = rng.randint(-6, 6)
        assert _eval(tp_scale(a, c), x) == c * _eval(a, x)


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
    assert tp_scale((3, 4), 0) == TP_ZERO


def test_valuation_and_shift():
    assert tp_valuation((0, 0, 5)) == 2
    assert tp_valuation((3,)) == 0
    with pytest.raises(ValueError):
        tp_valuation(TP_ZERO)
    assert tp_shift_down((0, 0, 5, 1), 2) == (5, 1)
    assert tp_shift_down(TP_ZERO, 3) == TP_ZERO
    with pytest.raises(ValueError):
        tp_shift_down((1, 2), 1)


def test_divexact_round_trip():
    rng = random.Random(333)
    tried = 0
    for _ in range(300):
        a = _random_tp(rng)
        b = _random_tp(rng)
        if not b:
            continue
        tried += 1
        prod = tp_mul(a, b)
        assert tp_divexact(prod, b) == a
    assert tried > 200


def test_divexact_rejects_inexact():
    with pytest.raises(ArithmeticError):
        tp_divexact((1, 1), (2,))
    with pytest.raises(ArithmeticError):
        tp_divexact((1, 0, 1), (1, 1))
    with pytest.raises(ArithmeticError):
        tp_divexact((1,), (1, 1))
    with pytest.raises(ZeroDivisionError):
        tp_divexact((1, 1), TP_ZERO)
    assert tp_divexact(TP_ZERO, (1, 1)) == TP_ZERO
