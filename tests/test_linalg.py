"""Tests for the exact elimination kernel and the Q oracles.

The limit_rows tests check the Z[t] saturation oracle of
tests/oracles.py against the defining property of saturation: the
limit of a row span over the local ring at t = 0 must not change when
rows are rescaled by powers of t or mixed by invertible row operations,
and for t-free input the limit is the ordinary row space.
"""

import copy
import random
from fractions import Fraction

from foldeg.limits import END, _kernel_counts
from foldeg.linalg import limit_rows
from foldeg.matrices import echelon, kernel_basis, rank, rref
from oracles import (
    _chain_matrix,
    saturated_limit_rows,
    tp_add,
    tp_mul,
    tp_trim,
)


def _random_int_matrix(rng, nrows, ncols, bound=9, density=0.7):
    return [
        [rng.randint(-bound, bound) if rng.random() < density else 0
         for _ in range(ncols)]
        for _ in range(nrows)
    ]


def _fraction_rank(rows):
    if not rows:
        return 0
    return len(rref([[Fraction(e) for e in row] for row in rows])[1])


def test_echelon_rank_matches_fraction_rref():
    rng = random.Random(11)
    for _ in range(80):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        mat = _random_int_matrix(rng, n, m)
        red, pivots = echelon(mat, m)
        assert rank(mat, m) == _fraction_rank(mat)
        assert len(red) == len(pivots)
        # staircase: each pivot column strictly to the right of the last,
        # zero entries below-left of every pivot
        assert pivots == sorted(pivots)
        for i, col in enumerate(pivots):
            assert red[i][col] != 0
            assert all(red[i][c] == 0 for c in range(col))


def test_echelon_preserves_row_space():
    """Every original row must be in the span of the echelon rows:
    appending it cannot raise the rank."""
    rng = random.Random(22)
    for _ in range(40):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        mat = _random_int_matrix(rng, n, m)
        red, _ = echelon(mat, m)
        r = len(red)
        for row in mat:
            assert rank(red + [list(row)], m) == r


def _random_chain(rng):
    """The (low, high) fields of 1..12 characters of one or three fields
    each, zero-heavy: entries in -2..2, 0 with probability 3/7, and a
    fifth of the fields all zero."""
    def entry():
        return rng.choice((0, 0, 0, -2, -1, 1, 2))
    return [tuple((0, 0) if rng.random() < 0.2 else (entry(), entry())
                  for _ in range(rng.choice((1, 3))))
            for _ in range(rng.randint(1, 12))]


def test_echelon_and_limit_rows_leave_their_rows_unchanged():
    """limit_rows picks the pivots that echelon picks on the chain's
    dense M(1), and reads its fields without changing them; echelon
    eliminates a copy of its own rows."""
    rng = random.Random(44)
    for _ in range(40):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        mat = _random_int_matrix(rng, n, m)
        kept = copy.deepcopy(mat)
        echelon(mat, m)
        assert mat == kept
    for _ in range(400):
        columns = _random_chain(rng)
        ncols = sum(map(len, columns))
        kept = copy.deepcopy(columns)
        _, dense = _chain_matrix(list(enumerate(columns)))
        assert limit_rows(columns, ncols) == echelon(dense, ncols)[1], columns
        assert columns == kept


def test_chains_laid_end_to_end_sweep_as_each_alone():
    """Over 1..5 zero-heavy chains, each followed by an empty character,
    limit_rows picks each chain's own pivots, offset by the chain's
    first column, and the kernel rule gives each chain's own counts
    with a 0 at each END: no row and no A_K crosses a chain end."""
    rng = random.Random(66)
    for _ in range(300):
        chains = [_random_chain(rng) for _ in range(rng.randint(1, 5))]
        pivots, counts, joined, offset = [], [], [], 0
        for columns in chains:
            ncols = sum(map(len, columns))
            pivots += [offset + p for p in limit_rows(columns, ncols)]
            offset += ncols
            chain = [((K,), fields) for K, fields in enumerate(columns)]
            counts += _kernel_counts(chain) + [0]
            joined += chain + [END]
        assert limit_rows([f for _, f in joined], offset) == pivots, chains
        assert _kernel_counts(joined) == counts, chains


def test_kernel_basis_annihilates_and_counts():
    rng = random.Random(33)
    for _ in range(60):
        n, m = rng.randint(1, 6), rng.randint(1, 7)
        mat = _random_int_matrix(rng, n, m, bound=5)
        vecs = kernel_basis(mat, m)
        assert len(vecs) == m - _fraction_rank(mat)
        for v in vecs:
            for row in mat:
                assert sum(e * x for e, x in zip(row, v)) == 0
        # canonical: the list of kernel vectors is its own rref
        if vecs:
            again, _ = rref(vecs)
            assert [list(v) for v in again] == [list(v) for v in vecs]


def test_kernel_basis_full_rank_and_zero_matrix():
    assert kernel_basis([[1, 0], [0, 1]], 2) == []
    vecs = kernel_basis([[0, 0, 0]], 3)
    assert len(vecs) == 3


def test_rref_shape():
    mat = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]]
    red, pivots = rref(mat)
    assert pivots == [0]
    assert red[0] == [Fraction(1), Fraction(2)]


def _tp_matrix_from_int(mat):
    return [[tp_trim([e]) for e in row] for row in mat]


def test_limit_rows_on_constant_matrix_is_row_space():
    rng = random.Random(55)
    for _ in range(50):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        mat = _random_int_matrix(rng, n, m)
        int_rows, pivots = saturated_limit_rows(_tp_matrix_from_int(mat), m)
        assert len(int_rows) == len(pivots) == _fraction_rank(mat)
        # same span as the input
        assert _fraction_rank(int_rows + mat) == _fraction_rank(mat)
        # claimed pivots are valid: row k is nonzero at its pivot column
        # and every later row vanishes there (triangular after
        # reordering, so the rows are independent)
        for k, col in enumerate(pivots):
            assert int_rows[k][col] != 0
            assert all(
                int_rows[i][col] == 0 for i in range(k + 1, len(int_rows))
            )


def test_limit_rows_ignores_t_scaling():
    """Multiplying rows by powers of t must not change the limit span."""
    rng = random.Random(66)
    for _ in range(50):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        mat = _random_int_matrix(rng, n, m)
        plain = _tp_matrix_from_int(mat)
        scaled = []
        for row in plain:
            k = rng.randint(0, 3)
            tk = tp_trim([0] * k + [1])
            scaled.append([tp_mul(tk, e) for e in row])
        base, _ = saturated_limit_rows(plain, m)
        twisted, _ = saturated_limit_rows(scaled, m)
        assert _fraction_rank(base) == _fraction_rank(twisted)
        assert _fraction_rank(base + twisted) == _fraction_rank(base)


def test_limit_rows_invariant_under_row_operations():
    """Adding t-polynomial multiples of one row to another and shuffling
    rows leaves the limit span unchanged (it only depends on the module
    the rows generate)."""
    rng = random.Random(77)
    for _ in range(50):
        n, m = rng.randint(2, 6), rng.randint(2, 6)
        mat = _random_int_matrix(rng, n, m)
        plain = _tp_matrix_from_int(mat)
        mixed = [list(row) for row in plain]
        for _ in range(2 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            f = tp_trim(
                [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
            )
            mixed[i] = [
                tp_add(a, tp_mul(f, b)) for a, b in zip(mixed[i], mixed[j])
            ]
        rng.shuffle(mixed)
        base, _ = saturated_limit_rows(plain, m)
        other, _ = saturated_limit_rows(mixed, m)
        assert _fraction_rank(base) == _fraction_rank(other)
        assert _fraction_rank(base + other) == _fraction_rank(base)


def test_limit_rows_saturation_example():
    """The textbook saturation effect: the span of (t, t) and (0, t^2)
    contains (t, t) - combinations giving t*(1, 1) and t^2*(0, 1), so
    the saturated limit at t = 0 is all of Q^2, not the line (1, 1)."""
    t = tp_trim([0, 1])
    t2 = tp_trim([0, 0, 1])
    rows = [[t, t], [tp_trim([]), t2]]
    int_rows, pivots = saturated_limit_rows(rows, 2)
    assert _fraction_rank(int_rows) == 2
    assert sorted(pivots) == [0, 1]


def test_limit_rows_drops_dependent_rows():
    t = tp_trim([0, 1])
    one = tp_trim([1])
    # second row is t times the first: contributes nothing new
    rows = [[one, one], [t, t]]
    int_rows, pivots = saturated_limit_rows(rows, 2)
    assert len(int_rows) == 1
    assert pivots == [0]
    scale = int_rows[0][0]
    assert int_rows[0] == [scale, scale]
