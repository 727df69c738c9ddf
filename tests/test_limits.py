"""Tests for the exact limit fibers at the torus-fixed forms."""

from math import comb, lcm

import pytest

from foldeg import limits
from foldeg.bott import legendrian_degree
from foldeg.exact import WeightMultiset, monomials_of_degree
from foldeg.fields import (
    P5_PAIRS,
    AntisymmetricForm,
    as_fixed_point,
    build_phi_basis,
    complementary_pair,
    contact_kernel_dimension,
    contract,
)
from foldeg.limits import (
    METHOD_BOTH,
    METHOD_IMAGE,
    METHOD_KERNEL,
    ContractionMatrix,
    MethodDisagreement,
    SaturationRankError,
    _blocks,
    _connected_blocks,
    _kernel_limits,
    build_contraction_matrix,
    limit_fiber_weights,
)
from foldeg.linalg import limit_rows, rank, rref
from foldeg.reference import (
    ALT_WEIGHTS_A,
    ALT_WEIGHTS_B,
    D2_P34_E5,
    D2_P34_QUOTIENT_WEIGHTS,
    D2_P34_SYMBOLIC_WEIGHTS,
    DEFAULT_WEIGHTS,
)
from oracles import projected_kernel_weights, saturated_limit_rows


def test_fixed_points_enumeration():
    """A fixed point is one of the six pairs, in canonical order."""
    assert P5_PAIRS == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    assert [as_fixed_point(list(p)) for p in P5_PAIRS] == list(P5_PAIRS)
    assert complementary_pair(P5_PAIRS[0]) == (3, 4)
    for bad in ((1, 1), (4, 3), (1, 2, 3)):
        with pytest.raises(ValueError):
            as_fixed_point(bad)
        with pytest.raises(ValueError):
            limit_fiber_weights(bad, 2)


def test_frozen_fiber_at_pair34():
    """The d=2 limit fiber at the fixed form kappa_34, computed by both
    routes, against the frozen twenty-weight multiset."""
    res = limit_fiber_weights((3, 4), 2, method=METHOD_BOTH)
    assert tuple(res.quotient_weights) == D2_P34_QUOTIENT_WEIGHTS
    assert res.method == METHOD_BOTH
    assert (
        WeightMultiset(res.quotient_weights).elementary_symmetric(5)
        == D2_P34_E5
    )


def test_fiber_sizes_and_partition():
    """Quotient and kernel weights partition the weights of the full
    basis; their sizes are C(d+4,3) and (d+4)(d+2)d/3."""
    for d in (2, 3):
        for pair in ((1, 2), (2, 4)):
            res = limit_fiber_weights(pair, d)
            assert len(res.quotient_weights) == comb(d + 4, 3)
            assert len(res.kernel_weights) == contact_kernel_dimension(d)
            full = build_phi_basis(d, DEFAULT_WEIGHTS).weight_multiset()
            recombined = WeightMultiset(
                res.quotient_weights.values + res.kernel_weights.values
            )
            assert recombined == full


def _transported_symbolic(pair, weights):
    """Fiber multiset predicted by the frozen symbolic table: relabel
    coordinates so the table's base pair (3,4) maps onto the given pair
    and evaluate each symbolic combination at the permuted weights."""
    k, l = pair
    i, j = complementary_pair(pair)
    sigma = (i, j, k, l)  # image of (1, 2, 3, 4)
    permuted = [weights.weight(s) for s in sigma]
    return sorted(
        sum(c * v for c, v in zip(row, permuted))
        for row in D2_P34_SYMBOLIC_WEIGHTS
    )


def test_symbolic_table_predicts_every_fixed_point():
    """Relabeling coordinates transports the symbolic fiber at one fixed
    point to all six; the computed fibers must match at d = 2."""
    for pair in P5_PAIRS:
        res = limit_fiber_weights(pair, 2, DEFAULT_WEIGHTS)
        assert list(res.quotient_weights) == _transported_symbolic(
            pair, DEFAULT_WEIGHTS
        )


def test_symbolic_table_predicts_other_weight_systems():
    for ws in (ALT_WEIGHTS_A, ALT_WEIGHTS_B):
        for pair in ((1, 2), (3, 4)):
            res = limit_fiber_weights(pair, 2, ws)
            assert list(res.quotient_weights) == _transported_symbolic(
                pair, ws
            )


def test_methods_agree():
    for d in (2, 3):
        for pair in P5_PAIRS:
            img = limit_fiber_weights(pair, d, method=METHOD_IMAGE)
            ker = limit_fiber_weights(pair, d, method=METHOD_KERNEL)
            assert img.quotient_weights == ker.quotient_weights
            assert img.kernel_weights == ker.kernel_weights
            assert img.method == METHOD_IMAGE
            assert ker.method == METHOD_KERNEL


def test_contraction_matrix_shape():
    d = 2
    basis = build_phi_basis(d, DEFAULT_WEIGHTS)
    matrix = build_contraction_matrix((1, 2), d, basis)
    assert matrix.shape == (comb(d + 4, 3), len(basis))
    assert matrix.entries
    with pytest.raises(ValueError):
        build_contraction_matrix((1, 2), 3, basis)


def test_result_json_schema():
    res = limit_fiber_weights((3, 4), 2)
    out = res.to_json_dict()
    assert out["pair"] == [3, 4]
    assert out["d"] == 2
    assert out["weights"] == list(res.quotient_weights)
    assert out["kernel_weights"] == list(res.kernel_weights)
    assert out["method"] == "image-fiber"


def test_method_validation():
    with pytest.raises(ValueError):
        limit_fiber_weights((1, 2), 2, method="nonsense")


def _saturated_pivots(blocks):
    """The pivot columns the Z[t] saturation oracle picks over
    (columns, t-polynomial rows) blocks."""
    cols = []
    for col_idx, rows in blocks:
        _, pivots = saturated_limit_rows(rows, len(col_idx))
        cols += [col_idx[k] for k in pivots]
    return cols


def _fraction_quotient_columns(d, pair, basis):
    """The saturation oracle's pivot columns on the Fraction pipeline:
    contract each field exactly over Q with kappa_ij and with kappa_kl,
    pair the values up as c0 + c1*t, then clear the denominators of
    every block row by row before saturating."""
    base = AntisymmetricForm.koszul(pair)
    pert = AntisymmetricForm.koszul(complementary_pair(pair))
    monos = monomials_of_degree(d + 1)
    mindex = {m: i for i, m in enumerate(monos)}
    entries = {}
    for c, f in enumerate(basis):
        c0, c1 = contract(base, f), contract(pert, f)
        for m in set(c0) | set(c1):
            entries[(mindex[m], c)] = (c0.get(m, 0), c1.get(m, 0))
    matrix = ContractionMatrix(pair, d, basis, monos, entries)
    blocks = []
    for row_idx, col_idx in _connected_blocks(matrix):
        rows = []
        for r in row_idx:
            row = [entries.get((r, c), (0, 0)) for c in col_idx]
            den = lcm(*(e.denominator for pair_ in row for e in pair_
                        if e))
            tp = []
            for c0, c1 in row:
                c0, c1 = int(c0 * den), int(c1 * den)
                tp.append((c0, c1) if c1 else (c0,) if c0 else ())
            rows.append(tp)
        blocks.append((col_idx, rows))
    return entries, _saturated_pivots(blocks)


def test_integer_contraction_keeps_the_fraction_pivots():
    """Scaling each column by its field's denominator leaves the zero
    pattern and the t-free entries alone, so the saturation oracle picks
    the same pivot columns as on the row-cleared Fraction matrix."""
    for d in range(1, 9):
        basis = build_phi_basis(d, DEFAULT_WEIGHTS)
        scale = [lcm(*(t.coefficient.denominator for t in f.terms))
                 for f in basis]
        for pair in P5_PAIRS:
            matrix = build_contraction_matrix(pair, d, basis)
            entries, want = _fraction_quotient_columns(d, pair, basis)
            assert matrix.entries == {
                (r, c): (v0 * scale[c], v1 * scale[c])
                for (r, c), (v0, v1) in entries.items()
            }
            assert all(
                type(v) is int for pair_ in matrix.entries.values()
                for v in pair_
            )
            assert _saturated_pivots(
                (cols, rows) for cols, _, rows in _blocks(matrix)
            ) == want


@pytest.mark.parametrize(
    "weights", (DEFAULT_WEIGHTS, ALT_WEIGHTS_A, ALT_WEIGHTS_B)
)
def test_torus_image_limit_equals_the_saturation_oracle(weights):
    """Block by block, the echelon of M(1) with the columns by descending
    level and the Z[t] saturation oracle pick pivot columns of the same
    characters, and their limit rows span the same space."""
    for d in range(1, 9):
        basis = build_phi_basis(d, weights)
        for pair in P5_PAIRS:
            matrix = build_contraction_matrix(pair, d, basis)
            for cols, levels, rows in _blocks(matrix):
                got, got_pivots = limit_rows(rows, len(cols), levels)
                want, want_pivots = saturated_limit_rows(rows, len(cols))
                assert sorted(
                    basis[cols[k]].character for k in got_pivots
                ) == sorted(basis[cols[k]].character for k in want_pivots)
                assert rref(got) == rref(want)


def _character_classes(basis, pair):
    """The oracle for the blocks: columns grouped by Z^4 character
    modulo v = e_k + e_l - e_i - e_j, each class named by its member
    chi + chi_i * v, the one with i-th entry 0."""
    (i, j), (k, l) = pair, complementary_pair(pair)
    classes = {}
    for c, f in enumerate(basis):
        chi = list(f.character)
        s = chi[i - 1]
        for a, sign in ((i, -1), (j, -1), (k, 1), (l, 1)):
            chi[a - 1] += sign * s
        classes.setdefault(tuple(chi), []).append(c)
    return list(classes.values())


@pytest.mark.parametrize(
    "weights", (DEFAULT_WEIGHTS, ALT_WEIGHTS_A, ALT_WEIGHTS_B)
)
def test_blocks_are_the_character_classes(weights):
    """t carries e_i + e_j - e_k - e_l, so the union-find blocks are
    exactly the classes of column characters modulo that vector:
    (d+2)^2 of them at every fixed point."""
    for d in range(1, 11):
        basis = build_phi_basis(d, weights)
        for pair in P5_PAIRS:
            matrix = build_contraction_matrix(pair, d, basis)
            blocks = sorted(cols for cols, _, _ in _blocks(matrix))
            assert blocks == sorted(_character_classes(basis, pair))
            assert len(blocks) == (d + 2) ** 2


def test_method_disagreement_is_raised(monkeypatch):
    """--method both compares the two routes and raises on a mismatch."""
    def first_columns(blocks):
        return list(range(comb(2 + 4, 3)))

    monkeypatch.setattr(limits, "_quotient_columns", first_columns)
    with pytest.raises(MethodDisagreement):
        limit_fiber_weights((1, 2), 2, method=METHOD_BOTH)


def test_quotient_characters():
    """The image route reports the fiber as sorted Z^4 characters that
    evaluate to its weights; the kernel route alone reports none, and
    "both" passes the image route's on."""
    img = limit_fiber_weights((2, 4), 3, ALT_WEIGHTS_A, METHOD_IMAGE)
    chars = img.quotient_characters
    assert list(chars) == sorted(chars)
    assert WeightMultiset(
        sum(c * w for c, w in zip(chi, ALT_WEIGHTS_A.values)) for chi in chars
    ) == img.quotient_weights
    ker = limit_fiber_weights((2, 4), 3, ALT_WEIGHTS_A, METHOD_KERNEL)
    assert ker.quotient_characters is None
    both = limit_fiber_weights((2, 4), 3, ALT_WEIGHTS_A, METHOD_BOTH)
    assert both.quotient_characters == chars
    assert "quotient_characters" not in both.to_json_dict()


@pytest.mark.parametrize(
    "weights", (DEFAULT_WEIGHTS, ALT_WEIGHTS_A, ALT_WEIGHTS_B)
)
def test_kernel_limit_annihilates_the_image_limit(weights):
    """Block by block, the kernel route's limit vectors are independent,
    annihilate the rows limit_rows gives for the image limit, and the
    two ranks add up to the block width: the two limits are each
    other's annihilators, as the limits of a kernel and a row space."""
    for d in range(2, 9):
        basis = build_phi_basis(d, weights)
        for pair in P5_PAIRS:
            blocks = tuple(_blocks(build_contraction_matrix(pair, d, basis)))
            for (cols, levels, rows), (kcols, vectors) in zip(
                blocks, _kernel_limits(blocks)
            ):
                assert kcols == cols
                image, _ = limit_rows(rows, len(cols), levels)
                assert len(image) + len(vectors) == len(cols)
                assert rank(vectors, len(cols)) == len(vectors)
                assert all(
                    sum(a * b for a, b in zip(r, v)) == 0
                    for r in image for v in vectors
                )


@pytest.mark.parametrize(
    "weights", (DEFAULT_WEIGHTS, ALT_WEIGHTS_A, ALT_WEIGHTS_B)
)
def test_kernel_weights_equal_the_projection_rank_oracle(weights):
    """Block by block, one weight per limit vector, read off its level,
    gives the multiplicities that the ranks of the projections onto each
    weight space give."""
    for d in range(1, 9):
        basis = build_phi_basis(d, weights)
        for pair in P5_PAIRS:
            blocks = tuple(_blocks(build_contraction_matrix(pair, d, basis)))
            for cols, vectors in _kernel_limits(blocks):
                got = limits._kernel_weights_for_block(vectors, cols, basis)
                assert sorted(got) == projected_kernel_weights(
                    vectors, cols, basis
                )


def _count_contractions(monkeypatch):
    """Count the calls of build_contraction_matrix from now on, with no
    contraction remembered from before."""
    calls = []
    real = limits.build_contraction_matrix

    def counted(*args):
        calls.append(args[:2])
        return real(*args)

    monkeypatch.setattr(limits, "build_contraction_matrix", counted)
    monkeypatch.setattr(limits, "_last_point", None)
    return calls


def test_both_builds_one_contraction_per_fixed_point(monkeypatch):
    """Under "both" the image and the kernel route share one contraction
    and its blocks."""
    calls = _count_contractions(monkeypatch)
    limit_fiber_weights((2, 4), 3, ALT_WEIGHTS_A, METHOD_BOTH)
    assert calls == [((2, 4), 3)]
    del calls[:]
    legendrian_degree(3, method=METHOD_BOTH)
    assert calls == [(pair, 3) for pair in P5_PAIRS]


def _fiber(pair, d, weights, method):
    res = limit_fiber_weights(pair, d, weights, method)
    return res.quotient_weights, res.kernel_weights, res.quotient_characters


def test_shared_blocks_are_never_stale(monkeypatch):
    """Calls in a row, each of which differs from the one before only in
    the degree, the weight system or the pair (the complement shares
    M(1)), give what the same calls give from scratch."""
    calls = [((1, 2), 3, DEFAULT_WEIGHTS), ((1, 2), 4, DEFAULT_WEIGHTS),
             ((1, 2), 4, ALT_WEIGHTS_B), ((3, 4), 4, ALT_WEIGHTS_B),
             ((1, 2), 4, ALT_WEIGHTS_B)]
    methods = (METHOD_IMAGE, METHOD_KERNEL, METHOD_BOTH)
    in_a_row = [_fiber(*call, m) for call in calls for m in methods]
    fresh = []
    for call in calls:
        for m in methods:
            monkeypatch.setattr(limits, "_last_point", None)
            fresh.append(_fiber(*call, m))
    assert in_a_row == fresh


def test_kernel_route_guards_raise(monkeypatch):
    """The kernel route refuses a limit vector that mixes weights and a
    limit kernel of the wrong rank."""
    basis = build_phi_basis(3, DEFAULT_WEIGHTS)
    blocks = tuple(_blocks(build_contraction_matrix((1, 2), 3, basis)))
    cols = next(cols for cols, _ in _kernel_limits(blocks)
                if len({basis[c].weight for c in cols}) > 1)
    with pytest.raises(SaturationRankError, match="weight spaces"):
        limits._kernel_weights_for_block([[1] * len(cols)], cols, basis)

    def one_short(blocks):
        for cols, vectors in _kernel_limits(blocks):
            yield cols, vectors[1:]

    monkeypatch.setattr(limits, "_kernel_limits", one_short)
    with pytest.raises(SaturationRankError, match="kernel rank"):
        limit_fiber_weights((1, 2), 3, method=METHOD_KERNEL)


def test_image_route_rank_guard_raises(monkeypatch):
    """The image route refuses a limit of the wrong rank."""
    real = limits.limit_rows

    def one_short(rows, ncols, levels):
        cut, pivots = real(rows, ncols, levels)
        return cut[1:], pivots[1:]

    monkeypatch.setattr(limits, "limit_rows", one_short)
    with pytest.raises(SaturationRankError, match="image rank"):
        limit_fiber_weights((1, 2), 3, method=METHOD_IMAGE)
