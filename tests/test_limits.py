"""Tests for the exact limit fibers at the torus-fixed forms."""

from math import comb, lcm

import pytest

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
    _first_dependency,
    _limit_kernel_vectors,
    _quotient_columns,
    _readaptation_bound,
    _tpoly_nullspace,
    _vec_normalize,
    build_contraction_matrix,
    limit_fiber_weights,
)
from foldeg.linalg import limit_rows
from foldeg.reference import (
    ALT_WEIGHTS_A,
    ALT_WEIGHTS_B,
    D2_P34_E5,
    D2_P34_QUOTIENT_WEIGHTS,
    D2_P34_SYMBOLIC_WEIGHTS,
    DEFAULT_WEIGHTS,
)


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


def _fraction_quotient_columns(d, pair, basis):
    """The image route's pivot columns as the Fraction pipeline found
    them: contract each field exactly over Q with kappa_ij and with
    kappa_kl, pair the values up as c0 + c1*t, then clear the
    denominators of every block row by row before limit_rows."""
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
    cols = []
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
        _, pivots = limit_rows(rows, len(col_idx))
        cols += [col_idx[k] for k in pivots]
    return entries, cols


def test_integer_contraction_keeps_the_fraction_pivots():
    """Scaling each column by its field's denominator leaves the zero
    pattern and the t-free entries alone, so limit_rows picks the same
    pivot columns as on the row-cleared Fraction matrix."""
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
            assert _quotient_columns(matrix) == want


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
            blocks = sorted(cols for cols, _ in _blocks(matrix))
            assert blocks == sorted(_character_classes(basis, pair))
            assert len(blocks) == (d + 2) ** 2


def test_first_dependency():
    assert _first_dependency([]) is None
    assert _first_dependency([[1, 0, 2], [0, 3, 1]]) is None
    # 2*v0 + v1 - v2 = 0, so v2 is the first dependent vector
    vectors = [[1, 0, 2], [0, 3, 1], [2, 3, 5], [7, 7, 7]]
    dep = _first_dependency(vectors)
    assert dep[3] == 0 and dep[2] != 0
    assert all(
        sum(c * v[i] for c, v in zip(dep, vectors)) == 0 for i in range(3)
    )
    assert _first_dependency([[0, 0]]) == [1]


def test_method_disagreement_is_raised(monkeypatch):
    """--method both compares the two routes and raises on a mismatch."""
    import foldeg.limits as limits

    def first_columns(matrix):
        return list(range(comb(matrix.d + 4, 3)))

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


def test_readaptation_stabilizes_within_its_bound():
    """Every block at d = 2..6, at all six points, stabilizes within the
    sum of the largest t-degrees of its initial kernel family."""
    steps_total = 0
    for d in range(2, 7):
        basis = build_phi_basis(d, DEFAULT_WEIGHTS)
        for pair in P5_PAIRS:
            matrix = build_contraction_matrix(pair, d, basis)
            for col_idx, rows in _blocks(matrix):
                family = [_vec_normalize(v)
                          for v in _tpoly_nullspace(rows, len(col_idx))]
                bound = _readaptation_bound(family)
                _, steps = _limit_kernel_vectors(rows, len(col_idx))
                assert steps <= bound
                steps_total += steps
    assert steps_total > 0


def test_readaptation_past_its_bound_raises(monkeypatch):
    """A family still dependent once its bound is spent is an error; at
    d = 2 some blocks need one step, so a bound of 0 trips it."""
    import foldeg.limits as limits

    monkeypatch.setattr(limits, "_readaptation_bound", lambda vecs: 0)
    with pytest.raises(SaturationRankError):
        limit_fiber_weights((1, 2), 2, method=METHOD_KERNEL)
