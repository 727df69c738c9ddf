"""Tests for the exact limit fibers at the torus-fixed forms."""

from collections import Counter
from math import comb, gcd, lcm

import pytest

from foldeg import fields, limits
from foldeg.bott import legendrian_degree
from foldeg.exact import (
    DEFAULT_WEIGHTS,
    PowerSums,
    character_weights,
    elementary_symmetric,
    monomials_of_degree,
)
from foldeg.fields import (
    P5_PAIRS,
    as_fixed_point,
    build_phi_basis,
    complementary_pair,
    contact_kernel_dimension,
    phi_dimension,
)
from foldeg.forms import AntisymmetricForm, contract
from foldeg.limits import (
    METHOD_BOTH,
    METHOD_IMAGE,
    METHOD_KERNEL,
    MethodDisagreement,
    SaturationRankError,
    limit_fiber_weights,
)
from foldeg.linalg import limit_rows
from foldeg.matrices import (
    ContractionMatrix,
    build_contraction_matrix,
    echelon,
    rank,
    rref,
)
from foldeg.verify import D2_P34_E5, D2_P34_QUOTIENT_WEIGHTS
from frozen import ALT_WEIGHTS_A, ALT_WEIGHTS_B, D2_P34_SYMBOLIC_WEIGHTS
import oracles
from oracles import (
    _blocks,
    _connected_blocks,
    _kernel_limits,
    _kernel_weights_for_block,
    character_weight,
    kernel_counts_by_block,
    multiset_difference,
    projected_kernel_weights,
    saturated_limit_rows,
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
    assert elementary_symmetric(
        5, PowerSums.of(res.quotient_weights, 5)) == D2_P34_E5


def test_fiber_sizes_and_partition():
    """Quotient and kernel weights partition the weights of the full
    basis; their sizes are C(d+4,3) and (d+4)(d+2)d/3."""
    for d in (2, 3):
        for pair in ((1, 2), (2, 4)):
            res = limit_fiber_weights(pair, d)
            assert len(res.quotient_weights) == comb(d + 4, 3)
            assert len(res.kernel_weights) == contact_kernel_dimension(d)
            full = character_weights(
                build_phi_basis(d).characters.elements(), DEFAULT_WEIGHTS)
            recombined = res.quotient_weights + res.kernel_weights
            assert tuple(sorted(recombined)) == full


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
    basis = build_phi_basis(d)
    matrix = build_contraction_matrix((1, 2), d, basis)
    assert matrix.shape == (comb(d + 4, 3), len(basis))
    assert matrix.entries
    assert repr(matrix) == "ContractionMatrix(fp=(1, 2), d=2, shape=(20, 36), 44 entries)"
    with pytest.raises(ValueError):
        build_contraction_matrix((1, 2), 3, basis)


def test_result_fields():
    res = limit_fiber_weights((3, 4), 2)
    assert res.pair == (3, 4)
    assert res.d == 2
    assert res.method == METHOD_IMAGE
    assert list(res.quotient_weights) == list(D2_P34_QUOTIENT_WEIGHTS)
    assert len(res.kernel_weights) == contact_kernel_dimension(2)
    assert res.kernel_weights == multiset_difference(character_weights(
        build_phi_basis(2).characters.elements(), DEFAULT_WEIGHTS),
        res.quotient_weights)


def test_both_is_the_image_result_with_its_method_replaced():
    for pair in P5_PAIRS:
        img = limit_fiber_weights(pair, 2, ALT_WEIGHTS_B, METHOD_IMAGE)
        both = limit_fiber_weights(pair, 2, ALT_WEIGHTS_B, METHOD_BOTH)
        assert both == img._replace(method=METHOD_BOTH)


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


def _limit_counts(rows, levels):
    """limit_rows on a union-find block, handed over as a chain: the
    columns sorted by descending level, one character per level, each
    column as its (low, high) pair, the t^0 and t^1 coefficients that
    sit on two consecutive rows.  The M(1) that gives must be the
    block's up to the order of its rows.  The counts are returned as a
    Counter of levels."""
    order = sorted(range(len(levels)), key=levels.__getitem__, reverse=True)
    by_level = {}
    for q in order:
        low = sum(row[q][0] for row in rows if row[q])
        high = sum(row[q][1] for row in rows if len(row[q]) > 1)
        by_level.setdefault(levels[q], []).append((low, high))
    columns = list(by_level.values())
    _, dense = oracles._chain_matrix(list(by_level.items()))
    assert sorted(filter(any, dense)) == sorted(
        filter(any, ([sum(row[q]) for q in order] for row in rows)))
    return Counter(dict(zip(by_level, limit_rows(columns, len(order)))))


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
        basis = build_phi_basis(d)
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
    characters, and their limit rows span the same space.  The rows are
    the cut rows of oracles.cut_limit_rows, whose pivots must fall on
    each level as often as limit_rows counts there."""
    for d in range(1, 9):
        basis = oracles.weight_ordered_basis(d, weights)
        for pair in P5_PAIRS:
            matrix = build_contraction_matrix(pair, d, basis)
            for cols, levels, rows in _blocks(matrix):
                got, cut_pivots = oracles.cut_limit_rows(rows, len(cols),
                                                         levels)
                assert Counter(levels[k] for k in cut_pivots) == (
                    _limit_counts(rows, levels))
                want, want_pivots = saturated_limit_rows(rows, len(cols))
                assert sorted(
                    basis[cols[k]].character for k in cut_pivots
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
        basis = oracles.weight_ordered_basis(d, weights)
        for pair in P5_PAIRS:
            matrix = build_contraction_matrix(pair, d, basis)
            blocks = sorted(cols for cols, _, _ in _blocks(matrix))
            assert blocks == sorted(_character_classes(basis, pair))
            assert len(blocks) == (d + 2) ** 2


def _primitive(column):
    """A column {row monomial: entry}, zeros dropped and divided by the
    gcd of its entries, as a sorted tuple."""
    g = gcd(*column.values()) or 1
    return tuple(sorted((r, v // g) for r, v in column.items() if v))


def _shift(chi, e):
    return tuple(a + b for a, b in zip(chi, e))


def test_chains_are_the_union_find_blocks():
    """At every fixed point (i,j), complement (k,l), d = 1..10: each
    chain is one union-find block of the contraction, with the same
    column characters listed by descending level chi_k + chi_l, n + 1
    rows for n characters, and the same M(1) up to a positive scale per
    column.  Chain row K is named by the rule it must follow: the high
    row chi_K + e_k + e_l, and the last one the low row
    chi + e_i + e_j of the last character."""
    for pair in P5_PAIRS:
        (i, j), (k, l) = pair, complementary_pair(pair)
        e_low = tuple(int(a in (i, j)) for a in (1, 2, 3, 4))
        e_high = tuple(int(a in (k, l)) for a in (1, 2, 3, 4))
        for d in range(1, 11):
            basis = build_phi_basis(d)
            matrix = build_contraction_matrix(pair, d, basis)
            blocks = {}
            for (row_idx, _), (col_idx, _, rows) in zip(
                    _connected_blocks(matrix), _blocks(matrix)):
                cols = sorted(
                    (basis[c].character, _primitive({
                        matrix.row_monomials[r]: sum(row[a])
                        for r, row in zip(row_idx, rows)}))
                    for a, c in enumerate(col_idx))
                blocks[frozenset(chi for chi, _ in cols)] = cols
            chains = {}
            for chain in oracles.split_chains(limits._chains(d, pair)):
                chars = [chi for chi, _ in chain]
                levels = [chi[k - 1] + chi[l - 1] for chi in chars]
                assert levels == list(range(levels[0], levels[-1] - 1, -2))
                owner, rows = oracles._chain_matrix(chain)
                assert len(rows) == len(chars) + 1
                names = [_shift(chi, e_high) for chi in chars]
                names.append(_shift(chars[-1], e_low))
                chains[frozenset(chars)] = sorted(
                    (chi, _primitive({n: row[c]
                                      for n, row in zip(names, rows)}))
                    for c, chi in enumerate(owner))
            assert chains == blocks, (pair, d)
            assert len(chains) == (d + 2) ** 2


def test_limit_rows_on_each_chain_is_the_dense_echelon():
    """At every fixed point, d = 1..6, limit_rows on a chain's fields
    counts in each character the pivots that echelon picks in its
    columns of the dense M(1), and leaves the fields as they were."""
    for d in range(1, 7):
        for pair in P5_PAIRS:
            for chain in oracles.split_chains(limits._chains(d, pair)):
                owner, rows = oracles._chain_matrix(chain)
                columns = [fields for _, fields in chain]
                kept = list(columns)
                assert limit_rows(columns, len(owner)) == (
                    oracles.pivots_by_character(
                        columns, echelon(rows, len(owner))[1])), (pair, d)
                assert columns == kept


def test_chain_columns_are_the_basis_characters():
    """At every fixed point, the chains' columns carry the characters of
    the basis fields, as multisets, d = 1..10."""
    for d in range(1, 11):
        want = sorted(f.character for f in build_phi_basis(d))
        for pair in P5_PAIRS:
            got = [chi for chain in oracles.split_chains(
                       limits._chains(d, pair))
                   for chi in oracles._chain_matrix(chain)[0]]
            assert sorted(got) == want, (pair, d)


@pytest.mark.parametrize(
    "weights", (DEFAULT_WEIGHTS, ALT_WEIGHTS_A, ALT_WEIGHTS_B)
)
def test_kernel_rule_equals_the_echelon_oracle(weights):
    """Chain by chain and character by character, the rank rule counts
    what the [M(1)^T | I] echelon of each union-find block counts, at
    every fixed point, d = 1..10."""
    for d in range(1, 11):
        basis = oracles.weight_ordered_basis(d, weights)
        for pair in P5_PAIRS:
            want = kernel_counts_by_block(
                build_contraction_matrix(pair, d, basis))
            for chain in oracles.split_chains(limits._chains(d, pair)):
                chars = [chi for chi, _ in chain]
                got = dict(zip(chars, oracles.kernel_copies(
                    chain, limits._kernel_rule(chain))))
                assert Counter(got) == want[frozenset(chars)], (pair, d)


def test_kernel_rule_takes_three_fields_at_most():
    """_chains writes 0, 1 or 3 fields per character, and the rank rule
    pads a shorter character to three.  A character of four fields is
    refused (ValueError), wherever it stands in the list, not counted by
    three of its fields."""
    four = ((1, 0), (0, 1), (1, 1), (2, -1))
    for chain in ([((0,), four)],
                  [((0,), ((1, 0),)), ((1,), four)],
                  [((0,), four), limits.END]):
        with pytest.raises(ValueError, match="expected 3"):
            limits._kernel_rule(chain)


def test_chain_rank_guard_raises(monkeypatch):
    """A chain echelon that loses one pivot makes the chain fiber oracle
    raise its C(d+4, 3) rank guard."""
    real, dropped = oracles.echelon, []

    def one_short(rows, ncols):
        ech, pivots = real(rows, ncols)
        if pivots and not dropped:
            dropped.append(pivots[-1])
            return ech[:-1], pivots[:-1]
        return ech, pivots

    monkeypatch.setattr(oracles, "echelon", one_short)
    with pytest.raises(SaturationRankError, match="chain image rank"):
        oracles._chain_fiber(6)
    assert len(dropped) == 1


def test_method_disagreement_is_raised(monkeypatch):
    """--method both compares the two routes' counts entry by entry and
    raises on a mismatch: here the image route moves one copy from the
    first character that has one to the next that has a field to spare,
    which keeps its rank and the image and kernel characters' totals."""
    real = limits.limit_rows

    def moved(columns, ncols):
        counts = real(columns, ncols)
        first = next(i for i, n in enumerate(counts) if n)
        spare = next(i for i in range(first + 1, len(counts))
                     if counts[i] < len(columns[i]))
        counts[first] -= 1
        counts[spare] += 1
        return counts

    monkeypatch.setattr(limits, "limit_rows", moved)
    with pytest.raises(MethodDisagreement):
        limit_fiber_weights((1, 2), 2, method=METHOD_BOTH)


def test_quotient_characters():
    """The image route reports the fiber as sorted Z^4 characters that
    evaluate to its weights; the kernel route reports the same
    characters at all six pairs, d = 1..6, and "both" passes them on."""
    img = limit_fiber_weights((2, 4), 3, ALT_WEIGHTS_A, METHOD_IMAGE)
    chars = img.quotient_characters
    assert list(chars) == sorted(chars)
    assert tuple(sorted(
        sum(c * w for c, w in zip(chi, ALT_WEIGHTS_A.values)) for chi in chars
    )) == img.quotient_weights
    both = limit_fiber_weights((2, 4), 3, ALT_WEIGHTS_A, METHOD_BOTH)
    assert both.quotient_characters == chars
    for d in range(1, 7):
        for pair in P5_PAIRS:
            img, ker = (limit_fiber_weights(pair, d, ALT_WEIGHTS_A, method)
                        for method in (METHOD_IMAGE, METHOD_KERNEL))
            assert ker.quotient_characters == img.quotient_characters, (
                pair, d)


@pytest.mark.parametrize(
    "weights", (DEFAULT_WEIGHTS, ALT_WEIGHTS_A, ALT_WEIGHTS_B)
)
def test_kernel_limit_annihilates_the_image_limit(weights):
    """Block by block, the kernel route's limit vectors are independent,
    annihilate the cut rows of the image limit at the pivots limit_rows
    picks, and the two ranks add up to the block width: the two limits
    are each other's annihilators, as the limits of a kernel and a row
    space."""
    for d in range(2, 9):
        basis = oracles.weight_ordered_basis(d, weights)
        for pair in P5_PAIRS:
            blocks = tuple(_blocks(build_contraction_matrix(pair, d, basis)))
            for (cols, levels, rows), (kcols, vectors) in zip(
                blocks, _kernel_limits(blocks)
            ):
                assert kcols == cols
                image, pivots = oracles.cut_limit_rows(rows, len(cols),
                                                       levels)
                assert Counter(levels[k] for k in pivots) == (
                    _limit_counts(rows, levels))
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
        basis = oracles.weight_ordered_basis(d, weights)
        for pair in P5_PAIRS:
            blocks = tuple(_blocks(build_contraction_matrix(pair, d, basis)))
            for cols, vectors in _kernel_limits(blocks):
                got = _kernel_weights_for_block(vectors, cols, basis, weights)
                assert sorted(got) == projected_kernel_weights(
                    vectors, cols, basis, weights
                )


def _count_chains(monkeypatch):
    """Count the chain builds from now on, with no chains remembered
    from before."""
    calls = []
    real = limits._chains

    def counted(d, pair):
        calls.append((pair, d))
        return real(d, pair)

    monkeypatch.setattr(limits, "_chains", counted)
    limits._pair_chains.cache_clear()
    return calls


def test_both_builds_one_contraction_per_fixed_point(monkeypatch):
    """Under "both" the image and the kernel route share the chains of
    each fixed point, built once."""
    calls = _count_chains(monkeypatch)
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
            limits._pair_chains.cache_clear()
            fresh.append(_fiber(*call, m))
    assert in_a_row == fresh


def test_both_in_alternation_equals_a_fresh_order():
    """Under "both", two systems in alternation at each pair give what each
    system gives on its own from cold caches, as in a fresh process."""
    d, systems = 3, (ALT_WEIGHTS_A, ALT_WEIGHTS_B)
    fresh = []
    for w in systems:
        fields._phi_basis_cached.cache_clear()
        limits._pair_chains.cache_clear()
        fresh.append([limit_fiber_weights(pair, d, w, METHOD_BOTH)
                      for pair in P5_PAIRS])
    alternating = ([], [])
    for pair in P5_PAIRS:
        for got, w in zip(alternating, systems):
            got.append(limit_fiber_weights(pair, d, w, METHOD_BOTH))
    assert list(alternating) == fresh
    assert fresh[0] != fresh[1]


def test_kernel_route_guards_raise(monkeypatch):
    """The kernel oracle refuses a limit vector that mixes weights, and
    the kernel route a limit kernel of the wrong rank: here one short at
    the first character that it counts in the kernel at all."""
    basis = build_phi_basis(3)
    blocks = tuple(_blocks(build_contraction_matrix((1, 2), 3, basis)))
    cols = next(cols for cols, _ in _kernel_limits(blocks)
                if len({character_weight(basis[c].character, DEFAULT_WEIGHTS)
                        for c in cols}) > 1)
    with pytest.raises(SaturationRankError, match="weight spaces"):
        _kernel_weights_for_block([[1] * len(cols)], cols, basis,
                                  DEFAULT_WEIGHTS)

    real = limits._kernel_rule

    def one_short(chains):
        counts = real(chains)
        first = next(i for i, (count, (_, fields)) in enumerate(
            zip(counts, chains)) if count < len(fields))
        counts[first] += 1
        return counts

    monkeypatch.setattr(limits, "_kernel_rule", one_short)
    limits._pair_chains.cache_clear()
    with pytest.raises(SaturationRankError, match="kernel rank"):
        limit_fiber_weights((1, 2), 3, method=METHOD_KERNEL)


def test_chains_need_a_positive_field_degree():
    """Fields of degree 0 have no chains: _chains refuses d = 0 at every
    pair, and so does every route, whose basis comes first."""
    for pair in P5_PAIRS:
        with pytest.raises(ValueError, match="field degree must be >= 1, got 0"):
            limits._chains(0, pair)
    for method in (METHOD_IMAGE, METHOD_KERNEL, METHOD_BOTH):
        with pytest.raises(ValueError, match="field degree must be >= 1, got 0"):
            limit_fiber_weights((1, 2), 0, method=method)


@pytest.mark.parametrize("method", [METHOD_IMAGE, METHOD_KERNEL, METHOD_BOTH])
def test_chains_short_of_the_basis_raise(monkeypatch, method):
    """Each route refuses chains whose image and kernel do not add up to
    dim Phi_d, though its own rank is right: here a stand-in basis has
    one field more than the chains."""
    monkeypatch.setattr(limits, "build_phi_basis",
                        lambda d: range(phi_dimension(d) + 1))
    with pytest.raises(SaturationRankError, match=(
            r"chains hold 70 fields, not dim Phi_d = 71 at \(1, 2\), d=3")):
        limit_fiber_weights((1, 2), 3, method=method)


def test_image_route_rank_guard_raises(monkeypatch):
    """The image route refuses a limit of the wrong rank: here one short
    at the first character that it counts in the image at all."""
    real = limits.limit_rows

    def one_short(rows, ncols):
        counts = real(rows, ncols)
        counts[next(i for i, n in enumerate(counts) if n)] -= 1
        return counts

    monkeypatch.setattr(limits, "limit_rows", one_short)
    with pytest.raises(SaturationRankError, match="image rank"):
        limit_fiber_weights((1, 2), 3, method=METHOD_IMAGE)
