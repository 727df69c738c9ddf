"""Tests for fields, antisymmetric forms, contraction, and the basis."""

import random
from fractions import Fraction

import pytest

from foldeg.exact import WeightSystem, monomial_weight, monomials_of_degree
from foldeg.fields import (
    P5_PAIRS,
    AntisymmetricForm,
    MonomialField,
    PerturbedForm,
    build_phi_basis,
    complementary_pair,
    contact_kernel_dimension,
    contract,
    divergence,
    field_weight,
    phi_dimension,
    scaled_terms,
    tangent_kernel_dimension,
)
from foldeg.linalg import kernel_basis

WEIGHTS = (0, 2, 7, 10)


def _random_form(rng, contact=True):
    """A random antisymmetric form; with contact=True, retry until the
    Pfaffian is nonzero."""
    while True:
        alpha = [rng.randint(-5, 5) for _ in range(6)]
        if not any(alpha):
            continue
        form = AntisymmetricForm(alpha)
        if not contact or form.is_contact():
            return form


def test_pair_bookkeeping():
    assert complementary_pair((1, 2)) == (3, 4)
    assert complementary_pair((1, 3)) == (2, 4)
    assert complementary_pair((2, 4)) == (1, 3)
    assert len(P5_PAIRS) == 6
    assert P5_PAIRS[0] == (1, 2) and P5_PAIRS[-1] == (3, 4)


def test_dimension_formulas():
    assert [phi_dimension(d) for d in range(1, 5)] == [15, 36, 70, 120]
    assert [contact_kernel_dimension(d) for d in range(1, 5)] == [
        5,
        16,
        35,
        64,
    ]


def test_divergence_examples():
    f = [MonomialField(Fraction(1), (2, 0, 0, 0), 1)]
    assert divergence(f) == {(1, 0, 0, 0): Fraction(2)}
    # x2*d/dx1 has no x1 to differentiate
    assert divergence([MonomialField(Fraction(1), (0, 1, 0, 0), 1)]) == {}
    # the classic divergence-free pair x2*d/dx1 - x1*d/dx2 at degree 1
    f = [
        MonomialField(Fraction(1), (0, 1, 0, 0), 1),
        MonomialField(Fraction(-1), (1, 0, 0, 0), 2),
    ]
    assert divergence(f) == {}
    with pytest.raises(ValueError):
        divergence(
            [
                MonomialField(Fraction(1), (1, 0, 0, 0), 1),
                MonomialField(Fraction(1), (2, 0, 0, 0), 1),
            ]
        )


def test_divergence_is_linear():
    rng = random.Random(12)
    monos = monomials_of_degree(3)
    for _ in range(40):
        fa = [
            MonomialField(Fraction(rng.randint(-4, 4)), rng.choice(monos),
                          rng.randint(1, 4))
            for _ in range(4)
        ]
        fb = [
            MonomialField(Fraction(rng.randint(-4, 4)), rng.choice(monos),
                          rng.randint(1, 4))
            for _ in range(4)
        ]
        da, db, dab = divergence(fa), divergence(fb), divergence(fa + fb)
        for m in set(da) | set(db) | set(dab):
            assert dab.get(m, 0) == da.get(m, 0) + db.get(m, 0)


def test_antisymmetric_form_construction():
    form = AntisymmetricForm({(1, 2): 1, (3, 4): 1})
    assert form.coefficient((1, 2)) == 1
    assert form.coefficient((1, 3)) == 0
    assert form == AntisymmetricForm((1, 0, 0, 0, 0, 1))
    assert form.pfaffian() == 1
    assert form.is_contact()
    with pytest.raises(ValueError):
        AntisymmetricForm((0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        AntisymmetricForm({(2, 1): 1})
    with pytest.raises(ValueError):
        AntisymmetricForm((1, 2, 3))
    koszul = AntisymmetricForm.koszul((1, 3))
    assert koszul.coefficient((1, 3)) == 1
    assert not koszul.is_contact()


def _as_matrix(form):
    """The 4x4 antisymmetric matrix with A[i][j] = coefficient of
    kappa_ij for i < j."""
    a = [[Fraction(0)] * 4 for _ in range(4)]
    for (i, j), c in zip(P5_PAIRS, form.alpha):
        a[i - 1][j - 1] = c
        a[j - 1][i - 1] = -c
    return a


def _det4(a):
    """Exact 4x4 determinant by Laplace expansion."""

    def det3(rows, cols):
        (r0, r1, r2), (c0, c1, c2) = rows, cols
        return (
            a[r0][c0] * (a[r1][c1] * a[r2][c2] - a[r1][c2] * a[r2][c1])
            - a[r0][c1] * (a[r1][c0] * a[r2][c2] - a[r1][c2] * a[r2][c0])
            + a[r0][c2] * (a[r1][c0] * a[r2][c1] - a[r1][c1] * a[r2][c0])
        )

    total = Fraction(0)
    rows = (1, 2, 3)
    sign = 1
    for k in range(4):
        cols = tuple(c for c in range(4) if c != k)
        if a[0][k]:
            total += sign * a[0][k] * det3(rows, cols)
        sign = -sign
    return total


def test_pfaffian_squares_to_determinant():
    rng = random.Random(34)
    for _ in range(80):
        form = _random_form(rng, contact=False)
        assert form.pfaffian() ** 2 == _det4(_as_matrix(form))


def test_linear_forms_match_koszul_convention():
    a = AntisymmetricForm.koszul((1, 2)).linear_forms()
    assert a[0] == {2: 1}  # a_1 = x_2
    assert a[1] == {1: -1}  # a_2 = -x_1
    assert a[2] == {} and a[3] == {}
    a = AntisymmetricForm.koszul((2, 4)).linear_forms()
    assert a[1] == {4: 1} and a[3] == {2: -1}


def test_contraction_of_tangent_example():
    """x1^2 d/dx1 + x1x2 d/dx2 + x3x4 d/dx3 + x4^2 d/dx4 is tangent to
    x2 dx1 - x1 dx2 + x4 dx3 - x3 dx4."""
    form = AntisymmetricForm({(1, 2): 1, (3, 4): 1})
    field = [
        MonomialField(Fraction(1), (2, 0, 0, 0), 1),
        MonomialField(Fraction(1), (1, 1, 0, 0), 2),
        MonomialField(Fraction(1), (0, 0, 1, 1), 3),
        MonomialField(Fraction(1), (0, 0, 0, 2), 4),
    ]
    assert contract(form, field) == {}
    # swapping one coefficient breaks the cancellation
    broken = field[:3] + [MonomialField(Fraction(2), (0, 0, 0, 2), 4)]
    assert contract(form, broken) != {}


def test_contraction_raises_degree_by_one():
    rng = random.Random(56)
    monos = monomials_of_degree(2)
    for _ in range(30):
        form = _random_form(rng, contact=False)
        field = [
            MonomialField(Fraction(rng.randint(-3, 3)), rng.choice(monos),
                          rng.randint(1, 4))
            for _ in range(3)
        ]
        out = contract(form, field)
        assert all(sum(m) == 3 for m in out)


def test_contraction_is_bilinear_in_the_form():
    rng = random.Random(78)
    monos = monomials_of_degree(2)
    field = [
        MonomialField(Fraction(rng.randint(-3, 3)), rng.choice(monos),
                      rng.randint(1, 4))
        for _ in range(5)
    ]
    for _ in range(30):
        fa = _random_form(rng, contact=False)
        fb = _random_form(rng, contact=False)
        summed = [x + y for x, y in zip(fa.alpha, fb.alpha)]
        if not any(summed):
            continue
        fs = AntisymmetricForm(summed)
        ca, cb, cs = (
            contract(fa, field),
            contract(fb, field),
            contract(fs, field),
        )
        for m in set(ca) | set(cb) | set(cs):
            assert cs.get(m, 0) == ca.get(m, 0) + cb.get(m, 0)


def test_perturbed_form_matches_its_two_pieces():
    """The (c0, c1) entries of a perturbed contraction are the
    contractions against the base and complement Koszul forms."""
    rng = random.Random(90)
    monos = monomials_of_degree(2)
    for pair in P5_PAIRS:
        pf = PerturbedForm(pair)
        assert pf.perturb_pair == complementary_pair(pair)
        base = AntisymmetricForm.koszul(pair)
        pert = AntisymmetricForm.koszul(pf.perturb_pair)
        field = [
            MonomialField(Fraction(rng.randint(-3, 3)), rng.choice(monos),
                          rng.randint(1, 4))
            for _ in range(5)
        ]
        out = contract(pf, field)
        c0 = {m: v0 for m, (v0, v1) in out.items() if v0}
        c1 = {m: v1 for m, (v0, v1) in out.items() if v1}
        assert c0 == contract(base, field)
        assert c1 == contract(pert, field)


def test_perturbed_form_t_weight():
    assert PerturbedForm((1, 2)).t_weight(WEIGHTS) == (0 + 2) - (7 + 10)
    assert PerturbedForm((3, 4)).t_weight(WEIGHTS) == (7 + 10) - (0 + 2)
    for pair in P5_PAIRS:
        assert PerturbedForm(pair).t_weight(WEIGHTS) != 0
    with pytest.raises(ValueError):
        PerturbedForm((2, 1))


def test_phi_basis_dimensions_and_divergence():
    for d in range(1, 5):
        basis = build_phi_basis(d, WEIGHTS)
        assert len(basis) == phi_dimension(d)
        for f in basis:
            assert divergence(f) == {}


def test_phi_basis_weights_are_homogeneous_and_sorted():
    for d in (1, 2, 3):
        basis = build_phi_basis(d, WEIGHTS)
        weights = [f.weight for f in basis]
        assert weights == sorted(weights)
        for f in basis:
            for term in f.terms:
                assert field_weight(term, WEIGHTS) == f.weight


def test_phi_basis_is_linearly_independent():
    d = 2
    basis = build_phi_basis(d, WEIGHTS)
    monos = monomials_of_degree(d)
    index = {}
    for j in (1, 2, 3, 4):
        for m in monos:
            index[(m, j)] = len(index)
    rows = []
    for f in basis:
        row = [0] * len(index)
        for coeff, m, j in scaled_terms(f):
            row[index[(m, j)]] = coeff
        rows.append(row)
    from foldeg.linalg import rank

    assert rank(rows, len(index)) == len(basis)


def test_phi_basis_validates_input():
    with pytest.raises(ValueError):
        build_phi_basis(0, WEIGHTS)
    from foldeg.exact import InadmissibleWeights

    with pytest.raises(InadmissibleWeights):
        build_phi_basis(2, (0, 1, 2, 3))


def test_tangent_kernel_dimension_contact_law():
    """Contact forms all give the same kernel dimension
    (d+4)(d+2)d/3; a decomposable form gives strictly more."""
    rng = random.Random(7)
    for d in (1, 2, 3):
        for _ in range(3):
            form = _random_form(rng, contact=True)
            assert tangent_kernel_dimension(form, d, WEIGHTS) == (
                contact_kernel_dimension(d)
            )
    assert (
        tangent_kernel_dimension(AntisymmetricForm.koszul((1, 2)), 2, WEIGHTS)
        > contact_kernel_dimension(2)
    )
    # non-integral coefficients: kappa_12/3 + kappa_34/2 is contact
    halves = AntisymmetricForm({(1, 2): Fraction(1, 3), (3, 4): Fraction(1, 2)})
    assert tangent_kernel_dimension(halves, 2, WEIGHTS) == (
        contact_kernel_dimension(2)
    )


def test_basis_field_render():
    basis = build_phi_basis(1, WEIGHTS)
    text = basis[0].render()
    assert "d/dx" in text
    rendered = {f.render() for f in basis}
    assert len(rendered) == len(basis)


ORACLE_SYSTEMS = ((0, 2, 7, 10), (0, 1, 5, 16), (0, 3, 10, 16), (1, 3, 9, 20))


def _rref_phi_basis(d, weights):
    """The basis as elimination builds it: monomial fields taken
    direction-major, grouped by numeric weight, each group's divergence
    kernel in reduced echelon form with +1 pivots, groups ascending."""
    w = WeightSystem(weights)
    groups = {}
    for j in (1, 2, 3, 4):
        for m in monomials_of_degree(d):
            wt = monomial_weight(m, w) - w.weight(j)
            groups.setdefault(wt, []).append((m, j))
    fields = []
    for wt in sorted(groups):
        block = groups[wt]
        rows = [m for m in monomials_of_degree(d - 1)
                if monomial_weight(m, w) == wt]
        rowindex = {m: i for i, m in enumerate(rows)}
        mat = [[0] * len(block) for _ in rows]
        for c, (m, j) in enumerate(block):
            if m[j - 1]:
                lowered = tuple(e - (k == j - 1) for k, e in enumerate(m))
                mat[rowindex[lowered]][c] = m[j - 1]
        for vec in kernel_basis(mat, len(block)):
            terms = tuple(
                MonomialField(coeff, m, j)
                for coeff, (m, j) in zip(vec, block)
                if coeff
            )
            fields.append((terms, wt))
    return fields


@pytest.mark.parametrize("weights", ORACLE_SYSTEMS)
def test_closed_form_basis_matches_rref_oracle(weights):
    """Field for field, coefficient for coefficient and weight for
    weight, the closed form is the echelon basis."""
    for d in range(1, 10):
        got = [(f.terms, f.weight) for f in build_phi_basis(d, weights)]
        want = _rref_phi_basis(d, weights)
        assert got == want
        assert all(
            type(c) is Fraction for terms, _ in got for c, _, _ in terms
        )
