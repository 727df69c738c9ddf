"""Tests for fields, antisymmetric forms, contraction, and the basis."""

import operator
import pickle
import random
import re
from collections import Counter
from fractions import Fraction
from math import comb, gcd, lcm

import pytest

from foldeg import bott, fields, forms, limits
from foldeg.bott import legendrian_degree
from foldeg.exact import WeightSystem, character_weights, monomials_of_degree
from foldeg.fields import (
    P5_PAIRS,
    _phi_basis_cached,
    build_phi_basis,
    complementary_pair,
    contact_kernel_dimension,
    phi_dimension,
    tangent_kernel_dimension,
)
from foldeg.forms import AntisymmetricForm, MonomialField, contract
from foldeg.limits import METHOD_BOTH, METHOD_KERNEL
from foldeg.matrices import (
    build_contraction_matrix,
    echelon,
    integer_contraction,
    rank,
    scaled_terms,
)
from foldeg.polyfit import family_closed_form
from oracles import (
    character_weight,
    closed_form_characters,
    divergence,
    kernel_dimension_by_rank,
    rref_phi_basis,
    weight_ordered_basis,
)

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


def test_a_form_is_a_record():
    """AntisymmetricForm is a namedtuple record that validates in
    __new__: its alpha cannot be reassigned, so a form kept in a set is
    found there, and its repr and error messages are as before."""
    form = AntisymmetricForm({(1, 2): 1, (3, 4): Fraction(-1, 2)})
    held = {form}
    with pytest.raises(AttributeError):
        form.alpha = (1, 0, 0, 0, 0, 0)
    assert form in held and form.alpha == (1, 0, 0, 0, 0, Fraction(-1, 2))
    assert repr(form) == "AntisymmetricForm({(1,2): 1, (3,4): -1/2})"
    assert form == (form.alpha,)
    with pytest.raises(ValueError, match="^the zero form is not allowed$"):
        AntisymmetricForm((0,) * 6)
    with pytest.raises(ValueError, match=re.escape("unknown pairs [(2, 1)]")):
        AntisymmetricForm({(2, 1): 1})
    with pytest.raises(ValueError, match="^need 6 coefficients$"):
        AntisymmetricForm((1, 2, 3))
    assert not {"__init__", "__eq__", "__hash__"} & set(vars(AntisymmetricForm))


def test_make_and_replace_check_a_form():
    """namedtuple's _make, and _replace through it, go through __new__:
    they refuse what the constructor refuses and convert what it
    converts, and a valid _replace and pickling still give forms."""
    form = AntisymmetricForm.koszul((1, 2))
    with pytest.raises(ValueError, match="^the zero form is not allowed$"):
        AntisymmetricForm._make([(0,) * 6])
    with pytest.raises(ValueError, match="^the zero form is not allowed$"):
        form._replace(alpha=(0,) * 6)
    with pytest.raises(ValueError, match="^need 6 coefficients$"):
        form._replace(alpha=(1, 2))
    assert AntisymmetricForm._make([{(1, 2): 1}]) == form
    moved = form._replace(alpha=(0, 0, 0, 0, 0, 1))
    assert type(moved) is AntisymmetricForm
    assert moved == AntisymmetricForm.koszul((3, 4))
    assert all(type(c) is Fraction for c in moved.alpha)
    assert pickle.loads(pickle.dumps(moved)) == moved


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


def test_contraction_refuses_a_field_of_mixed_degrees():
    """A field is homogeneous: one whose monomials have two degrees is
    refused, not contracted term by term."""
    form = AntisymmetricForm({(1, 2): 1, (3, 4): 1})
    field = [MonomialField(Fraction(1), (2, 0, 0, 0), 1),
             MonomialField(Fraction(1), (0, 0, 1, 0), 3)]
    with pytest.raises(ValueError, match="field mixes monomial degrees"):
        contract(form, field)
    assert contract(form, field[:1]) == {(2, 1, 0, 0): 1}


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


def test_path_contraction_matches_its_two_pieces():
    """The (c0, c1) entries of the path's contraction are the Fraction
    contractions against kappa_ij and kappa_kl, paired up and scaled by
    each field's denominator, d = 1..4."""
    for d in (1, 2, 3, 4):
        basis = build_phi_basis(d)
        rows = monomials_of_degree(d + 1)
        for pair in P5_PAIRS:
            base = AntisymmetricForm.koszul(pair)
            pert = AntisymmetricForm.koszul(complementary_pair(pair))
            want = {}
            for c, f in enumerate(basis):
                scale = lcm(*(t.coefficient.denominator for t in f.terms))
                c0, c1 = contract(base, f), contract(pert, f)
                for m in set(c0) | set(c1):
                    want[(rows.index(m), c)] = (
                        c0.get(m, 0) * scale, c1.get(m, 0) * scale
                    )
            assert build_contraction_matrix(pair, d, basis).entries == want


def test_path_t_weight():
    """t carries the weight s_ij - s_kl: a t^0 entry of the path's
    contraction sits s_ij above its column's weight and a t^1 entry
    s_kl above, and s_ij != s_kl at every pair of an admissible
    system."""
    w = WeightSystem(WEIGHTS)
    assert w.pair_sum((1, 2)) - w.pair_sum((3, 4)) == (0 + 2) - (7 + 10)
    basis = build_phi_basis(2)
    rows = monomials_of_degree(3)
    for pair in P5_PAIRS:
        comp = complementary_pair(pair)
        assert w.pair_sum(pair) != w.pair_sum(comp)
        matrix = build_contraction_matrix(pair, 2, basis).entries
        for (r, c), (c0, c1) in matrix.items():
            assert not (c0 and c1)
            shift = (character_weight(rows[r], w)
                     - character_weight(basis[c].character, w))
            assert shift == w.pair_sum(pair if c0 else comp)
    with pytest.raises(ValueError):
        build_contraction_matrix((2, 1), 2, basis)


def test_phi_basis_dimensions_and_divergence():
    for d in range(1, 5):
        basis = build_phi_basis(d)
        assert len(basis) == phi_dimension(d)
        for f in basis:
            assert divergence(f) == {}


def test_phi_basis_weights_are_homogeneous_and_sorted():
    """Every term of a field has the weight of its character, and the
    fields come in generation order: the graded-lex position of the
    leading monomial, then the direction."""
    w = WeightSystem(WEIGHTS)
    for d in (1, 2, 3):
        basis = build_phi_basis(d)
        position = {m: k for k, m in enumerate(monomials_of_degree(d))}
        keys = [(position[f.terms[0].monomial], f.terms[0].direction)
                for f in basis]
        assert keys == sorted(keys)
        for f in basis:
            weight = character_weight(f.character, w)
            for _, mono, j in f.terms:
                assert character_weight(mono, w) - w.weight(j) == weight


def test_phi_basis_fields_carry_their_character():
    """Every term of a basis field has the character mu - e_j of the
    leading term, and the basis weights are those characters evaluated."""
    for d in (1, 2, 3):
        basis = build_phi_basis(d)
        for f in basis:
            for _, mono, j in f.terms:
                chi = list(mono)
                chi[j - 1] -= 1
                assert tuple(chi) == f.character
        assert character_weights(
            basis.characters.elements(), WEIGHTS) == tuple(sorted(
                sum(c * w for c, w in zip(f.character, WEIGHTS))
                for f in basis))


def test_phi_basis_is_linearly_independent():
    d = 2
    basis = build_phi_basis(d)
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
    assert rank(rows, len(index)) == len(basis)


def test_phi_basis_validates_input():
    with pytest.raises(ValueError):
        build_phi_basis(0)


@pytest.mark.parametrize("d", [2.5, Fraction(2), "2"],
                         ids=["float", "fraction", "str"])
def test_phi_basis_refuses_a_degree_that_is_no_int(d):
    """A degree that is no int raises TypeError at the call, and the
    basis cache is left as it was."""
    _phi_basis_cached.cache_clear()
    build_phi_basis(3)
    before = _phi_basis_cached.cache_info()
    with pytest.raises(TypeError):
        build_phi_basis(d)
    assert _phi_basis_cached.cache_info() == before
    assert len(build_phi_basis(3)) == phi_dimension(3)
    _phi_basis_cached.cache_clear()


def test_phi_basis_cache_keeps_one_entry():
    """The basis cache holds one degree: the twelve requests of
    each "both" degree hit it after one build, and the next degree
    replaces it."""
    _phi_basis_cached.cache_clear()
    legendrian_degree(2, method="both")
    legendrian_degree(3, method="both")
    info = _phi_basis_cached.cache_info()
    assert info.misses == 2
    assert info.currsize == 1


def test_phi_basis_size_guard_raises(monkeypatch):
    """A basis whose written fields are not dim Phi_d in number is
    refused when its characters are first read, which writes them."""
    monkeypatch.setattr(fields, "phi_dimension", lambda d: 0)
    _phi_basis_cached.cache_clear()
    with pytest.raises(ArithmeticError, match="basis size"):
        build_phi_basis(2).characters
    _phi_basis_cached.cache_clear()


def test_written_fields_of_the_wrong_size_raise(monkeypatch):
    """The counts pass the size guard, but a written field list one short
    is refused when the fields are first read."""
    real = forms._write_fields
    monkeypatch.setattr(forms, "_write_fields", lambda d: real(d)[:-1])
    _phi_basis_cached.cache_clear()
    basis = build_phi_basis(2)
    assert len(basis) == phi_dimension(2)
    with pytest.raises(ArithmeticError, match="basis size 35 != 36 for d=2"):
        list(basis)
    _phi_basis_cached.cache_clear()


class _Written(Exception):
    """Raised by a field writer that must not be called."""


def _refuse(d):
    raise _Written(d)


def test_closed_form_counts_equal_the_written_fields():
    """The characters counted in closed form (closed_form_characters)
    are the basis's characters and those of its written fields, with
    their weights, and add up to len, dim Phi_d, d = 1..15."""
    for d in range(1, 16):
        _phi_basis_cached.cache_clear()
        basis = build_phi_basis(d)
        counts = closed_form_characters(d)
        assert counts == basis.characters == Counter(
            f.character for f in basis.fields)
        assert character_weights(counts.elements(), WEIGHTS) == tuple(sorted(
            character_weight(f.character, WEIGHTS) for f in basis))
        assert counts.total() == len(basis.fields) == len(basis) == (
            phi_dimension(d))
    _phi_basis_cached.cache_clear()


@pytest.mark.parametrize("method", [METHOD_BOTH, METHOD_KERNEL])
def test_limit_routes_write_no_field(monkeypatch, method):
    """From cold caches, the direct limit routes take the basis size
    from its counts and never write a field, d = 2..6, and neither does
    the tangency kernel; iterating the basis still writes them."""
    monkeypatch.setattr(forms, "_write_fields", _refuse)
    for d in range(2, 7):
        _phi_basis_cached.cache_clear()
        limits._pair_chains.cache_clear()
        bott._fixed_points.cache_clear()
        bott._both_checked.clear()
        report = legendrian_degree(d, method=method)
        assert report.degree == family_closed_form("legendrian", d)
    assert tangent_kernel_dimension(AntisymmetricForm.koszul((1, 2)), 3) == 40
    with pytest.raises(_Written):
        list(build_phi_basis(4))
    _phi_basis_cached.cache_clear()


def test_the_degree_path_counts_no_character(monkeypatch):
    """The degree path reads only the basis's length, dim Phi_d: with the
    per-character count refusing every call, "both" at d = 2..4 and the
    kernel route at d = 3 answer from cold caches, and the basis of every
    d = 1..40 is dim Phi_d long."""
    def refused(basis):
        raise AssertionError("characters counted at d=%d" % basis.d)

    monkeypatch.setattr(fields.SectionBasis, "characters", property(refused))
    for d, method in ((2, METHOD_BOTH), (3, METHOD_BOTH), (4, METHOD_BOTH),
                      (3, METHOD_KERNEL)):
        _phi_basis_cached.cache_clear()
        limits._pair_chains.cache_clear()
        bott._fixed_points.cache_clear()
        bott._both_checked.clear()
        report = legendrian_degree(d, method=method)
        assert report.degree == family_closed_form("legendrian", d)
    for d in range(1, 41):
        assert len(build_phi_basis(d)) == phi_dimension(d)
    _phi_basis_cached.cache_clear()


def test_tangent_kernel_dimension_contact_law():
    """Contact forms all give the same kernel dimension
    (d+4)(d+2)d/3, as the rank oracle does; a decomposable form gives
    strictly more."""
    rng = random.Random(7)
    for d in (1, 2, 3):
        for _ in range(3):
            form = _random_form(rng, contact=True)
            assert tangent_kernel_dimension(form, d) == (
                kernel_dimension_by_rank(form, d)
            ) == contact_kernel_dimension(d)
    assert (
        tangent_kernel_dimension(AntisymmetricForm.koszul((1, 2)), 2)
        > contact_kernel_dimension(2)
    )
    # non-integral coefficients: kappa_12/3 + kappa_34/2 is contact
    halves = AntisymmetricForm({(1, 2): Fraction(1, 3), (3, 4): Fraction(1, 2)})
    assert tangent_kernel_dimension(halves, 2) == (
        kernel_dimension_by_rank(halves, 2)
    ) == contact_kernel_dimension(2)


def _decomposable_form(rng):
    """A random nonzero decomposable form l_1 ^ l_2, alpha_ij =
    a_i b_j - a_j b_i for seeded integer linear forms a and b."""
    while True:
        a = [rng.randint(-3, 3) for _ in range(4)]
        b = [rng.randint(-3, 3) for _ in range(4)]
        alpha = [a[i - 1] * b[j - 1] - a[j - 1] * b[i - 1] for i, j in P5_PAIRS]
        if any(alpha):
            return AntisymmetricForm(alpha)


def test_tangent_kernel_dimension_equals_the_rank_oracle():
    """The closed form equals dim Phi_d less the rank of the dense
    contraction matrix, d = 1..4, on 24 decomposable forms l_1 ^ l_2 and
    24 random ones, a third of those with Fraction coefficients."""
    rng = random.Random(56)
    sample = [_decomposable_form(rng) for _ in range(24)]
    for k in range(24):
        form = _random_form(rng, contact=False)
        if k % 3 == 0:
            form = AntisymmetricForm(
                [Fraction(a, rng.randint(1, 6)) for a in form.alpha])
        sample.append(form)
    assert sum(form.is_contact() for form in sample) >= 20
    for d in (1, 2, 3, 4):
        for form in sample:
            assert tangent_kernel_dimension(form, d) == (
                kernel_dimension_by_rank(form, d)), (form, d)


def test_tangent_kernel_dimension_writes_no_field_at_any_degree(monkeypatch):
    """At d = 200 the kernel dimension comes without a basis: the field
    writer refuses every call and the basis cache sees no request."""
    monkeypatch.setattr(forms, "_write_fields", _refuse)
    before = _phi_basis_cached.cache_info()
    contact = AntisymmetricForm({(1, 2): 1, (3, 4): 1})
    assert tangent_kernel_dimension(contact, 200) == 204 * 202 * 200 // 3
    assert tangent_kernel_dimension(AntisymmetricForm.koszul((1, 3)), 200) == (
        phi_dimension(200) - comb(204, 3) + 202)
    assert _phi_basis_cached.cache_info() == before


@pytest.mark.parametrize("d, error", [(0, ValueError), (-1, ValueError),
                                      (2.0, TypeError)])
def test_tangent_kernel_dimension_refuses_a_bad_degree(d, error):
    with pytest.raises(error):
        tangent_kernel_dimension(AntisymmetricForm.koszul((1, 2)), d)


def _pencil_kernel_dimension(d):
    """The tangency-kernel rank at a decomposable form: the contraction
    reaches the C(d+4,3) - (d+2) degree-(d+1) monomials outside the two
    variables it leaves alone, so phi_dimension(d) - C(d+4,3) + d + 2,
    which is contact_kernel_dimension(d) + d + 2."""
    return phi_dimension(d) - comb(d + 4, 3) + d + 2


def _integer_kernel(rows, ncols):
    """An integer basis of the right kernel of an integer matrix, from one
    linalg.echelon: per free column, that column set to 1 and the pivot
    columns solved bottom-up, x scaled so that each pivot divides."""
    ech, pivots = echelon(rows, ncols)
    kernel = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        x = [0] * ncols
        x[free] = 1
        for row, c in zip(reversed(ech), reversed(pivots)):
            s = sum(row[j] * x[j] for j in range(c + 1, ncols))
            g = gcd(row[c], s)
            x = [v * (row[c] // g) for v in x]
            x[c] = -s // g
        g = gcd(*x)
        kernel.append([v // g for v in x])
    return kernel


def _tangent_field(rng, form, basis, kernel_dimension):
    """A random integer field tangent to an integer form, as terms: an
    integer combination of an integer kernel basis of the form's scaled
    integer contraction, whose rank must be kernel_dimension, with the
    scaled_terms factors of its columns."""
    n = len(basis)
    mat = [[0] * n for _ in monomials_of_degree(basis.d + 1)]
    for (r, c), v in integer_contraction(form, basis).items():
        mat[r][c] = v
    kernel = _integer_kernel(mat, n)
    assert len(kernel) == kernel_dimension
    assert not any(sum(map(operator.mul, row, v)) for row in mat for v in kernel)
    a = [rng.randint(-3, 3) for _ in kernel]
    x = [sum(b * v[c] for b, v in zip(a, kernel)) for c in range(n)]
    return [MonomialField(e * coeff, mono, j)
            for e, f in zip(x, basis) if e
            for coeff, mono, j in scaled_terms(f)]


def _annihilating_forms(form, phi):
    """6 less the rank of the six contractions kappa_ij(phi): the
    dimension of the forms that annihilate phi, form among them."""
    values = [contract(AntisymmetricForm.koszul(pair), phi)
              for pair in P5_PAIRS]
    monos = sorted(set().union(*values))
    rows = [[int(v.get(m, 0)) for m in monos] for v in values]
    assert all(sum(a * row[k] for a, row in zip(form.alpha, rows)) == 0
               for k in range(len(monos)))
    return 6 - rank(rows, len(monos))


@pytest.mark.parametrize("d, forms", (
    (1, 2), (2, 1), (3, 1), (4, 1), (5, 1),
))
def test_forms_that_annihilate_a_tangent_field(d, forms):
    """The Legendrian fiber of forms: the forms that annihilate a field
    tangent to a contact form.  At d = 1 the six contractions
    kappa_ij(phi) have rank 4, so they make a 2-dimensional space, a
    pencil (the Bott sum at d = 1 is 0); from d = 2 on rank 5, one form
    up to scale, as generic injectivity needs."""
    rng = random.Random(5)
    basis = build_phi_basis(d)
    for _ in range(3):
        form = _random_form(rng)
        phi = _tangent_field(rng, form, basis, contact_kernel_dimension(d))
        assert phi and not contract(form, phi)
        assert _annihilating_forms(form, phi) == forms


@pytest.mark.parametrize("d, kernel", (
    (2, 20), (3, 40), (4, 70), (5, 112),
))
def test_forms_that_annihilate_a_field_tangent_to_a_pencil(d, kernel):
    """The pencil fiber of forms: at a decomposable form l_1 ^ l_2, a
    point of G(2,4), the scaled integer contraction has kernel rank
    phi_dimension(d) - C(d+4,3) + d + 2, and a random integer field in
    that kernel is annihilated by one form up to scale (the six
    kappa_ij(phi) have rank 5), so the pencil map is generically
    injective."""
    assert _pencil_kernel_dimension(d) == kernel
    rng = random.Random(11)
    basis = build_phi_basis(d)
    for _ in range(3):
        form = _decomposable_form(rng)
        assert form.pfaffian() == 0
        phi = _tangent_field(rng, form, basis, kernel)
        assert phi and not contract(form, phi)
        assert _annihilating_forms(form, phi) == 1


@pytest.mark.parametrize("d", (2, 3))
def test_family_dimensions(d):
    """The dimensions in the README: 5 + K_d - 1 = 4 + (d+4)(d+2)d/3 for
    the Legendrian family over the P^5 of forms, 4 + K'_d - 1 = 3 + K'_d
    for the pencil family over G(2,4), with K_d and K'_d the kernel
    dimensions of seeded contact and decomposable forms, by the rank
    oracle and by tangent_kernel_dimension."""
    rng = random.Random(17 + d)

    def kernel(form):
        assert tangent_kernel_dimension(form, d) == (
            kernel_dimension_by_rank(form, d))
        return kernel_dimension_by_rank(form, d)

    legendrian = {5 + kernel(_random_form(rng)) - 1 for _ in range(3)}
    pencil = {4 + kernel(_decomposable_form(rng)) - 1 for _ in range(3)}
    assert legendrian == {4 + (d + 4) * (d + 2) * d // 3}
    assert pencil == {3 + _pencil_kernel_dimension(d)}


def test_integer_contraction_refuses_non_integer_coefficients():
    """integer_contraction takes a form with integer coefficients only;
    the same form scaled by 6 is contracted, and each entry is the
    Fraction contraction times 6 and the column's denominator."""
    basis = build_phi_basis(2)
    halves = AntisymmetricForm({(1, 2): Fraction(1, 3), (3, 4): Fraction(1, 2)})
    with pytest.raises(ValueError, match="integer coefficients"):
        integer_contraction(halves, basis)
    scaled = AntisymmetricForm([6 * c for c in halves.alpha])
    rows = monomials_of_degree(3)
    want = {}
    for c, f in enumerate(basis):
        scale = lcm(*(t.coefficient.denominator for t in f.terms))
        for m, v in contract(halves, f).items():
            want[(rows.index(m), c)] = v * 6 * scale
    got = integer_contraction(scaled, basis)
    assert got == want
    assert all(type(v) is int for v in got.values())


def test_basis_field_render():
    basis = build_phi_basis(1)
    text = basis[0].render()
    assert "d/dx" in text
    rendered = {f.render() for f in basis}
    assert len(rendered) == len(basis)
    assert repr(build_phi_basis(2)[0]) == (
        "BasisField(x1^2*d/dx1 - 2*x1*x4*d/dx4; character=(1, 0, 0, 0))"
    )


ORACLE_SYSTEMS = ((0, 2, 7, 10), (0, 1, 5, 16), (0, 3, 10, 16), (1, 3, 9, 20))


@pytest.mark.parametrize("weights", ORACLE_SYSTEMS)
def test_closed_form_basis_matches_rref_oracle(weights):
    """Field for field, coefficient for coefficient and weight for
    weight, the closed form, put in the echelon basis's order by the
    weights of its characters, is the echelon basis."""
    for d in range(1, 10):
        got = [(f.terms, character_weight(f.character, weights))
               for f in weight_ordered_basis(d, weights)]
        want = rref_phi_basis(d, weights)
        assert got == want
        assert all(
            type(c) is Fraction for terms, _ in got for c, _, _ in terms
        )
