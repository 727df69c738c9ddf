"""The explicit matrices: the written Phi_d basis, the global contraction
and dense elimination over Z and Q.

foldeg computes its degrees from closed-form tables and torus chains,
and none of that writes a field or assembles a matrix.  This module
holds the explicit form of the same data, which the tests use as the
oracle of the closed forms:

* echelon, rank, rref and kernel_basis: dense exact elimination, the
  integer one fraction-free, the Fraction one reduced;
* _write_fields: the Fraction fields of build_phi_basis(d), each
  written from the formula that fields.build_phi_basis documents
  (SectionBasis.fields);
* scaled_terms and integer_contraction: the contraction of a whole
  basis with an integer form, over Z; forms.contract is its Fraction
  oracle, one field at a time;
* ContractionMatrix and build_contraction_matrix: the global contraction
  along the path omega_t = kappa_pq + t * kappa_kl, whose union-find
  blocks are the chains of foldeg.limits;
* tangent_kernel_dimension: dim Phi_d less the rank of the contraction
  with one form.

The closed-form image fiber of foldeg.bott written out as its list of
characters, which bott.closed_form_counts counts one character at a
time, is an oracle in tests/oracles.py.

No module that `import foldeg` loads imports this one, so a cold start
compiles neither it nor foldeg.forms, whose fields and forms it writes.  The names that stand for it elsewhere import it on
their first call: fields.tangent_kernel_dimension (public) and
SectionBasis.fields, and, only because perfbench/tracing.py hooks them,
linalg.rank, linalg.kernel_basis and limits.build_contraction_matrix.

>>> rank([[1, 2], [2, 4]], 2)
1
>>> build_contraction_matrix((1, 2), 2, build_phi_basis(2))
ContractionMatrix(fp=(1, 2), d=2, shape=(20, 36), 44 entries)
"""

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .exact import monomials_of_degree
from .fields import as_fixed_point, build_phi_basis, complementary_pair
from .forms import AntisymmetricForm, BasisField, MonomialField, _bump, _lower


def echelon(rows, ncols):
    """Fraction-free integer row echelon form.

    rows: sequence of integer rows (not modified).  Returns
    (echelon_rows, pivot_columns); the rank is len(pivot_columns).

    Pivot choice is deterministic: leftmost column first; among candidate
    rows, the entry with the smallest bit length wins (keeps the integers
    small), ties going to the lowest row index.  After each elimination
    the row is divided by the gcd of its entries.
    """
    mat = [list(r) for r in rows]
    nrows = len(mat)
    pivots = []
    rank_ = 0
    for col in range(ncols):
        best = -1
        best_key = 0
        for r in range(rank_, nrows):
            e = mat[r][col]
            if e:
                key = abs(e).bit_length()
                if best < 0 or key < best_key:
                    best, best_key = r, key
        if best < 0:
            continue
        prow = mat[best]
        mat[best], mat[rank_] = mat[rank_], prow
        p = prow[col]
        rank_ += 1
        for row in mat[rank_:]:
            e = row[col]
            if not e:
                continue
            row[col] = 0
            g = 0
            for c in range(col + 1, ncols):
                v = p * row[c] - e * prow[c]
                row[c] = v
                if g != 1:
                    g = gcd(g, v)
            if g > 1:
                for c in range(col + 1, ncols):
                    row[c] //= g
        pivots.append(col)
    return mat[:rank_], pivots


def rank(rows, ncols):
    """Rank of an integer matrix."""
    return len(echelon(rows, ncols)[1])


def rref(rows):
    """Reduced row echelon form over Q.

    Returns (reduced_rows, pivot_columns) where reduced_rows contains the
    nonzero rows only, each with pivot entry 1 and zeros above and below
    its pivot.
    """
    mat = [[Fraction(e) for e in row] for row in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    rk = 0
    for col in range(ncols):
        piv = -1
        for r in range(rk, len(mat)):
            if mat[r][col]:
                piv = r
                break
        if piv < 0:
            continue
        mat[rk], mat[piv] = mat[piv], mat[rk]
        prow = mat[rk]
        inv = Fraction(1) / prow[col]
        for c in range(col, ncols):
            prow[c] *= inv
        for r in range(len(mat)):
            if r != rk and mat[r][col]:
                f = mat[r][col]
                row = mat[r]
                for c in range(col, ncols):
                    row[c] -= f * prow[c]
        pivots.append(col)
        rk += 1
        if rk == len(mat):
            break
    return mat[:rk], pivots


def kernel_basis(rows, ncols):
    """Basis of the right kernel of a matrix over Q.

    The result is canonical: the kernel vectors themselves are put in
    reduced row echelon form, so every vector has a +1 pivot entry.
    """
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    vecs = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -red[i][f]
        vecs.append(v)
    if not vecs:
        return []
    canon, _ = rref(vecs)
    return canon


def _write_fields(d):
    """The fields of build_phi_basis(d), as it documents them."""
    fields = []
    for mu in monomials_of_degree(d):
        for j in (1, 2, 3, 4):
            e = mu[j - 1]
            if j == 4 and e:
                continue
            terms = (MonomialField(Fraction(1), mu, j),)
            if e:
                terms += (MonomialField(Fraction(-e, mu[3] + 1),
                                        _bump(_lower(mu, j), 4), 4),)
            fields.append(BasisField(terms))
    return fields


def scaled_terms(field):
    """The terms of a basis field times the common denominator of its
    coefficients (mu_4+1 or a divisor of it), as (int coefficient,
    monomial, direction).  Scaling a column by a positive constant
    changes neither a rank nor which entries vanish."""
    terms = field.terms
    den = lcm(*[c.denominator for c, _, _ in terms])
    return [(c.numerator * (den // c.denominator), mono, j)
            for c, mono, j in terms]


def integer_contraction(form, basis):
    """Sparse integer matrix of phi -> contract(form, phi) on a basis.

    The form's coefficients must be integers (ValueError otherwise).
    Rows are the degree-(d+1) monomials in graded-lex order, columns the
    basis fields, each field scaled by scaled_terms.  Returns
    {(row, column): int} for the nonzero entries.
    """
    if any(c.denominator != 1 for c in form.alpha):
        raise ValueError("contraction needs integer coefficients: %r"
                         % (form,))
    a = [[(var, int(c)) for var, c in lf.items()]
         for lf in form.linear_forms()]
    mindex = {m: i for i, m in enumerate(monomials_of_degree(basis.d + 1))}
    # row of x^mu * x_var, looked up as raised[mu][var - 1]
    raised = {
        m: [mindex[_bump(m, var)] for var in (1, 2, 3, 4)]
        for m in monomials_of_degree(basis.d)
    }
    entries = {}
    for col, field in enumerate(basis):
        for coeff, mono, j in scaled_terms(field):
            up = raised[mono]
            for var, c in a[j - 1]:
                key = (up[var - 1], col)
                entries[key] = entries.get(key, 0) + coeff * c
    return {k: v for k, v in entries.items() if v}


def tangent_kernel_dimension(form, d):
    """Dimension of the fields in Phi_d tangent to the given form.

    Computed as dim Phi_d minus the exact rank of the contraction matrix,
    the form's coefficients scaled by their common denominator.
    """
    basis = build_phi_basis(d)
    den = lcm(*(c.denominator for c in form.alpha))
    scaled = AntisymmetricForm([c * den for c in form.alpha])
    mat = [[0] * len(basis) for _ in monomials_of_degree(d + 1)]
    for (r, c), v in integer_contraction(scaled, basis).items():
        mat[r][c] = v
    return len(basis) - rank(mat, len(basis))


class ContractionMatrix(namedtuple(
    "ContractionMatrix", "fp d basis row_monomials entries"
)):
    """Contraction of omega_t against a field basis, rows indexed by the
    degree-(d+1) monomials, columns by the basis fields; entries are int
    pairs (c0, c1) for c0 + c1*t, c0 from kappa_pq and c1 from kappa_kl,
    each column scaled by its field's denominator (see
    integer_contraction)."""

    __slots__ = ()

    @property
    def shape(self):
        return (len(self.row_monomials), len(self.basis))

    def __repr__(self):
        return "ContractionMatrix(fp=%r, d=%d, shape=%r, %d entries)" % (
            self.fp, self.d, self.shape, len(self.entries)
        )


def build_contraction_matrix(fp, d, basis):
    """Assemble the sparse matrix of phi -> contract(omega_t, phi),
    omega_t = kappa_pq + t*kappa_kl at fp = (p, q), from the integer
    contractions of its two Koszul forms."""
    fp = as_fixed_point(fp)
    if basis.d != d:
        raise ValueError(
            "basis is for degree %d, not %d" % (basis.d, d)
        )
    low, high = (integer_contraction(AntisymmetricForm.koszul(pair), basis)
                 for pair in (fp, complementary_pair(fp)))
    entries = {rc: (low.get(rc, 0), high.get(rc, 0))
               for rc in {**low, **high}}
    return ContractionMatrix(
        fp, d, basis, monomials_of_degree(d + 1), entries
    )

