"""Polynomial vector fields on P^3, antisymmetric forms, and contraction.

Phi_d is the space of degree-d polynomial vector fields sum c*mu*d/dx_j
with identically zero divergence; it has dimension (d+4)(d+2)(d+1)/2 and
models the global vector fields of the plane-field geometry twisted so
that coefficients are degree-d forms.  The monomial field mu*d/dx_j has
the Z^4 character mu - e_j, and divergence preserves characters: for
each character chi the divergence is a single row x^chi with
coefficients mu_j.  Its kernel has a closed form, so the basis is written
down directly; a torus with coordinate weights w_1..w_4 then gives each
field the numeric weight wt(mu) - w_j.

An antisymmetric form is written in the Koszul coordinates kappa_ij
(kappa_12 has components (x_2, -x_1, 0, 0), etc.); contraction with a
field multiplies components and sums, landing in degree d+1: over Q for
one field (contract), or over Z[t] for a whole basis from the integer
linear forms of the path kappa_ij + t*kappa_kl (integer_contraction,
path_linear_forms).
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .exact import (
    DEFAULT_WEIGHTS,
    WeightMultiset,
    WeightSystem,
    as_weight_system,
    monomial_string,
    monomial_weight,
    monomials_of_degree,
    scalar_to_string,
    signed_sum,
)
from .linalg import rank
# Not called here: the basis has a closed form.  The name stays because
# perfbench/tracing.py hooks foldeg.fields.kernel_basis.
from .linalg import kernel_basis  # noqa: F401

P5_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def as_fixed_point(pair):
    """A torus-fixed point, validated: an index pair from P5_PAIRS.  The
    same six pairs name the fixed forms [kappa_ij] of the form space and
    the fixed pencils <x_i, x_j> of G(2,4).

    >>> as_fixed_point([2, 3])
    (2, 3)
    """
    pair = tuple(pair)
    if pair not in P5_PAIRS:
        raise ValueError("not a fixed-point pair: %r" % (pair,))
    return pair


def complementary_pair(pair):
    """The other two indices, e.g. (1, 3) -> (2, 4)."""
    i, j = pair
    return tuple(k for k in (1, 2, 3, 4) if k != i and k != j)


def phi_dimension(d):
    """dim Phi_d = (d+4)(d+2)(d+1)/2."""
    return (d + 4) * (d + 2) * (d + 1) // 2


def contact_kernel_dimension(d):
    """Tangency-kernel dimension (d+4)(d+2)d/3 at any contact form."""
    return (d + 4) * (d + 2) * d // 3


MonomialField = namedtuple("MonomialField", "coefficient monomial direction")
MonomialField.__doc__ = (
    "One term c * mu * d/dx_j of a polynomial field "
    "(direction j is 1-based)."
)


def _lower(mono, j):
    out = list(mono)
    out[j - 1] -= 1
    return tuple(out)


def _bump(mono, var):
    out = list(mono)
    out[var - 1] += 1
    return tuple(out)


def _terms_of(field):
    terms = field.terms if isinstance(field, BasisField) else tuple(field)
    if len({sum(t.monomial) for t in terms}) > 1:
        raise ValueError("field mixes monomial degrees")
    return terms


def divergence(field):
    """Divergence as {monomial: coefficient}; zero coefficients dropped.

    >>> divergence([MonomialField(Fraction(1), (2, 0, 0, 0), 1)])
    {(1, 0, 0, 0): Fraction(2, 1)}
    """
    out = {}
    for coeff, mono, j in _terms_of(field):
        e = mono[j - 1]
        if e:
            m = _lower(mono, j)
            out[m] = out.get(m, 0) + coeff * e
    return {m: v for m, v in out.items() if v}


class AntisymmetricForm:
    """A nonzero form sum alpha_ij * kappa_ij in the Koszul coordinates.

    Contact forms are the ones with nonzero Pfaffian
    alpha_12*alpha_34 - alpha_13*alpha_24 + alpha_14*alpha_23.
    """

    __slots__ = ("alpha",)

    def __init__(self, alpha):
        """alpha: mapping {pair: coefficient} or a 6-sequence in the
        canonical pair order (1,2),(1,3),(1,4),(2,3),(2,4),(3,4)."""
        if isinstance(alpha, dict):
            extra = set(alpha) - set(P5_PAIRS)
            if extra:
                raise ValueError("unknown pairs %r" % (sorted(extra),))
            coeffs = tuple(Fraction(alpha.get(p, 0)) for p in P5_PAIRS)
        else:
            coeffs = tuple(Fraction(a) for a in alpha)
            if len(coeffs) != 6:
                raise ValueError("need 6 coefficients")
        if not any(coeffs):
            raise ValueError("the zero form is not allowed")
        self.alpha = coeffs

    @classmethod
    def koszul(cls, pair):
        """The basis form kappa_ij itself."""
        return cls({tuple(pair): 1})

    def coefficient(self, pair):
        return self.alpha[P5_PAIRS.index(tuple(pair))]

    def pfaffian(self):
        a12, a13, a14, a23, a24, a34 = self.alpha
        return a12 * a34 - a13 * a24 + a14 * a23

    def is_contact(self):
        return self.pfaffian() != 0

    def linear_forms(self):
        """Components (a_1..a_4), each {variable: coefficient}, where
        contraction with a field (p_1..p_4) is sum a_i * p_i and
        kappa_ij contributes x_j to a_i and -x_i to a_j."""
        a = ({}, {}, {}, {})
        for (i, j), c in zip(P5_PAIRS, self.alpha):
            if c:
                a[i - 1][j] = a[i - 1].get(j, 0) + c
                a[j - 1][i] = a[j - 1].get(i, 0) - c
        return a

    def __eq__(self, other):
        if isinstance(other, AntisymmetricForm):
            return self.alpha == other.alpha
        return NotImplemented

    def __hash__(self):
        return hash(self.alpha)

    def __repr__(self):
        inside = ", ".join(
            "(%d,%d): %s" % (p[0], p[1], scalar_to_string(c))
            for p, c in zip(P5_PAIRS, self.alpha)
            if c
        )
        return "AntisymmetricForm({%s})" % inside


def contract(form, field):
    """Contraction of a form with a degree-d field: a degree-(d+1) poly.

    Returns {monomial: coefficient} over Q.  A field is tangent to the
    plane field cut out by the form exactly when this vanishes.  The
    limits use integer_contraction; this is its Fraction oracle.
    """
    a = form.linear_forms()
    out = {}
    for coeff, mono, direction in _terms_of(field):
        for var, c in a[direction - 1].items():
            m = _bump(mono, var)
            out[m] = out.get(m, 0) + coeff * c
    return {m: v for m, v in out.items() if v}


class BasisField:
    """A divergence-free field, homogeneous of one torus weight."""

    __slots__ = ("terms", "weight")

    def __init__(self, terms, weight):
        self.terms = tuple(terms)
        self.weight = weight

    @property
    def character(self):
        """The Z^4 character mu - e_j of the leading term; every term of
        a basis field has the same one, and weight is its value at the
        numeric weight system."""
        _, mono, j = self.terms[0]
        return _lower(mono, j)

    def render(self):
        return signed_sum(
            (coeff, monomial_string(mono) + "*d/dx%d" % j)
            for coeff, mono, j in self.terms
        )

    def __eq__(self, other):
        if isinstance(other, BasisField):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return "BasisField(%s; weight=%d)" % (self.render(), self.weight)


class SectionBasis:
    """Weight-graded basis of Phi_d, blocks in ascending weight order."""

    __slots__ = ("d", "weights", "fields")

    def __init__(self, d, weights, fields):
        self.d = d
        self.weights = weights
        self.fields = tuple(fields)

    def __len__(self):
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    def __getitem__(self, i):
        return self.fields[i]

    def weight_multiset(self):
        return WeightMultiset(f.weight for f in self.fields)

    def __repr__(self):
        return "SectionBasis(d=%d, weights=%r, %d fields)" % (
            self.d,
            self.weights.values,
            len(self.fields),
        )


def build_phi_basis(d, weights=DEFAULT_WEIGHTS):
    """Weight-graded basis of the divergence-free degree-d fields.

    Written down in closed form, one Z^4 character at a time.  For each
    degree-d monomial mu and direction j: x^mu d/dx_j itself when
    mu_j = 0 (its divergence vanishes); when mu_j > 0 and j < 4,
    x^mu d/dx_j - mu_j/(mu_4+1) * x^(mu-e_j+e_4) d/dx_4, which cancels
    the divergence mu_j*x^(mu-e_j) against the d/dx_4 term of the same
    character; nothing for j = 4 with mu_4 > 0.  Fields are ordered by
    numeric weight, then direction, then the graded-lex position of mu.
    This is the reduced echelon basis with +1 pivots of each weight
    block's divergence kernel, columns taken direction-major.
    """
    w = as_weight_system(weights)
    w.require_admissible()
    if d < 1:
        raise ValueError("field degree must be >= 1, got %r" % (d,))
    return _phi_basis_cached(d, w.values)


@lru_cache(maxsize=None)
def _phi_basis_cached(d, wvalues):
    w = WeightSystem(wvalues)
    one = Fraction(1)
    monos = monomials_of_degree(d)
    # partners are degree-d monomials too: reuse those tuples
    shared = dict(zip(monos, monos))
    keyed = []
    for k, mu in enumerate(monos):
        wt = monomial_weight(mu, w)
        for j in (1, 2, 3, 4):
            e = mu[j - 1]
            if not e:
                terms = (MonomialField(one, mu, j),)
            elif j < 4:
                partner = shared[_bump(_lower(mu, j), 4)]
                terms = (
                    MonomialField(one, mu, j),
                    MonomialField(Fraction(-e, mu[3] + 1), partner, 4),
                )
            else:
                continue
            keyed.append((wt - w.weight(j), j, k, terms))
    keyed.sort(key=lambda item: item[:3])
    fields = [BasisField(terms, wt) for wt, _, _, terms in keyed]
    if len(fields) != phi_dimension(d):
        raise ArithmeticError(
            "basis size %d != %d for d=%d, weights %r"
            % (len(fields), phi_dimension(d), d, wvalues)
        )
    return SectionBasis(d, w, fields)


def scaled_terms(field):
    """The terms of a basis field times the common denominator of its
    coefficients (mu_4+1 or a divisor of it), as (int coefficient,
    monomial, direction).  Scaling a column by a positive constant
    changes neither a rank nor which entries vanish."""
    terms = field.terms
    den = lcm(*[c.denominator for c, _, _ in terms])
    return [(c.numerator * (den // c.denominator), mono, j)
            for c, mono, j in terms]


def path_linear_forms(pair):
    """The linear forms of omega_t = kappa_ij + t*kappa_kl, {k,l} the
    complementary pair: per direction, (variable, (c0, c1)) lists for
    c0 + c1*t, namely a_i = x_j, a_j = -x_i, a_k = t*x_l, a_l = -t*x_k.

    The path leaves the degenerate fixed form kappa_ij for the contact
    locus; equivariance gives t the weight s_ij - s_kl, nonzero for
    admissible weights."""
    (i, j), (k, l) = pair, complementary_pair(pair)
    a = [None] * 4
    a[i - 1], a[j - 1] = [(j, (1, 0))], [(i, (-1, 0))]
    a[k - 1], a[l - 1] = [(l, (0, 1))], [(k, (0, -1))]
    return a


def integer_contraction(linear_forms, basis):
    """Sparse integer matrix of phi -> sum_i a_i * phi_i on a basis.

    linear_forms gives, per direction i, the (variable, (c0, c1)) pairs
    of a_i with int entries c0 + c1*t (path_linear_forms, or a plain
    form's with c1 = 0).  Rows are the degree-(d+1) monomials in
    graded-lex order, columns the basis fields, each field scaled by
    scaled_terms.  Returns {(row, column): (c0, c1)} for the nonzero
    entries.
    """
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
            for var, (c0, c1) in linear_forms[j - 1]:
                key = (up[var - 1], col)
                o0, o1 = entries.get(key, (0, 0))
                entries[key] = (o0 + coeff * c0, o1 + coeff * c1)
    return {k: v for k, v in entries.items() if v[0] or v[1]}


def tangent_kernel_dimension(form, d, weights=DEFAULT_WEIGHTS):
    """Dimension of the fields in Phi_d tangent to the given form.

    Computed as dim Phi_d minus the exact rank of the contraction matrix,
    the form's coefficients scaled by their common denominator; the
    answer does not depend on the admissible weight system used to
    organize the computation.
    """
    basis = build_phi_basis(d, weights)
    den = lcm(*(c.denominator for c in form.alpha))
    a = [[(var, (int(c * den), 0)) for var, c in lf.items()]
         for lf in form.linear_forms()]
    mat = [[0] * len(basis) for _ in monomials_of_degree(d + 1)]
    for (r, c), (v, _) in integer_contraction(a, basis).items():
        mat[r][c] = v
    return len(basis) - rank(mat, len(basis))
