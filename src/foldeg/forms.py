"""Antisymmetric forms, written fields, and contraction over Q.

An antisymmetric form is written in the Koszul coordinates kappa_ij
(kappa_12 has components (x_2, -x_1, 0, 0), etc.); contraction with a
field multiplies components and sums, landing in degree d+1: over Q for
one field (contract).  Over Z, for a whole basis and a form with
integer coefficients, it is matrices.integer_contraction.  A field is
written as its terms, each a MonomialField c * mu * d/dx_j; the fields
of a basis are BasisFields, one Z^4 character each, and _write_fields
writes those of build_phi_basis(d) (SectionBasis.fields).

No degree computation writes a field or a form: the degrees come from
the closed-form counts of foldeg.fields.  So a cold start does not
compile this module.  It loads on first use: from foldeg.verify (the
worked tangency example), when a caller first reads the fields of a
basis, from foldeg.matrices, and from the package itself when
AntisymmetricForm or contract is first read from it.

>>> form = AntisymmetricForm({(1, 2): 1, (3, 4): 1})
>>> form, form.is_contact()
(AntisymmetricForm({(1,2): 1, (3,4): 1}), True)
>>> contract(form, [MonomialField(1, (1, 0, 0, 0), 1)])
{(1, 1, 0, 0): Fraction(1, 1)}
"""

from collections import namedtuple
from fractions import Fraction

from .exact import (monomial_string, monomials_of_degree, scalar_to_string,
                     signed_sum)
from .fields import P5_PAIRS

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


class AntisymmetricForm(namedtuple("AntisymmetricForm", "alpha")):
    """A nonzero form sum alpha_ij * kappa_ij in the Koszul coordinates.

    Contact forms are the ones with nonzero Pfaffian
    alpha_12*alpha_34 - alpha_13*alpha_24 + alpha_14*alpha_23.
    """

    __slots__ = ()

    def __new__(cls, alpha):
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
        return super().__new__(cls, coeffs)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, and so _replace, would skip the checks
        return cls(*iterable)

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
    plane field cut out by the form exactly when this vanishes.  It is
    the Fraction oracle of matrices.integer_contraction.
    """
    terms = field.terms if isinstance(field, BasisField) else tuple(field)
    if len({sum(t.monomial) for t in terms}) > 1:
        raise ValueError("field mixes monomial degrees")
    a = form.linear_forms()
    out = {}
    for coeff, mono, direction in terms:
        for var, c in a[direction - 1].items():
            m = _bump(mono, var)
            out[m] = out.get(m, 0) + coeff * c
    return {m: v for m, v in out.items() if v}


class BasisField(namedtuple("BasisField", "terms")):
    """A divergence-free field, homogeneous of one Z^4 character."""

    __slots__ = ()

    @property
    def character(self):
        """The Z^4 character mu - e_j of the leading term; every term of
        a basis field has the same one."""
        _, mono, j = self.terms[0]
        return _lower(mono, j)

    def render(self):
        return signed_sum(
            (coeff, monomial_string(mono) + "*d/dx%d" % j)
            for coeff, mono, j in self.terms
        )

    def __repr__(self):
        return "BasisField(%s; character=%r)" % (self.render(), self.character)


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
