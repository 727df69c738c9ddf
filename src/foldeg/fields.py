"""Polynomial vector fields on P^3, antisymmetric forms, and contraction.

Phi_d is the space of degree-d polynomial vector fields sum c*mu*d/dx_j
with identically zero divergence; it has dimension (d+4)(d+2)(d+1)/2 and
models the global vector fields of the plane-field geometry twisted so
that coefficients are degree-d forms.  The monomial field mu*d/dx_j has
the Z^4 character mu - e_j, and divergence preserves characters: for
each character chi the divergence is a single row x^chi with
coefficients mu_j.  Its kernel has a closed form, graded by the
characters: three fields for each chi of degree d - 1 with every entry
>= 0, and one for each chi = mu - e_j with mu_j = 0.  So the basis is
counted, for d alone, without writing a field; its Fraction fields are
written only when a caller reads them.  Torus weights w_1..w_4 give chi
the weight sum chi_i * w_i (exact.character_weights).

An antisymmetric form is written in the Koszul coordinates kappa_ij
(kappa_12 has components (x_2, -x_1, 0, 0), etc.); contraction with a
field multiplies components and sums, landing in degree d+1: over Q for
one field (contract).  Over Z, for a whole basis and a form with
integer coefficients, it is matrices.integer_contraction.  The module
foldeg.matrices also writes the fields and ranks the contraction for
tangent_kernel_dimension; it is loaded the first time either is asked
for.  kernel_basis is imported here only because perfbench/tracing.py
hooks the name.
"""

from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache

from .exact import (
    monomial_string,
    monomials_of_degree,
    scalar_to_string,
    signed_sum,
)
# Not called here: the basis has a closed form.  The name stays because
# perfbench/tracing.py hooks foldeg.fields.kernel_basis; ROADMAP item 1
# deletes it.
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


class SectionBasis:
    """Basis of Phi_d in generation order, with the multiplicity of each
    Z^4 character.  Given only those counts (build_phi_basis), it writes
    its fields when they are first read; len needs none."""

    __slots__ = ("d", "characters", "_fields")

    def __init__(self, d, fields=None, characters=None):
        self.d = d
        self._fields = None if fields is None else tuple(fields)
        self.characters = characters or Counter(f.character for f in fields)

    @property
    def fields(self):
        if self._fields is None:
            from . import matrices
            self._fields = _sized(tuple(matrices._write_fields(self.d)), self.d)
        return self._fields

    def __len__(self):
        return sum(self.characters.values())

    def __iter__(self):
        return iter(self.fields)

    def __getitem__(self, i):
        return self.fields[i]

    def __repr__(self):
        return "SectionBasis(d=%d, %d fields)" % (self.d, len(self))


def build_phi_basis(d):
    """Basis of the divergence-free degree-d fields, each of one Z^4
    character.

    Counted in closed form, as the module docstring states; the fields
    are written on first read.  For each degree-d monomial mu and
    direction j: x^mu d/dx_j itself when mu_j = 0 (its divergence
    vanishes); when mu_j > 0 and j < 4,
    x^mu d/dx_j - mu_j/(mu_4+1) * x^(mu-e_j+e_4) d/dx_4, which cancels
    the divergence mu_j*x^(mu-e_j) against the d/dx_4 term of the same
    character; nothing for j = 4 with mu_4 > 0.  Fields come in
    generation order: the graded-lex position of mu, then the direction.
    Within one character these are the reduced echelon basis with +1
    pivots of the divergence kernel, columns taken direction-major.

    >>> basis = build_phi_basis(1)
    >>> len(basis)
    15
    >>> basis[1].render(), basis[1].character
    ('x1*d/dx2', (1, -1, 0, 0))
    """
    if d < 1:
        raise ValueError("field degree must be >= 1, got %r" % (d,))
    return _phi_basis_cached(d)


def _sized(counted, d):
    """counted, unless its size is not dim Phi_d (ArithmeticError)."""
    if len(counted) != phi_dimension(d):
        raise ArithmeticError("basis size %d != %d for d=%d"
                              % (len(counted), phi_dimension(d), d))
    return counted


# One entry: every caller asks for one degree at a time, so nothing is
# kept across degrees.
@lru_cache(maxsize=1)
def _phi_basis_cached(d):
    characters = Counter(dict.fromkeys(monomials_of_degree(d - 1), 3))
    # chi = mu - e_j with mu_j = 0: mu's other three exponents, -1 put in
    rest = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
    for j in range(4):
        characters.update(t[:j] + (-1,) + t[j:] for t in rest)
    return _sized(SectionBasis(d, characters=characters), d)


def tangent_kernel_dimension(form, d):
    """Dimension of the fields in Phi_d tangent to the given form: dim
    Phi_d less the exact rank of the contraction matrix
    (foldeg.matrices.tangent_kernel_dimension)."""
    from . import matrices
    return matrices.tangent_kernel_dimension(form, d)
