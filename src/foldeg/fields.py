"""Polynomial vector fields on P^3: the basis Phi_d, counted.

Phi_d is the space of degree-d polynomial vector fields sum c*mu*d/dx_j
with identically zero divergence; it has dimension (d+4)(d+2)(d+1)/2 and
models the global vector fields of the plane-field geometry twisted so
that coefficients are degree-d forms.  The monomial field mu*d/dx_j has
the Z^4 character mu - e_j, and divergence preserves characters: for
each character chi the divergence is a single row x^chi with
coefficients mu_j.  Its kernel has a closed form (build_phi_basis), so
the basis of d is dim Phi_d long; its Fraction fields are written, and
their characters read off them, only when a caller asks.  Torus weights
give chi the weight sum chi_i * w_i (exact.character_weights).  The six
fixed pairs and the dimension formulas are here too, as the degree paths
read them.

The written fields, the antisymmetric forms and their contraction are in
foldeg.forms, which no degree computation needs: SectionBasis.fields
loads it the first time a caller reads the fields or their characters.
The tangency kernel at a form has a closed form too
(tangent_kernel_dimension), so nothing here writes a field to count it.
"""

from collections import Counter
from functools import lru_cache
from operator import index

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


class SectionBasis:
    """Basis of Phi_d in generation order (build_phi_basis), from d
    alone: len is dim Phi_d, and the first read of the fields writes
    them and checks their number against dim Phi_d.  characters, the
    multiplicity of each Z^4 character, is read off the fields."""

    __slots__ = ("d", "_fields")

    def __init__(self, d):
        self.d, self._fields = d, None

    @property
    def characters(self):
        return Counter(f.character for f in self.fields)

    @property
    def fields(self):
        if self._fields is None:
            from . import forms
            self._fields = _sized(tuple(forms._write_fields(self.d)), self.d)
        return self._fields

    def __len__(self):
        return phi_dimension(self.d)

    def __iter__(self):
        return iter(self.fields)

    def __getitem__(self, i):
        return self.fields[i]

    def __repr__(self):
        return "SectionBasis(d=%d, %d fields)" % (self.d, len(self))


def build_phi_basis(d):
    """Basis of the divergence-free degree-d fields, each of one Z^4
    character.

    Its length is dim Phi_d; its fields are written on first read, and
    its characters read off them.  d must be an int.  For each
    degree-d monomial mu and direction j: x^mu d/dx_j itself when
    mu_j = 0 (its divergence vanishes); when mu_j > 0 and j < 4,
    x^mu d/dx_j - mu_j/(mu_4+1) * x^(mu-e_j+e_4) d/dx_4, which cancels
    the divergence mu_j*x^(mu-e_j) against the d/dx_4 term of the same
    character; nothing for j = 4 with mu_4 > 0.  Fields come in
    generation order: the graded-lex position of mu, then the direction.
    Within one character these are the reduced echelon basis with +1
    pivots of the divergence kernel, columns taken direction-major.

    >>> basis = build_phi_basis(1)
    >>> basis
    SectionBasis(d=1, 15 fields)
    >>> basis[1].render(), basis[1].character
    ('x1*d/dx2', (1, -1, 0, 0))
    """
    d = index(d)
    if d < 1:
        raise ValueError("field degree must be >= 1, got %r" % (d,))
    return _phi_basis_cached(d)


def _sized(fields, d):
    """fields, unless their number is not dim Phi_d (ArithmeticError)."""
    if len(fields) != phi_dimension(d):
        raise ArithmeticError("basis size %d != %d for d=%d"
                              % (len(fields), phi_dimension(d), d))
    return fields


# One entry: every caller asks for one degree at a time, so nothing is
# kept across degrees.
_phi_basis_cached = lru_cache(maxsize=1)(SectionBasis)


def tangent_kernel_dimension(form, d):
    """Dimension of the fields in Phi_d tangent to the form, in closed form.

    Contraction sends a field (p_i) to sum a_i * p_i, a_i the form's
    linear forms, so the image of all degree-d fields is the degree-(d+1)
    part of the ideal (a_1..a_4).  The Euler field E has omega(E) = 0
    and div(fE) = (d+3)f, so every field is one in Phi_d plus a multiple
    of E, and Phi_d has the same image.  The a_i, the rows of the form's
    matrix, span a space of its rank: 4 when the Pfaffian is nonzero, so
    the image is all of S_(d+1), of dimension C(d+4,3); else 2 (the form
    is nonzero), and the image (l_1, l_2)_(d+1) has codimension d + 2,
    the degree-(d+1) forms in the two other variables.  The kernel is dim
    Phi_d less the image: contact_kernel_dimension(d), or d + 2 more.
    """
    d = index(d)
    if d < 1:
        raise ValueError("field degree must be >= 1, got %r" % (d,))
    return contact_kernel_dimension(d) + (0 if form.pfaffian() else d + 2)
