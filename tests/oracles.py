"""Slow, direct versions of the exact layer, kept as test oracles.

Each is the plain algorithm the package used before: e_k by the O(n*k)
product recurrence over every value, the pencil fiber by enumerating
every monomial weight, the interpolant as a sum of Lagrange basis
polynomials, the image limit as a saturation over Z[t] localized at t,
which knows nothing of torus levels, and the kernel limit's weights as
ranks of its projections onto each weight space.  They share no code
with what they check beyond RationalPolynomial, the monomial list, the
complement of a pair and the Fraction rref.
"""

from fractions import Fraction
from math import gcd

from foldeg.exact import RationalPolynomial, monomials_of_degree
from foldeg.fields import complementary_pair
from foldeg.linalg import rref


def elementary_symmetric_recurrence(k, values):
    """e_k by expanding prod (1 + v*x) one value at a time."""
    e = [1] + [0] * k
    for seen, v in enumerate(values, start=1):
        for i in range(min(k, seen), 0, -1):
            e[i] += v * e[i - 1]
    return e[k]


def enumerated_pencil_fiber(pair, d, weights):
    """Twisted pencil fiber at pair as a sorted list: every degree-(d+1)
    monomial weight, less the d+2 of the monomials in the complementary
    variables alone, shifted by their weight sum."""
    k, l = complementary_pair(pair)
    wk, wl = weights[k - 1], weights[l - 1]
    full = sorted(
        sum(e * wi for e, wi in zip(m, weights))
        for m in monomials_of_degree(d + 1)
    )
    for a in range(d + 2):
        full.remove(a * wk + (d + 1 - a) * wl)
    return [v + wk + wl for v in full]


def lagrange_sum(points):
    """The interpolant as sum_i y_i * prod_{j != i} (x - x_j)/(x_i - x_j)."""
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    total = RationalPolynomial()
    for i, (xi, yi) in enumerate(pts):
        num = RationalPolynomial([1])
        den = Fraction(1)
        for j, (xj, _) in enumerate(pts):
            if j != i:
                num = num * RationalPolynomial([-xj, 1])
                den *= xi - xj
        total = total + num * (yi / den)
    return total


# Polynomials in the deformation parameter t: tuples of int coefficients
# in ascending powers of t with no trailing zeros; () is zero.

TP_ZERO = ()


def tp_trim(coeffs):
    """Drop trailing zeros and return a tuple."""
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def tp_add(a, b):
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return tp_trim(out)


def tp_neg(a):
    return tuple(-c for c in a)


def tp_sub(a, b):
    return tp_add(a, tp_neg(b))


def tp_mul(a, b):
    if not a or not b:
        return TP_ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    # leading coefficients are nonzero ints, so no trim is needed
    return tuple(out)


def saturated_limit_rows(rows, ncols):
    """Limit at t = 0 of the span of a t-polynomial row module.

    rows: each row is a sequence of t-polynomials.  Returns (int_rows,
    pivot_columns): the rows span the fiber at t = 0 of the saturation
    of the row module over Q[t] localized at t, and row k has a nonzero
    entry at pivot_columns[k] with zeros there in every later row
    (triangular after reordering, hence independent rows and a valid
    pivot set).

    Single pass of unit-pivot elimination over the local ring: each row
    is reduced against the basis collected so far (every claimed pivot
    entry has a nonzero constant term, hence is a unit there), then
    divided by its t-valuation and integer content, then claims a pivot
    column of its own — preferring an entry that is an exact t-free
    constant, since plain constants keep later reductions scalar.
    """
    basis = []  # (pivot_col, row) in claim order
    for row in rows:
        r = list(row)
        for c, b in basis:
            rc = r[c]
            if rc:
                u = b[c]
                r = [tp_sub(tp_mul(u, r[k]), tp_mul(rc, b[k]))
                     for k in range(ncols)]
        val = -1
        for e in r:
            if e:
                for i, ci in enumerate(e):
                    if ci:
                        if val < 0 or i < val:
                            val = i
                        break
        if val < 0:
            continue  # row reduced to zero
        if val:
            r = [e[val:] if e else e for e in r]
        g = 0
        for e in r:
            for ci in e:
                g = gcd(g, ci)
            if g == 1:
                break
        if g > 1:
            r = [tuple(ci // g for ci in e) for e in r]
        pc = -1
        for k in range(ncols):
            e = r[k]
            if e and e[0]:
                if len(e) == 1:
                    pc = k
                    break
                if pc < 0:
                    pc = k
        basis.append((pc, r))
    int_rows = [[e[0] if e else 0 for e in r] for _, r in basis]
    return int_rows, [c for c, _ in basis]


def projected_kernel_weights(vectors, col_idx, basis):
    """Weights of a T-stable kernel limit spanned by vectors (indexed
    like col_idx): the rank of the vectors projected onto one weight's
    coordinates is that weight's multiplicity.  Sorted."""
    out = []
    for chi in sorted({basis[c].weight for c in col_idx}):
        pos = [k for k, c in enumerate(col_idx) if basis[c].weight == chi]
        proj = [[v[k] for k in pos] for v in vectors]
        out += [chi] * len(rref(proj)[1])
    return out
