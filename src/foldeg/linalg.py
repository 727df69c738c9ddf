"""Exact linear algebra over Q and over Q[t] localized at t.

Everything is fraction-free where it counts: the two elimination kernels
(echelon, limit_rows) work on plain-integer data.  The small Fraction
routines (rref, kernel bases) are kept as the tests' oracle for the
closed-form field basis.  All results are exact; nothing here ever sees
a float.
"""

from fractions import Fraction
from math import gcd

from .tpolys import tp_mul, tp_sub


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
        mat[rank_], mat[best] = mat[best], mat[rank_]
        prow = mat[rank_]
        p = prow[col]
        for r in range(rank_ + 1, nrows):
            row = mat[r]
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
        rank_ += 1
    return mat[:rank_], pivots


def rank(rows, ncols):
    """Rank of an integer matrix."""
    return len(echelon(rows, ncols)[1])


def limit_rows(rows, ncols):
    """Limit at t = 0 of the span of a t-polynomial row module.

    rows: each row is a sequence of t-polynomials (int-coefficient tuples,
    ascending powers, () = 0).  Returns (int_rows, pivot_columns): the
    rows span the fiber at t = 0 of the saturation of the row module over
    Q[t] localized at t, and row k has a nonzero entry at
    pivot_columns[k] with zeros there in every later row (triangular
    after reordering, hence independent rows and a valid pivot set).

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
