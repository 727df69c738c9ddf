"""Exact linear algebra over Q.

Everything is fraction-free where it counts: the integer echelon, and
limit_rows, which reads the limit at t = 0 of a torus chain's row span
off the pivots of a sparse elimination that admits the chain's rows as
its sweep reaches them.  The small Fraction routines (rref, kernel
bases) are kept as the tests' oracle for the closed-form field basis.
All results are exact; nothing here ever sees a float.
"""

from fractions import Fraction
from math import gcd


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


def limit_rows(columns, ncols):
    """Pivot columns of the limit at t = 0 of one torus chain's row span.

    columns: the chain's characters by descending level, each the tuple
    of its fields' (low, high) entries, ncols fields in all; character K
    puts its high entries on row K of M(1) and its low ones on row
    K + 1.  (columns is read, not changed.)  Entry (r, c) of M(t) is a
    multiple of t^(lev(r) - lev(c)), so M(t) = T_r(t) M(1) T_c(t)^-1
    with diagonal T(t) = diag(t^lev): the path is a torus orbit, and the
    limit is the initial subspace of the row span of M(1) for the
    highest levels.  An echelon of M(1) with the columns in chain order
    pivots in each level as often as the limit has dimensions there.
    Returns the pivot columns, ascending.

    The pivots of a leftmost-column echelon are the greedy column basis,
    whichever rows pivot, so the rows are eliminated sparsely, as
    {column: nonzero int}, in one sweep along the chain.  Row K + 1
    joins as the sweep reaches character K, the first it touches, and is
    reduced by the live row that leads at its leading column, over the
    union of the two rows' columns, until it leads at a new column or is
    empty.  Once row K + 1 is in, character K is done: only a row that
    leads in character K + 1 stays live.

    The order is the caller's contract: one row that meets two levels
    keeps the higher.

    An empty character () ends a chain, so columns may hold several
    chains end to end, each followed by ().  At () first = c and every
    live row leads below it: the chain's last row is reduced, no row
    stays live, and the next chain starts from an empty row.  The
    pivots are then each chain's own, offset by its first column.

    >>> limit_rows([((1, 0),), ((0, 1),)], 2)
    [0]
    >>> limit_rows([((1, 1), (1, 1), (0, 1))], 3)
    [0, 2]
    >>> limit_rows([((1, 0),), (), ((0, 1),), ()], 2)
    [0, 1]
    """
    # Reading character K completes row K (low entries of K - 1, high
    # ones of K), which is reduced before character K - 1 is done; the
    # empty character after the last completes the last row.
    pivots, live, row, c = [], {}, {}, 0
    for fields in (*columns, ()):
        below, first = {}, c
        for low, high in fields:
            if high:
                row[c] = high
            if low:
                below[c] = low
            c += 1
        while row:
            lead = min(row)
            prow = live.get(lead)
            if prow is None:
                live[lead] = row
                pivots.append(lead)
                break
            p, e = prow[lead], row[lead]
            row = {j: v for j in row.keys() | prow.keys()
                   if (v := p * row.get(j, 0) - e * prow.get(j, 0))}
        live = {lead: row} if row and lead >= first else {}
        row = below
    pivots.sort()
    return pivots


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
