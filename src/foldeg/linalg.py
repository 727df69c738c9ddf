"""Exact linear algebra over Z.

limit_rows reads the limit at t = 0 of a torus chain's row span off the
pivots of a fraction-free sparse elimination that admits the chain's
rows as its sweep reaches them.  The dense routines, the integer
echelon and the Fraction rref and kernel bases that the tests use as
the oracle of the closed forms, live in foldeg.matrices, which a cold
start does not load.  rank and kernel_basis remain here only as stubs
that perfbench/tracing.py hooks; they load foldeg.matrices when called.
All results are exact; nothing here ever sees a float.
"""


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


# Nothing in foldeg calls these two stubs.  They stay because
# perfbench/tracing.py hooks the names; ROADMAP item 1 deletes them.
def rank(rows, ncols):
    """Rank of an integer matrix (foldeg.matrices.rank)."""
    from . import matrices
    return matrices.rank(rows, ncols)


def kernel_basis(rows, ncols):
    """Basis of the right kernel over Q (foldeg.matrices.kernel_basis)."""
    from . import matrices
    return matrices.kernel_basis(rows, ncols)
