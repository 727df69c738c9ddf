"""Exact linear algebra over Z.

limit_rows reads the limit at t = 0 of a torus chain's row span, as a
multiplicity per character, off the pivots of a fraction-free sparse
elimination that admits the chain's rows as its sweep reaches them.
The dense routines, the integer echelon and the Fraction rref and
kernel bases that the tests use as the oracle of the closed forms, live
in foldeg.matrices, which a cold start does not load.  rank and
kernel_basis remain here only as stubs that perfbench/tracing.py hooks;
they load foldeg.matrices when called.  All results are exact; nothing
here ever sees a float.
"""

from itertools import chain


def limit_rows(columns, ncols):
    """How many pivots of the limit at t = 0 of one torus chain's row
    span each character takes: one count per entry of columns.

    columns: the chain's characters by descending level, each the tuple
    of its fields' (low, high) entries, ncols fields in all; character K
    puts its high entries on row K of M(1) and its low ones on row
    K + 1.  (columns is read, not changed.)  Entry (r, c) of M(t) is a
    multiple of t^(lev(r) - lev(c)), so M(t) = T_r(t) M(1) T_c(t)^-1
    with diagonal T(t) = diag(t^lev): the path is a torus orbit, and the
    limit is the initial subspace of the row span of M(1) for the
    highest levels.  An echelon of M(1) with the columns in chain order
    pivots in each level as often as the limit has dimensions there, so
    the count of character K is its multiplicity in the limit.

    The pivots of a leftmost-column echelon are the greedy column basis,
    whichever rows pivot, so the rows are eliminated sparsely, as
    {column: nonzero int}, in one sweep along the chain.  Row K + 1
    joins as the sweep reaches character K, the first it touches.  Once
    it is in, character K is done, and one row at most is live: the last
    one counted.  Row K + 1 is reduced by it, over the union of the two
    rows' columns, if the two lead at the same column; it then leads
    further on, where no row is live, or is empty.  So a row completed
    on reading character K pivots in K or in K - 1, and the count goes
    to the one whose columns it leads in; the next row leads in K or
    later, so a live row that leads in K - 1 meets no other.  The sweep
    inserts a row's columns in ascending order, so an unreduced row
    leads at its first key; a reduced one, built from a set union that
    keeps no order, leads at its least.

    The order is the caller's contract: one row that meets two levels
    keeps the higher.

    An empty character () ends a chain, so columns may hold several
    chains end to end, each followed by ().  At () first = c and every
    live row leads below it: the chain's last row is reduced, no later
    row meets the live one, and the next chain starts from an empty row.
    () counts 0, and each chain counts as it would alone.

    >>> limit_rows([((1, 0),), ((0, 1),)], 2)
    [1, 0]
    >>> limit_rows([((1, 1), (1, 1), (0, 1))], 3)
    [2]
    >>> limit_rows([((1, 1),)], 1)  # one field on both rows: one pivot
    [1]
    >>> limit_rows([((1, 0),), (), ((0, 1),), ()], 2)
    [1, 0, 1, 0]
    """
    # Reading character K completes row K (low entries of K - 1, high
    # ones of K), which is reduced before character K - 1 is done; the
    # empty character after the last completes the last row, which can
    # only pivot in the last character.
    counts, live, row, c = [0] * len(columns), (None, None), {}, 0
    for K, fields in enumerate(chain(columns, ((),))):
        below, first = {}, c
        for low, high in fields:
            if high:
                row[c] = high
            if low:
                below[c] = low
            c += 1
        if row:
            for lead in row:  # the first key: row is unreduced
                break
            if live[0] == lead:
                prow = live[1]
                p, e = prow[lead], row[lead]
                row = {j: v for j in row.keys() | prow.keys()
                       if (v := p * row.get(j, 0) - e * prow.get(j, 0))}
                if row:
                    lead = min(row)
            if row:
                counts[K - (lead < first)] += 1
                live = lead, row
        row = below
    return counts


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
