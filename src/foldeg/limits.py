"""Limits of tangency data along the contact deformation, exactly.

At each torus-fixed form kappa_ij the straight path
omega_t = kappa_ij + t * kappa_kl ({k,l} the complementary pair) enters
the contact locus for t != 0.  Contraction against the degree-d field
basis (fields.integer_contraction of fields.path_linear_forms) gives a
matrix over Z[t].  Within a block the entry at row r and column c
carries t^(lev(r) - lev(c)), 2*lev = chi_k + chi_l, so
M(t) = T_r(t) M(1) T_c(t)^-1 with diagonal T(t) = diag(t^lev): the path
is a torus orbit, and what survives at t = 0 is an initial subspace of
the t = 1 data.  Two deliberately independent routes compute it, each
with one integer echelon of M(1) per block:

* image-fiber: the row span.  Its limit is the initial subspace of the
  row span of M(1) for the highest levels; an echelon of M(1) with the
  columns by descending level gives it (linalg.limit_rows).  The pivot
  columns name basis fields whose weights (and Z^4 characters) are the
  fiber of the image sheaf at the fixed point.
* kernel-limit: the nullspace.  ker M(t) = T_c(t) ker M(1), so its limit
  is the initial subspace of ker M(1) for the lowest levels; an echelon
  of [M(1)^T | I] with the columns by ascending level gives it
  (_kernel_limits).  Each limit vector lies on its pivot's level, one
  character within a block, so its weight is read off its support.

Torus equivariance makes the matrix block-diagonal: a column of Z^4
character chi meets only the rows chi + e_i + e_j (t^0) and
chi + e_k + e_l (t^1), so the connected blocks that union-find returns
are the classes of column characters modulo e_k + e_l - e_i - e_j,
(d+2)^2 of them, and both routes run on these small blocks.  "both"
builds one contraction and one set of blocks for the two routes.
"""

from math import comb

from .exact import (
    DEFAULT_WEIGHTS,
    WeightMultiset,
    as_weight_system,
)
from .fields import (
    as_fixed_point,
    build_phi_basis,
    complementary_pair,
    contact_kernel_dimension,
    integer_contraction,
    monomials_of_degree,
    path_linear_forms,
)
from .linalg import echelon, level_part, limit_rows
# Not called here.  The names stay because perfbench/tracing.py hooks
# foldeg.limits.kernel_basis and foldeg.limits.rank.
from .linalg import kernel_basis, rank  # noqa: F401

METHOD_IMAGE = "image-fiber"
METHOD_KERNEL = "kernel-limit"
METHOD_BOTH = "both"
METHODS = (METHOD_IMAGE, METHOD_KERNEL, METHOD_BOTH)


class SaturationRankError(ArithmeticError):
    """A limit has the wrong rank — a computation bug, never
    a property of the input, so it is raised loudly instead of patched."""


class MethodDisagreement(ArithmeticError):
    """The two limit routes produced different weight multisets."""


class ContractionMatrix:
    """Contraction of omega_t against a field basis, rows indexed by the
    degree-(d+1) monomials, columns by the basis fields; entries are int
    pairs (c0, c1) for c0 + c1*t, each column scaled by its field's
    denominator (see fields.integer_contraction)."""

    __slots__ = ("fp", "d", "basis", "row_monomials", "entries")

    def __init__(self, fp, d, basis, row_monomials, entries):
        self.fp = fp
        self.d = d
        self.basis = basis
        self.row_monomials = row_monomials
        self.entries = entries

    @property
    def shape(self):
        return (len(self.row_monomials), len(self.basis))

    def __repr__(self):
        return "ContractionMatrix(fp=%r, d=%d, shape=%r, %d entries)" % (
            self.fp,
            self.d,
            self.shape,
            len(self.entries),
        )


def build_contraction_matrix(fp, d, basis):
    """Assemble the sparse matrix of phi -> contract(omega_t, phi) from
    the integer linear forms of the path at fp."""
    fp = as_fixed_point(fp)
    if basis.d != d:
        raise ValueError(
            "basis is for degree %d, not %d" % (basis.d, d)
        )
    entries = integer_contraction(path_linear_forms(fp), basis)
    return ContractionMatrix(
        fp, d, basis, monomials_of_degree(d + 1), entries
    )


def _connected_blocks(matrix):
    """Column/row index sets of the connected components of the bipartite
    incidence graph; every column appears in exactly one block (columns
    with no entries form row-less singletons)."""
    nrows, ncols = matrix.shape
    parent = list(range(nrows + ncols))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for (r, c) in matrix.entries:
        a, b = find(r), find(nrows + c)
        if a != b:
            parent[a] = b

    cols_of = {}
    for c in range(ncols):
        cols_of.setdefault(find(nrows + c), []).append(c)
    rows_of = {root: [] for root in cols_of}
    for r in range(nrows):
        root = find(r)
        if root in rows_of:
            rows_of[root].append(r)
    order = sorted(cols_of, key=lambda root: cols_of[root][0])
    return [(rows_of[root], cols_of[root]) for root in order]


def _blocks(matrix):
    """(columns, column levels, dense rows) of each connected block, in
    the order of _connected_blocks.  A column's level is chi_k + chi_l of
    its character; a row entry is (c0, c1) for c0 + c1*t, (c0,) or ().
    One pass over the entries buckets them by row."""
    nrows, ncols = matrix.shape
    k, l = complementary_pair(matrix.fp)
    level = [f.character[k - 1] + f.character[l - 1] for f in matrix.basis]
    by_row = [[] for _ in range(nrows)]
    constant = {}  # one (c0,) per value: _point_blocks keeps the blocks
    for (r, c), e in matrix.entries.items():
        if not e[1]:
            e = constant.setdefault(e[0], e[:1])
        by_row[r].append((c, e))
    local = [0] * ncols
    for row_idx, col_idx in _connected_blocks(matrix):
        for i, c in enumerate(col_idx):
            local[c] = i
        rows = []
        for r in row_idx:
            row = [()] * len(col_idx)
            for c, e in by_row[r]:
                row[local[c]] = e
            rows.append(row)
        yield col_idx, [level[c] for c in col_idx], rows


_last_point = None  # (fp, basis, blocks) of the last _point_blocks call


def _point_blocks(fp, basis):
    """The blocks of the contraction at fp, as a tuple.  The last one is
    kept for the second route under "both", and dropped before the next
    is built."""
    global _last_point
    last = _last_point
    if not (last and last[0] == fp and last[1] is basis):
        last = _last_point = None  # free the old blocks first
        matrix = build_contraction_matrix(fp, basis.d, basis)
        last = _last_point = (fp, basis, tuple(_blocks(matrix)))
    return last[2]


def _quotient_columns(blocks):
    """Basis columns whose weights make up the image fiber: the pivot
    columns that limit_rows picks, block by block."""
    cols = []
    for col_idx, levels, rows in blocks:
        _, pivots = limit_rows(rows, len(col_idx), levels)
        cols += [col_idx[k] for k in pivots]
    return cols


def _kernel_limits(blocks):
    """(columns, limit kernel vectors) of each of the blocks.

    ker M(t) = T_c(t) ker M(1), so the limit at t = 0 is spanned by the
    lowest-level parts of an echelon basis of ker M(1) whose columns run
    by ascending level: the rows of the integer echelon of [M(1)^T | I]
    that pivot in the identity part, each cut down to its pivot's level.
    The vectors are indexed like the block's columns."""
    for col_idx, levels, rows in blocks:
        order = sorted(range(len(col_idx)), key=levels.__getitem__)
        m = len(rows)
        aug = [[sum(row[q]) for row in rows] + [int(p == q) for p in order]
               for q in order]
        ech, pivots = echelon(aug, m + len(order))
        vectors = [level_part(row[m:], order, levels, levels[order[p - m]])
                   for row, p in zip(ech, pivots) if p >= m]
        yield col_idx, vectors


def _kernel_weights_for_block(vectors, col_idx, basis):
    """Weights of a T-stable kernel limit, one per limit vector.  Each
    vector is cut down to its pivot's level, and within a block one
    level is one character, so its support must lie in one weight
    space."""
    out = []
    for v in vectors:
        support = {basis[c].weight for c, x in zip(col_idx, v) if x}
        if len(support) != 1:
            raise SaturationRankError("limit kernel is not a sum of "
                                      "weight spaces")
        out += support
    return out


class LimitFiberResult:
    """Fiber weights at one fixed point: quotient_weights is the fiber of
    the image sheaf (what the Euler class is made of), kernel_weights its
    complement inside the weights of the full field basis.

    quotient_fields are the basis fields behind the image fiber (image
    route and "both"; None from the kernel route alone)."""

    __slots__ = (
        "pair", "d", "quotient_weights", "kernel_weights", "method",
        "quotient_fields",
    )

    def __init__(self, pair, d, quotient_weights, kernel_weights, method,
                 quotient_fields=None):
        self.pair = pair
        self.d = d
        self.quotient_weights = quotient_weights
        self.kernel_weights = kernel_weights
        self.method = method
        self.quotient_fields = quotient_fields

    @property
    def quotient_characters(self):
        """The image fiber as sorted Z^4 characters, or None.  The limit
        is fixed by the whole torus, so these do not depend on the weight
        system."""
        if self.quotient_fields is None:
            return None
        return tuple(sorted(f.character for f in self.quotient_fields))

    def to_json_dict(self):
        return {
            "pair": list(self.pair),
            "d": self.d,
            "weights": list(self.quotient_weights),
            "kernel_weights": list(self.kernel_weights),
            "method": self.method,
        }

    def __repr__(self):
        return "LimitFiberResult(pair=%r, d=%d, %d quotient / %d kernel)" % (
            self.pair,
            self.d,
            len(self.quotient_weights),
            len(self.kernel_weights),
        )


def limit_fiber_weights(fp, d, weights=DEFAULT_WEIGHTS, method=METHOD_IMAGE):
    """Quotient and kernel weight multisets of the contraction limit at a
    fixed point.

    method "image-fiber" takes the initial subspace of the row span at
    t = 1, "kernel-limit" that of the kernel, "both" runs the two and
    insists they agree.
    Either way the image rank must come out as C(d+4, 3) and the kernel
    as (d+4)(d+2)d/3, or SaturationRankError is raised.
    """
    fp = as_fixed_point(fp)
    w = as_weight_system(weights)
    w.require_admissible()
    if method not in METHODS:
        raise ValueError("unknown method %r" % (method,))
    if method == METHOD_BOTH:
        img = limit_fiber_weights(fp, d, w, METHOD_IMAGE)
        ker = limit_fiber_weights(fp, d, w, METHOD_KERNEL)
        if (
            img.quotient_weights != ker.quotient_weights
            or img.kernel_weights != ker.kernel_weights
        ):
            raise MethodDisagreement(
                "image-fiber and kernel-limit disagree at %r, d=%d"
                % (fp, d)
            )
        return LimitFiberResult(
            fp, d, img.quotient_weights, img.kernel_weights, METHOD_BOTH,
            img.quotient_fields,
        )

    basis = build_phi_basis(d, w)
    blocks = _point_blocks(fp, basis)
    all_weights = basis.weight_multiset()

    if method == METHOD_IMAGE:
        quotient_cols = _quotient_columns(blocks)
        expected = comb(d + 4, 3)
        if len(quotient_cols) != expected:
            raise SaturationRankError(
                "limit image rank %d != %d at %r, d=%d"
                % (len(quotient_cols), expected, fp, d)
            )
        fields = [basis[c] for c in quotient_cols]
        qw = WeightMultiset(f.weight for f in fields)
        kw = all_weights.difference(qw)
    else:
        kernel_list = []
        for cols, vectors in _kernel_limits(blocks):
            kernel_list += _kernel_weights_for_block(vectors, cols, basis)
        expected = contact_kernel_dimension(d)
        if len(kernel_list) != expected:
            raise SaturationRankError(
                "limit kernel rank %d != %d at %r, d=%d"
                % (len(kernel_list), expected, fp, d)
            )
        kw = WeightMultiset(kernel_list)
        qw = all_weights.difference(kw)
        fields = None

    return LimitFiberResult(fp, d, qw, kw, method, fields)
