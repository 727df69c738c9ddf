"""Limits of tangency data along the contact deformation, exactly.

At each torus-fixed form kappa_ij the straight path
omega_t = kappa_ij + t * kappa_kl ({k,l} the complementary pair) enters
the contact locus for t != 0.  Contraction against the degree-d field
basis gives a matrix over Q[t]; what survives at t = 0 after saturating
by t is computed here by two deliberately independent routes:

* image-fiber: a one-pass unit-pivot elimination over Q[t] localized at
  t (the limit_rows kernel) gives a basis of the limit of the row span;
  its pivot columns name basis fields whose weights (and Z^4
  characters) are the fiber of the image sheaf at the fixed point.
* kernel-limit: a fraction-free (Bareiss) nullspace over Z[t], followed
  by the classical re-adaptation loop — evaluate at t = 0, and while the
  evaluations are dependent, push a dependency back into the family,
  divide by t, try again, at most _readaptation_bound times.

Torus equivariance makes the matrix block-diagonal after grouping rows
and columns by weight (t itself carries the weight difference of the two
pairs), so both routes run on small connected blocks.
"""

from itertools import count
from math import comb, gcd

from .exact import (
    DEFAULT_WEIGHTS,
    WeightMultiset,
    as_weight_system,
)
from .fields import (
    PerturbedForm,
    as_fixed_point,
    build_phi_basis,
    contact_kernel_dimension,
    integer_contraction,
    monomials_of_degree,
)
from .linalg import limit_rows, rank
# Not called here: the kernel route finds its dependencies with
# _first_dependency.  The name stays because perfbench/tracing.py hooks
# foldeg.limits.kernel_basis.
from .linalg import kernel_basis  # noqa: F401
from .tpolys import (
    TP_ZERO,
    tp_add,
    tp_constant_term,
    tp_divexact,
    tp_mul,
    tp_neg,
    tp_scale,
    tp_shift_down,
    tp_sub,
    tp_valuation,
)

METHOD_IMAGE = "image-fiber"
METHOD_KERNEL = "kernel-limit"
METHOD_BOTH = "both"
METHODS = (METHOD_IMAGE, METHOD_KERNEL, METHOD_BOTH)


class SaturationRankError(ArithmeticError):
    """The saturated limit has the wrong rank — a computation bug, never
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
    """Assemble the sparse matrix of phi -> contract(omega_t, phi)."""
    fp = as_fixed_point(fp)
    if basis.d != d:
        raise ValueError(
            "basis is for degree %d, not %d" % (basis.d, d)
        )
    entries = integer_contraction(PerturbedForm(fp), basis)
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
    """(columns, dense t-polynomial rows) of each connected block, in
    the order of _connected_blocks; one pass over the entries buckets
    them by row."""
    nrows, ncols = matrix.shape
    by_row = [[] for _ in range(nrows)]
    for (r, c), (c0, c1) in matrix.entries.items():
        by_row[r].append((c, (c0, c1) if c1 else (c0,)))
    local = [0] * ncols
    for row_idx, col_idx in _connected_blocks(matrix):
        for k, c in enumerate(col_idx):
            local[c] = k
        rows = []
        for r in row_idx:
            row = [TP_ZERO] * len(col_idx)
            for c, e in by_row[r]:
                row[local[c]] = e
            rows.append(row)
        yield col_idx, rows


def _quotient_columns(matrix):
    """Basis columns whose weights make up the image fiber: the pivot
    columns that limit_rows picks, block by block."""
    cols = []
    for col_idx, rows in _blocks(matrix):
        _, pivots = limit_rows(rows, len(col_idx))
        cols += [col_idx[k] for k in pivots]
    return cols


def _tpoly_echelon(rows, ncols):
    """Fraction-free row echelon over Z[t] (Bareiss: every 2x2 cross is
    divided by the previous pivot, exactly).  Returns (rows, pivot_cols)."""
    mat = [list(r) for r in rows]
    pivots = []
    prev = (1,)
    rk = 0
    for col in range(ncols):
        best = -1
        best_key = None
        for r in range(rk, len(mat)):
            e = mat[r][col]
            if e:
                key = (len(e), max(abs(c) for c in e).bit_length(), r)
                if best < 0 or key < best_key:
                    best, best_key = r, key
        if best < 0:
            continue
        mat[rk], mat[best] = mat[best], mat[rk]
        prow = mat[rk]
        p = prow[col]
        for r in range(rk + 1, len(mat)):
            row = mat[r]
            e = row[col]
            row[col] = TP_ZERO
            for c in range(col + 1, ncols):
                num = tp_sub(tp_mul(p, row[c]), tp_mul(e, prow[c]))
                row[c] = tp_divexact(num, prev) if num else TP_ZERO
        pivots.append(col)
        prev = p
        rk += 1
    return mat[:rk], pivots


def _tpoly_nullspace(rows, ncols):
    """Basis of the right kernel over the fraction field Q(t), with
    entries cleared to Z[t] (Cramer scaling keeps every division exact)."""
    ech, pivots = _tpoly_echelon(rows, ncols)
    pivot_set = set(pivots)
    vecs = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        active = [i for i, c in enumerate(pivots) if c < f]
        scale = (1,)
        for i in active:
            scale = tp_mul(scale, ech[i][pivots[i]])
        x = [TP_ZERO] * ncols
        x[f] = scale
        for i in reversed(active):
            ci = pivots[i]
            s = TP_ZERO
            for j in range(ci + 1, ncols):
                if ech[i][j] and x[j]:
                    s = tp_add(s, tp_mul(ech[i][j], x[j]))
            if s:
                x[ci] = tp_neg(tp_divexact(s, ech[i][ci]))
        vecs.append(x)
    return vecs


def _vec_normalize(v):
    """Divide a t-polynomial vector by its t-valuation and int content."""
    val = None
    for e in v:
        if e:
            ev = tp_valuation(e)
            if val is None or ev < val:
                val = ev
    if val is None:
        raise SaturationRankError("zero vector in kernel family")
    if val:
        v = [tp_shift_down(e, val) if e else e for e in v]
    g = 0
    for e in v:
        for c in e:
            g = gcd(g, c)
        if g == 1:
            break
    if g > 1:
        v = [tuple(c // g for c in e) for e in v]
    return v


def _first_dependency(vectors):
    """Integer coefficients of a linear dependency among int vectors, or
    None if they are independent.

    One fraction-free elimination in the given order: the first vector
    that reduces to zero against the earlier ones gives the dependency,
    with a nonzero coefficient at that vector and zeros after it.
    """
    n = len(vectors)
    reduced = []  # (pivot, row, combination of the input vectors)
    for k, v in enumerate(vectors):
        row = list(v)
        combo = [0] * n
        combo[k] = 1
        for p, brow, bcombo in reduced:
            e = row[p]
            if e:
                b = brow[p]
                row = [b * x - e * y for x, y in zip(row, brow)]
                combo = [b * x - e * y for x, y in zip(combo, bcombo)]
                g = 0
                for x in row + combo:
                    g = gcd(g, x)
                    if g == 1:
                        break
                if g > 1:
                    row = [x // g for x in row]
                    combo = [x // g for x in combo]
        pivot = next((i for i, x in enumerate(row) if x), -1)
        if pivot < 0:
            return combo
        reduced.append((pivot, row, combo))
    return None


def _readaptation_bound(vecs):
    """Most re-adaptation steps a kernel family can take: the sum of its
    members' largest t-degrees.

    Each step divides the family's wedge by t^v with v >= 1, and that
    wedge is a nonzero vector of minors of t-degree at most this sum, so
    its t-valuation starts no higher."""
    return sum(max(map(len, v)) - 1 for v in vecs)


def _limit_kernel_vectors(int_rows, ncols):
    """t -> 0 limit of the kernel family by repeated re-adaptation.

    Start with a Z[t] kernel basis; evaluate at t = 0; while the
    evaluations are linearly dependent, replace one member by the
    dependency combination divided by its t-valuation, and repeat.
    Returns (the limit vectors, i.e. the values at t = 0, and the number
    of steps taken)."""
    vecs = [_vec_normalize(v) for v in _tpoly_nullspace(int_rows, ncols)]
    for steps in count():
        evaluated = [[tp_constant_term(e) for e in v] for v in vecs]
        ints = _first_dependency(evaluated)
        if ints is None:
            return evaluated, steps
        if not steps:
            # only a family that needs re-adapting pays for its bound
            bound = _readaptation_bound(vecs)
        if steps == bound:
            raise SaturationRankError(
                "kernel re-adaptation did not stabilize within its bound"
            )
        k = max(i for i, c in enumerate(ints) if c)
        combo = [TP_ZERO] * ncols
        for i, ci in enumerate(ints):
            if ci:
                for pos in range(ncols):
                    if vecs[i][pos]:
                        combo[pos] = tp_add(
                            combo[pos], tp_scale(vecs[i][pos], ci)
                        )
        vecs[k] = _vec_normalize(combo)


def _kernel_weights_for_block(evaluated, col_idx, basis):
    """Weights of a T-stable kernel limit: project the limit vectors onto
    each weight's coordinates; the projection ranks are the
    multiplicities (and must add up to the kernel dimension)."""
    if not evaluated:
        return []
    weights = sorted({basis[c].weight for c in col_idx})
    out = []
    for chi in weights:
        pos = [k for k, c in enumerate(col_idx) if basis[c].weight == chi]
        proj = [[v[k] for k in pos] for v in evaluated]
        out += [chi] * rank(proj, len(pos))
    if len(out) != len(evaluated):
        raise SaturationRankError(
            "limit kernel is not a sum of weight spaces"
        )
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

    method "image-fiber" saturates the row module, "kernel-limit" adapts
    the kernel family, "both" runs the two and insists they agree.
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
    matrix = build_contraction_matrix(fp, d, basis)
    all_weights = basis.weight_multiset()

    if method == METHOD_IMAGE:
        quotient_cols = _quotient_columns(matrix)
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
        for col_idx, int_rows in _blocks(matrix):
            evaluated, _ = _limit_kernel_vectors(int_rows, len(col_idx))
            kernel_list += _kernel_weights_for_block(
                evaluated, col_idx, basis
            )
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
