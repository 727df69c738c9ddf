"""Slow, direct versions of the exact layer, kept as test oracles.

Each is the plain algorithm the package used before: e_k by the O(n*k)
product recurrence over every value, the monomial weight count, its
split at a pair and the pencil fiber by enumerating every monomial
weight, the same weights counted by arithmetic progressions and split
by Counter subtraction, the pencil fiber and the Legendrian image fiber
taken from those weights, as foldeg.pencil and foldeg.bott built them
before their power sums, the tangent weights of G(2,4) as the differences
foldeg.pencil wrote out before, the difference of two multisets of
integers with its containment check, which foldeg.exact kept before,
the power sums of the monomial weights
in closed form by Stirling numbers and as forward differences of
counted samples, the interpolant as a sum of Lagrange
basis polynomials, a polynomial's value by Horner's rule in Fractions,
the image limit as a
saturation over Z[t] localized at t, which knows nothing of torus
levels, the image limit's rows as an echelon of M(1)
cut down to the pivots' levels, the closed-form Legendrian image fiber
written out as its list of characters, the same fiber as
one echelon per chain at SOURCE_PAIR and moved to the other fixed
points by a coordinate permutation, the kernel limit's weights as
ranks of its projections onto each weight space, the divergence of a
field term by term, the basis Phi_d as the divergence kernel of each
weight space in echelon form, the tangency-kernel dimension at a form
as dim Phi_d less the rank of its dense contraction matrix, the blocks
of the global contraction by union-find, and the kernel limit as one
integer echelon of [M(1)^T | I] per block.  They share no code with
what they check beyond RationalPolynomial, the monomial list and
weights, MonomialField, PowerSums.shifted (for the Stirling closed
form), the complement of a pair, the Fraction rref and kernel basis,
the integer echelon and contraction, the written basis, and (for the
image fiber) the chains of foldeg.limits, which split_chains takes
apart at the END after each.
weight_ordered_basis puts the package's basis, which depends on d
alone, in the order the echelon basis has under a weight system
(OrderedBasis), so that the oracles built on it see the columns that
order gives.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd, lcm
from operator import itemgetter, mul

from foldeg.exact import (
    PowerSums,
    RationalPolynomial,
    WeightSystem,
    character_weights,
    monomials_of_degree,
)
from foldeg.fields import (
    P5_PAIRS,
    as_fixed_point,
    build_phi_basis,
    complementary_pair,
)
from foldeg.forms import AntisymmetricForm, MonomialField
from foldeg.limits import END, SaturationRankError, _chains
from foldeg.matrices import echelon, integer_contraction, kernel_basis, rref


def elementary_symmetric_recurrence(k, values):
    """e_k by expanding prod (1 + v*x) one value at a time."""
    e = [1] + [0] * k
    for seen, v in enumerate(values, start=1):
        for i in range(min(k, seen), 0, -1):
            e[i] += v * e[i - 1]
    return e[k]


def enumerated_monomial_weights(d, weights):
    """Weights of the degree-(d+1) monomials as a sorted tuple, one dot
    product per enumerated exponent vector."""
    return character_weights(monomials_of_degree(d + 1), weights)


def enumerated_complement_weights(pair, d, weights):
    """Weights of the degree-(d+1) monomials in the two variables outside
    pair alone as a sorted tuple, picked from the enumerated monomials."""
    p, q = pair
    alone = [m for m in monomials_of_degree(d + 1)
             if not m[p - 1] and not m[q - 1]]
    return character_weights(alone, weights)


def multiset_difference(values, removed):
    """The integers values less removed, counted with multiplicity, as a
    sorted tuple; ValueError unless removed is contained in values.
    values may also be a Counter of them, which is copied, not changed."""
    rest = Counter(values)
    rest.subtract(Counter(removed))
    if min(rest.values(), default=0) < 0:
        raise ValueError("%r is not contained in %r" % (removed, values))
    return tuple(sorted(rest.elements()))


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


def counted_monomial_weights(d, w):
    """Weights of the degree-(d+1) monomials as a Counter, value ->
    multiplicity, counted by progressions: with x_3^c x_4^e fixed and
    r = d + 1 - c - e, the weights of x_1^a x_2^(r-a) are
    c*w_3 + e*w_4 + r*w_2 + a*(w_1 - w_2) for a = 0..r.  No monomial is
    built; the step is nonzero for admissible weights."""
    w1, w2, w3, w4 = w.values
    n, step = d + 1, w1 - w2
    counts = Counter()
    for c in range(n + 1):
        for e in range(n + 1 - c):
            r = n - c - e
            base = c * w3 + e * w4 + r * w2
            counts.update(range(base, base + (r + 1) * step, step))
    return counts


def split_monomial_weights(pair, d, w, monomial_weights):
    """The Counter of degree-(d+1) monomial weights split at pair (p,q)
    with complement (k,l), as Counters: those of the monomials that
    involve x_p or x_q, and the d+2 weights a*w_k + (d+1-a)*w_l of those
    in x_k, x_l alone, by Counter subtraction, which must remove them all."""
    k, l = complementary_pair(pair)
    wk, wl = w.weight(k), w.weight(l)
    start, step = (d + 1) * wl, wk - wl
    removed = Counter(range(start, start + (d + 2) * step, step))
    rest = monomial_weights.copy()
    rest.subtract(removed)
    assert min(rest.values()) >= 0, "the split removes a weight not there"
    return rest, removed


def _shifted(counts, c):
    """A Counter of values with every value moved by c, zero counts left out."""
    return Counter({v + c: m for v, m in counts.items() if m})


def counted_image_fiber(pair, d, w, monomial_weights):
    """The Legendrian image fiber at pair as a Counter: the monomials that
    involve x_p or x_q shifted by -(w_p + w_q), the rest by -(w_k + w_l)."""
    rest, removed = split_monomial_weights(pair, d, w, monomial_weights)
    low, high = w.pair_sum(pair), w.pair_sum(complementary_pair(pair))
    fiber = _shifted(rest, -low)
    fiber.update(_shifted(removed, -high))
    return fiber


def counted_pencil_fiber(pair, d, weights, counted=None):
    """Twisted pencil fiber at pair as a Counter: every degree-(d+1)
    monomial weight counted by progressions (or counted, the Counter of
    those weights taken once for all six pencils), less the d+2 weights
    split off at pair, every value shifted by w_k + w_l."""
    w = WeightSystem(weights)
    if counted is None:
        counted = counted_monomial_weights(d, w)
    rest, _ = split_monomial_weights(pair, d, w, counted)
    return _shifted(rest, w.pair_sum(complementary_pair(pair)))


def g24_tangent_from_p5(pair, weights):
    """Tangent weights of G(2,4) at <x_i, x_j> as those of P^5 at
    [kappa_ij], the other five pair sums less w_i + w_j, without the
    normal weight (w_k + w_l) - (w_i + w_j), the direction of kappa_kl,
    sorted."""
    w = WeightSystem(weights)
    s = w.pair_sum(pair)
    tangent = sorted(w.pair_sum(q) - s for q in P5_PAIRS if q != pair)
    tangent.remove(w.pair_sum(complementary_pair(pair)) - s)
    return tuple(tangent)


def _power_sum_table(steps, top):
    """c[j][s], j, s = 0..top, of stirling_monomial_power_sums, one
    variable at a time; onto[b][a] = a! S(b, a) counts the maps of b
    things onto a."""
    onto = [[sum((-1) ** (a - i) * comb(a, i) * i ** b for i in range(a + 1))
             for a in range(top + 1)] for b in range(top + 1)]
    first, *rest = steps
    c = [[first ** j * x for x in row] for j, row in enumerate(onto)]
    for u in rest:
        c = [[sum(comb(j, b) * u ** b * onto[b][a] * c[j - b][s - a]
                  for b in range(j + 1) for a in range(min(b, s) + 1))
              for s in range(top + 1)] for j in range(top + 1)]
    return c


def stirling_monomial_power_sums(ws, n, top):
    """p_0..p_top of the weights m.w of the degree-n monomials m in
    r = len(ws) >= 2 variables, as a tuple, in closed form by Stirling
    numbers.  With u_i = w_i - w_r, m.w = n*w_r + sum_{i<r} m_i u_i.
    Write m_i^b = sum_a a! S(b, a) C(m_i, a); as sum_{|m|=n} prod_i
    C(m_i, a_i) = C(n+r-1, |a|+r-1), the second term has the power sums
    sum_s c[j][s] C(n+r-1, s+r-1), c[j][s] the sum of j!/b! prod_i
    u_i^b_i a_i! S(b_i, a_i) over |b| = j, |a| = s; shifted by n*w_r
    they are p_j."""
    *rest, last = ws
    r = len(ws)
    binomials = [comb(n + r - 1, s + r - 1) for s in range(top + 1)]
    return PowerSums(
        sum(map(mul, row, binomials))
        for row in _power_sum_table(tuple(w - last for w in rest), top)
    ).shifted(n * last).p


def counted_power_sum_differences(ws, top):
    """p_0..p_top of the weights m.w of the degree-n monomials m in
    len(ws) variables, each as its forward differences in n up to the
    last nonzero one: every monomial weight at n = 0..top + len(ws) - 1
    counted in a Counter, p_j = sum m_v v^j over the distinct values,
    and the differences taken to the end and trimmed."""
    samples = []
    for n in range(top + len(ws)):
        counts = Counter(map(sum, combinations_with_replacement(ws, n)))
        samples.append([sum(m * v ** j for v, m in counts.items())
                        for j in range(top + 1)])
    table = []
    for ys in zip(*samples):
        deltas = []
        while ys:
            deltas.append(ys[0])
            ys = [b - a for a, b in zip(ys, ys[1:])]
        while deltas and not deltas[-1]:
            deltas.pop()
        table.append(tuple(deltas))
    return table


def lagrange_sum(points):
    """The interpolant as sum_i y_i * prod_{j != i} (x - x_j)/(x_i - x_j),
    over coefficient tuples (tp_add, tp_mul)."""
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    total = TP_ZERO
    for i, (xi, yi) in enumerate(pts):
        num, den = (1,), Fraction(1)
        for j, (xj, _) in enumerate(pts):
            if j != i:
                num = tp_mul(num, (-xj, 1))
                den *= xi - xj
        total = tp_add(total, tp_mul(num, (yi / den,)))
    return RationalPolynomial(total)


def fraction_horner(coefficients, x):
    """sum_i coefficients[i] * x**i by Horner's rule, every step a
    Fraction."""
    acc = Fraction(0)
    for c in reversed(coefficients):
        acc = acc * x + c
    return acc


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


def level_part(row, order, levels, lev):
    """The entries of row (whose k-th entry is column order[k]) that lie
    in columns of level lev, as a vector in column order."""
    vec = [0] * len(order)
    for x, q in zip(row, order):
        if levels[q] == lev:
            vec[q] = x
    return vec


def cut_limit_rows(rows, ncols, levels):
    """The limit rows of one torus block, as (cut_rows, pivot_columns)
    in the block's column order: an integer echelon of M(1) with the
    columns sorted by descending levels[c], each row cut down to its
    pivot's level.  rows holds entries (c0, c1), (c0,) or () for
    c0 + c1*t; row k is nonzero at pivot_columns[k]."""
    order = sorted(range(ncols), key=levels.__getitem__, reverse=True)
    ech, pivots = echelon([[sum(row[q]) for q in order] for row in rows],
                          ncols)
    return ([level_part(row, order, levels, levels[order[p]])
             for row, p in zip(ech, pivots)],
            [order[p] for p in pivots])


def character_weight(chi, weights):
    """The weight sum chi_i * w_i of a Z^4 character (or a monomial)."""
    return sum(a * b for a, b in zip(chi, WeightSystem(weights).values))


def projected_kernel_weights(vectors, col_idx, basis, weights):
    """Weights of a T-stable kernel limit spanned by vectors (indexed
    like col_idx): the rank of the vectors projected onto one weight's
    coordinates is that weight's multiplicity.  Sorted."""
    wt = {c: character_weight(basis[c].character, weights) for c in col_idx}
    out = []
    for chi in sorted(set(wt.values())):
        pos = [k for k, c in enumerate(col_idx) if wt[c] == chi]
        proj = [[v[k] for k in pos] for v in vectors]
        out += [chi] * len(rref(proj)[1])
    return out


def divergence(field):
    """Divergence of a field (a BasisField or a list of MonomialField
    terms of one degree) as {monomial: coefficient}, zero coefficients
    dropped.  A field that mixes monomial degrees raises ValueError."""
    terms = getattr(field, "terms", field)
    if len({sum(t.monomial) for t in terms}) > 1:
        raise ValueError("field mixes monomial degrees")
    out = {}
    for coeff, mono, j in terms:
        if mono[j - 1]:
            m = tuple(e - (i == j) for i, e in enumerate(mono, 1))
            out[m] = out.get(m, 0) + coeff * mono[j - 1]
    return {m: v for m, v in out.items() if v}


def rref_phi_basis(d, weights):
    """The basis as elimination builds it: monomial fields taken
    direction-major, grouped by numeric weight, each group's divergence
    kernel in reduced echelon form with +1 pivots, groups ascending."""
    w = WeightSystem(weights)
    groups = {}
    for j in (1, 2, 3, 4):
        for m in monomials_of_degree(d):
            wt = character_weight(m, w) - w.weight(j)
            groups.setdefault(wt, []).append((m, j))
    fields = []
    for wt in sorted(groups):
        block = groups[wt]
        rows = [m for m in monomials_of_degree(d - 1)
                if character_weight(m, w) == wt]
        rowindex = {m: i for i, m in enumerate(rows)}
        mat = [[0] * len(block) for _ in rows]
        for c, (m, j) in enumerate(block):
            if m[j - 1]:
                lowered = tuple(e - (k == j - 1) for k, e in enumerate(m))
                mat[rowindex[lowered]][c] = m[j - 1]
        for vec in kernel_basis(mat, len(block)):
            terms = tuple(
                MonomialField(coeff, m, j)
                for coeff, (m, j) in zip(vec, block)
                if coeff
            )
            fields.append((terms, wt))
    return fields


def kernel_dimension_by_rank(form, d):
    """The fields of Phi_d tangent to a form, counted as dim Phi_d less
    the exact rank of the dense contraction matrix on the written basis,
    the form's coefficients scaled by their common denominator: the
    oracle of fields.tangent_kernel_dimension's closed form."""
    basis = build_phi_basis(d)
    den = lcm(*(c.denominator for c in form.alpha))
    scaled = AntisymmetricForm([c * den for c in form.alpha])
    mat = [[0] * len(basis) for _ in monomials_of_degree(d + 1)]
    for (r, c), v in integer_contraction(scaled, basis).items():
        mat[r][c] = v
    return len(basis) - len(echelon(mat, len(basis))[1])


def weight_ordered_basis(d, weights):
    """build_phi_basis(d) with its fields in the order of rref_phi_basis:
    by weight at the weight system, then by direction, then by the
    graded-lex position of the leading monomial."""
    position = {m: k for k, m in enumerate(monomials_of_degree(d))}

    def key(field):
        lead = field.terms[0]
        return (character_weight(field.character, weights), lead.direction,
                position[lead.monomial])

    return OrderedBasis(d, sorted(build_phi_basis(d), key=key))


class OrderedBasis(tuple):
    """The fields of a basis of Phi_d in an order of a test's choosing,
    with the degree d that build_contraction_matrix reads."""

    def __new__(cls, d, fields):
        basis = super().__new__(cls, fields)
        basis.d = d
        return basis


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


def _kernel_weights_for_block(vectors, col_idx, basis, weights):
    """Weights of a T-stable kernel limit, one per limit vector.  Each
    vector is cut down to its pivot's level, and within a block one
    level is one character, so its support must lie in one weight
    space."""
    out = []
    for v in vectors:
        support = {character_weight(basis[c].character, weights)
                   for c, x in zip(col_idx, v) if x}
        if len(support) != 1:
            raise SaturationRankError("limit kernel is not a sum of "
                                      "weight spaces")
        out += support
    return out


def kernel_counts_by_block(matrix):
    """Per union-find block of a contraction, named by the set of its
    column characters: how many of its kernel limit vectors
    (_kernel_limits) lie on each character.  The support of each vector
    must lie on one."""
    basis = matrix.basis
    out = {}
    for cols, vectors in _kernel_limits(tuple(_blocks(matrix))):
        counts = Counter()
        for v in vectors:
            (chi,) = {basis[c].character for c, x in zip(cols, v) if x}
            counts[chi] += 1
        out[frozenset(basis[c].character for c in cols)] = counts
    return out


def chain_kernel_counts(chain):
    """The kernel limit count of each character of a chain, given as
    (character, ((low, high), ...)) by descending level, from
    _kernel_limits on its dense rows: row K holds the high entries of
    the K-th character and the low entries of the one before."""
    cols = [(K, e) for K, (_, fields) in enumerate(chain) for e in fields]
    rows = [[()] * len(cols) for _ in range(len(chain) + 1)]
    for c, (K, (low, high)) in enumerate(cols):
        rows[K][c] = (high,) if high else ()
        rows[K + 1][c] = (low,) if low else ()
    levels = [-K for K, _ in cols]
    ((_, vectors),) = _kernel_limits([(list(range(len(cols))), levels, rows)])
    counts = [0] * len(chain)
    for v in vectors:
        (K,) = {cols[c][0] for c, x in enumerate(v) if x}
        counts[K] += 1
    return counts


def kernel_copies(chain, counts):
    """The kernel count of each character of chain from its image count
    in counts: its fields less its image copies."""
    return [len(fields) - n for (_, fields), n in zip(chain, counts)]


def split_chains(sequence):
    """The chains that foldeg.limits._chains lays end to end, as a list
    of lists: the sequence split at each END.  Each chain must hold a
    character and the sequence must end with END."""
    chains, chain = [], []
    for entry in sequence:
        if entry != END:
            chain.append(entry)
            continue
        assert chain, "two ENDs in a row"
        chains.append(chain)
        chain = []
    assert not chain, "the last chain has no END"
    return chains


def _chain_matrix(chain):
    """The column characters and the dense integer rows of M(1) on a
    chain, one column per field: row K is the high row of the K-th
    character and the low row of the one before."""
    owner = []
    for chi, fields in chain:
        owner += [chi] * len(fields)
    rows = [[0] * len(owner) for _ in range(len(chain) + 1)]
    c = 0
    for K, (_, fields) in enumerate(chain):
        above, below = rows[K], rows[K + 1]
        for low, high in fields:
            above[c], below[c] = high, low
            c += 1
    return owner, rows


def pivots_by_character(columns, pivots):
    """How many of the pivot columns fall in each character of columns,
    given as the tuples of its fields (an empty one for END)."""
    owner = [K for K, fields in enumerate(columns) for _ in fields]
    counts = [0] * len(columns)
    for p in pivots:
        counts[owner[p]] += 1
    return counts


def fiber_characters(d, pair):
    """The image fiber at [kappa_pair] as sorted Z^4 characters, in
    closed form (foldeg.bott): m - e_p - e_q for each degree-(d+1)
    monomial m that involves x_p or x_q, m - e_k - e_l for the others.

    >>> fiber_characters(1, (1, 2))[:2]
    ((-1, 0, 0, 1), (-1, 0, 1, 0))
    """
    if d < 1:
        raise ValueError("field degree must be >= 1, got %r" % (d,))
    p, q = pair = as_fixed_point(pair)
    low = tuple(int(j in pair) for j in (1, 2, 3, 4))
    high = tuple(1 - e for e in low)
    fiber = []
    for m in monomials_of_degree(d + 1):
        a, b, c, e = m
        s1, s2, s3, s4 = low if m[p - 1] or m[q - 1] else high
        fiber.append((a - s1, b - s2, c - s3, e - s4))
    return tuple(sorted(fiber))


# The fixed point whose image fiber _chain_fiber computes; the other five
# are reached from it by a coordinate permutation (transport_characters).
SOURCE_PAIR = (1, 2)


def _chain_fiber(d):
    """The image fiber at SOURCE_PAIR as sorted Z^4 characters: one copy
    of a column's character per pivot of its chain's echelon, no basis
    and no weights.  Raises SaturationRankError unless there are
    C(d+4, 3)."""
    fiber = []
    for chain in split_chains(_chains(d, SOURCE_PAIR)):
        owner, rows = _chain_matrix(chain)
        fiber += [owner[p] for p in echelon(rows, len(owner))[1]]
    if len(fiber) != comb(d + 4, 3):
        raise SaturationRankError("chain image rank %d != %d at d=%d"
                                  % (len(fiber), comb(d + 4, 3), d))
    return tuple(sorted(fiber))


def transport_characters(characters, sigma):
    """Move characters by the coordinate permutation i -> sigma[i-1]:
    chi goes to chi' with chi'_sigma(i) = chi_i.  Returned sorted.

    >>> transport_characters([(2, -1, 0, 0)], (3, 4, 1, 2))
    ((0, 0, 2, -1),)
    """
    move = itemgetter(*(sigma.index(j) for j in (1, 2, 3, 4)))
    return tuple(sorted(map(move, characters)))
