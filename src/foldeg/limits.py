"""Limits of tangency data along the contact deformation, exactly.

At each torus-fixed form kappa_pq the straight path
omega_t = kappa_pq + t * kappa_kl ({k,l} the complementary pair) enters
the contact locus for t != 0.  Contracted along the path, a field of
Z^4 character chi meets two rows only: low = chi + e_p + e_q (t^0) and
high = chi + e_k + e_l (t^1).  The high row of chi is the low row of
chi + v, v = e_k + e_l - e_p - e_q, so the matrix falls apart into
chains chi_0, chi_0 - v, ... ((d+2)^2 of them), one character per level
chi_k + chi_l, and the entry at row r and column c carries
t^(lev(r) - lev(c)).  So M(t) = T_r(t) M(1) T_c(t)^-1 with diagonal
T(t) = diag(t^lev): the path is a torus orbit, and what survives at
t = 0 is an initial subspace of the t = 1 data.  _chains writes the
chains of a pair in closed form, from the basis formula of
fields.build_phi_basis and the path's t^0 and t^1 coefficients by
direction, e_p - e_q and e_k - e_l; no matrix is assembled.  It lays
them end to end in one list, with an empty character, END, after each
chain, and each route reads that list in one pass.  Two independent
routes compute the limit on it:

* image-fiber: the row span, at the highest levels.  The route hands
  the chains' fields to one linalg.limit_rows sweep as _chains writes
  them, by descending level within each chain, and reads only the
  pivots of the integer echelon of M(1) it fills from them, counted
  per character; END leaves no row live, so each chain pivots on its
  own.  Each pivot is one copy of its column's character in the fiber,
  whatever the weights.  The fiber this gives has a closed form, which
  foldeg.bott's image route evaluates instead, and which its "both"
  compares with these counts (the argument is in the foldeg.bott
  docstring).
* kernel-limit: the nullspace, at the lowest levels, by a rank rule per
  character and no elimination (_kernel_rule).  Number a chain's
  characters c_0, c_1, ... from the top, so that c_K has its high row
  on r_K and its low row on r_(K+1).  A kernel vector x of M(1) whose
  lowest level is c_K has the limit x_K, with low . x_K = 0 (row
  r_(K+1)) and high . x_K in A_K, the values that the characters above
  can absorb on row r_K.  So c_K counts dim {x : low . x = 0,
  high . x in A_K}.  A_0 = 0 and A_(K+1) = {low . x : high . x in A_K},
  so every A_K is 0 or Q: it is Q after c_K if A_K = Q and low != 0, or
  if A_K = 0 and rank [low; high] > rank high.  A character with f
  fields of which the kernel takes c is f - c copies in the image fiber.
  END has no field: it counts 0 and leaves A = 0 for the next chain.

Each route splits every field of the chains into the image fiber or the
tangent kernel: it counts the image copies of each entry of the list,
and the entry's other fields are kernel.  The two parts must hold
C(d+4, 3) + (d+4)(d+2)d/3 = dim Phi_d fields, the size that
fields.build_phi_basis counts in closed form: no route writes a field.
"both" runs the routes on one set of chains (_pair_chains) and compares
their counts entry by entry, which is stronger than equal multisets of
image characters.  A route returns the list and its counts; the
characters and their weights are built from the counts only when read
(LimitFiberResult), so a route builds no list of characters and
evaluates no weight.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import combinations, compress, repeat
from math import comb
from operator import itemgetter

from .exact import DEFAULT_WEIGHTS, as_weight_system, character_weights
from .fields import (
    as_fixed_point,
    build_phi_basis,
    complementary_pair,
    contact_kernel_dimension,
)
from .linalg import limit_rows
# Not called here.  The names stay because perfbench/tracing.py hooks
# foldeg.limits.kernel_basis and foldeg.limits.rank; ROADMAP item 1
# deletes them.
from .linalg import kernel_basis, rank  # noqa: F401

METHOD_IMAGE = "image-fiber"
METHOD_KERNEL = "kernel-limit"
METHOD_BOTH = "both"
METHODS = (METHOD_IMAGE, METHOD_KERNEL, METHOD_BOTH)
# the --method values of foldeg.cli, each naming its route
METHOD_FLAGS = {"image": METHOD_IMAGE, "kernel": METHOD_KERNEL, "both": METHOD_BOTH}

class SaturationRankError(ArithmeticError):
    """A limit has the wrong rank — a computation bug, never
    a property of the input, so it is raised loudly instead of patched."""


class MethodDisagreement(ArithmeticError):
    """Two computations of one limit fiber gave different characters."""


# The global contraction, whose union-find blocks are the chains, lives
# in foldeg.matrices as the tests' oracle.  Nothing here calls this stub:
# it stays because perfbench/tracing.py hooks the name, and ROADMAP
# item 1 deletes it.
def build_contraction_matrix(fp, d, basis):
    """The sparse matrix of phi -> contract(omega_t, phi) at fp
    (foldeg.matrices.build_contraction_matrix)."""
    from . import matrices
    return matrices.build_contraction_matrix(fp, d, basis)


# The empty character that ends each chain in the list _chains writes.
END = (None, ())


def _chains(d, pair):
    """The chains of the contraction at pair, laid end to end in one
    list: each chain as its (character, ((low, high), ...)), with one
    entry pair per basis field of the character, the characters by
    descending level chi_k + chi_l, and END after it.

    A character chi of degree d - 1 has entries >= -1, at most one -1.
    With chi_j = -1 its one field is x^(chi + e_j) d/dx_j.  Otherwise it
    has three, x^(chi + e_j) d/dx_j - (chi_j + 1)/s * x^(chi + e_4) d/dx_4
    for j = 1, 2, 3, scaled here by s = chi_4 + 1.  Direction j goes into
    low with the t^0 coefficient of the path's a_j and into high with
    its t^1 one: a_p = x_q, a_q = -x_p, a_k = t*x_l, a_l = -t*x_k."""
    if d < 1:
        raise ValueError("field degree must be >= 1, got %r" % (d,))
    (p, q), (k, l) = pair, complementary_pair(pair)
    # chi from (chi_p, chi_q, chi_k, chi_l)
    place = itemgetter(*((p, q, k, l).index(j) for j in (1, 2, 3, 4)))
    low, high = place((1, -1, 0, 0)), place((0, 0, 1, -1))
    (l1, l2, l3, l4), (h1, h2, h3, h4) = low, high
    # the one field of a character whose entry at j is -1
    ones = {j: ((low[j - 1], high[j - 1]),) for j in (p, q, k, l)}
    n, chains = d - 1, []
    # A chain keeps a = chi_p - chi_q and b = chi_k - chi_l, with
    # a + b = n mod 2.  Its level runs down in steps of 2, from where
    # chi_p, chi_q >= -1 allow to where chi_k, chi_l >= -1 do.  Only its
    # top has chi_p or chi_q = -1, both (so no field) if a = 0; only its
    # bottom has chi_k or chi_l = -1, both if b = 0.
    for a in range(-n - 2, n + 3):
        top, head = n + 2 - abs(a), a and ones[q if a > 0 else p]
        for b in range(abs(a) - n - 4, n + 5 - abs(a), 2):
            bottom, tail = abs(b) - 2, b and ones[l if b > 0 else k]
            if top == bottom:
                continue  # its one character has two entries -1
            if head:
                cp, ck = (n - top + a) // 2, (top + b) // 2
                chains.append((place((cp, cp - a, ck, ck - b)), head))
            for lev in range(top - 2, bottom, -2):
                cp, ck = (n - lev + a) // 2, (lev + b) // 2
                m1, m2, m3, s = chi = place((cp, cp - a, ck, ck - b))
                m1, m2, m3, s = m1 + 1, m2 + 1, m3 + 1, s + 1
                chains.append((chi, ((s * l1 - m1 * l4, s * h1 - m1 * h4),
                                     (s * l2 - m2 * l4, s * h2 - m2 * h4),
                                     (s * l3 - m3 * l4, s * h3 - m3 * h4))))
            if tail:
                cp, ck = (n - bottom + a) // 2, (bottom + b) // 2
                chains.append((place((cp, cp - a, ck, ck - b)), tail))
            # END after the chain, never empty: a = b = 0 spans n + 4 levels
            chains.append(END)
    return chains


@lru_cache(maxsize=1)
def _pair_chains(d, pair):
    """The chains at pair as _chains writes them, the tuple of their
    entries' fields (the columns limit_rows reads) and the number of
    fields, kept for the second route under "both"; one entry, so
    nothing is kept across degrees."""
    chains = tuple(_chains(d, pair))
    columns = tuple(map(itemgetter(1), chains))
    return chains, columns, sum(map(len, columns))


def _kernel_rule(chains):
    """The image multiplicity of each character of chains laid end to
    end by the rank rule of the module docstring: its f fields less its
    copies in the kernel limit, which is the rank it adds.  absorbs is
    A_K = Q; it starts false.  The empty character after a chain counts
    0 and sets it false, as A_0 = 0 at the top of the next."""
    counts, absorbs = [], False
    for _, fields in chains:
        if len(fields) == 1:  # one field (x, y): the ranks are truth tests
            ((x, y),) = fields
            counts.append(1 if x or (y and not absorbs) else 0)
            absorbs = bool(x) and (absorbs or not y)
        elif not fields:  # END
            counts.append(0)
            absorbs = False
        elif absorbs:  # the rank of low
            absorbs = any(x for x, _ in fields)
            counts.append(int(absorbs))
        else:  # rank [low; high] = [a minor != 0] + [an entry != 0]
            both = any(x * b != y * a for (x, y), (a, b)
                       in combinations(fields, 2)) + any(map(any, fields))
            counts.append(both)
            absorbs = both > any(y for _, y in fields)
    return counts


class LimitFiberResult(namedtuple(
    "LimitFiberResult", "pair d weights method chains counts",
)):
    """The fiber at one fixed point as the route split it: chains is the
    list of chains the route read (_chains), and counts holds, for each
    entry of it, the copies of its character in the fiber of the image
    sheaf (what the Euler class is made of); the entry's other fields
    are the fiber of the tangent kernel.  The limit is fixed by the
    whole torus, so the counts do not depend on the weight system.

    quotient_characters is the image fiber as sorted Z^4 characters;
    quotient_weights and kernel_weights are the image fiber and the
    kernel at weights, each a sorted tuple of ints (character_weights).
    All three are built from the counts when read, not stored."""

    __slots__ = ()

    def _characters(self, image):
        """The image (image true) or kernel characters, in route order."""
        for (chi, fields), n in zip(self.chains, self.counts):
            yield from repeat(chi, n if image else len(fields) - n)

    @property
    def quotient_counts(self):
        """The image fiber as (characters, copies), two lists: each of
        its characters once, in route order, and its number of copies."""
        return (list(compress(map(itemgetter(0), self.chains), self.counts)),
                list(filter(None, self.counts)))

    @property
    def quotient_characters(self):
        return tuple(sorted(self._characters(True)))

    @property
    def quotient_weights(self):
        return character_weights(self._characters(True), self.weights)

    @property
    def kernel_weights(self):
        return character_weights(self._characters(False), self.weights)

    def __repr__(self):
        image = sum(self.counts)
        kernel = sum(len(fields) for _, fields in self.chains) - image
        return "LimitFiberResult(pair=%r, d=%d, %d quotient / %d kernel)" % (
            self.pair, self.d, image, kernel)


def limit_fiber_weights(fp, d, weights=DEFAULT_WEIGHTS, method=METHOD_IMAGE):
    """The contraction limit at a fixed point, split into the image fiber
    and the tangent kernel (a LimitFiberResult, whose weights are those
    of its characters at weights).

    method "image-fiber" takes the initial subspace of the row span at
    t = 1, "kernel-limit" that of the kernel, "both" runs the two and
    insists their counts agree at every character.
    Either way the image rank must come out as C(d+4, 3) and the kernel
    as (d+4)(d+2)d/3, the route's rank and its other part together as
    dim Phi_d, or SaturationRankError is raised.

    >>> res = limit_fiber_weights((3, 4), 2)
    >>> res.method, len(res.quotient_weights)
    ('image-fiber', 20)
    >>> res
    LimitFiberResult(pair=(3, 4), d=2, 20 quotient / 16 kernel)
    """
    fp = as_fixed_point(fp)
    w = as_weight_system(weights)
    w.require_admissible()
    if method not in METHODS:
        raise ValueError("unknown method %r" % (method,))
    if method == METHOD_BOTH:
        img = limit_fiber_weights(fp, d, w, METHOD_IMAGE)
        ker = limit_fiber_weights(fp, d, w, METHOD_KERNEL)
        if img.counts != ker.counts:
            raise MethodDisagreement(
                "image-fiber and kernel-limit disagree at %r, d=%d"
                % (fp, d)
            )
        return img._replace(method=METHOD_BOTH)

    size = len(build_phi_basis(d))
    chains, columns, nfields = _pair_chains(d, fp)

    if method == METHOD_IMAGE:
        counts = limit_rows(columns, nfields)
        limit, rank, expected = "image", sum(counts), comb(d + 4, 3)
    else:
        counts = _kernel_rule(chains)
        limit, rank = "kernel", nfields - sum(counts)
        expected = contact_kernel_dimension(d)
    if rank != expected:
        raise SaturationRankError(
            "limit %s rank %d != %d at %r, d=%d"
            % (limit, rank, expected, fp, d)
        )
    if nfields != size:
        raise SaturationRankError(
            "chains hold %d fields, not dim Phi_d = %d at %r, d=%d"
            % (nfields, size, fp, d)
        )
    return LimitFiberResult(fp, d, w, method, chains, counts)
