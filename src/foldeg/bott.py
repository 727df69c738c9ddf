"""Torus localization: one routine for both families.

Both degrees are Bott sums over the six torus-fixed points of a family's
parameter space, named by index pairs (i,j): at each one, the top
elementary symmetric function of the fiber weights divided by the one of
the tangent weights (Ellingsrud-Stromme, Bott's formula and enumerative
geometry, JAMS 1996).  The sum must be an integer -- a hard error
otherwise, since a non-integer can only mean a wrong fiber.  A family is
data (Family): its minimum degree, polynomial bound, fiber table, check
and tangent weights at a fixed point, and published degree, one exact
integer formula in d; localize, the one loop over the fixed points,
evaluates and counts each fiber on one path (_evaluated, which
Family.fiber shares) for any of them.  This module holds the Legendrian
family (LEGENDRIAN, legendrian_degree), whose parameter space is the
P^5 of antisymmetric forms; foldeg.pencil holds the pencil family, on
the quadric G(2,4) in that P^5.  Both fiber tables are one split of the
degree-(d+1) monomial weights at a pair (split_power_sums), shifted in
two ways.

The Legendrian image fiber has a closed form.  At the pair (p,q) with
complement (k,l) it is one character per degree-(d+1) monomial m:
m - e_p - e_q if m involves x_p or x_q, and m - e_k - e_l for the d + 2
monomials in x_k, x_l alone.  The limit is fixed by the torus and S_4
moves the path at (1,2) to the one at any pair, as it moves the monomials,
so it is enough to argue at (1,2), on the chains of foldeg.limits.  There
the fiber count of a character is the rank its columns add to the
echelon of its chain's M(1), with the columns by descending level.  The
real rows of a chain are monomials, and its M(1) has full row rank,
because the contraction is onto S_(d+1).  A real row m with m_1 or
m_2 > 0 is the low row of the character m - e_1 - e_2, the first by
level to touch it, whose low entries are not all zero ((s, -s, 0) with
s = chi_4 + 1 >= 1 for three fields, the t^0 coefficient of a_1 or a_2
for one), so that character adds rank 1 at least.  A real row m with
m_1 = m_2 = 0 is the top row of its chain: m - e_1 - e_2 has two -1
entries and no field, so only the top character m - e_3 - e_4 touches
m, through its high row.  Its fields have the (low, high) entries
(s, 1), (-s, 1), (0, m_3 + m_4), so it adds rank 2, one for each row;
for m = x_3^(d+1) or x_4^(d+1) it has one field, no low row, and adds 1.
These lower bounds add up to the number of real rows, the full rank, so
they are exact.  In short, each real row m is first spanned by the
character whose low row it is, m - e_1 - e_2.  The exception is
m_1 = m_2 = 0: that character has no field, so the character below
claims m through its high row, m - e_3 - e_4.

The image route therefore takes each fiber's power sums p_0..p_5, all
that e_5 needs, in closed form (_image_table, LEGENDRIAN.table), with
no chains, echelon or field basis.  The split and the shifts are linear
with constant coefficients, so they commute with forward differences:
they act once per weight system and pair on the monomial power sums as
polynomials in d (exact.Differences).  The six tables, the tangent
numbers of the six pairs, their common denominator and each pair's
factor to it make one record per family and weight system
(_fixed_points), so a degree costs one binomial row and one fiber
count, and at each pair one dot product per p_j, the count and length
checks, the family's check, one Newton's step for e_n of the fiber and
one product by the factor.  Every method sums these closed-form
fibers.  The kernel route and "both" also compute the
fibers directly (foldeg.limits), as checks that do not feed the sum
(legendrian_check, the family's per-point check): each direct fiber
must have the closed-form Z^4 characters, compared as the closed-form
count of each of its characters (closed_form_counts), and the power
sums that are summed.  "both"
checks each (d, pair) once in a process, since the characters do not
depend on the weights; the kernel route checks on every call.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, prod
from operator import index, itemgetter

from . import exact
from .exact import (
    CACHED_SYSTEMS,
    DEFAULT_WEIGHTS,
    NonIntegralDegree,
    PowerSums,
    as_weight_system,
    character_values,
    lagrange_interpolate,
    power_sum_differences,
    power_sums_on_row,
    scalar_to_string,
)
from .fields import P5_PAIRS, as_fixed_point, complementary_pair
from .limits import (
    METHOD_BOTH,
    METHOD_IMAGE,
    METHOD_KERNEL,
    METHODS,
    MethodDisagreement,
    limit_fiber_weights,
)


class FiberCountError(ArithmeticError):
    """An evaluated fiber table has the wrong number of weights, or too
    few power sums for e_n (always a bug, never data)."""


def tangent_weights_p5(pair, weights=DEFAULT_WEIGHTS):
    """Tangent weights of the form space at [kappa_ij]: the five values
    (w_k + w_l) - (w_i + w_j) over the other pairs, as a sorted tuple.

    >>> tangent_weights_p5((1, 2), (0, 2, 7, 10))
    (5, 7, 8, 10, 15)
    """
    pair = as_fixed_point(pair)
    w = as_weight_system(weights).require_admissible()
    s = w.pair_sum(pair)
    return tuple(sorted(w.pair_sum(q) - s for q in P5_PAIRS if q != pair))


class FixedPointContribution(namedtuple(
    "FixedPointContribution", "pair numerator denominator"
)):
    """One localization summand, numerator/denominator with the raw Euler
    numbers kept unreduced (denominator normalized positive); value is
    that Fraction, made when read."""

    __slots__ = ()

    @property
    def value(self):
        return Fraction(self.numerator, self.denominator)


def default_method(d):
    """Run both limit routes as a cross-check for small d, where the
    kernel-limit route is cheap; the image route alone above that."""
    return METHOD_BOTH if d <= 4 else METHOD_IMAGE


class DegreeReport(namedtuple(
    "DegreeReport", "family d weights contributions degree"
)):
    """Result of one localization run: the per-point contributions and
    the integer degree they sum to."""

    __slots__ = ()

    def to_json_dict(self):
        contributions = [
            {"pair": list(c.pair), "num": str(c.numerator),
             "den": str(c.denominator), "value": scalar_to_string(c.value)}
            for c in self.contributions]
        out = {} if self.family == "legendrian" else {"family": self.family}
        out.update(d=self.d, weights=list(self.weights),
                   contributions=contributions, degree=str(self.degree))
        return out

    def __repr__(self):
        return "DegreeReport(%s, d=%d, degree=%d)" % (
            self.family, self.d, self.degree
        )


class Family(namedtuple("Family", "name min_degree degree_bound table removed"
                        " check tangent_weights formula")):
    """One family of foliations, as the data its localization needs.

    At each torus-fixed point, a pair of P5_PAIRS, table(pair, w) builds
    the fiber's power sums as Differences in d + 1 at a WeightSystem w,
    removed(d) is how many monomials of degree d + 1 the fiber leaves
    out, check(pair, d, w, fiber, **options) checks each fiber that
    localize sums, and tangent_weights(pair, weights) gives the n
    tangent weights of the parameter space, of dimension n.  The six
    tables and tangent numbers are built once per family and weight
    system into one record (_fixed_points, cached: read it, never change
    it).  degree_bound is the degree of the counting polynomial in d
    (3n), and formula(d) is the published one at an int d.
    """

    __slots__ = ()

    def fiber(self, pair, d, weights):
        """The fiber at pair in degree d as PowerSums: the table at d + 1,
        which must count the C(d+4,3) monomial weights of degree d + 1
        less the removed(d) that it leaves out (FiberCountError
        otherwise).  It reads the record that localize reads, and
        evaluates and counts the table as localize does (_at_degree,
        _evaluated)."""
        i = P5_PAIRS.index(as_fixed_point(pair))
        _, points, row, count = _at_degree(self, d, as_weight_system(weights))
        return _evaluated(points[i][-1], row, count, d)

    def closed_form(self, d):
        """The published degree at an int d (TypeError otherwise): the
        formula evaluated exactly, which must be integral."""
        d = index(d)
        if d < self.min_degree:
            raise ValueError(
                "the %s closed form starts at d = %d, got %r"
                % (self.name, self.min_degree, d)
            )
        value = self.formula(d)
        if value.denominator != 1:
            raise ArithmeticError("closed form not integral at d=%d" % d)
        return int(value)

    def closed_form_polynomial(self):
        """The published degree as a RationalPolynomial in d, interpolated
        from the closed form at degree_bound + 1 consecutive d: exact, as
        the formula is a polynomial of that degree."""
        lo = self.min_degree
        return lagrange_interpolate(lo, [
            self.closed_form(d) for d in range(lo, lo + self.degree_bound + 1)])


TOP = 5  # p_0..p_5, all that e_5 of a Legendrian fiber reads


@lru_cache(maxsize=2 * CACHED_SYSTEMS)  # both families
def _fixed_points(family, w):
    """The record of a family at a WeightSystem w, for any d: (common,
    width, points), points an entry (pair, n, sign, den, factor, table)
    per pair of P5_PAIRS, in order.  There the n tangent weights have
    the product e_n = sign * den, den > 0; common is the lcm of the six
    den and factor = common // den; table is family.table(pair, w); and
    width is the length of the longest p_j of the six tables, so one
    binomial row serves every point of a degree.  Every call with these
    arguments shares the record: read it, never change it."""
    tangents = [family.tangent_weights(p, w) for p in P5_PAIRS]
    common = lcm(*map(prod, tangents))  # lcm is positive
    points = []
    for pair, tangent in zip(P5_PAIRS, tangents):
        den = prod(tangent)
        points.append((pair, len(tangent), -1 if den < 0 else 1, abs(den),
                       common // abs(den), family.table(pair, w)))
    width = max(len(f) for *_, table in points for f in table.p)
    return common, width, tuple(points)


def _at_degree(family, d, w):
    """What the six points of a family share in degree d at w: the
    record's common and points (_fixed_points), the binomial row
    C(d + 1, k) as wide as its widest table, and the count
    C(d+4,3) - removed(d) that each fiber must have.  ValueError for
    d < -1, as no monomial has a negative degree."""
    common, width, points = _fixed_points(family, w)
    if index(d) < -1:
        raise ValueError("no monomials of degree %r" % (d + 1,))
    count = comb(d + 4, 3) - family.removed(d)
    return common, points, exact.binomial_row(d + 1, width), count


def _evaluated(table, row, count, d):
    """A fiber table at the n of the degree's binomial row, n = d + 1
    (exact.power_sums_on_row), refused unless it counts count weights
    (FiberCountError)."""
    fiber = power_sums_on_row(table, row)
    if fiber.p[0] != count:
        raise FiberCountError(
            "fiber count %s, not %s, at d=%s" % (fiber.p[0], count, d))
    return fiber


def localize(family, d, weights=DEFAULT_WEIGHTS, **options):
    """Degree of a Family in degree d by Bott's formula.

    Each fixed point contributes e_n(fiber) / e_n(tangent), with n the
    dimension of the parameter space (the number of tangent weights), so
    e_n(tangent) is their product.  It, its sign, the common denominator
    of all the points, each point's factor to it and each point's fiber
    table are read from one record per family and weight system
    (_fixed_points).  A degree takes one binomial row and one fiber
    count (_at_degree); at each point it evaluates and counts the table
    (_evaluated, as Family.fiber does), checks it with family.check, to
    which options go, and takes e_n of it.  Fibers are taken one at a
    time, so only one is alive at once.  The sum is num * factor over
    the points, in ints over the common denominator, with no lcm or
    Fraction per term.  d must be an int (TypeError otherwise).  Raises
    FiberCountError for a fiber of the wrong count or a table that stops
    before p_n, and NonIntegralDegree unless the sum is an integer.
    """
    d = index(d)
    if d < family.min_degree:
        raise ValueError(
            "%s family needs d >= %d, got %r"
            % (family.name, family.min_degree, d)
        )
    w = as_weight_system(weights).require_admissible()
    common, points, row, count = _at_degree(family, d, w)
    contributions, total = [], 0  # the sum is total / common
    for pair, n, sign, den, factor, table in points:
        fiber = _evaluated(table, row, count, d)
        if len(fiber.p) <= n:
            raise FiberCountError("fiber table p_0..p_%d has no e_%d at %r, d=%d"
                                  % (len(fiber.p) - 1, n, pair, d))
        family.check(pair, d, w, fiber, **options)
        num = sign * exact.elementary_symmetric(n, fiber)
        contributions.append(FixedPointContribution(pair, num, den))
        total += num * factor
    if total % common:
        raise NonIntegralDegree(
            "%s localization sum %s is not an integer (d=%d, weights %r)"
            % (family.name, scalar_to_string(Fraction(total, common)), d, w.values)
        )
    return DegreeReport(family.name, d, w, tuple(contributions), total // common)


def split_power_sums(pair, w, top):
    """The power sums p_0..p_top of the degree-(d+1) monomial weights at w,
    as Differences in d + 1, split at the pair (p,q) with complement
    (k,l): (full - part, part), part those of the d + 2 monomials in
    x_k, x_l alone, full - part those of the monomials that involve x_p
    or x_q.  top is the n of the family's e_n: 5 here, 4 for the pencil.
    It checks the pair and w for the tables' cached calls."""
    k, l = complementary_pair(as_fixed_point(pair))
    full = power_sum_differences(w.require_admissible(), top)
    part = power_sum_differences((w.weight(k), w.weight(l)), top)
    return full - part, part


def _image_table(pair, w):
    """The image fiber at pair as Differences in d + 1 (split_power_sums):
    the monomials that involve x_p or x_q shifted by -(w_p + w_q), the
    rest by -(w_k + w_l)."""
    reached, part = split_power_sums(pair, w, TOP)
    low = w.pair_sum(pair)  # w_p + w_q, so w_k + w_l = sum(w) - low
    return reached.shifted(-low) + part.shifted(low - sum(w))


def closed_form_counts(characters, pair):
    """The copies of each character chi of the chains at pair
    (foldeg.limits._chains) in the closed-form image fiber there, as a
    list: [chi_k, chi_l >= 0] + [chi_p = chi_q = 0].

    Every character of the closed form and of the chains has degree
    d - 1 and entries >= -1, at most one of them -1.  For such a chi,
    chi + e_p + e_q is a monomial m that involves x_p or x_q exactly
    when chi_k, chi_l >= 0, and the closed form sends m to chi; and
    chi + e_k + e_l is a monomial m in x_k, x_l alone, which it sends
    to chi, exactly when chi_p = chi_q = 0 (the module docstring).

    A direct fiber (foldeg.limits) whose characters have these counts is
    the closed form as a multiset.  The rank guards of its route give it
    C(d+4, 3) copies, the number of monomials m and so the size of the
    closed form; the counts agree at each of its characters, so they add
    up to C(d+4, 3) in the closed form too, which leaves the closed form
    no copy of any other character.  This needs each character once in
    the direct fiber, as its route gives it: _chains writes each
    character at most once, as (chi_p - chi_q, chi_k - chi_l,
    chi_k + chi_l) names its chain and level."""
    (p, q), (k, l) = pair, complementary_pair(pair)
    return [(ck >= 0 <= cl) + (cp == 0 == cq) for cp, cq, ck, cl in map(
        itemgetter(p - 1, q - 1, k - 1, l - 1), characters)]


# 6 * d + i for each (d, P5_PAIRS[i]) whose direct fiber has passed both
# checks of "both"; ints, so that the garbage collector tracks no key.
_both_checked = set()


def legendrian_check(pair, d, w, fiber, method=None):
    """The Legendrian check of the closed-form fiber at [kappa_pair], as
    power sums, under a method of foldeg.limits (None picks
    default_method(d)): none under the image route.  The kernel route
    and "both" compute the fiber directly, and raise MethodDisagreement
    unless it has the closed-form count of every character
    (closed_form_counts) and the power sums of fiber.  "both" checks a
    (d, pair) once in a process, the kernel route every time."""
    if method is None:
        method = default_method(d)
    if method == METHOD_IMAGE:
        return
    if method not in METHODS:
        raise ValueError("unknown method %r" % (method,))
    key = 6 * d + P5_PAIRS.index(pair)
    if method == METHOD_KERNEL or key not in _both_checked:
        direct = limit_fiber_weights(pair, d, w, method)
        characters, copies = direct.quotient_counts
        if (copies != closed_form_counts(characters, pair)
                or PowerSums.of(character_values(characters, w), TOP,
                                copies).p != fiber.p):
            raise MethodDisagreement("closed-form and direct fibers "
                                     "disagree at %r, d=%d" % (pair, d))
        if method == METHOD_BOTH:
            _both_checked.add(key)


def legendrian_formula(d):
    """The published Legendrian degree at an int d, a polynomial of
    degree 15: C(d+2,4) * (d^3+9d^2+14d+24) * (d^8+34d^7+...+29808) / 38880,
    the octic by Horner's rule on its integer coefficients.

    >>> legendrian_formula(2)
    Fraction(2224, 1)
    """
    octic = 0
    for c in (1, 34, 475, 3430, 13480, 29872, 45444, 44856, 29808):
        octic = octic * d + c
    return Fraction(comb(d + 2, 4) * (d**3 + 9 * d**2 + 14 * d + 24) * octic,
                    38880)


# The P^5 of antisymmetric forms: five tangent weights, so e_5 / e_5.
LEGENDRIAN = Family(
    "legendrian", 2, 15, table=_image_table, removed=lambda d: 0, check=legendrian_check,
    tangent_weights=tangent_weights_p5, formula=legendrian_formula)


def legendrian_degree(d, weights=DEFAULT_WEIGHTS, method=None):
    """Degree of the degree-d Legendrian family by localization; method
    picks the limit route of the check (see legendrian_check)."""
    return localize(LEGENDRIAN, d, weights, method=method)
