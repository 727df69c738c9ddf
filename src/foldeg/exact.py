"""Exact scalars, monomials, torus weights, and Lagrange interpolation.

Everything in this package happens over Q.  Scalars are ints and
``fractions.Fraction``s; no floating point is used anywhere, so every
equality test downstream is exact.
"""

import operator
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import lcm


def scalar_to_string(x):
    """Serialize a scalar as "num/den", omitting "/den" when den == 1.

    Fraction keeps lowest terms with a positive denominator, so the
    rendering is canonical and Fraction(s) parses it back.
    """
    return str(Fraction(x))


def signed_sum(terms):
    """Render (coefficient, body) terms as "body - 2*body + ...": a
    magnitude of 1 is left out, an empty body stands for the constant
    term, and the first term shows its sign only when negative.

    >>> signed_sum([(-1, "x"), (Fraction(1, 2), "y"), (-3, "")])
    '-x + 1/2*y - 3'
    """
    out = ""
    for c, body in terms:
        mag = abs(c)
        if not body:
            body = scalar_to_string(mag)
        elif mag != 1:
            body = scalar_to_string(mag) + "*" + body
        if out:
            out += " - " if c < 0 else " + "
        elif c < 0:
            out = "-"
        out += body
    return out


class NonIntegralDegree(ArithmeticError):
    """A sum that must be an integer came out non-integral: a localization
    sum, or an e_j that Newton's step divides by j (always a bug, never
    data)."""


class InadmissibleWeights(ValueError):
    """Raised when a weight system leaves a non-finite fixed locus."""


# Weight systems kept at once by every per-system cache: a sweep over
# three systems that returns to the first rebuilds nothing.
CACHED_SYSTEMS = 4


class WeightSystem(tuple):
    """Weights (w1, w2, w3, w4) of a one-parameter torus acting by
    x_i -> t^{w_i} x_i on the coordinates of projective 3-space, as a
    tuple of 4 ints: it equals and hashes like that tuple.  Each must be
    an integer (a float or a Fraction raises InadmissibleWeights rather
    than being truncated).

    Admissible means the four weights are pairwise distinct and the six
    pair sums w_i + w_j (i < j) are pairwise distinct; both conditions
    together keep the fixed loci of all the induced actions finite.
    The answer is cached by value, as are the fiber tables, so values,
    the plain tuple, is read-only.
    """

    __slots__ = ()
    values = property(tuple)

    def __new__(cls, values):
        try:
            vals = tuple(map(operator.index, values))
        except TypeError:
            raise InadmissibleWeights(
                "weights must be integers, got %r" % (values,)
            ) from None
        if len(vals) != 4:
            raise InadmissibleWeights("need exactly 4 weights, got %r" % (values,))
        return super().__new__(cls, vals)

    def weight(self, i):
        """Weight of the coordinate x_i (1-based index)."""
        return self[i - 1]

    def pair_sum(self, pair):
        """w_i + w_j for a 1-based pair (i, j)."""
        i, j = pair
        return self[i - 1] + self[j - 1]

    def is_admissible(self):
        return _admissible(self)

    def require_admissible(self):
        if not self.is_admissible():
            raise InadmissibleWeights(
                "weights %r must have pairwise-distinct entries and "
                "pairwise-distinct pair sums" % (self.values,)
            )
        return self

    def __repr__(self):
        return "WeightSystem(%r)" % (self.values,)


@lru_cache(maxsize=CACHED_SYSTEMS)
def _admissible(v):
    """WeightSystem.is_admissible, decided once per system kept."""
    sums = {v[i] + v[j] for i in range(4) for j in range(i + 1, 4)}
    return len(set(v)) == 4 and len(sums) == 6


DEFAULT_WEIGHTS = WeightSystem((0, 2, 7, 10))


def as_weight_system(w):
    """Coerce a WeightSystem or any 4-sequence of integers."""
    return w if isinstance(w, WeightSystem) else WeightSystem(w)


def monomials_of_degree(k):
    """All degree-k monomials in x1..x4 as exponent 4-tuples.

    Graded-lex order with x1 > x2 > x3 > x4: (k,0,0,0) first, (0,0,0,k)
    last.  The order is part of the package's contract — matrix rows and
    columns are indexed by it.

    >>> monomials_of_degree(1)
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    """
    if k < 0:
        raise ValueError("degree must be >= 0, got %r" % (k,))
    out = []
    for a in range(k, -1, -1):
        for b in range(k - a, -1, -1):
            for c in range(k - a - b, -1, -1):
                out.append((a, b, c, k - a - b - c))
    return tuple(out)


def monomial_string(monomial):
    """Human-readable monomial, e.g. (2,0,1,0) -> "x1^2*x3"."""
    parts = []
    for i, e in enumerate(monomial, start=1):
        if e == 1:
            parts.append("x%d" % i)
        elif e > 1:
            parts.append("x%d^%d" % (i, e))
    return "*".join(parts) if parts else "1"


def character_values(characters, weights):
    """Evaluate Z^4 characters at a weight system, chi -> sum chi_i * w_i,
    as a list in their order.

    >>> character_values([(0, 0, 1, 0), (2, -1, 0, 0)], (0, 2, 7, 10))
    [7, -2]
    """
    w1, w2, w3, w4 = as_weight_system(weights)
    return [a * w1 + b * w2 + c * w3 + e * w4 for a, b, c, e in characters]


def character_weights(characters, weights):
    """The weights of Z^4 characters (character_values) as a sorted tuple.

    >>> character_weights([(0, 0, 1, 0), (2, -1, 0, 0)], (0, 2, 7, 10))
    (-2, 7)
    """
    return tuple(sorted(character_values(characters, weights)))


class PowerSums:
    """The power sums p_0..p_K of a multiset of integers, p_j = sum v^j,
    which is all e_1..e_K need; len is p_0, the number of values.  + and
    - add and remove multisets term by term, and shifted(c) gives the
    power sums of every v + c by the binomial theorem, with no binomial
    or power computed (Pascal's rule, below).  The same holds for power
    sums that are Differences in n, all degrees n at once."""

    __slots__ = ("p",)

    def __init__(self, p):
        self.p = tuple(p)

    @classmethod
    def of(cls, values, top, copies=None):
        """p_0..p_top of integers, each value taken once, or copies[i]
        times if copies is given; TypeError for a value that is not an
        integer.

        >>> PowerSums.of([2, 2, 3], 2).p == PowerSums.of([2, 3], 2, [2, 1]).p
        True
        """
        values = list(map(operator.index, values))
        terms = [1] * len(values) if copies is None else list(copies)
        p = [sum(terms)]
        for _ in range(top):
            terms = list(map(operator.mul, terms, values))
            p.append(sum(terms))
        return cls(p)

    def __len__(self):
        return self.p[0]

    def __add__(self, other):
        return PowerSums(map(operator.add, self.p, other.p))

    def __sub__(self, other):
        return PowerSums(map(operator.sub, self.p, other.p))

    def shifted(self, c):
        """q_m = sum_i C(m, i) c^(m-i) p_i by Pascal's rule weighted by
        c: row 0 is p, entry i of row m + 1 is c times entry i of row m
        plus entry i + 1, and q_m heads row m."""
        row, q = self.p, []
        while row:
            q.append(row[0])
            row = [c * a + b for a, b in zip(row, row[1:])]
        return PowerSums(q)


def elementary_symmetric(k, values):
    """e_k of PowerSums or of integers (else ValueError: Newton's step
    divides exactly only on integers) by Newton's identities,
    j*e_j = sum_{i=1..j} (-1)^(i-1) e_(j-i) p_i.  ValueError unless
    0 <= k, p_k is given and k <= p_0; NonIntegralDegree unless each
    division by j is exact.

    >>> elementary_symmetric(2, [1, 2, 3])
    11
    """
    if not isinstance(values, PowerSums):
        values = tuple(values)
        try:  # no power above the count: such a k is refused below
            values = PowerSums.of(values, min(k, len(values)))
        except TypeError:
            raise ValueError("e_k needs integers, got %r" % (values,)) from None
    p = values.p
    if not 0 <= k < len(p) or k > p[0]:
        raise ValueError("no e_%r of %s values, p_0..p_%d" % (k, p[0], len(p) - 1))
    # f_j = (-1)^j e_j carries the sign: j*f_j = -sum f_(j-i) p_i, with f
    # newest first, so that f_(j-1), ..., f_0 meet p_1, ..., p_j in order
    f, rest = [1], p[1:]
    for j in range(1, k + 1):
        total = -sum(map(operator.mul, f, rest))
        q = total // j
        if q * j != total:
            raise NonIntegralDegree("e_%d of these power sums is not integral" % j)
        f.insert(0, q)
    return -f[0] if k % 2 else f[0]


def forward_differences(ys):
    """D^0 y_0, D^1 y_0, ... of values ys at consecutive points, up to the
    last nonzero one, so that y_i = sum_k D^k y_0 C(i, k) (Newton).

    >>> forward_differences([1, 3, 7, 13])
    [1, 2, 2]
    """
    deltas = []
    while any(ys):
        deltas.append(ys[0])
        ys = [*map(operator.sub, ys[1:], ys)]
    return deltas


class Differences(tuple):
    """A polynomial f in n as its forward differences D^k f(0), k = 0, 1, ...,
    so that f(n) = sum_k D^k f(0) C(n, k).  They are linear in f: +, - and
    an int factor act entry by entry, so PowerSums of them split, subtract
    and shift as PowerSums of ints do, at every n at once."""

    __slots__ = ()

    def __add__(self, other):
        if len(self) < len(other):
            self, other = other, self
        return Differences((*map(operator.add, self, other), *self[len(other):]))

    def __sub__(self, other):
        if len(self) < len(other):
            return -1 * (other - self)
        return Differences((*map(operator.sub, self, other), *self[len(other):]))

    def __rmul__(self, c):
        return Differences([c * a for a in self])


@lru_cache(maxsize=256)
def power_sum_differences(ws, top):
    """p_0..p_top of the weights m.w of the degree-n monomials m in r =
    len(ws) variables as Differences in n, from their values at
    n = 0..top + r - 1: p_j has degree j + r - 1, as (m.w)^j is a sum of
    products prod_i C(m_i, a_i), |a| <= j, each summing over |m| = n to
    C(n+r-1, |a|+r-1).  Each value is summed over a plain list of the
    degree-n monomial weights, one product per weight and power, with
    nothing counted.  The lists grow from degree n - 1: lists[i] holds
    the weights of the degree-n monomials in the variables i, i + 1, ...
    of ws, which either hold variable i, ws[i] plus a weight of degree
    n - 1 in lists[i], or lie in lists[i + 1].  A table is kept per
    (ws, top): each family asks for the top of its e_n, so the pencil's
    tables stop at p_4 and only the Legendrian ones reach p_5."""
    samples, lists = [], [[0]] * len(ws)
    for n in range(top + len(ws)):
        if n:
            weights = []
            for i in range(len(ws) - 1, -1, -1):
                weights = lists[i] = [ws[i] + v for v in lists[i]] + weights
        weights = lists[0]
        terms, p = weights, [len(weights), sum(weights)]
        for _ in range(top - 1):
            terms = list(map(operator.mul, terms, weights))
            p.append(sum(terms))
        samples.append(p[:top + 1])
    return PowerSums(Differences(forward_differences(p)) for p in zip(*samples))


def binomial_row(n, length):
    """C(n, k), k < length, each C(n, k - 1) (n - k + 1) // k, an exact
    division."""
    row = [1]
    for k in range(1, length):
        row.append(row[-1] * (n - k + 1) // k)
    return tuple(row)


def power_sums_on_row(table, row):
    """The PowerSums of a table of Differences at the n of a binomial row
    C(n, k), k < len(row), which no p_j of the table may outrun: one
    dot product per p_j.  Tables that share an n share the row."""
    return PowerSums([sum(map(operator.mul, f, row)) for f in table.p])


class RationalPolynomial(namedtuple("RationalPolynomial", "coefficients")):
    """Univariate polynomial over Q; coefficients[i] multiplies d**i.
    A value, not a ring: lagrange_interpolate builds it, and it
    evaluates, compares and renders.

    Trailing zeros are trimmed, so the leading coefficient is nonzero
    unless the polynomial is zero (empty coefficient tuple, degree -1).
    """

    __slots__ = ()

    def __new__(cls, coefficients=()):
        coeffs = [c if isinstance(c, Fraction) else Fraction(c)
                  for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return super().__new__(cls, tuple(coeffs))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, and so _replace, would skip the trim
        return cls(*iterable)

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def __call__(self, x):
        """p(x) as a Fraction, by Horner's rule in integers: with L the
        lcm of the coefficient denominators and x = num/den, acc ends as
        L * den^n * p(x), and power as den^(n+1)."""
        x = Fraction(x)
        num, den = x.numerator, x.denominator
        common = lcm(*(c.denominator for c in self.coefficients))
        acc, power = 0, 1
        for c in reversed(self.coefficients):
            acc = acc * num + c.numerator * (common // c.denominator) * power
            power *= den
        return Fraction(acc * den, common * power)

    def __repr__(self):
        return "RationalPolynomial(%r)" % (list(self.coefficients),)

    def to_strings(self):
        """Coefficients, constant first, as scalar strings (JSON-ready)."""
        return [scalar_to_string(c) for c in self.coefficients]

    def render(self):
        """Readable form in d, highest degree first, e.g. "d^2 + 2*d + 3"."""
        return signed_sum(
            (c, "" if k == 0 else "d" if k == 1 else "d^%d" % k)
            for k, c in reversed(list(enumerate(self.coefficients)))
            if c
        ) or "0"


def lagrange_interpolate(x0, ys):
    """The polynomial p with p(x0 + i) = ys[i], int or Fraction ys, from
    their forward_differences D^0..D^m: m! p(x) = sum_k D^k y_0 (m!/k!)
    prod_{i<k} (x - x0 - i) in integers on int ys, then one division by m!.

    >>> lagrange_interpolate(0, [1, 3, 7]).coefficients
    (Fraction(1, 1), Fraction(1, 1), Fraction(1, 1))
    """
    deltas = forward_differences(ys)
    coeffs, scale = [], 1
    for k in range(len(deltas) - 1, -1, -1):
        a = x0 + k
        coeffs = [lo - a * hi for lo, hi in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += deltas[k] * scale
        scale *= max(k, 1)
    return RationalPolynomial([Fraction(c, scale) for c in coeffs])
