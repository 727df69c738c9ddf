"""Exact scalars, monomials, torus weights, and Lagrange interpolation.

Everything in this package happens over Q.  Scalars are
``fractions.Fraction`` (aliased ``Scalar``); no floating point is used
anywhere, so every equality test downstream is exact.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache

Scalar = Fraction


def scalar_to_string(x):
    """Serialize a Scalar as "num/den", omitting "/den" when den == 1.

    Fraction keeps lowest terms with a positive denominator, so the
    rendering is canonical and Fraction(s) parses it back.
    """
    return str(Fraction(x))


class InadmissibleWeights(ValueError):
    """Raised when a weight system leaves a non-finite fixed locus."""


class WeightSystem:
    """Weights (w1, w2, w3, w4) of a one-parameter torus acting by
    x_i -> t^{w_i} x_i on the coordinates of projective 3-space.

    Admissible means the four weights are pairwise distinct and the six
    pair sums w_i + w_j (i < j) are pairwise distinct; both conditions
    together keep the fixed loci of all the induced actions finite.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        vals = tuple(int(v) for v in values)
        if len(vals) != 4:
            raise InadmissibleWeights("need exactly 4 weights, got %r" % (values,))
        self.values = vals

    def weight(self, i):
        """Weight of the coordinate x_i (1-based index)."""
        return self.values[i - 1]

    def pair_sum(self, pair):
        """w_i + w_j for a 1-based pair (i, j)."""
        i, j = pair
        return self.values[i - 1] + self.values[j - 1]

    def is_admissible(self):
        if len(set(self.values)) != 4:
            return False
        v = self.values
        sums = [v[i] + v[j] for i in range(4) for j in range(i + 1, 4)]
        return len(set(sums)) == 6

    def require_admissible(self):
        if not self.is_admissible():
            raise InadmissibleWeights(
                "weights %r must have pairwise-distinct entries and "
                "pairwise-distinct pair sums" % (self.values,)
            )
        return self

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        if isinstance(other, WeightSystem):
            return self.values == other.values
        return NotImplemented

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return "WeightSystem(%r)" % (self.values,)


DEFAULT_WEIGHTS = WeightSystem((0, 2, 7, 10))


def as_weight_system(w):
    """Coerce a WeightSystem or any 4-sequence of integers."""
    if isinstance(w, WeightSystem):
        return w
    return WeightSystem(w)


@lru_cache(maxsize=None)
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


def monomial_weight(monomial, weights):
    """Torus weight of a monomial: sum of e_i * w_i."""
    w = as_weight_system(weights).values
    return sum(e * wi for e, wi in zip(monomial, w))


def monomial_string(monomial):
    """Human-readable monomial, e.g. (2,0,1,0) -> "x1^2*x3"."""
    parts = []
    for i, e in enumerate(monomial, start=1):
        if e == 1:
            parts.append("x%d" % i)
        elif e > 1:
            parts.append("x%d^%d" % (i, e))
    return "*".join(parts) if parts else "1"


class WeightMultiset:
    """A multiset of integer torus weights (the weights of a T-module).

    Stored as a sorted tuple; equality is multiset equality.
    """

    __slots__ = ("values",)

    def __init__(self, values=()):
        self.values = tuple(sorted(int(v) for v in values))

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        if isinstance(other, WeightMultiset):
            return self.values == other.values
        return NotImplemented

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return "WeightMultiset(%r)" % (list(self.values),)

    def difference(self, other):
        """Multiset difference; raises if other is not contained in self."""
        rest = Counter(self.values)
        for v in other:
            if not rest[v]:
                raise ValueError("weight %r not available in %r" % (v, self))
            rest[v] -= 1
        return WeightMultiset(rest.elements())

    def elementary_symmetric(self, k):
        return elementary_symmetric(k, self.values)


def elementary_symmetric(k, values):
    """Elementary symmetric polynomial e_k of the given scalars.

    Exact over Q; e_0 = 1, e_len = product, and k outside 0..len is
    rejected.

    >>> elementary_symmetric(2, [1, 2, 3])
    11
    """
    vals = list(values)
    if k < 0 or k > len(vals):
        raise ValueError(
            "e_%r undefined for %d values" % (k, len(vals))
        )
    e = [1] + [0] * k
    seen = 0
    for v in vals:
        seen += 1
        for i in range(min(k, seen), 0, -1):
            e[i] = e[i] + v * e[i - 1]
    return e[k]


class RationalPolynomial:
    """Univariate polynomial over Q; coefficients[i] multiplies d**i.

    Trailing zeros are trimmed, so the leading coefficient is nonzero
    unless the polynomial is zero (empty coefficient tuple, degree -1).
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients=()):
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coefficients = tuple(coeffs)

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPolynomial(out)

    def __sub__(self, other):
        return self + (other * Fraction(-1))

    def __mul__(self, other):
        if isinstance(other, RationalPolynomial):
            if not self.coefficients or not other.coefficients:
                return RationalPolynomial()
            out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
            for i, a in enumerate(self.coefficients):
                for j, b in enumerate(other.coefficients):
                    out[i + j] += a * b
            return RationalPolynomial(out)
        c = Fraction(other)
        return RationalPolynomial([a * c for a in self.coefficients])

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, RationalPolynomial):
            return self.coefficients == other.coefficients
        return NotImplemented

    def __hash__(self):
        return hash(self.coefficients)

    def __repr__(self):
        return "RationalPolynomial(%r)" % (list(self.coefficients),)

    def to_strings(self):
        """Coefficients, constant first, as scalar strings (JSON-ready)."""
        return [scalar_to_string(c) for c in self.coefficients]

    def render(self, var="d"):
        """Readable form, highest degree first, e.g. "d^2 + 2*d + 3"."""
        if not self.coefficients:
            return "0"
        parts = []
        for k in range(len(self.coefficients) - 1, -1, -1):
            c = self.coefficients[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = scalar_to_string(mag)
            else:
                head = "" if mag == 1 else scalar_to_string(mag) + "*"
                body = head + (var if k == 1 else "%s^%d" % (var, k))
            parts.append((sign, body))
        sign0, body0 = parts[0]
        out = ("-" if sign0 == "-" else "") + body0
        for sign, body in parts[1:]:
            out += " %s %s" % (sign, body)
        return out


def lagrange_interpolate(points):
    """Exact polynomial through (x, y) pairs with pairwise-distinct x.

    >>> lagrange_interpolate([(0, 1), (1, 3), (2, 7)]).coefficients
    (Fraction(1, 1), Fraction(1, 1), Fraction(1, 1))
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    if not pts:
        raise ValueError("need at least one interpolation point")
    xs = [x for x, _ in pts]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation abscissae must be distinct")
    total = RationalPolynomial()
    for i, (xi, yi) in enumerate(pts):
        num = RationalPolynomial([1])
        den = Fraction(1)
        for j, (xj, _) in enumerate(pts):
            if j == i:
                continue
            num = num * RationalPolynomial([-xj, 1])
            den *= xi - xj
        total = total + num * (yi / den)
    return total
