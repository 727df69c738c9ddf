"""Polynomials in the deformation parameter t.

A t-polynomial is a tuple of coefficients in ascending powers of t with
no trailing zeros; the empty tuple is zero.  The elimination kernels
scale their matrices to integer entries first, so coefficients here are
plain ints and all arithmetic is exact.
"""

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


def tp_scale(a, c):
    if not c:
        return TP_ZERO
    return tuple(ai * c for ai in a)


def tp_valuation(a):
    """Order of vanishing at t = 0; undefined (raises) for the zero poly."""
    for i, c in enumerate(a):
        if c:
            return i
    raise ValueError("zero polynomial has no valuation")


def tp_shift_down(a, k):
    """Divide by t^k (requires valuation >= k)."""
    if not a:
        return TP_ZERO
    if any(a[:k]):
        raise ValueError("valuation smaller than %d" % k)
    return a[k:]


def tp_constant_term(a):
    return a[0] if a else 0


def tp_divexact(a, b):
    """Quotient of a by b when the division is exact in Z[t].

    Raises ArithmeticError if b does not divide a over the integers.
    """
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return TP_ZERO
    if len(a) < len(b):
        raise ArithmeticError("inexact polynomial division")
    rem = list(a)
    q = [0] * (len(a) - len(b) + 1)
    lead = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = rem[k + len(b) - 1]
        if c % lead:
            raise ArithmeticError("inexact polynomial division")
        qk = c // lead
        q[k] = qk
        if qk:
            for i, bi in enumerate(b):
                rem[k + i] -= qk * bi
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return tp_trim(q)
