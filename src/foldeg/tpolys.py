"""Polynomials in the deformation parameter t, for linalg.limit_rows.

A t-polynomial is a tuple of coefficients in ascending powers of t with
no trailing zeros; the empty tuple is zero.  The contraction matrix has
integer entries, so coefficients here are plain ints and all arithmetic
is exact.
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
