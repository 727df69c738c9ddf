"""Frozen reference values that ``foldeg verify`` compares against.

Everything in this module was produced by the pipeline itself at the
default weight system (0, 2, 7, 10) and then cross-checked by an
independent route (a second elimination method, a symbolic fixed-point
transport, or a closed-form evaluation).  The constants are inlined so
that verify detects regressions without recomputing oracles.
"""

# ---------------------------------------------------------------------------
# Degree-2 Legendrian localization at weights (0, 2, 7, 10).
#
# The six fixed points in canonical order (1,2), (1,3), (1,4), (2,3),
# (2,4), (3,4).  Each contribution is e5(fiber weights) / e5(tangent
# weights) written with the raw (unreduced) numerator and denominator,
# the denominator normalized to be positive.
LEGENDRIAN_D2_CONTRIBUTIONS = (
    ((1, 2), 833800359, 42000),
    ((1, 3), -38740434, 1500),
    ((1, 4), 7716777, 336),
    ((2, 3), -4199874, 336),
    ((2, 4), -3398841, 1500),
    ((3, 4), -105534, 42000),
)

LEGENDRIAN_D2_DEGREE = 2224

# ---------------------------------------------------------------------------
# The limit fiber at the fixed point (3,4) for d = 2, weights (0,2,7,10):
# twenty quotient weights and the elementary symmetric value e5 used in
# the localization numerator.
D2_P34_QUOTIENT_WEIGHTS = (
    -10, -8, -7, -6, -5, -3, -3, -2, -1, 0,
    0, 2, 2, 3, 4, 4, 5, 7, 10, 13,
)
D2_P34_E5 = 105534
