"""Frozen values that only the tests read.

Everything here was produced by the pipeline itself and then
cross-checked by an independent route (a second elimination method, a
symbolic fixed-point transport, or a closed-form evaluation).  The
constants are inlined so the test suite can detect regressions without
recomputing oracles.  The four constants that ``foldeg verify`` reads
are module constants of foldeg.verify.
"""

from foldeg.exact import WeightSystem

# Weight systems accepted everywhere in the test suite besides the
# package default foldeg.exact.DEFAULT_WEIGHTS, (0, 2, 7, 10).  Each one
# has four pairwise-distinct entries and six pairwise-distinct pair sums.
ALT_WEIGHTS_A = WeightSystem((0, 1, 5, 13))
ALT_WEIGHTS_B = WeightSystem((1, 3, 9, 20))

# ---------------------------------------------------------------------------
# Legendrian degrees; d = 2 is foldeg.verify.LEGENDRIAN_D2_DEGREE.
LEGENDRIAN_D3_DEGREE = 83520

# Legendrian degrees for d = 2..17, the sixteen data points that pin
# down the degree-15 closed-form polynomial.
LEGENDRIAN_DEGREES = {
    2: 2224,
    3: 83520,
    4: 1375504,
    5: 13883954,
    6: 100202760,
    7: 565138791,
    8: 2636502120,
    9: 10576955268,
    10: 37516645848,
    11: 120109547415,
    12: 352586242008,
    13: 960816829700,
    14: 2454559390192,
    15: 5925543510082,
    16: 13606774920240,
    17: 29883399530400,
}

# ---------------------------------------------------------------------------
# The limit fiber at the fixed point (3,4) for d = 2, whose twenty
# quotient weights at (0, 2, 7, 10) are
# foldeg.verify.D2_P34_QUOTIENT_WEIGHTS, written symbolically as
# integer combinations of the four torus weights (w1, w2, w3, w4); each
# row is the coefficient vector (c1, c2, c3, c4) meaning
# c1*w1 + c2*w2 + c3*w3 + c4*w4.  These are the Z^4 characters of the
# fiber: as a multiset, the table is
# fiber_characters(2, (3, 4)) of tests/oracles.py.
D2_P34_SYMBOLIC_WEIGHTS = (
    (2, -1, 0, 0),   # 2w1 - w2
    (1, 0, 0, 0),    # w1
    (0, 1, 0, 0),    # w2
    (-1, 2, 0, 0),   # -w1 + 2w2
    (0, 0, -1, 2),   # -w3 + 2w4
    (0, 0, 0, 1),    # w4
    (0, 0, 1, 0),    # w3
    (0, 0, 2, -1),   # 2w3 - w4
    (0, 1, -1, 1),   # w2 - w3 + w4
    (0, 1, 0, 0),    # w2
    (0, 1, 1, -1),   # w2 + w3 - w4
    (0, 2, -1, 0),   # 2w2 - w3
    (0, 2, 0, -1),   # 2w2 - w4
    (1, 0, -1, 1),   # w1 - w3 + w4
    (1, 0, 0, 0),    # w1
    (1, 0, 1, -1),   # w1 + w3 - w4
    (1, 1, -1, 0),   # w1 + w2 - w3
    (1, 1, 0, -1),   # w1 + w2 - w4
    (2, 0, -1, 0),   # 2w1 - w3
    (2, 0, 0, -1),   # 2w1 - w4
)

# ---------------------------------------------------------------------------
# Pencil-of-planes family on the Grassmannian of lines.
PENCIL_D2_DEGREE = 825
PENCIL_D3_DEGREE = 13300

PENCIL_DEGREES = {
    2: 825,
    3: 13300,
    4: 124950,
    5: 819280,
    6: 4148340,
    7: 17278800,
    8: 61764450,
    9: 195209300,
    10: 557541985,
    11: 1462921460,
    12: 3571595300,
    13: 8195387200,
    14: 17817774800,
}
