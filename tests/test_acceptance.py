"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for a pass/fail line per
criterion.  All of them run by default, criterion 7's full
sixteen-point interpolation included.

Every expected number here was verified two independent ways before
being frozen: localization totals against the closed-form polynomials,
the d=2 fiber and contribution data against a coordinate-relabeling
transport of the single worked-out fixed point, and the image-fiber
elimination against the kernel-limit route.
"""

import os
import random
import time
from fractions import Fraction
from math import comb

from foldeg.bott import legendrian_degree, tangent_weights_p5
from foldeg.exact import PowerSums, WeightSystem, elementary_symmetric
from foldeg.fields import (
    P5_PAIRS,
    build_phi_basis,
    contact_kernel_dimension,
    phi_dimension,
    tangent_kernel_dimension,
)
from foldeg.fields import _phi_basis_cached
from foldeg.forms import AntisymmetricForm, MonomialField, contract
from foldeg.limits import METHOD_BOTH, METHOD_IMAGE, METHOD_KERNEL, limit_fiber_weights
from foldeg.pencil import pencil_degree
from foldeg.polyfit import (
    family_closed_form,
    family_closed_form_polynomial,
    interpolate_family,
)
from oracles import kernel_dimension_by_rank

WEIGHT_SYSTEMS = (
    WeightSystem((0, 2, 7, 10)),
    WeightSystem((0, 1, 5, 13)),
    WeightSystem((1, 3, 9, 20)),
)


def _cold_caches():
    """Clear the basis cache so timed criteria measure a real run."""
    _phi_basis_cached.cache_clear()


def test_criterion_01_legendrian_d2_total_and_contributions():
    """Degree-2 Legendrian localization: total 2224, with the six
    fixed-point summands (canonical order) exactly as verified; the
    per-pair assignment of the two /336 values was pinned down by
    transporting the worked-out fiber to all six fixed points, and the
    whole computation runs from cold caches in under 10 seconds."""
    _cold_caches()
    t0 = time.monotonic()
    report = legendrian_degree(2, method=METHOD_BOTH)
    elapsed = time.monotonic() - t0
    assert report.degree == 2224
    expected = [
        ((1, 2), Fraction(833800359, 42000)),
        ((1, 3), Fraction(-38740434, 1500)),
        ((1, 4), Fraction(7716777, 336)),
        ((2, 3), Fraction(-4199874, 336)),
        ((2, 4), Fraction(-3398841, 1500)),
        ((3, 4), Fraction(-105534, 42000)),
    ]
    got = [(c.pair, c.value) for c in report.contributions]
    assert got == expected
    # the same six values as an unordered collection, reduced
    assert sorted(v for _, v in got) == sorted(
        Fraction(n, d)
        for n, d in (
            (833800359, 42000),
            (-38740434, 1500),
            (-4199874, 336),
            (7716777, 336),
            (-3398841, 1500),
            (-105534, 42000),
        )
    )
    assert elapsed < 10.0, "criterion 1 took %.2fs" % elapsed


def test_criterion_02_fiber_weights_at_pair34():
    """Limit fiber at the fixed form kappa_34, d=2, weights (0,2,7,10):
    the twenty-weight multiset and e5 = 105534, within 5 seconds."""
    _cold_caches()
    t0 = time.monotonic()
    res = limit_fiber_weights((3, 4), 2, method=METHOD_BOTH)
    elapsed = time.monotonic() - t0
    expected = tuple(sorted(
        [-2, 0, 2, 4, 13, 10, 7, 4, 5, 2, -1, -3, -6, 3, 0, -3, -5, -8, -7, -10]
    ))
    assert res.quotient_weights == expected
    assert elementary_symmetric(5, PowerSums.of(expected, 5)) == 105534
    assert elementary_symmetric(
        5, PowerSums.of(res.quotient_weights, 5)) == 105534
    assert elapsed < 5.0, "criterion 2 took %.2fs" % elapsed


def test_criterion_03_basis_dimensions():
    """|Phi_d| = (d+4)(d+2)(d+1)/2 for d = 1..8 (36 at d = 2)."""
    assert phi_dimension(2) == 36
    for d in range(1, 9):
        basis = build_phi_basis(d)
        assert len(basis) == (d + 4) * (d + 2) * (d + 1) // 2


def test_criterion_04_kernel_rank_law():
    """tangent_kernel_dimension = (d+4)(d+2)d/3, and so does the rank
    of the dense contraction matrix, for five random full-Pfaffian forms
    at each d = 2..5."""
    rng = random.Random(20260816)
    for d in range(2, 6):
        expected = (d + 4) * (d + 2) * d // 3
        assert expected == contact_kernel_dimension(d)
        produced = 0
        while produced < 5:
            alpha = [rng.randint(-7, 7) for _ in range(6)]
            if not any(alpha):
                continue
            form = AntisymmetricForm(alpha)
            if not form.is_contact():
                continue
            produced += 1
            assert tangent_kernel_dimension(form, d) == expected
            assert kernel_dimension_by_rank(form, d) == expected


def test_criterion_05_method_agreement():
    """Image-fiber and kernel-limit weights identical for all six fixed
    points at d = 2, 3, 4."""
    for d in (2, 3, 4):
        for pair in P5_PAIRS:
            img = limit_fiber_weights(pair, d, method=METHOD_IMAGE)
            ker = limit_fiber_weights(pair, d, method=METHOD_KERNEL)
            assert img.quotient_weights == ker.quotient_weights
            assert img.kernel_weights == ker.kernel_weights
            # the combined runner performs the same comparison internally
            both = limit_fiber_weights(pair, d, method=METHOD_BOTH)
            assert both.quotient_weights == img.quotient_weights


def test_criterion_06_weight_independence():
    """Legendrian totals agree across three admissible weight systems
    at d = 2 and d = 3."""
    for d in (2, 3):
        degrees = {legendrian_degree(d, ws).degree for ws in WEIGHT_SYSTEMS}
        assert len(degrees) == 1


def test_criterion_07_closed_form_pointwise():
    """Computed Legendrian degrees match the closed form for d = 2..8."""
    for d in range(2, 9):
        assert legendrian_degree(d).degree == family_closed_form("legendrian", d)


def test_criterion_07_full_interpolation():
    """Sixteen freshly computed degrees (d = 2..17) interpolate to the
    exact degree-15 counting polynomial."""
    _cold_caches()
    t0 = time.monotonic()
    poly = interpolate_family(
        "legendrian", 2, 17, jobs=min(8, os.cpu_count() or 1)
    )
    elapsed = time.monotonic() - t0
    assert poly == family_closed_form_polynomial("legendrian")
    assert elapsed < 120.0, "interpolation took %.1fs" % elapsed


def test_criterion_08_pencil_degrees():
    """Pencil localization equals
    5*C(d+4,5)*C(d+3,3)*(d^2+2d+3)*(d^2+6d+11)/108 for d = 2..14
    (825 at d=2, 13300 at d=3), within a minute."""
    t0 = time.monotonic()
    assert pencil_degree(2).degree == 825
    assert pencil_degree(3).degree == 13300
    for d in range(2, 15):
        assert pencil_degree(d).degree == family_closed_form("pencil", d)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, "criterion 8 took %.2fs" % elapsed


def test_criterion_09_tangency_example():
    """The contraction of x2 dx1 - x1 dx2 + x4 dx3 - x3 dx4 against
    x1^2 d/dx1 + x1 x2 d/dx2 + x3 x4 d/dx3 + x4^2 d/dx4 vanishes
    identically."""
    form = AntisymmetricForm({(1, 2): 1, (3, 4): 1})
    field = [
        MonomialField(Fraction(1), (2, 0, 0, 0), 1),
        MonomialField(Fraction(1), (1, 1, 0, 0), 2),
        MonomialField(Fraction(1), (0, 0, 1, 1), 3),
        MonomialField(Fraction(1), (0, 0, 0, 2), 4),
    ]
    assert contract(form, field) == {}


def test_criterion_10_equivariance_of_contributions():
    """Relabeling the coordinates permutes the fixed points: for a
    permutation s of {1,2,3,4}, the contribution at pair p computed
    with permuted weights equals the contribution at s(p) with the
    original weights — for both families.  (This property suite stands
    in for reproducing any analogous counts in higher-dimensional
    ambient spaces, which are out of scope.)"""
    w = WEIGHT_SYSTEMS[0]
    base_leg = {
        c.pair: c.value for c in legendrian_degree(2, w).contributions
    }
    base_pen = {c.pair: c.value for c in pencil_degree(2, w).contributions}
    for img in ((2, 1, 4, 3), (4, 1, 2, 3), (3, 4, 1, 2), (1, 3, 2, 4)):
        permuted = tuple(w.weight(i) for i in img)
        leg = {
            c.pair: c.value
            for c in legendrian_degree(2, permuted).contributions
        }
        pen = {
            c.pair: c.value
            for c in pencil_degree(2, permuted).contributions
        }
        for p in P5_PAIRS:
            sp = tuple(sorted((img[p[0] - 1], img[p[1] - 1])))
            assert leg[p] == base_leg[sp]
            assert pen[p] == base_pen[sp]
            # the tangent data transports the same way
            assert tangent_weights_p5(p, permuted) == tangent_weights_p5(
                sp, w
            )
