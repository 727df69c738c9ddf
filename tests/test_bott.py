"""Tests for the Legendrian localization sum."""

import json
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import lcm, prod

import pytest

import foldeg.bott as bott
import foldeg.exact as exact
import foldeg.fields as fields
import foldeg.limits as limits
import foldeg.pencil as pencil_module
import oracles
from foldeg.bott import (
    LEGENDRIAN,
    FiberCountError,
    NonIntegralDegree,
    closed_form_counts,
    default_method,
    legendrian_degree,
    localize,
    tangent_weights_p5,
)
from foldeg.exact import (
    DEFAULT_WEIGHTS,
    Differences,
    InadmissibleWeights,
    PowerSums,
    WeightSystem,
    binomial_row,
    character_values,
    character_weights,
    power_sum_differences,
    power_sums_on_row,
)
from foldeg.fields import P5_PAIRS, complementary_pair
from foldeg.limits import (
    METHOD_BOTH,
    METHOD_IMAGE,
    METHOD_KERNEL,
    METHODS,
    MethodDisagreement,
    limit_fiber_weights,
)
from foldeg.pencil import PENCIL, pencil_degree, tangent_weights_g24
from foldeg.verify import LEGENDRIAN_D2_CONTRIBUTIONS, LEGENDRIAN_D2_DEGREE
from frozen import (
    ALT_WEIGHTS_A,
    ALT_WEIGHTS_B,
    D2_P34_SYMBOLIC_WEIGHTS,
    LEGENDRIAN_D3_DEGREE,
    PENCIL_D3_DEGREE,
)
from oracles import (
    SOURCE_PAIR,
    _chain_fiber,
    fiber_characters,
    transport_characters,
)


def test_tangent_weights():
    assert list(tangent_weights_p5((1, 2), (0, 2, 7, 10))) == [5, 7, 8, 10, 15]
    assert list(tangent_weights_p5((3, 4), (0, 2, 7, 10))) == [
        -15,
        -10,
        -8,
        -7,
        -5,
    ]
    for pair in P5_PAIRS:
        tw = tangent_weights_p5(pair, DEFAULT_WEIGHTS)
        assert len(tw) == 5
        assert all(v != 0 for v in tw)
    with pytest.raises(InadmissibleWeights):
        tangent_weights_p5((1, 2), (0, 1, 2, 3))


def test_default_method_switchover():
    assert default_method(2) == METHOD_BOTH
    assert default_method(4) == METHOD_BOTH
    assert default_method(5) == METHOD_IMAGE
    assert default_method(17) == METHOD_IMAGE


def test_d2_contribution_table():
    """The six d=2 summands, raw numerator and denominator, in canonical
    fixed-point order."""
    report = legendrian_degree(2)
    assert report.family == "legendrian"
    assert report.degree == LEGENDRIAN_D2_DEGREE
    assert len(report.contributions) == 6
    got = [
        (c.pair, c.numerator, c.denominator) for c in report.contributions
    ]
    assert got == list(LEGENDRIAN_D2_CONTRIBUTIONS)
    for c in report.contributions:
        assert c.denominator > 0
        assert c.value == Fraction(c.numerator, c.denominator)
    assert sum(c.value for c in report.contributions) == report.degree


def test_d3_degree():
    assert legendrian_degree(3).degree == LEGENDRIAN_D3_DEGREE


def test_weight_independence_d2():
    degrees = {
        legendrian_degree(2, ws).degree
        for ws in (DEFAULT_WEIGHTS, ALT_WEIGHTS_A, ALT_WEIGHTS_B)
    }
    assert degrees == {LEGENDRIAN_D2_DEGREE}


def test_methods_give_same_degree():
    for method in (METHOD_IMAGE, METHOD_KERNEL, METHOD_BOTH):
        assert legendrian_degree(2, method=method).degree == (
            LEGENDRIAN_D2_DEGREE
        )


def test_json_schema():
    report = legendrian_degree(2)
    assert repr(report) == "DegreeReport(legendrian, d=2, degree=2224)"
    out = report.to_json_dict()
    # the Legendrian family is the default: no "family" key
    assert "family" not in out
    assert out["d"] == 2
    assert out["weights"] == [0, 2, 7, 10]
    assert out["degree"] == "2224"
    assert len(out["contributions"]) == 6
    first = out["contributions"][0]
    assert first == {
        "pair": [1, 2],
        "num": "833800359",
        "den": "42000",
        "value": "39704779/2000",
    }
    json.dumps(out)  # must be serializable as-is


def test_input_validation():
    with pytest.raises(ValueError):
        legendrian_degree(LEGENDRIAN.min_degree - 1)
    with pytest.raises(InadmissibleWeights):
        legendrian_degree(2, (0, 1, 2, 3))
    with pytest.raises(ValueError):
        legendrian_degree(2, method="nonsense")
    # degrees are taken exactly: a float is refused, even of integer value
    for call, d in ((legendrian_degree, 2.5), (legendrian_degree, 3.0),
                    (pencil_degree, 3.0), (LEGENDRIAN.closed_form, 2.5),
                    (PENCIL.closed_form, 5.0)):
        with pytest.raises(TypeError):
            call(d)
    # the public fiber of either family at a d with no monomials of
    # degree d + 1, or at a float d, even of integer value
    assert len(LEGENDRIAN.fiber((1, 2), -1, DEFAULT_WEIGHTS)) == 1
    for family in (LEGENDRIAN, PENCIL):
        with pytest.raises(ValueError, match="no monomials of degree -1"):
            family.fiber((1, 2), -2, DEFAULT_WEIGHTS)
        with pytest.raises(TypeError):
            family.fiber((1, 2), 2.0, DEFAULT_WEIGHTS)
    assert issubclass(NonIntegralDegree, ArithmeticError)


def test_an_unknown_method_is_refused_after_both_checked_every_pair():
    """limit_fiber_weights is the one place that refuses an unknown
    method, and the Legendrian check skips only what "both" has checked:
    once "both" has checked every pair at d = 2, a method that is none
    of METHODS is still refused there, not taken as checked."""
    legendrian_degree(2, method=METHOD_BOTH)
    assert len(bott._both_checked) == 6
    with pytest.raises(ValueError, match="^unknown method 'nonsense'$"):
        legendrian_degree(2, method="nonsense")


def test_weights_accept_plain_sequences():
    report = legendrian_degree(2, [0, 2, 7, 10])
    assert report.degree == LEGENDRIAN_D2_DEGREE
    assert report.weights == WeightSystem((0, 2, 7, 10))


@pytest.mark.parametrize(
    "weights", (DEFAULT_WEIGHTS, ALT_WEIGHTS_A, ALT_WEIGHTS_B),
    ids=lambda w: ",".join(map(str, w.values)),
)
def test_transport_matches_direct_fibers(weights):
    """Every coordinate permutation sigma carries the fiber at
    SOURCE_PAIR, as characters, onto the directly computed fiber at
    sigma(SOURCE_PAIR); and the closed form the image route evaluates
    is the direct fiber at every pair."""
    for d in range(2, 7):
        source = limit_fiber_weights(SOURCE_PAIR, d, weights)
        characters = source.quotient_characters
        direct = {
            pair: limit_fiber_weights(pair, d, weights).quotient_weights
            for pair in P5_PAIRS
        }
        for sigma in permutations((1, 2, 3, 4)):
            pair = tuple(sorted(sigma[:2]))
            moved = transport_characters(characters, sigma)
            assert character_weights(moved, weights) == direct[pair], (d, sigma)
        for pair in P5_PAIRS:
            closed = fiber_characters(d, pair)
            assert character_weights(closed, weights) == direct[pair]


def counted_builds(monkeypatch):
    """Put in place of bott.LEGENDRIAN and pencil.PENCIL, the families
    that legendrian_degree and pencil_degree read, copies whose shift,
    which the record runs once per pair to build that pair's fiber
    table, counts its calls by (family name, weights), and empty the
    record cache, so that every record is built afresh; returns the
    Counter."""
    builds = Counter()
    for module, name in ((bott, "LEGENDRIAN"), (pencil_module, "PENCIL")):
        family = getattr(module, name)

        def shift(pair, w, reached, part, family=family):
            builds[family.name, w] += 1
            return family.shift(pair, w, reached, part)

        monkeypatch.setattr(module, name, family._replace(shift=shift))
    bott._fixed_points.cache_clear()
    return builds


def counted_monomial_tables(monkeypatch):
    """Count the monomial tables that bott asks exact for, as a list of
    (weights, top) in the order asked, and empty the record cache, so
    that every record is built afresh; returns the list."""
    real, asked = bott.power_sum_differences, []

    def recorded(ws, top):
        asked.append((tuple(ws), top))
        return real(ws, top)

    monkeypatch.setattr(bott, "power_sum_differences", recorded)
    bott._fixed_points.cache_clear()
    return asked


def test_image_route_computes_one_limit_per_degree(monkeypatch):
    """The image route builds each fiber's table once per weight system
    and pair, in the record of the system, and evaluates it at every
    degree; it builds neither chains, nor a field basis, nor a
    contraction matrix.  The kernel route computes the six fibers
    directly, but sums the same tables."""
    calls = []

    def counting(pair, d, weights, method):
        calls.append((pair, method))
        return limit_fiber_weights(pair, d, weights, method)

    def refused(*args):
        raise AssertionError("the image route built a global structure")

    monkeypatch.setattr(bott, "limit_fiber_weights", counting)
    builds = counted_builds(monkeypatch)
    with monkeypatch.context() as m:
        for module in (fields, limits):
            m.setattr(module, "build_phi_basis", refused)
        m.setattr(limits, "build_contraction_matrix", refused)
        m.setattr(limits, "_chains", refused)
        limits._pair_chains.cache_clear()
        for d in (5, 6):
            image = legendrian_degree(d, method=METHOD_IMAGE)
            legendrian_degree(d, ALT_WEIGHTS_A, method=METHOD_IMAGE)
    records = bott._fixed_points.cache_info()
    assert builds == {("legendrian", DEFAULT_WEIGHTS): 6,
                      ("legendrian", ALT_WEIGHTS_A): 6} and calls == []
    assert (records.misses, records.hits) == (2, 2)
    kernel = legendrian_degree(6, method=METHOD_KERNEL)
    assert image.contributions == kernel.contributions
    assert calls == [(pair, METHOD_KERNEL) for pair in P5_PAIRS]
    after = bott._fixed_points.cache_info()
    assert sum(builds.values()) == 12
    assert (after.misses, after.hits) == (records.misses, records.hits + 1)


def test_each_family_builds_its_monomial_tables_once_per_system(
        monkeypatch):
    """The power sums of the degree-(d+1) monomial weights, as polynomials
    in d, are one table per weight system and top, and each family's
    record asks for the top of its e_n: p_0..p_5 for the Legendrian e_5,
    p_0..p_4 for the pencil e_4.  So a degree of each family builds its
    own tables once, one in four variables and one in two per pair, and
    its six fiber tables, and the next degree of each builds no table at
    all."""
    builds = counted_builds(monkeypatch)
    monomial_tables = counted_monomial_tables(monkeypatch)

    def misses():
        return [len(monomial_tables),
                builds["legendrian", DEFAULT_WEIGHTS],
                builds["pencil", DEFAULT_WEIGHTS]]

    legendrian_degree(20)
    assert misses() == [1 + 6, 6, 0]
    pencil_degree(20)
    assert misses() == [2 * (1 + 6), 6, 6]
    legendrian_degree(21)
    pencil_degree(21)
    assert misses() == [2 * (1 + 6), 6, 6]


def test_a_pencil_sweep_builds_no_table_past_p_4(monkeypatch):
    """e_4 reads p_0..p_4 of a fiber, so a sweep of pencil degrees over
    three weight systems asks for each monomial table, the full one and
    the part of each split, at top 4 and never at top 5: seven tables
    per system, each once, in the record of that system."""
    asked = counted_monomial_tables(monkeypatch)
    for values in ((0, 2, 7, 10), (10, 16, 0, 3), (9, -4, 2, 0)):
        for d in range(2, 8):
            pencil_degree(d, values)
    assert [top for _, top in asked] == [4] * (3 * 7)


@pytest.mark.parametrize("family, top", ((LEGENDRIAN, 5), (PENCIL, 4)),
                         ids=("legendrian", "pencil"))
def test_the_record_asks_for_each_monomial_table_once(monkeypatch, family,
                                                      top):
    """One record build asks for the four-variable table of the weights
    once and, at each pair in order, the two-variable table of its
    complement once, all at the top n of the family's e_n, the number of
    its tangent weights; the next degree asks for none."""
    asked = counted_monomial_tables(monkeypatch)
    w = WeightSystem((9, -4, 2, 0))
    localize(family, 5, w)
    assert asked == [((9, -4, 2, 0), top)] + [
        (tuple(w.weight(i) for i in complementary_pair(pair)), top)
        for pair in P5_PAIRS]
    assert top == len(family.tangent_weights((1, 2), w))
    del asked[:]
    localize(family, 6, w)
    family.fiber((2, 4), 7, w)
    assert asked == []


def test_family_table_is_the_table_of_the_record():
    """Family.table hands back the very table that the record holds and
    localize sums, at any spelling of the pair and the weights, and
    refuses a pair that is not a fixed point as Family.fiber does;
    test_inadmissible_weights_raise_at_every_entry_point checks its
    weights."""
    for family in (LEGENDRIAN, PENCIL):
        for values in ((0, 2, 7, 10), (9, -4, 2, 0)):
            _, _, points = bott._fixed_points(family, WeightSystem(values))
            for pair, point in zip(P5_PAIRS, points):
                assert family.table(list(pair), values) is point[-1]
                assert family.table(pair, WeightSystem(values)) is point[-1]
        for bad in ((2, 1), (1, 1), (1, 5)):
            for call in (family.table, lambda pair, w: family.fiber(pair, 2, w)):
                with pytest.raises(ValueError, match="not a fixed-point pair"):
                    call(bad, DEFAULT_WEIGHTS)


@pytest.mark.parametrize("values", (
    (0, 2, 7, 10), (9, -4, 2, 0), (1, 3, 9, 20), (0, 1, 5, 13),
), ids=lambda w: ",".join(map(str, w)))
def test_the_tangent_numbers_share_one_common_denominator(values):
    """Per family and weight system, the record gives the lcm common of
    the six |e_n(tangent)| and at each pair, in order, n, the sign and
    |e_n| of the tangent product, the factor common / |e_n| and the
    family's table there, and the width of the widest table, so that
    localize sums numerator * factor over common: at every d that is
    the sum of the contributions' Fractions, and the degree."""
    w = WeightSystem(values)
    signs = set()
    for family in (LEGENDRIAN, PENCIL):
        common, width, points = bott._fixed_points(family, w)
        tangents = [family.tangent_weights(pair, w) for pair in P5_PAIRS]
        assert common == lcm(*(abs(prod(t)) for t in tangents))
        assert width == max(len(f) for pair in P5_PAIRS
                            for f in family.table(pair, w).p)
        factors = {}
        for point, pair, tangent in zip(points, P5_PAIRS, tangents):
            at, n, sign, den, factor, table = point
            assert at == pair and table.p == family.table(pair, w).p
            assert n == len(tangent) and sign * den == prod(tangent)
            assert sign in (1, -1) and den > 0 and factor * den == common
            signs.add(sign)
            factors[pair] = factor
        for d in range(2, 9):
            report = localize(family, d, w)
            total = sum(c.numerator * factors[c.pair]
                        for c in report.contributions)
            values_sum = sum(c.value for c in report.contributions)
            assert Fraction(total, common) == values_sum == report.degree
    assert signs == {1, -1}


def _characters_moved_at_34(monkeypatch, move):
    """Make bott.closed_form_counts count, at (3,4), the closed form with
    its first character moved by the vector move, and return that moved
    fiber as a function of (d, pair)."""
    def moved_fiber(d, pair):
        fiber = fiber_characters(d, pair)
        if pair != (3, 4):
            return fiber
        first = tuple(a + b for a, b in zip(fiber[0], move))
        return tuple(sorted((first,) + fiber[1:]))

    def moved(characters, pair):
        copies = Counter(moved_fiber(sum(characters[0]) + 1, pair))
        return [copies[chi] for chi in characters]

    monkeypatch.setattr(bott, "closed_form_counts", moved)
    return moved_fiber


def test_both_checks_closed_form_fibers(monkeypatch):
    """method="both" and the kernel route compare each direct fiber with
    the closed form at its own pair, as characters and as the power sums
    that are summed, and raise on a mismatch; the kernel route is not
    memoised, so it raises again on a retry.  A wrong power-sum fiber on
    the image route fails Newton's step or the integrality of the sum."""
    assert legendrian_degree(3, method=METHOD_BOTH).degree == (
        LEGENDRIAN_D3_DEGREE
    )
    shift = LEGENDRIAN.shift
    moved = PowerSums([Differences()] + [Differences([1])] * 5)

    def shift_off_at_34(pair, w, *split):  # a weight 0 moved to 1 at every d
        table = shift(pair, w, *split)
        return table + moved if pair == (3, 4) else table

    off = LEGENDRIAN._replace(shift=shift_off_at_34)

    with monkeypatch.context() as m:
        _characters_moved_at_34(m, (1, 0, 0, 0))
        for _ in range(2):  # d = 3 passed "both" above; kernel checks anyway
            with pytest.raises(MethodDisagreement,
                               match=r"closed-form .* at \(3, 4\), d=3"):
                legendrian_degree(3, method=METHOD_KERNEL)
        bott._both_checked.clear()  # check d = 3 afresh
        with pytest.raises(MethodDisagreement):
            legendrian_degree(3, method=METHOD_BOTH)
    # the characters agree with the closed form, the summed power sums
    # do not, and only the power-sum comparison sees it
    for method in (METHOD_KERNEL, METHOD_BOTH):
        bott._both_checked.clear()
        with pytest.raises(MethodDisagreement,
                           match=r"closed-form .* at \(3, 4\), d=3"):
            localize(off, 3, method=method)
    # the image route has no direct fiber to compare with; Newton's step
    # and the integrality of the sum are what catch a wrong one there
    with pytest.raises(ArithmeticError):
        localize(off, 3, method=METHOD_IMAGE)


@pytest.mark.parametrize("weights", ((0, 2, 7, 10), (0, 1, 5, 13),
                                     (1, 3, 9, 20), (9, -4, 2, 0)))
def test_fiber_tables_commute_with_the_split_and_shifts(weights):
    """The split, the subtraction and the shifts commute with the forward
    differences: at every pair of both families and d = 1..59, the fiber
    tables at d + 1 give the power sums that splitting and shifting the
    monomial power sums at that d gives."""
    w = WeightSystem(weights)
    for d in range(1, 60):
        row = binomial_row(d + 1, 9)  # p_5 in four variables has degree 8
        full = power_sums_on_row(power_sum_differences(w.values, 5), row)
        for pair in P5_PAIRS:
            k, l = complementary_pair(pair)
            part = power_sums_on_row(
                power_sum_differences((w.weight(k), w.weight(l)), 5), row)
            low, high = w.pair_sum(pair), w.pair_sum((k, l))
            image = (full - part).shifted(-low) + part.shifted(-high)
            assert LEGENDRIAN.fiber(pair, d, w).p == image.p, (pair, d)
            twisted = PowerSums((full - part).p[:5]).shifted(high)
            assert PENCIL.fiber(pair, d, w).p == twisted.p, (pair, d)


def _without_a_zero(table, top=5):
    """A fiber table of p_0..p_top that lacks one weight 0 at every d."""
    return table - PowerSums([Differences([1])] + [Differences()] * top)


def test_image_fiber_needs_every_monomial_weight():
    """Each fiber is its table at d + 1, and its count must be all
    C(d+4,3) monomial weights; a table that lacks a weight, or counts the
    pencil fiber's C(d+4,3) - (d+2), is refused rather than read as a
    smaller fiber.  The pencil table is padded out to the p_5 that e_5
    reads, so that its count, not its length, is what is refused."""
    assert len(LEGENDRIAN.fiber((1, 2), 2, DEFAULT_WEIGHTS)) == 20
    table = LEGENDRIAN.table((1, 2), DEFAULT_WEIGHTS)
    pencil = PENCIL.table((1, 2), DEFAULT_WEIGHTS)
    for bad, count in ((_without_a_zero(table), 19),
                       (PowerSums(pencil.p + (Differences(),)), 16)):
        family = LEGENDRIAN._replace(shift=lambda *split: bad)
        with pytest.raises(FiberCountError,
                           match="fiber count %d, not 20" % count):
            family.fiber((1, 2), 2, DEFAULT_WEIGHTS)


def test_a_table_short_of_p_n_is_refused_by_the_record():
    """e_n reads p_0..p_n, so the record of a family refuses a table that
    stops before p_n, naming its pair and n, whatever the degree; a
    build that raises is not kept, so the next call raises again."""
    short = LEGENDRIAN._replace(
        shift=lambda *split: PowerSums(LEGENDRIAN.shift(*split).p[:5]))
    for call in (lambda: short.fiber((3, 4), 2, DEFAULT_WEIGHTS),
                 lambda: short.fiber((3, 4), 9, DEFAULT_WEIGHTS),
                 lambda: localize(short, 3)):
        with pytest.raises(FiberCountError,
                           match=r"^fiber table p_0..p_4 has no e_5 at \(1, 2\)$"):
            call()


@pytest.mark.parametrize("weights", ((0, 2, 7, 10), (0, 1, 5, 13),
                                     (9, -4, 2, 0)))
def test_both_families_at_d1(weights):
    """At d = 1, where the split keeps 3 monomials in x_k, x_l alone,
    the Legendrian sum is 0 on every route (a Legendrian field of degree
    1 is tangent to a pencil of forms, so the map has P^1 fibers) and
    the pencil sum is 20; each is its published polynomial at 1."""
    legendrian = LEGENDRIAN._replace(min_degree=1)
    pencil = PENCIL._replace(min_degree=1)
    for method in METHODS:
        assert localize(legendrian, 1, weights, method=method).degree == 0
    assert localize(pencil, 1, weights).degree == 20
    assert legendrian.closed_form_polynomial()(1) == 0
    assert pencil.closed_form_polynomial()(1) == 20


def test_both_sees_a_character_moved_at_constant_weight(monkeypatch):
    """(0, 5, 0, -1) weighs 0 under the default weights 0,2,7,10, so
    moving one closed-form character at (3,4) by it keeps every weight
    of the fiber; "both" compares characters and still raises."""
    move = (0, 5, 0, -1)
    assert sum(a * b for a, b in zip(move, DEFAULT_WEIGHTS.values)) == 0
    moved_fiber = _characters_moved_at_34(monkeypatch, move)
    closed = fiber_characters(3, (3, 4))
    moved = moved_fiber(3, (3, 4))
    assert moved != closed
    assert character_weights(moved, DEFAULT_WEIGHTS) == character_weights(
        closed, DEFAULT_WEIGHTS)
    with pytest.raises(MethodDisagreement,
                       match=r"closed-form .* at \(3, 4\), d=3"):
        legendrian_degree(3, method=METHOD_BOTH)


def test_both_checks_each_degree_and_pair_once(monkeypatch):
    """Once "both" has checked a (d, pair), it takes the fiber from the
    closed form under any weights, with no direct computation; the
    reports equal those computed afresh under every system."""
    calls = []

    def counted(*args):
        calls.append(args[:2])
        return limit_fiber_weights(*args)

    monkeypatch.setattr(bott, "limit_fiber_weights", counted)
    systems = (DEFAULT_WEIGHTS, ALT_WEIGHTS_A, ALT_WEIGHTS_B)
    for d in range(2, 6):
        fresh = []
        for ws in systems:
            bott._both_checked.clear()
            del calls[:]
            fresh.append(legendrian_degree(d, ws, method=METHOD_BOTH))
            assert sorted(calls) == [(pair, d) for pair in P5_PAIRS]
        del calls[:]
        warm = [legendrian_degree(d, ws, method=METHOD_BOTH)
                for ws in systems]
        assert calls == []
        assert warm == fresh


@pytest.mark.parametrize("method", (METHOD_BOTH, METHOD_KERNEL))
def test_direct_routes_evaluate_weights_only_when_read(monkeypatch, method):
    """A route evaluates no weight, and the direct check evaluates one
    per character of the image fiber at each pair, for its power-sum
    comparison: 6 evaluations at a degree under either method, each of
    the fiber's distinct characters, and none for copies, for the
    kernels or for the comparison of the routes."""
    calls = []

    def counted(characters, weights):
        characters = list(characters)
        calls.append(len(characters))
        return character_values(characters, weights)

    def refused(characters, weights):
        raise AssertionError("a route evaluated weights")

    monkeypatch.setattr(bott, "character_values", counted)
    monkeypatch.setattr(limits, "character_weights", refused)
    bott._both_checked.clear()
    assert legendrian_degree(3, method=method).degree == LEGENDRIAN_D3_DEGREE
    assert calls == [len(set(fiber_characters(3, pair)))
                     for pair in P5_PAIRS]
    assert all(n < 35 for n in calls)  # fewer than C(3 + 4, 3) copies


def test_both_builds_each_sorted_image_at_most_once(monkeypatch):
    """Under "both", each (d, pair) builds its sorted image characters at
    most once, counting the closed form's fiber_characters (here never),
    and no route builds a list of characters one per copy: the direct
    check compares counts, and reads the image of the one result it
    keeps as its distinct characters, once."""
    built = Counter()

    def counting(name, real):
        def read(self, *args):
            built[name, self.d, self.pair] += 1
            return real(self, *args)
        return read

    result = limits.LimitFiberResult
    for name in ("quotient_characters", "quotient_counts"):
        monkeypatch.setattr(result, name, property(
            counting(name, getattr(result, name).fget)))
    monkeypatch.setattr(result, "_characters",
                        counting("_characters", result._characters))
    monkeypatch.setattr(oracles, "fiber_characters", lambda d, pair: (
        built.update([("fiber_characters", d, pair)])
        or fiber_characters(d, pair)))
    for ws in (DEFAULT_WEIGHTS, ALT_WEIGHTS_A):
        for d in range(2, 7):
            legendrian_degree(d, ws, method=METHOD_BOTH)
    assert {name for name, _, _ in built} == {"quotient_counts"}
    assert sorted(built.values()) == [1] * 6 * 5


def test_closed_form_counts_are_the_closed_form_fiber():
    """Over the characters of the chains at every pair, d = 1..12,
    closed_form_counts gives the closed-form fiber (fiber_characters) as
    a multiset.  The chains write each character once, of degree d - 1,
    as the argument in its docstring needs."""
    for d in range(1, 13):
        for pair in P5_PAIRS:
            characters = [chi for chi, fields_ in limits._chains(d, pair)
                          if fields_]
            assert len(set(characters)) == len(characters), (pair, d)
            assert {sum(chi) for chi in characters} == {d - 1}
            counts = closed_form_counts(characters, pair)
            assert Counter(dict(zip(characters, counts))) == Counter(
                fiber_characters(d, pair)), (pair, d)


def test_a_failed_both_check_is_not_remembered(monkeypatch):
    """A (d, pair) whose direct fiber disagrees with the closed form
    raises on every call until the two agree; a pair checked at another
    degree does not count."""
    legendrian_degree(2, method=METHOD_BOTH)
    _characters_moved_at_34(monkeypatch, (1, 0, 0, 0))
    for ws in (DEFAULT_WEIGHTS, DEFAULT_WEIGHTS, ALT_WEIGHTS_A):
        with pytest.raises(MethodDisagreement,
                           match=r"closed-form .* at \(3, 4\), d=3"):
            legendrian_degree(3, ws, method=METHOD_BOTH)
    monkeypatch.undo()
    assert legendrian_degree(3, method=METHOD_BOTH).degree == (
        LEGENDRIAN_D3_DEGREE
    )


def test_fiber_characters_reproduce_the_frozen_table():
    """The symbolic d = 2 fiber at (3,4) is the closed-form character
    fiber there."""
    got = fiber_characters(2, (3, 4))
    assert sorted(got) == sorted(D2_P34_SYMBOLIC_WEIGHTS)
    assert character_weights(got, DEFAULT_WEIGHTS) == (
        limit_fiber_weights((3, 4), 2).quotient_weights
    )


def test_fiber_characters_need_a_positive_degree():
    with pytest.raises(ValueError, match="field degree"):
        fiber_characters(0, (1, 2))


def test_closed_form_equals_the_chain_fiber_oracle():
    """The closed form at SOURCE_PAIR is the chain fiber, one echelon per
    chain, d = 1..30."""
    for d in range(1, 31):
        assert fiber_characters(d, SOURCE_PAIR) == _chain_fiber(d), d


@pytest.mark.parametrize("weights", (DEFAULT_WEIGHTS, ALT_WEIGHTS_A))
def test_published_polynomial_pointwise_at_high_degree(weights):
    """The image route gives the published degree at d = 40, 60, 100."""
    for d in (40, 60, 100):
        report = legendrian_degree(d, weights)
        assert report.degree == LEGENDRIAN.closed_form(d), d


@pytest.mark.parametrize("d", (1000, 10**6, 10**7))
def test_both_families_at_degrees_beyond_any_count(d):
    """Localized on closed-form power sums, whose cost does not grow with
    d, both degrees are the published ones at d = 1000, 10^6 and 10^7.
    At 10^7 every fiber has more than 2^63 weights, so len() of its
    PowerSums overflows: localize must not take it."""
    assert legendrian_degree(d).degree == LEGENDRIAN.closed_form(d)
    assert pencil_degree(d).degree == PENCIL.closed_form(d)


def assert_published_for_every_d(name, w):
    """The Bott sum of a family at w is its published polynomial at every
    d, by a finite check.  Each p_j of the fiber tables has at most j + 4
    differences, so degree at most j + 3 in d.  Newton's identities write
    e_n as a sum of products p_i1 ... p_im with i1 + ... + im = n, each of
    degree at most n + 3m <= 4n, so the sum over the six pairs is a
    polynomial of degree at most 4n, as is the published one (15 or 12).
    Two such polynomials that agree at the 4n + 1 degrees d = 2..2+4n are
    equal, and localize evaluates the same tables at every d."""
    family = {"legendrian": LEGENDRIAN, "pencil": PENCIL}[name]
    n = len(family.tangent_weights(P5_PAIRS[0], w))
    for pair in P5_PAIRS:
        lengths = [len(f) for f in family.table(pair, w).p]
        assert all(k <= j + 4 for j, k in enumerate(lengths)), (pair, lengths)
    for d in range(2, 3 + 4 * n):
        assert localize(family, d, w).degree == family.closed_form(d), d


@pytest.mark.parametrize("weights", (
    (0, 2, 7, 10), (0, 1, 5, 13), (1, 3, 9, 20), (9, -4, 2, 0),
), ids=lambda w: ",".join(map(str, w)))
@pytest.mark.parametrize("family", ("legendrian", "pencil"))
def test_bott_sum_is_the_published_polynomial_in_d(family, weights):
    """The whole Bott sum of each family equals the published polynomial
    for every d at each of four weight systems: 21 Legendrian and 17
    pencil degrees, with the degree bound of the fiber tables, decide it
    (assert_published_for_every_d)."""
    assert_published_for_every_d(family, WeightSystem(weights))


def _plus_one_in(table, js):
    """A table whose p_j, j in js, are each 1 larger at every d."""
    return PowerSums(f + Differences([1]) if j in js else f
                     for j, f in enumerate(table.p))


@pytest.mark.parametrize("family, js, message", (
    (PENCIL, (1, 2, 3, 4),
     "pencil localization sum 17147157/10 is not an integer "
     "(d=5, weights (0, 2, 7, 10))"),
    (LEGENDRIAN, (1, 2, 3, 4, 5),
     "legendrian localization sum 89246964017/7000 is not an integer "
     "(d=5, weights (0, 2, 7, 10))"),
), ids=("pencil", "legendrian"))
def test_a_wrong_fiber_table_gives_a_non_integral_sum(family, js, message):
    """A fiber table at (3,4) whose p_1..p_top are each one too large
    passes the count and Newton's step, but the Bott sum it gives is not
    an integer: localize raises NonIntegralDegree with the sum in lowest
    terms, which it takes in ints over the common tangent denominator."""
    wrong = family._replace(shift=lambda pair, *split: _plus_one_in(
        family.shift(pair, *split), js if pair == (3, 4) else ()))
    with pytest.raises(NonIntegralDegree) as info:
        localize(wrong, 5)
    assert str(info.value) == message


def test_table_caches_keep_four_weight_systems(monkeypatch):
    """A sweep over three weight systems that returns to the first builds
    no record again, so no fiber table and no tangent product, in either
    family."""
    builds = counted_builds(monkeypatch)
    systems = (DEFAULT_WEIGHTS, ALT_WEIGHTS_A, ALT_WEIGHTS_B)
    for w in systems:
        legendrian_degree(5, w)
        pencil_degree(5, w)
    misses = bott._fixed_points.cache_info().misses, sum(builds.values())
    assert misses == (2 * 3, 2 * 3 * 6)
    legendrian_degree(6, systems[0])
    pencil_degree(6, systems[0])
    assert (bott._fixed_points.cache_info().misses,
            sum(builds.values())) == misses


def test_a_tuple_sweep_that_returns_to_the_first_system_builds_nothing(
        monkeypatch):
    """The benchmark's sweep passes weights as plain tuples: three systems
    and then the first again, as a new tuple.  On the return its
    WeightSystem, equal to the first, finds the first's admissibility
    and record, so its fiber tables and tangent products, in either
    family."""
    builds = counted_builds(monkeypatch)
    for values in ((0, 2, 7, 10), (10, 16, 0, 3), (6, 0, 16, 13)):
        legendrian_degree(5, values)
        pencil_degree(5, values)

    def misses():
        return (bott._fixed_points.cache_info().misses,
                exact._admissible.cache_info().misses, sum(builds.values()))

    before = misses()
    first = tuple([0, 2, 7, 10])
    legendrian_degree(6, first)
    pencil_degree(6, first)
    assert misses() == before


def test_the_record_is_built_once_per_family_and_system(monkeypatch):
    """A sweep of both families over three systems given as tuples, and
    the first again as a new tuple, builds one record per (family,
    system), each of six fiber tables, and reads it at every other
    degree of the sweep."""
    builds = counted_builds(monkeypatch)
    systems = ((0, 2, 7, 10), (10, 16, 0, 3), (6, 0, 16, 13))
    for values in systems + (tuple([0, 2, 7, 10]),):
        for d in range(2, 7):
            legendrian_degree(d, values)
            pencil_degree(d, values)
    assert builds == {(name, WeightSystem(values)): 6
                      for name in ("legendrian", "pencil")
                      for values in systems}
    records = bott._fixed_points.cache_info()
    assert (records.misses, records.hits) == (2 * 3, 2 * (4 * 5 - 3))


def test_a_degree_asks_for_one_binomial_row(monkeypatch):
    """The six points of a degree share one binomial row C(d + 1, k), as
    long as the widest of the family's six tables; Family.fiber asks for
    the same row."""
    real, rows = exact.binomial_row, []

    def recorded(n, length):
        rows.append((n, length))
        return real(n, length)

    monkeypatch.setattr(exact, "binomial_row", recorded)
    for family in (LEGENDRIAN, PENCIL):
        width = max(len(f) for pair in P5_PAIRS
                    for f in family.table(pair, DEFAULT_WEIGHTS).p)
        for d in (3, 9):
            del rows[:]
            localize(family, d)
            assert rows == [(d + 1, width)], family.name
            del rows[:]
            family.fiber((2, 4), d, DEFAULT_WEIGHTS)
            assert rows == [(d + 1, width)], family.name


def test_localize_asks_e_n_of_the_fibers_alone(monkeypatch):
    """e_n of the tangent weights is their product, so localize calls
    exact.elementary_symmetric once per fiber and never on a tangent.
    The record cache is emptied first, so tangents kept by earlier tests
    cannot hide a call."""
    bott._fixed_points.cache_clear()
    real, calls = exact.elementary_symmetric, []

    def counted(k, values):
        calls.append((k, type(values).__name__))
        return real(k, values)

    monkeypatch.setattr(exact, "elementary_symmetric", counted)
    pencil_degree(3)
    legendrian_degree(6)
    assert calls == [(4, "PowerSums")] * 6 + [(5, "PowerSums")] * 6


@pytest.mark.parametrize("family, options", (
    (LEGENDRIAN, {"method": METHOD_KERNEL}), (PENCIL, {}),
), ids=("legendrian", "pencil"))
def test_the_check_sees_each_summed_fiber_once(monkeypatch, family, options):
    """localize hands a family's check each of the six pairs once per
    degree, in order, with the options and the very PowerSums whose e_n
    it sums: the fiber is evaluated once, on one path."""
    real, summed, seen = exact.elementary_symmetric, [], []

    def counted(k, values):
        summed.append(values)
        return real(k, values)

    def check(pair, d, w, fiber, **kwargs):
        seen.append((pair, d, w, fiber, kwargs))

    monkeypatch.setattr(exact, "elementary_symmetric", counted)
    watched = family._replace(check=check)
    for d in (2, 3):
        localize(watched, d, ALT_WEIGHTS_A.values, **options)
    assert [(pair, d, w, kwargs) for pair, d, w, _, kwargs in seen] == [
        (pair, d, ALT_WEIGHTS_A, options) for d in (2, 3) for pair in P5_PAIRS]
    assert len(summed) == 12
    assert all(s[3] is fiber for s, fiber in zip(seen, summed))


def test_localize_sums_the_table_of_the_family_it_is_given():
    """A family built with _replace(shift=...) is what localize sums, and
    no module attribute changes: with every fiber weight one larger, a
    twist by a constant character, each contribution is e_4 of the
    shifted fiber over the tangent product, the sum is still the degree,
    and pencil_degree still sums PENCIL's own table."""
    d, plain = 3, pencil_degree(3)
    shifted = PENCIL._replace(
        shift=lambda *split: PENCIL.shift(*split).shifted(1))
    report = localize(shifted, d)
    assert report.degree == plain.degree == PENCIL_D3_DEGREE
    for c, before in zip(report.contributions, plain.contributions):
        fiber = PENCIL.fiber(c.pair, d, DEFAULT_WEIGHTS)
        assert c.value == Fraction(
            exact.elementary_symmetric(4, fiber.shifted(1)),
            prod(tangent_weights_g24(c.pair)))
        assert c.value != before.value
    assert pencil_degree(3) == plain


@pytest.mark.parametrize("bad", ((0, 1, 2, 3), (0, 0, 1, 5)))
def test_inadmissible_weights_raise_at_every_entry_point(bad):
    """A WeightSystem decides admissibility once and keeps the answer,
    so no answer passes from one system to another: an inadmissible
    system raises at every public entry point, again on a second call,
    and right after an admissible system went through the same one."""
    entry_points = [
        lambda w: pencil_degree(2, w),
        *(lambda w, m=m: legendrian_degree(2, w, method=m) for m in METHODS),
        lambda w: LEGENDRIAN.fiber((1, 2), 2, w),
        lambda w: PENCIL.fiber((1, 2), 2, w),
        lambda w: LEGENDRIAN.table((1, 2), w),
        lambda w: PENCIL.table((1, 2), w),
        lambda w: tangent_weights_p5((1, 2), w),
        lambda w: tangent_weights_g24((1, 2), w),
        lambda w: limit_fiber_weights((1, 2), 2, w),
    ]
    kept = WeightSystem(bad)
    for call in entry_points:
        call(WeightSystem(DEFAULT_WEIGHTS.values))
        for weights in (kept, kept, bad, WeightSystem(bad)):
            with pytest.raises(InadmissibleWeights):
                call(weights)
    assert DEFAULT_WEIGHTS.is_admissible() and not kept.is_admissible()
