"""A standing table of mutants, each one that named tests must catch
(slow: run with -m slow).

A row is (file, old text, new text, test ids), the file one of
src/foldeg, named by its file name, or one of the tests, named by its
path from the root, tests/oracles.py.  The old text must occur exactly
once; it is replaced in a copy under tmp_path, of src/ or of the tests
with the root's conftest.py and pyproject.toml, and only the named
tests run: on the copy of src/ from the root, or on src/ from the copy
of the tests.  Every named test must fail, within 300 s.  The rows run in
one warm interpreter, tests/mutant_server.py, started once per session:
it has imported pytest and hypothesis but never foldeg, and forks one
child per row, which puts the row's src/ first on sys.path, changes to
the row's root and runs pytest.main.  So a row pays for importing foldeg and its tests, not for
starting Python, pytest and hypothesis again.  Where os.fork is missing,
each row runs in a fresh ``python -m pytest`` as before.  Either way
the tests run under the hypothesis profile "foldeg-mutants", which does
not shrink a failure or keep a database, and with plain asserts: no
bytecode is written, so pytest would otherwise rewrite every hypothesis
module again in each row.  They also leave out the pytest-benchmark
plugin, which no test uses and which costs each row's start-up time
where it is installed.  A row whose old text is gone fails as a rotted
mutant, so the table moves with the code: when a change rewrites a
guarded line, it rewrites the row too.  A mutant that changes nothing a
test sees must be reported as survived, which shows that the harness
can fail.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SERVER = Path(__file__).resolve().parent / "mutant_server.py"
PYTEST_ARGS = ["-q", "-rf", "-p", "no:cacheprovider", "-p", "no:benchmark",
               "--assert=plain", "--hypothesis-profile=foldeg-mutants"]
ROW_TIMEOUT_S = 300

INTERPOLATION_TESTS = [
    "tests/test_exact_properties.py::"
    "test_consecutive_integer_interpolant_equals_the_lagrange_sum",
    "tests/test_polyfit.py::"
    "test_interpolation_of_frozen_points_recovers_polynomials",
    "tests/test_doctests.py::test_module_doctests[foldeg.exact]",
    "tests/test_cli.py::test_interpolate_pencil_full",
]

MUTANTS = {
    "forward differences without the m!/k! scaling": (
        "exact.py",
        "        coeffs[0] += deltas[k] * scale\n",
        "        coeffs[0] += deltas[k]\n",
        INTERPOLATION_TESTS,
    ),
    "forward-difference product shifted by x_0 + i + 1": (
        "exact.py",
        "        a = x0 + k\n",
        "        a = x0 + k + 1\n",
        INTERPOLATION_TESTS,
    ),
    "a forward-difference helper that stops one row early": (
        "exact.py",
        "    while any(ys):\n",
        "    while any(ys[1:]):\n",
        [
            "tests/test_exact.py::"
            "test_forward_differences_stop_at_the_last_nonzero_one",
            "tests/test_exact.py::"
            "test_monomial_power_sums_equal_the_enumeration",
            "tests/test_doctests.py::test_module_doctests[foldeg.exact]",
        ],
    ),
    "a power-sum table one sample short": (
        "exact.py",
        "    for n in range(top + len(ws)):\n",
        "    for n in range(top + len(ws) - 1):\n",
        [
            "tests/test_exact.py::"
            "test_monomial_power_sums_equal_the_enumeration",
            "tests/test_exact.py::"
            "test_monomial_power_sums_equal_the_stirling_closed_form[1000]",
            "tests/test_exact.py::"
            "test_a_zero_sum_system_has_an_empty_first_power_sum",
            "tests/test_exact_properties.py::"
            "test_power_sum_table_equals_the_counted_oracle",
        ],
    ),
    "a difference whose longer subtrahend keeps its sign": (
        "exact.py",
        "            return -1 * (other - self)\n",
        "            return other - self\n",
        ["tests/test_exact_properties.py::"
         "test_differences_act_entry_by_entry"],
    ),
    "Newton's step without its exactness check": (
        "exact.py",
        "        if q * j != total:\n"
        "            raise NonIntegralDegree("
        "\"e_%d of these power sums is not integral\" % j)\n",
        "",
        [
            "tests/test_exact.py::test_power_sums_guard_newtons_step",
            "tests/test_cli.py::test_failed_computation_checks_exit_1[newton]",
        ],
    ),
    "e_k without its k <= p_0 check": (
        "exact.py",
        "    if not 0 <= k < len(p) or k > p[0]:\n",
        "    if not 0 <= k < len(p):\n",
        ["tests/test_exact.py::test_power_sums_guard_newtons_step"],
    ),
    "a binomial step that divides by k + 1, not k": (
        "exact.py",
        "        row.append(row[-1] * (n - k + 1) // k)\n",
        "        row.append(row[-1] * (n - k + 1) // (k + 1))\n",
        [
            "tests/test_exact.py::"
            "test_monomial_power_sums_equal_the_enumeration",
            "tests/test_exact.py::"
            "test_monomial_power_sums_equal_the_stirling_closed_form[1000]",
            "tests/test_bott.py::test_bott_sum_is_the_published_polynomial_in_d"
            "[legendrian-0,2,7,10]",
        ],
    ),
    # limit_rows redefined to sweep the chain from its lowest level, the
    # column order of M(1) reversed: a character's high entries then
    # play its low ones.
    "limit_rows with the levels ascending": (
        "linalg.py",
        "        row = below\n    return counts\n",
        "        row = below\n    return counts\n\n\n"
        "_limit_rows = limit_rows\n\n\n"
        "def limit_rows(columns, ncols):\n"
        "    flipped = [[(h, l) for l, h in f[::-1]] for f in columns[::-1]]\n"
        "    return _limit_rows(flipped, ncols)[::-1]\n",
        [
            "tests/test_linalg.py::"
            "test_echelon_and_limit_rows_leave_their_rows_unchanged",
            "tests/test_doctests.py::test_module_doctests[foldeg.linalg]",
            "tests/test_limits.py::test_methods_agree",
            "tests/test_limits.py::"
            "test_torus_image_limit_equals_the_saturation_oracle[weights0]",
        ],
    ),
    # each character's live row dropped as soon as the character is read,
    # so that row K + 1 meets character K after its sweep
    "a row admitted one character late": (
        "linalg.py",
        "                live = lead, row\n",
        "                live = (lead, row) if lead >= c else (None, None)\n",
        [
            "tests/test_linalg.py::"
            "test_echelon_and_limit_rows_leave_their_rows_unchanged",
            "tests/test_doctests.py::test_module_doctests[foldeg.linalg]",
        ],
    ),
    "both without the closed-form comparison": (
        "bott.py",
        "        if (copies != closed_form_counts(characters, pair)\n",
        "        if (False\n",
        [
            "tests/test_bott.py::test_both_checks_closed_form_fibers",
            "tests/test_bott.py::"
            "test_both_sees_a_character_moved_at_constant_weight",
            "tests/test_bott.py::test_a_failed_both_check_is_not_remembered",
        ],
    ),
    "kernel without the closed-form comparison": (
        "bott.py",
        "(copies != closed_form_counts(characters, pair)\n",
        "(method == METHOD_BOTH\n"
        "                and copies != "
        "closed_form_counts(characters, pair)\n",
        [
            "tests/test_bott.py::test_both_checks_closed_form_fibers",
            "tests/test_cli.py::"
            "test_failed_computation_checks_exit_1[method-disagreement]",
        ],
    ),
    "both without the power-sum comparison": (
        "bott.py",
        "\n                or PowerSums.of("
        "character_values(characters, w), TOP,"
        "\n                                copies).p != fiber.p):\n",
        "):\n",
        ["tests/test_bott.py::test_both_checks_closed_form_fibers"],
    ),
    "a both key remembered before the comparison": (
        "bott.py",
        "        direct = limit_fiber_weights(pair, d, w, method)\n",
        "        _both_checked.add(key)\n"
        "        direct = limit_fiber_weights(pair, d, w, method)\n",
        ["tests/test_bott.py::test_a_failed_both_check_is_not_remembered"],
    ),
    "a checked both fiber evaluated at the default weights": (
        "bott.py",
        "    common, points, row, count = _at_degree(family, d, w)\n",
        "    common, points, row, count = _at_degree(family, d, DEFAULT_WEIGHTS)\n",
        ["tests/test_bott.py::test_both_checks_each_degree_and_pair_once"],
    ),
    "a both key without d": (
        "bott.py",
        "    key = 6 * d + P5_PAIRS.index(pair)\n",
        "    key = P5_PAIRS.index(pair)\n",
        ["tests/test_bott.py::test_a_failed_both_check_is_not_remembered"],
    ),
    "fiber_characters with its two shifts swapped": (
        "tests/oracles.py",
        "low if m[p - 1] or m[q - 1] else high\n",
        "high if m[p - 1] or m[q - 1] else low\n",
        [
            "tests/test_bott.py::"
            "test_closed_form_counts_are_the_closed_form_fiber",
            "tests/test_bott.py::"
            "test_fiber_characters_reproduce_the_frozen_table",
            "tests/test_bott.py::"
            "test_closed_form_equals_the_chain_fiber_oracle",
        ],
    ),
    "closed-form counts with their two terms swapped": (
        "bott.py",
        "[(chi[k] >= 0 <= chi[l]) + (chi[p] == 0 == chi[q])",
        "[(chi[p] >= 0 <= chi[q]) + (chi[k] == 0 == chi[l])",
        [
            "tests/test_bott.py::test_d3_degree",
            "tests/test_bott.py::"
            "test_closed_form_counts_are_the_closed_form_fiber",
        ],
    ),
    "both without the comparison of the two routes": (
        "limits.py",
        "        if img.counts != ker.counts:\n",
        "        if False:\n",
        ["tests/test_limits.py::test_method_disagreement_is_raised"],
    ),
    "both comparing only the totals of the two count lists": (
        "limits.py",
        "        if img.counts != ker.counts:\n",
        "        if sum(img.counts) != sum(ker.counts):\n",
        ["tests/test_limits.py::test_method_disagreement_is_raised"],
    ),
    # the lowest inner level of a chain written as the one above it, when
    # there is one: that character twice, with its three fields, the
    # lowest one in the bottom's place with the bottom's one field, and
    # the bottom one not at all
    "chains that write one character twice and drop another": (
        "limits.py",
        "            for _ in range(top - 2, bottom, -2):\n",
        "            for lev in range(top - 2, bottom, -2):\n"
        "                if lev == bottom + 2 < top - 2:\n"
        "                    c1, c2, c3, c4 = "
        "c1 - u1, c2 - u2, c3 - u3, c4 - u4\n",
        [
            "tests/test_bott.py::"
            "test_closed_form_counts_are_the_closed_form_fiber",
            "tests/test_limits.py::test_chains_are_the_union_find_blocks",
        ],
    ),
    "size guard removed": (
        "limits.py",
        "    if nfields != size:\n",
        "    if False:\n",
        [
            "tests/test_limits.py::"
            "test_chains_short_of_the_basis_raise[image-fiber]",
            "tests/test_limits.py::"
            "test_chains_short_of_the_basis_raise[kernel-limit]",
            "tests/test_limits.py::"
            "test_chains_short_of_the_basis_raise[both]",
            "tests/test_cli.py::"
            "test_failed_computation_checks_exit_1[basis-size]",
        ],
    ),
    # a character of one field counted by rank [low; high] after an
    # absorbing one, as if A_K = 0
    "the one-field rank rule without A_K": (
        "limits.py",
        "        if absorbs or not (y1 or y2 or y3):",
        "        if absorbs and len(fields) > 1 or not (y1 or y2 or y3):",
        [
            "tests/test_limits.py::test_methods_agree",
            "tests/test_transport_properties.py::"
            "test_kernel_rule_holds_on_any_chain",
        ],
    ),
    "chains run together": (
        "limits.py",
        "            chains.append(END)\n",
        "",
        [
            "tests/test_limits.py::test_chains_are_the_union_find_blocks",
            "tests/test_limits.py::test_methods_agree",
            "tests/test_limits.py::test_quotient_characters",
            "tests/test_bott.py::"
            "test_closed_form_equals_the_chain_fiber_oracle",
            "tests/test_bott.py::test_both_checks_closed_form_fibers",
        ],
    ),
    # A_K = Q at the bottom of a chain carried over to the top of the
    # next: the empty character counted 0 and not padded
    "a chain end that keeps A_K": (
        "limits.py",
        "    for _, fields in chains:\n",
        "    for _, fields in chains:\n"
        "        if not fields:\n"
        "            counts.append(0)\n"
        "            continue\n",
        [
            "tests/test_linalg.py::"
            "test_chains_laid_end_to_end_sweep_as_each_alone",
            "tests/test_limits.py::test_methods_agree",
            "tests/test_limits.py::test_quotient_characters",
            "tests/test_bott.py::test_both_checks_closed_form_fibers",
        ],
    ),
    "chains with the sign of the path's high coefficients flipped": (
        "limits.py",
        "place((0, 0, 1, -1))",
        "place((0, 0, -1, 1))",
        ["tests/test_limits.py::test_chains_are_the_union_find_blocks"],
    ),
    "the contraction oracle with its two Koszul pieces swapped": (
        "matrices.py",
        "                 for pair in (fp, complementary_pair(fp)))\n",
        "                 for pair in (complementary_pair(fp), fp))\n",
        [
            "tests/test_fields.py::"
            "test_path_contraction_matches_its_two_pieces",
            "tests/test_fields.py::test_path_t_weight",
            "tests/test_limits.py::"
            "test_integer_contraction_keeps_the_fraction_pivots",
        ],
    ),
    "the chi_1 = -1 characters counted at chi_4 = -1": (
        "fields.py",
        "    for j in range(4):\n",
        "    for j in (3, 1, 2, 3):\n",
        [
            "tests/test_fields.py::"
            "test_closed_form_counts_equal_the_written_fields",
            "tests/test_fields.py::"
            "test_phi_basis_fields_carry_their_character",
            "tests/test_transport_properties.py::"
            "test_basis_weight_multiset_equals_the_echelon_weights",
        ],
    ),
    "written fields without their size guard": (
        "fields.py",
        "_sized(tuple(forms._write_fields(self.d)), self.d)",
        "tuple(forms._write_fields(self.d))",
        ["tests/test_fields.py::"
         "test_written_fields_of_the_wrong_size_raise"],
    ),
    # The first row cannot even import (matrices imports from a fields
    # that is not yet written); the second imports and loads matrices.
    "the explicit matrices imported eagerly at the top of fields": (
        "fields.py",
        "from .linalg import kernel_basis  # noqa: F401\n",
        "from .linalg import kernel_basis  # noqa: F401\n"
        "from . import matrices  # noqa: F401\n",
        ["tests/test_cold_start.py::"
         "test_the_workload_paths_load_only_the_import_set"],
    ),
    "the explicit matrices imported eagerly at the end of fields": (
        "fields.py",
        "    return contact_kernel_dimension(d) + (0 if form.pfaffian() else d + 2)\n",
        "    return contact_kernel_dimension(d) + (0 if form.pfaffian() else d + 2)\n"
        "\n\nfrom . import matrices  # noqa: E402, F401\n",
        ["tests/test_cold_start.py::"
         "test_the_workload_paths_load_only_the_import_set"],
    ),
    "a form whose _make skips __new__": (
        "forms.py",
        "    @classmethod\n"
        "    def _make(cls, iterable):\n"
        "        # namedtuple's _make, and so _replace, would skip the checks\n"
        "        return cls(*iterable)\n",
        "",
        ["tests/test_fields.py::test_make_and_replace_check_a_form"],
    ),
    # Each of the next two loads at import what only some commands read:
    # the form algebra, or the subcommands' bodies with all they import.
    "the form algebra imported eagerly at the top of fields": (
        "fields.py",
        "P5_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))\n",
        "P5_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))\n"
        "from . import forms  # noqa: E402, F401\n",
        ["tests/test_cold_start.py::"
         "test_the_workload_paths_load_only_the_import_set"],
    ),
    "the subcommand bodies imported eagerly at the top of cli": (
        "cli.py",
        "from .polyfit import FAMILIES, InsufficientPoints\n",
        "from .polyfit import FAMILIES, InsufficientPoints\n"
        "from . import commands, verify  # noqa: F401\n",
        ["tests/test_cold_start.py::"
         "test_the_workload_paths_load_only_the_import_set"],
    ),
    # the function taken from bott when verify loads, not when it runs
    "verify bound to legendrian_degree as it was when verify loaded": (
        "verify.py",
        "from . import bott, exact, limits\n",
        "from . import bott, exact, limits\n"
        "from types import SimpleNamespace\n"
        "bott = SimpleNamespace(legendrian_degree=bott.legendrian_degree)\n",
        ["tests/test_cold_start.py::"
         "test_the_subcommand_bodies_call_through_the_modules"],
    ),
    "the Legendrian rest shifted by -(w_k + w_l)": (
        "bott.py",
        "    return reached.shifted(-low) + part.shifted(low - sum(w))\n",
        "    return (reached.shifted(low - sum(w))\n"
        "            + part.shifted(low - sum(w)))\n",
        [
            "tests/test_bott.py::test_methods_give_same_degree",
            "tests/test_transport_properties.py::"
            "test_power_sum_numerators_equal_the_counted_routes",
            "tests/test_bott.py::test_bott_sum_is_the_published_polynomial_in_d"
            "[legendrian-9,-4,2,0]",
        ],
    ),
    "an image table term of degree 25, zero at every sampled d": (
        "bott.py",
        "    return reached.shifted(-low) + part.shifted(low - sum(w))\n",
        "    table = reached.shifted(-low) + part.shifted(low - sum(w))\n"
        "    return PowerSums((table.p[0], table.p[1] + exact.Differences("
        "[0] * 25 + [1]), *table.p[2:]))\n",
        [
            "tests/test_bott.py::test_bott_sum_is_the_published_polynomial_in_d"
            "[legendrian-0,2,7,10]",
            "tests/test_bott.py::test_bott_sum_is_the_published_polynomial_in_d"
            "[legendrian-9,-4,2,0]",
        ],
    ),
    "localize without its integrality raise": (
        "bott.py",
        "    if total % common:\n",
        "    if False:\n",
        [
            "tests/test_bott.py::"
            "test_a_wrong_fiber_table_gives_a_non_integral_sum[pencil]",
            "tests/test_bott.py::"
            "test_a_wrong_fiber_table_gives_a_non_integral_sum[legendrian]",
            "tests/test_cli.py::"
            "test_failed_computation_checks_exit_1[non-integral-sum]",
        ],
    ),
    "a Bott sum that does not rescale its terms to the common denominator": (
        "bott.py",
        "        total += num * factor\n",
        "        total += num\n",
        [
            "tests/test_transport_properties.py::"
            "test_localize_gives_the_frozen_degree",
            "tests/test_transport_properties.py::"
            "test_degree_is_the_sum_of_the_fraction_contributions",
        ],
    ),
    "tangents sent back through elementary_symmetric": (
        "bott.py",
        "        den = prod(tangent)\n",
        "        den = exact.elementary_symmetric(len(tangent), tangent)\n",
        ["tests/test_bott.py::test_localize_asks_e_n_of_the_fibers_alone"],
    ),
    "the six tangent numbers handed to the wrong pairs": (
        "bott.py",
        "    for pair, tangent in zip(P5_PAIRS, tangents):\n",
        "    for pair, tangent in zip(P5_PAIRS, tangents[-1:] + tangents[:-1]):\n",
        [
            "tests/test_bott.py::test_d2_contribution_table",
            "tests/test_pencil.py::test_degrees_match_frozen_and_closed_form",
            "tests/test_transport_properties.py::"
            "test_tangent_euler_class_is_the_product_of_the_weights",
        ],
    ),
    "one pair's factor taken as common": (
        "bott.py",
        " common // abs(den), ",
        " (common // abs(den) if pair != (3, 4) else common), ",
        [
            "tests/test_bott.py::"
            "test_the_tangent_numbers_share_one_common_denominator[9,-4,2,0]",
            "tests/test_transport_properties.py::"
            "test_localize_gives_the_frozen_degree",
            "tests/test_pencil.py::test_degrees_match_frozen_and_closed_form",
        ],
    ),
    "a contribution value that drops its denominator": (
        "bott.py",
        "        return Fraction(self.numerator, self.denominator)\n",
        "        return Fraction(self.numerator)\n",
        [
            "tests/test_bott.py::test_d2_contribution_table",
            "tests/test_transport_properties.py::"
            "test_degree_is_the_sum_of_the_fraction_contributions",
            "tests/test_cli.py::test_legendrian_json_output",
            "tests/test_acceptance.py::"
            "test_criterion_01_legendrian_d2_total_and_contributions",
        ],
    ),
    "the pencil asking for top = 3": (
        "pencil.py",
        "split_power_sums(pair, w, 4)",
        "split_power_sums(pair, w, 3)",
        [
            "tests/test_bott.py::test_a_pencil_sweep_builds_no_table_past_p_4",
            "tests/test_pencil.py::test_degrees_match_frozen_and_closed_form",
        ],
    ),
    "the pencil twist by w_p + w_q": (
        "pencil.py",
        "    twist = sum(w) - w.pair_sum(pair)\n",
        "    twist = w.pair_sum(pair)\n",
        [
            "tests/test_pencil.py::test_degrees_match_frozen_and_closed_form",
            "tests/test_pencil.py::"
            "test_pencil_fiber_is_the_twisted_contraction_image",
            "tests/test_bott.py::"
            "test_bott_sum_is_the_published_polynomial_in_d[pencil-0,2,7,10]",
        ],
    ),
    "the split's part taken at the pair instead of its complement": (
        "bott.py",
        "    k, l = complementary_pair(as_fixed_point(pair))\n",
        "    k, l = as_fixed_point(pair)\n",
        [
            "tests/test_pencil.py::"
            "test_pencil_fiber_is_the_twisted_contraction_image",
            "tests/test_bott.py::test_both_families_at_d1[weights0]",
            "tests/test_bott.py::test_methods_give_same_degree",
            "tests/test_bott.py::test_bott_sum_is_the_published_polynomial_in_d"
            "[legendrian-0,1,5,13]",
            "tests/test_bott.py::test_bott_sum_is_the_published_polynomial_in_d"
            "[pencil-1,3,9,20]",
        ],
    ),
    "the fiber count guard removed": (
        "bott.py",
        "    if fiber.p[0] != count:\n"
        "        raise FiberCountError(\n"
        "            \"fiber count %s, not %s, at d=%s\" "
        "% (fiber.p[0], count, d))\n",
        "",
        [
            "tests/test_bott.py::test_image_fiber_needs_every_monomial_weight",
            "tests/test_pencil.py::"
            "test_twisted_fiber_needs_every_removed_weight",
        ],
    ),
    "a fiber count guard that keeps the removed weights": (
        "bott.py",
        "    count = comb(d + 4, 3) - family.removed(d)\n",
        "    count = comb(d + 4, 3)\n",
        [
            "tests/test_pencil.py::test_twisted_fiber_size",
            "tests/test_pencil.py::"
            "test_twisted_fiber_needs_every_removed_weight",
        ],
    ),
    "the image fiber table evaluated at n = d": (
        "bott.py",
        "exact.binomial_row(d + 1, width)",
        "exact.binomial_row(d, width)",
        [
            "tests/test_bott.py::"
            "test_fiber_tables_commute_with_the_split_and_shifts[weights0]",
            "tests/test_bott.py::"
            "test_published_polynomial_pointwise_at_high_degree[weights0]",
            "tests/test_bott.py::test_image_fiber_needs_every_monomial_weight",
            "tests/test_transport_properties.py::"
            "test_power_sum_numerators_equal_the_counted_routes",
        ],
    ),
    "the degree's binomial row one entry short of the widest table": (
        "bott.py",
        "exact.binomial_row(d + 1, width)",
        "exact.binomial_row(d + 1, width - 1)",
        # the dropped top difference is the same at all six pairs, and a
        # constant summed over the fixed points by Bott's formula is 0, so
        # only the contributions show it, not the degrees
        [
            "tests/test_bott.py::"
            "test_fiber_tables_commute_with_the_split_and_shifts[weights0]",
            "tests/test_transport_properties.py::"
            "test_power_sum_numerators_equal_the_counted_routes",
            "tests/test_transport_properties.py::"
            "test_each_numerator_is_e_n_of_the_public_fiber",
        ],
    ),
    # the first family to ask at a system fills the other's record too
    "one record shared by both families": (
        "bott.py",
        "@lru_cache(maxsize=2 * CACHED_SYSTEMS)  # both families\n"
        "def _fixed_points(family, w):\n",
        "_owners = {}\n\n\n"
        "@lru_cache(maxsize=2 * CACHED_SYSTEMS)  # both families\n"
        "def _fixed_points(family, w):\n"
        "    family = _owners.setdefault(w, family)\n",
        [
            "tests/test_bott.py::"
            "test_the_tangent_numbers_share_one_common_denominator[0,2,7,10]",
            "tests/test_transport_properties.py::"
            "test_degree_is_the_sum_of_the_fraction_contributions",
        ],
    ),
    "the pencil's removed count d + 1": (
        "pencil.py",
        "removed=lambda d: d + 2,",
        "removed=lambda d: d + 1,",
        [
            "tests/test_pencil.py::test_twisted_fiber_size",
            "tests/test_pencil.py::"
            "test_twisted_fiber_needs_every_removed_weight",
            "tests/test_pencil.py::test_degrees_match_frozen_and_closed_form",
        ],
    ),
    "localize without the per-point check": (
        "bott.py",
        "        family.check(pair, d, w, fiber, **options)\n",
        "",
        [
            "tests/test_bott.py::"
            "test_the_check_sees_each_summed_fiber_once[legendrian]",
            "tests/test_bott.py::"
            "test_the_check_sees_each_summed_fiber_once[pencil]",
            "tests/test_bott.py::test_both_checks_closed_form_fibers",
            "tests/test_cli.py::"
            "test_failed_computation_checks_exit_1[method-disagreement]",
        ],
    ),
    "the pencil fiber table built with its shift sign flipped": (
        "pencil.py",
        "    return reached.shifted(twist)\n",
        "    return reached.shifted(-twist)\n",
        [
            "tests/test_bott.py::"
            "test_fiber_tables_commute_with_the_split_and_shifts[weights3]",
            "tests/test_pencil.py::test_degrees_match_frozen_and_closed_form",
            "tests/test_pencil.py::"
            "test_pencil_fiber_is_the_twisted_contraction_image",
            "tests/test_bott.py::"
            "test_bott_sum_is_the_published_polynomial_in_d[pencil-9,-4,2,0]",
        ],
    ),
    "the split's full table at the default weights": (
        "bott.py",
        "    full = power_sum_differences(w.require_admissible(), top)\n",
        "    w.require_admissible()\n"
        "    full = power_sum_differences((0, 2, 7, 10), top)\n",
        [
            "tests/test_transport_properties.py::"
            "test_power_sum_numerators_equal_the_counted_routes",
            "tests/test_pencil.py::"
            "test_pencil_fiber_is_the_twisted_contraction_image",
        ],
    ),
    "the G(2,4) tangent as w_i - w_j, not w_j - w_i": (
        "pencil.py",
        "    return tuple(sorted(w.weight(j) - w.weight(i)\n",
        "    return tuple(sorted(w.weight(i) - w.weight(j)\n",
        [
            "tests/test_pencil.py::test_tangent_weights",
            "tests/test_doctests.py::test_module_doctests[foldeg.pencil]",
            "tests/test_transport_properties.py::"
            "test_g24_tangent_is_the_p5_tangent_less_the_normal",
        ],
    ),
    "the G(2,4) tangent to the pair itself, not its complement": (
        "pencil.py",
        "for i in pair for j in complementary_pair(pair)))\n",
        "for i in pair for j in pair))\n",
        ["tests/test_pencil.py::test_tangent_weights"],
    ),
    "contract without its homogeneity guard": (
        "forms.py",
        "    if len({sum(t.monomial) for t in terms}) > 1:\n",
        "    if False:\n",
        ["tests/test_fields.py::"
         "test_contraction_refuses_a_field_of_mixed_degrees"],
    ),
    "chains without their positive degree guard": (
        "limits.py",
        "    if d < 1:\n",
        "    if False:\n",
        ["tests/test_limits.py::test_chains_need_a_positive_field_degree"],
    ),
    "interpolate with --jobs 2 by default": (
        "cli.py",
        "sub.add_argument(\"--jobs\", type=int, default=1,",
        "sub.add_argument(\"--jobs\", type=int, default=2,",
        ["tests/test_cold_start.py::"
         "test_interpolate_without_jobs_imports_no_process_pool"],
    ),
    "compute_degree_points with jobs=2 by default": (
        "polyfit.py",
        "def compute_degree_points(family, d_min, d_max, weights=DEFAULT_WEIGHTS,\n"
        "                          jobs=1):\n",
        "def compute_degree_points(family, d_min, d_max, weights=DEFAULT_WEIGHTS,\n"
        "                          jobs=2):\n",
        ["tests/test_polyfit.py::test_default_jobs_start_no_pool"],
    ),
    "interpolate_family with jobs=2 by default": (
        "polyfit.py",
        "def interpolate_family(family, d_min, d_max, weights=DEFAULT_WEIGHTS,\n"
        "                       jobs=1, points=None):\n",
        "def interpolate_family(family, d_min, d_max, weights=DEFAULT_WEIGHTS,\n"
        "                       jobs=2, points=None):\n",
        ["tests/test_polyfit.py::test_default_jobs_start_no_pool"],
    ),
    "a point count short by one in the InsufficientPoints message": (
        "polyfit.py",
        "% (family, bound + 1, d_min, d_max, d_max - d_min + 1)",
        "% (family, bound, d_min, d_max, d_max - d_min + 1)",
        ["tests/test_polyfit.py::test_insufficient_points_rejected"],
    ),
    "the subcommand bodies reading METHOD_FLAGS through cli": (
        "commands.py",
        "from .limits import METHOD_FLAGS\n",
        "from .cli import METHOD_FLAGS\n",
        ["tests/test_cold_start.py::"
         "test_the_cli_run_as_a_script_loads_itself_once"],
    ),
    "interpolation without its integrality guard": (
        "polyfit.py",
        "        if y.denominator != 1:\n",
        "        if False:\n",
        [
            "tests/test_polyfit.py::test_integrality_guard",
            "tests/test_polyfit.py::"
            "test_integrality_guard_sees_every_given_degree",
            "tests/test_polyfit.py::"
            "test_integrality_guard_sees_one_half_at_the_last_point",
        ],
    ),
    "the record without its short-table check": (
        "bott.py",
        "        if len(table.p) <= n:\n"
        "            raise FiberCountError(\"fiber table p_0..p_%d has no e_%d "
        "at %r\"\n"
        "                                  % (len(table.p) - 1, n, pair))\n",
        "",
        [
            "tests/test_cli.py::"
            "test_failed_computation_checks_exit_1[short-table]",
            "tests/test_bott.py::"
            "test_a_table_short_of_p_n_is_refused_by_the_record",
        ],
    ),
    # d = -2 counts C(2, 3) = 0 weights, and each table evaluates to a
    # p_0 of 0 at n = -1, so only the guard refuses it
    "a degree without its guard against negative monomial degrees": (
        "bott.py",
        "    if index(d) < -1:\n"
        "        raise ValueError(\"no monomials of degree %r\" % (d + 1,))\n",
        "",
        ["tests/test_bott.py::test_input_validation"],
    ),
    "a written field whose partner coefficient has the wrong sign": (
        "forms.py",
        "MonomialField(Fraction(-e, mu[3] + 1),",
        "MonomialField(Fraction(e, mu[3] + 1),",
        [
            "tests/test_fields.py::test_phi_basis_dimensions_and_divergence",
            "tests/test_fields.py::"
            "test_closed_form_basis_matches_rref_oracle[weights0]",
            "tests/test_fields.py::test_basis_field_render",
        ],
    ),
    "PowerSums.of ignoring copies": (
        "exact.py",
        "        terms = [1] * len(values) if copies is None else list(copies)\n",
        "        terms = [1] * len(values)\n",
        [
            "tests/test_bott.py::test_methods_give_same_degree",
            "tests/test_bott.py::test_both_checks_closed_form_fibers",
            "tests/test_exact.py::test_power_sums_of_reads_its_copies_once",
            "tests/test_exact.py::"
            "test_power_sums_of_repeats_equal_the_distinct_values_with_copies",
        ],
    ),
    "a tangent kernel one dimension too large": (
        "fields.py",
        "(0 if form.pfaffian() else d + 2)",
        "(0 if form.pfaffian() else d + 2) + 1",
        [
            "tests/test_fields.py::test_family_dimensions[2]",
            "tests/test_fields.py::test_family_dimensions[3]",
            "tests/test_fields.py::"
            "test_tangent_kernel_dimension_equals_the_rank_oracle",
        ],
    ),
    "the tangent kernels of the two form ranks swapped": (
        "fields.py",
        "(0 if form.pfaffian() else d + 2)",
        "(d + 2 if form.pfaffian() else 0)",
        [
            "tests/test_fields.py::"
            "test_tangent_kernel_dimension_equals_the_rank_oracle",
            "tests/test_fields.py::test_tangent_kernel_dimension_contact_law",
            "tests/test_pencil.py::"
            "test_rank_checks_against_exact_kernel_oracle",
        ],
    ),
    # the exit-1 clause as it once was, naming four check classes, which
    # cli no longer imports
    "main's exit-1 clause narrowed to four check classes": (
        "cli.py",
        "    except ArithmeticError as exc:\n",
        "    except (sys.modules[\"foldeg.bott\"].NonIntegralDegree,\n"
        "            sys.modules[\"foldeg.bott\"].FiberCountError,\n"
        "            sys.modules[\"foldeg.limits\"].MethodDisagreement,\n"
        "            sys.modules[\"foldeg.limits\"].SaturationRankError) as exc:\n",
        ["tests/test_cli.py::test_failed_computation_checks_exit_1[closed-form]"],
    ),
    "a closed form without its integrality guard": (
        "bott.py",
        "        if value.denominator != 1:\n"
        "            raise ArithmeticError(\"closed form not integral at d=%d\" % d)\n",
        "",
        ["tests/test_polyfit.py::"
         "test_closed_form_refuses_a_non_integral_formula"],
    ),
    "one coefficient of the Legendrian octic changed": (
        "bott.py",
        "45444, 44856, 29808):",
        "45444, 44856, 29809):",
        [
            "tests/test_polyfit.py::test_legendrian_closed_form_values",
            "tests/test_polyfit.py::"
            "test_closed_form_polynomials_interpolate_frozen_tables",
            "tests/test_doctests.py::test_module_doctests[foldeg.bott]",
        ],
    ),
    "e_k of integers with powers up to k, not up to the count": (
        "exact.py",
        "            values = PowerSums.of(values, min(k, len(values)))\n",
        "            values = PowerSums.of(values, k)\n",
        ["tests/test_exact.py::"
         "test_elementary_symmetric_takes_no_power_above_the_count"],
    ),
    "a polynomial whose _make skips __new__": (
        "exact.py",
        "    @classmethod\n"
        "    def _make(cls, iterable):\n"
        "        # namedtuple's _make, and so _replace, would skip the trim\n"
        "        return cls(*iterable)\n",
        "",
        ["tests/test_exact.py::test_make_and_replace_trim_a_polynomial"],
    ),
    "weights truncated to ints": (
        "exact.py",
        "            vals = tuple(map(operator.index, values))\n",
        "            vals = tuple(map(int, values))\n",
        ["tests/test_exact.py::test_weight_system_requires_integers",
         "tests/test_exact.py::"
         "test_the_weight_cache_hands_a_checked_system_to_ints_alone"],
    ),
    "one admissibility answer shared by all systems": (
        "exact.py",
        "        return _admissible(self)\n",
        "        return _admissible(DEFAULT_WEIGHTS)\n",
        [
            "tests/test_bott.py::"
            "test_inadmissible_weights_raise_at_every_entry_point[bad0]",
        ],
    ),
    "A_K updated from the high entries of the first two fields only": (
        "limits.py",
        "not (y1 or y2 or y3):",
        "not (y1 or y2):",
        ["tests/test_transport_properties.py::"
         "test_kernel_rule_holds_on_any_chain"],
    ),
    "the rank rule without the minor of the second and third fields": (
        "limits.py",
        "\n                       or x2 * y3 != y2 * x3)\n",
        ")\n",
        ["tests/test_transport_properties.py::"
         "test_kernel_rule_holds_on_any_chain"],
    ),
    # the reduced row's lead read as the unreduced one's: the set union
    # does not keep the columns in order
    "a reduced row led by its first key, not its least": (
        "linalg.py",
        "                    lead = min(row)\n",
        "                    for lead in row:\n"
        "                        break\n",
        [
            "tests/test_linalg.py::"
            "test_echelon_and_limit_rows_leave_their_rows_unchanged",
        ],
    ),
    "a short character padded with a nonzero field": (
        "limits.py",
        "_PAD = ((0, 0),) * 3\n",
        "_PAD = ((0, 1),) * 3\n",
        [
            "tests/test_limits.py::test_methods_agree",
            "tests/test_transport_properties.py::"
            "test_kernel_rule_holds_on_any_chain",
            "tests/test_linalg.py::"
            "test_chains_laid_end_to_end_sweep_as_each_alone",
        ],
    ),
    # the six contractions of a tangent field no longer cancel
    "contract keeping only the last term at each monomial": (
        "forms.py",
        "            out[m] = out.get(m, 0) + coeff * c\n",
        "            out[m] = coeff * c\n",
        ["tests/test_fields.py::"
         "test_forms_that_annihilate_a_tangent_field[2-1]"],
    ),
    # a decomposable form's Pfaffian no longer vanishes
    "a Pfaffian with one sign flipped": (
        "forms.py",
        "        return a12 * a34 - a13 * a24 + a14 * a23\n",
        "        return a12 * a34 + a13 * a24 + a14 * a23\n",
        ["tests/test_fields.py::"
         "test_forms_that_annihilate_a_field_tangent_to_a_pencil[2-20]"],
    ),
}


def run_in_subprocess(src, root, test_ids):
    """The output of the named tests of root, run on src in a fresh
    pytest."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", *PYTEST_ARGS, *test_ids],
        cwd=root, env=env, capture_output=True, text=True,
        timeout=ROW_TIMEOUT_S,
    ).stdout


@pytest.fixture(scope="session")
def run_row():
    """Runs the named tests of a root on a src/ and returns their output:
    in a fork of the session's warm server, or in a fresh pytest where
    os.fork is missing."""
    if not hasattr(os, "fork"):
        yield run_in_subprocess
        return
    # the server imports only what the rows' children put on the path
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    server = subprocess.Popen([sys.executable, str(SERVER)], cwd=ROOT, env=env,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              text=True)

    def ask(src, root, test_ids):
        server.stdin.write(json.dumps({"src": str(src), "root": str(root),
                                       "args": PYTEST_ARGS + list(test_ids),
                                       "timeout": ROW_TIMEOUT_S}) + "\n")
        server.stdin.flush()
        line = server.stdout.readline()
        assert line, "the mutant server stopped (exit %s)" % server.poll()
        answer = json.loads(line)
        if answer["timed_out"]:
            raise subprocess.TimeoutExpired(test_ids, ROW_TIMEOUT_S, answer["out"])
        return answer["out"]

    yield ask
    server.stdin.close()
    server.wait(timeout=60)


def survivors(run_row, path, old, new, test_ids, tmp_path):
    """The named tests that pass with path's old text made new, in a
    copy of the tests when path is one of them, else in a copy of src/."""
    skip = shutil.ignore_patterns("__pycache__")
    if path.startswith("tests/"):
        root, src = tmp_path, ROOT / "src"
        shutil.copytree(ROOT / "tests", root / "tests", ignore=skip)
        for name in ("conftest.py", "pyproject.toml"):
            shutil.copy(ROOT / name, root)
        target = root / path
    else:
        root, src = ROOT, tmp_path / "src"
        shutil.copytree(ROOT / "src", src, ignore=skip)
        target = src / "foldeg" / path
    text = target.read_text()
    assert text.count(old) == 1, "mutant rotted: %r is not once in %s" % (
        old, path)
    target.write_text(text.replace(old, new))
    out = run_row(src, root, test_ids)
    failed = {line.split()[1] for line in out.splitlines()
              if line.startswith("FAILED ")}
    return [t for t in test_ids if t not in failed], out


@pytest.mark.slow
@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_is_caught(name, run_row, tmp_path):
    survived, out = survivors(run_row, *MUTANTS[name], tmp_path)
    assert not survived, "mutant survived %s:\n%s" % (survived, out)


@pytest.mark.slow
def test_a_mutant_that_changes_nothing_survives(run_row, tmp_path):
    """The harness can fail: a mutant that only adds a comment, to src/
    or to the tests, changes nothing that a test sees, so every test it
    names passes."""
    for path, old, test_id in (
            ("exact.py", "CACHED_SYSTEMS = 4\n",
             "tests/test_exact.py::test_weight_system_basics"),
            ("tests/oracles.py", "SOURCE_PAIR = (1, 2)\n",
             "tests/test_bott.py::"
             "test_closed_form_equals_the_chain_fiber_oracle")):
        survived, out = survivors(run_row, path, old, old[:-1] + "  # kept\n",
                                  [test_id], tmp_path)
        assert survived == [test_id], out
