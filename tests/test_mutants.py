"""A standing table of mutants, each one that named tests must catch
(slow: run with -m slow).

A row is (file under src/foldeg, old text, new text, test ids).  The
old text must occur exactly once; it is replaced in a copy of src/
under tmp_path, and only the named tests run, in a subprocess that
imports the copy.  Every named test must fail.  The subprocess runs
under the hypothesis profile "foldeg-mutants", which does not shrink a
failure, and with plain asserts: it writes no bytecode, so pytest would
otherwise rewrite every hypothesis module again in each row.  A row
whose old text is gone fails as a rotted mutant, so the table moves
with the code: when a change rewrites a guarded line, it rewrites the
row too.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

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
        "    if k > p[0]:\n",
        "    if False:\n",
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
        "    pivots.sort()\n    return pivots\n",
        "    pivots.sort()\n    return pivots\n\n\n"
        "_limit_rows = limit_rows\n\n\n"
        "def limit_rows(columns, ncols):\n"
        "    flipped = [[(h, l) for l, h in f[::-1]] for f in columns[::-1]]\n"
        "    return sorted(ncols - 1 - p for p in _limit_rows(flipped, ncols))\n",
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
        "        live = {lead: row} if row and lead >= first else {}\n",
        "        live = {lead: row} if row and lead >= c else {}\n",
        [
            "tests/test_linalg.py::"
            "test_echelon_and_limit_rows_leave_their_rows_unchanged",
            "tests/test_doctests.py::test_module_doctests[foldeg.linalg]",
            "tests/test_limits.py::test_methods_agree",
        ],
    ),
    "both without the closed-form comparison": (
        "bott.py",
        "            if (direct.quotient_characters != "
        "fiber_characters(d, pair)\n",
        "            if (False\n",
        [
            "tests/test_bott.py::test_both_checks_closed_form_fibers",
            "tests/test_bott.py::"
            "test_both_sees_a_character_moved_at_constant_weight",
            "tests/test_bott.py::test_a_failed_both_check_is_not_remembered",
        ],
    ),
    "kernel without the closed-form comparison": (
        "bott.py",
        "(direct.quotient_characters != fiber_characters(d, pair)\n",
        "(method == METHOD_BOTH\n"
        "                    and direct.quotient_characters "
        "!= fiber_characters(d, pair)\n",
        [
            "tests/test_bott.py::test_both_checks_closed_form_fibers",
            "tests/test_cli.py::"
            "test_failed_computation_checks_exit_1[method-disagreement]",
        ],
    ),
    "both without the power-sum comparison": (
        "bott.py",
        "\n                    or PowerSums.of(direct.quotient_weights, TOP)"
        ".p != fiber.p):\n",
        "):\n",
        ["tests/test_bott.py::test_both_checks_closed_form_fibers"],
    ),
    "a both key remembered before the comparison": (
        "bott.py",
        "            direct = limit_fiber_weights(pair, d, w, method)\n",
        "            _both_checked.add(key)\n"
        "            direct = limit_fiber_weights(pair, d, w, method)\n",
        ["tests/test_bott.py::test_a_failed_both_check_is_not_remembered"],
    ),
    "a checked both fiber evaluated at the default weights": (
        "bott.py",
        "        fiber = image_power_sums(pair, d, w)\n",
        "        fiber = image_power_sums(pair, d, DEFAULT_WEIGHTS)\n",
        ["tests/test_bott.py::test_both_checks_each_degree_and_pair_once"],
    ),
    "a both key without d": (
        "bott.py",
        "        key = 6 * d + i\n",
        "        key = i\n",
        ["tests/test_bott.py::test_a_failed_both_check_is_not_remembered"],
    ),
    "fiber_characters with its two shifts swapped": (
        "bott.py",
        "low if m[p - 1] or m[q - 1] else high\n",
        "high if m[p - 1] or m[q - 1] else low\n",
        [
            "tests/test_bott.py::test_d3_degree",
            "tests/test_bott.py::"
            "test_fiber_characters_reproduce_the_frozen_table",
            "tests/test_bott.py::"
            "test_closed_form_equals_the_chain_fiber_oracle",
        ],
    ),
    "both without the comparison of the two routes": (
        "limits.py",
        "        if img.quotient_characters != ker.quotient_characters:\n",
        "        if False:\n",
        ["tests/test_limits.py::test_method_disagreement_is_raised"],
    ),
    "size guard removed": (
        "limits.py",
        "    if len(characters) + len(kernel) != size:\n",
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
    "the one-field rank rule without A_K": (
        "limits.py",
        "counts.append(0 if x or (y and not absorbs) else 1)",
        "counts.append(0 if x or y else 1)",
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
    # A_K = Q at the bottom of a chain carried over to the top of the next
    "a chain end that keeps A_K": (
        "limits.py",
        "            counts.append(0)\n            absorbs = False\n",
        "            counts.append(0)\n",
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
        "_sized(tuple(matrices._write_fields(self.d)), self.d)",
        "tuple(matrices._write_fields(self.d))",
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
        "    return matrices.tangent_kernel_dimension(form, d)\n",
        "    return matrices.tangent_kernel_dimension(form, d)\n\n\n"
        "from . import matrices  # noqa: E402, F401\n",
        ["tests/test_cold_start.py::"
         "test_the_workload_paths_load_only_the_import_set"],
    ),
    "the Legendrian rest shifted by -(w_k + w_l)": (
        "bott.py",
        "    return reached.shifted(-low) + part.shifted(low - sum(w.values))\n",
        "    return (reached.shifted(low - sum(w.values))\n"
        "            + part.shifted(low - sum(w.values)))\n",
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
        "    return reached.shifted(-low) + part.shifted(low - sum(w.values))\n",
        "    table = reached.shifted(-low) + part.shifted(low - sum(w.values))\n"
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
        "        n, sign, den, factor = euler[pair]\n",
        "        n, sign, den, factor = euler[P5_PAIRS[P5_PAIRS.index(pair) - 1]]\n",
        [
            "tests/test_bott.py::test_d2_contribution_table",
            "tests/test_pencil.py::test_degrees_match_frozen_and_closed_form",
            "tests/test_transport_properties.py::"
            "test_tangent_euler_class_is_the_product_of_the_weights",
        ],
    ),
    "one pair's factor taken as common": (
        "bott.py",
        " common // abs(den)\n",
        " (common // abs(den) if pair != (3, 4) else common)\n",
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
        "    twist = sum(w.values) - w.pair_sum(pair)\n",
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
        "    k, l = complementary_pair(pair)\n",
        "    k, l = pair\n",
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
        "    count = comb(d + 4, 3) - removed\n",
        "    count = comb(d + 4, 3)\n",
        [
            "tests/test_pencil.py::test_twisted_fiber_size",
            "tests/test_pencil.py::"
            "test_twisted_fiber_needs_every_removed_weight",
        ],
    ),
    "the image fiber table evaluated at n = d": (
        "bott.py",
        "power_sums_at(_image_table(pair, w), d + 1)",
        "power_sums_at(_image_table(pair, w), d)",
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
        "    full = power_sum_differences(w.values, top)\n",
        "    full = power_sum_differences((0, 2, 7, 10), top)\n",
        [
            "tests/test_transport_properties.py::"
            "test_power_sum_numerators_equal_the_counted_routes",
            "tests/test_pencil.py::"
            "test_pencil_fiber_is_the_twisted_contraction_image",
        ],
    ),
    "the G(2,4) tangent less a tangent weight, not the normal": (
        "pencil.py",
        "    normal = w.pair_sum(complementary_pair(pair)) - w.pair_sum(pair)\n",
        "    normal = w.pair_sum((pair[0], complementary_pair(pair)[0]))"
        " - w.pair_sum(pair)\n",
        [
            "tests/test_pencil.py::test_tangent_weights",
            "tests/test_doctests.py::test_module_doctests[foldeg.pencil]",
            "tests/test_transport_properties.py::"
            "test_g24_tangent_is_the_p5_tangent_less_the_normal",
        ],
    ),
    "the G(2,4) tangent less its largest weight, not the normal": (
        "pencil.py",
        "    tangent.remove(normal)\n",
        "    tangent.remove(max(tangent))\n",
        ["tests/test_pencil.py::test_tangent_weights"],
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
    "the weight cache without its int-type guard": (
        "exact.py",
        "    if type(w) is tuple and {*map(type, w)} == {int}:\n",
        "    if type(w) is tuple:\n",
        ["tests/test_exact.py::"
         "test_the_weight_cache_hands_a_checked_system_to_ints_alone"],
    ),
    "one admissibility answer shared by all systems": (
        "exact.py",
        "        return self._admissible\n",
        "        return WeightSystem.is_admissible.__dict__.setdefault(\n"
        "            \"answer\", self._admissible)\n",
        [
            "tests/test_bott.py::"
            "test_inadmissible_weights_raise_at_every_entry_point[bad0]",
        ],
    ),
}


@pytest.mark.slow
@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_is_caught(name, tmp_path):
    path, old, new, test_ids = MUTANTS[name]
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    target = src / "foldeg" / path
    text = target.read_text()
    assert text.count(old) == 1, "mutant rotted: %r is not once in %s" % (
        old, path)
    target.write_text(text.replace(old, new))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         "--assert=plain", "--hypothesis-profile=foldeg-mutants", *test_ids],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    failed = {line.split()[1] for line in run.stdout.splitlines()
              if line.startswith("FAILED ")}
    survivors = [t for t in test_ids if t not in failed]
    assert not survivors, "mutant survived %s:\n%s" % (survivors, run.stdout)
