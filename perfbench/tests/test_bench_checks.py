"""The answer checks must catch wrong answers, not only pass right ones."""

import json
from fractions import Fraction

import pytest

import checks
import foldeg


@pytest.mark.parametrize("family", ["legendrian", "pencil"])
def test_closed_forms_match_the_program_copies(family):
    for d in range(2, 40):
        assert checks.CLOSED_FORMS[family](d) == foldeg.family_closed_form(family, d)


def test_legendrian_d2_is_the_published_value():
    assert checks.legendrian_closed_form(2) == 2224


def report_dict(family="legendrian", d=3, weights=(0, 2, 7, 10)):
    if family == "legendrian":
        return foldeg.legendrian_degree(d, weights).to_json_dict()
    return foldeg.pencil_degree(d, weights).to_json_dict()


@pytest.mark.parametrize("family", ["legendrian", "pencil"])
def test_a_right_report_passes(family):
    assert checks.check_report(family, 3, (0, 1, 5, 13), report_dict(family, 3, (0, 1, 5, 13))) == []


def test_an_off_by_one_degree_fails():
    report = report_dict()
    report["degree"] = str(int(report["degree"]) + 1)
    problems = checks.check_report("legendrian", 3, (0, 2, 7, 10), report)
    assert any("closed form" in p for p in problems)
    assert any("sum to" in p for p in problems)


def test_a_wrong_contribution_fails():
    report = report_dict()
    c = report["contributions"][2]
    c["num"] = str(int(c["num"]) + 1)
    c.pop("value")
    problems = checks.check_report("legendrian", 3, (0, 2, 7, 10), report)
    assert any("sum to" in p for p in problems)


def test_a_missing_fixed_point_fails():
    report = report_dict()
    report["contributions"].pop()
    assert checks.check_report("legendrian", 3, (0, 2, 7, 10), report)


def test_a_report_for_other_inputs_fails():
    assert checks.check_report("legendrian", 4, (0, 2, 7, 10), report_dict())
    assert checks.check_report("legendrian", 3, (0, 1, 5, 13), report_dict())


def closed_form_coefficients(family):
    return list(foldeg.family_closed_form_polynomial(family).coefficients)


def times_product(coeffs, roots, scale=1):
    """coeffs + scale * prod (d - r), as a coefficient list."""
    prod = [Fraction(scale)]
    for r in roots:
        prod = [Fraction(0)] + prod
        for i in range(len(prod) - 1):
            prod[i] -= r * prod[i + 1]
    out = list(coeffs) + [Fraction(0)] * max(0, len(prod) - len(coeffs))
    for i, c in enumerate(prod):
        out[i] += c
    return out


@pytest.mark.parametrize("family,d_max", [("legendrian", 17), ("pencil", 30)])
def test_the_closed_form_interpolant_passes(family, d_max):
    assert checks.check_interpolant(family, closed_form_coefficients(family), d_max) == []


def test_an_interpolant_of_too_high_degree_fails():
    # agrees with the closed form on the whole window 2..17
    coeffs = times_product(closed_form_coefficients("legendrian"), range(2, 18))
    assert any("degree" in p for p in checks.check_interpolant("legendrian", coeffs, 17))


def test_an_interpolant_wrong_only_outside_the_window_fails():
    # degree 15, equal to the closed form at 3..17, wrong elsewhere
    coeffs = times_product(closed_form_coefficients("legendrian"), range(3, 18), Fraction(1, 7))
    problems = checks.check_interpolant("legendrian", coeffs, 17)
    assert problems and not any("degree" in p for p in problems)


def test_a_perturbed_interpolant_fails():
    coeffs = closed_form_coefficients("pencil")
    coeffs[0] += 1
    assert checks.check_interpolant("pencil", coeffs, 30)


def test_weight_dependence_is_caught():
    degrees = {
        ("legendrian", 3, (0, 2, 7, 10)): 83520,
        ("legendrian", 3, (0, 1, 5, 13)): 83520,
        ("legendrian", 4, (0, 2, 7, 10)): 1375504,
        ("legendrian", 4, (0, 1, 5, 13)): 1375505,
    }
    problems, keys = checks.check_weight_independence(degrees)
    assert len(problems) == 1
    assert sorted(keys) == [("legendrian", 4, (0, 1, 5, 13)), ("legendrian", 4, (0, 2, 7, 10))]


def verify_output(**changes):
    result = {
        "checks": [
            {"name": "total-degree-d2", "passed": True, "detail": ""},
            {"name": "example-tangency", "passed": True, "detail": ""},
        ],
        "passed": 2,
        "total": 2,
    }
    result.update(changes)
    return json.dumps(result)


def test_verify_checks():
    assert checks.check_verify(0, verify_output()) == []
    assert checks.check_verify(1, verify_output())
    assert checks.check_verify(0, "PASS everything")
    assert checks.check_verify(0, verify_output(passed=1))
    failing = json.loads(verify_output())
    failing["checks"][0]["passed"] = False
    assert checks.check_verify(0, json.dumps(failing))
    no_example = verify_output(
        checks=[{"name": "total-degree-d2", "passed": True}], passed=1, total=1
    )
    assert checks.check_verify(0, no_example)


class StubReport:
    def __init__(self, json_dict):
        self.json_dict = json_dict
        self.degree = int(json_dict["degree"])

    def to_json_dict(self):
        return self.json_dict


def test_a_round_counts_wrong_and_unreadable_answers():
    import workloads
    import worker

    ops = [op for op in workloads.make_ops("pencil-sweep", 1) if op.d in (2, 3)][:3]
    outputs = [StubReport(report_dict("pencil", op.d, op.weights)) for op in ops]
    outputs[0].json_dict["degree"] = str(outputs[0].degree + 1)
    outputs[1].json_dict["contributions"] = [{"pair": [1, 2]}]  # no num/den
    outputs[2] = None  # an operation that raised is not checked
    wrong, problems = worker.check_round(ops, outputs)
    assert wrong == {0, 1}
    assert any("cannot be checked" in p for p in problems)
