"""Tests for the command-line driver."""

import errno
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from foldeg import bott, cli, limits, pencil, polyfit, verify
from foldeg.exact import Differences, PowerSums
from foldeg.fields import phi_dimension


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_legendrian_text_output(capsys):
    code, out, _ = run(capsys, ["legendrian", "--degree", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family: legendrian"
    assert lines[1] == "d: 2"
    assert lines[2] == "weights: 0,2,7,10"
    assert lines[3] == "method: both"
    assert "contribution (1,2): 833800359/42000" in lines
    assert "contribution (3,4): -105534/42000" in lines
    assert lines[-1] == "degree: 2224"


def test_legendrian_json_output(capsys):
    code, out, _ = run(capsys, ["legendrian", "--degree", "2", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert "family" not in report
    assert report["d"] == 2
    assert report["weights"] == [0, 2, 7, 10]
    assert report["degree"] == "2224"
    assert report["contributions"][0] == {
        "pair": [1, 2],
        "num": "833800359",
        "den": "42000",
        "value": "39704779/2000",
    }


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, ["legendrian", "--degree", "2", "--format", "json"])
    _, second, _ = run(capsys, ["legendrian", "--degree", "2", "--format", "json"])
    assert first == second
    # legendrian --jobs is still accepted, but the output is the same
    _, third, _ = run(
        capsys, ["legendrian", "--degree", "2", "--format", "json", "--jobs", "3"]
    )
    assert third == first


def test_pencil_output(capsys):
    code, out, _ = run(capsys, ["pencil", "--degree", "2"])
    assert code == 0
    assert out.splitlines()[0] == "family: pencil"
    assert out.splitlines()[-1] == "degree: 825"
    code, out, _ = run(capsys, ["pencil", "--degree", "2", "--format", "json"])
    assert code == 0
    assert json.loads(out)["family"] == "pencil"


def test_method_flag(capsys):
    code, out, _ = run(
        capsys, ["legendrian", "--degree", "2", "--method", "image"]
    )
    assert code == 0
    assert "method: image-fiber" in out.splitlines()
    assert out.splitlines()[-1] == "degree: 2224"


def test_inadmissible_weights_exit_code(capsys):
    code, out, err = run(
        capsys, ["legendrian", "--degree", "2", "--weights", "0,1,2,3"]
    )
    assert code == 2
    assert not out
    assert "weights" in err


def test_malformed_weights_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["legendrian", "--degree", "2", "--weights", "0,1,2"])
    assert info.value.code == 2


def test_alternative_weights_same_degree(capsys):
    code, out, _ = run(
        capsys, ["legendrian", "--degree", "2", "--weights", "0,1,5,13"]
    )
    assert code == 0
    assert out.splitlines()[-1] == "degree: 2224"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_negative_first_weight_as_a_separate_word(capsys, monkeypatch, fmt):
    """--weights -4,0,2,7 prints the bytes of --weights=-4,0,2,7, from
    an argument list and from the command line alike."""
    head = ["legendrian", "--degree", "2", "--format", fmt]
    want = run(capsys, head + ["--weights=-4,0,2,7"])
    assert want[0] == 0 and "2224" in want[1]
    assert run(capsys, head + ["--weights", "-4,0,2,7"]) == want
    monkeypatch.setattr(sys, "argv", ["foldeg"] + head + ["--weights", "-4,0,2,7"])
    assert run(capsys, None) == want


@pytest.mark.parametrize("flag", ["--weight", "--w"])
def test_negative_first_weight_after_an_abbreviated_flag(capsys, flag):
    """argparse takes any prefix of --weights down to --w, so a separate
    negative system is joined to each of them too."""
    head = ["legendrian", "--degree", "2"]
    want = run(capsys, head + ["--weights=-4,0,2,7"])
    assert want[0] == 0 and "2224" in want[1]
    assert run(capsys, head + [flag, "-4,0,2,7"]) == want
    with pytest.raises(SystemExit) as info:
        cli.main(head + [flag, "-x,0,2,7"])
    assert info.value.code == 2
    assert "--weights: expected one argument" in capsys.readouterr().err


def test_only_a_minus_sign_and_a_digit_join_weights(capsys):
    """A word after --weights that starts with "-" but not with a minus
    sign and a digit stays a flag, so the option lacks its value."""
    for word in ("-x,0,2,7", "-,4,0,2", "--format"):
        with pytest.raises(SystemExit) as info:
            cli.main(["legendrian", "--degree", "2", "--weights", word])
        assert info.value.code == 2
        assert "--weights: expected one argument" in capsys.readouterr().err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, ["pencil", "--degree", "3", "--out", str(target)]
    )
    assert code == 0
    assert out.splitlines()[-1] == "degree: 13300"
    on_disk = json.loads(target.read_text())
    assert on_disk["degree"] == "13300"
    assert on_disk["family"] == "pencil"


def test_verify_passes(capsys):
    code, out, _ = run(capsys, ["verify"])
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == "9/9 checks passed"


def test_verify_example_flag(capsys):
    code, out, _ = run(capsys, ["verify", "--example"])
    assert code == 0
    lines = out.splitlines()
    assert "PASS example-tangency" in lines
    assert lines[-1] == "10/10 checks passed"


def test_verify_json(capsys):
    code, out, _ = run(capsys, ["verify", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] == report["total"] == 9
    assert all(c["passed"] for c in report["checks"])


def test_verify_holds_only_the_constants_it_reads():
    """foldeg.verify defines the four frozen constants that its checks
    compare against and no other; the frozen values that only the tests
    read are in tests/frozen.py."""
    assert {name for name in vars(verify)
            if name.isupper() and name not in vars(limits)} == {
        "D2_P34_E5", "D2_P34_QUOTIENT_WEIGHTS",
        "LEGENDRIAN_D2_CONTRIBUTIONS", "LEGENDRIAN_D2_DEGREE"}


def test_verify_detects_tampered_constant(capsys, monkeypatch):
    """Corrupting one frozen constant must fail exactly the named check."""
    monkeypatch.setattr(verify, "LEGENDRIAN_D2_DEGREE", 9999)
    code, out, _ = run(capsys, ["verify"])
    assert code == 1
    lines = out.splitlines()
    assert any(line.startswith("FAIL total-degree-d2") for line in lines)
    assert sum(line.startswith("FAIL") for line in lines) == 1
    assert lines[-1] == "8/9 checks passed"


def test_verify_detects_tampered_fiber(capsys, monkeypatch):
    tampered = list(verify.D2_P34_QUOTIENT_WEIGHTS)
    tampered[0] -= 1
    monkeypatch.setattr(
        verify, "D2_P34_QUOTIENT_WEIGHTS", tuple(tampered)
    )
    code, out, _ = run(capsys, ["verify"])
    assert code == 1
    assert any(
        line.startswith("FAIL fiber-weights-d2-pair34")
        for line in out.splitlines()
    )


TAMPERED_DETAILS = {
    "fiber-weights-d2-pair34": "computed "
    "[-10, -8, -7, -6, -5, -3, -3, -2, -1, 0, 0, 2, 2, 3, 4, 4, 5, 7, 10, 13]"
    ", frozen "
    "[-11, -8, -7, -6, -5, -3, -3, -2, -1, 0, 0, 2, 2, 3, 4, 4, 5, 7, 10, 13]",
    "fiber-e5-d2-pair34": "computed 105534, frozen 105535",
    "contribution-d2-pair13": "computed -38740434/1500, frozen -38740434/1501",
    "total-degree-d2": "computed 2224, frozen 9999",
}


def test_verify_failure_details_are_exact(capsys, monkeypatch):
    """One frozen constant of each kind tampered: each failing check
    reports its computed and frozen values byte for byte."""
    fiber = list(verify.D2_P34_QUOTIENT_WEIGHTS)
    fiber[0] -= 1
    monkeypatch.setattr(verify, "D2_P34_QUOTIENT_WEIGHTS", tuple(fiber))
    monkeypatch.setattr(verify, "D2_P34_E5", verify.D2_P34_E5 + 1)
    contributions = list(verify.LEGENDRIAN_D2_CONTRIBUTIONS)
    contributions[1] = ((1, 3), -38740434, 1501)
    monkeypatch.setattr(
        verify, "LEGENDRIAN_D2_CONTRIBUTIONS", tuple(contributions)
    )
    monkeypatch.setattr(verify, "LEGENDRIAN_D2_DEGREE", 9999)

    code, out, _ = run(capsys, ["verify"])
    assert code == 1
    assert out.splitlines() == [
        "FAIL fiber-weights-d2-pair34: " + TAMPERED_DETAILS["fiber-weights-d2-pair34"],
        "FAIL fiber-e5-d2-pair34: computed 105534, frozen 105535",
        "PASS contribution-d2-pair12",
        "FAIL contribution-d2-pair13: computed -38740434/1500, frozen -38740434/1501",
        "PASS contribution-d2-pair14",
        "PASS contribution-d2-pair23",
        "PASS contribution-d2-pair24",
        "PASS contribution-d2-pair34",
        "FAIL total-degree-d2: computed 2224, frozen 9999",
        "5/9 checks passed",
    ]

    code, out, _ = run(capsys, ["verify", "--format", "json"])
    assert code == 1
    report = json.loads(out)
    assert (report["passed"], report["total"]) == (5, 9)
    failed = {c["name"]: c["detail"] for c in report["checks"] if not c["passed"]}
    assert failed == TAMPERED_DETAILS
    passed = [c["detail"] for c in report["checks"] if c["passed"]]
    assert passed == [
        "computed 833800359/42000, frozen 833800359/42000",
        "computed 7716777/336, frozen 7716777/336",
        "computed -4199874/336, frozen -4199874/336",
        "computed -3398841/1500, frozen -3398841/1500",
        "computed -105534/42000, frozen -105534/42000",
    ]


@pytest.mark.parametrize(
    "command",
    [
        "legendrian --degree 3",
        "pencil --degree 4 --weights 0,1,5,13",
        "verify --example",
        "interpolate --family pencil --min 2 --max 14",
        "interpolate --family legendrian --min 2 --max 5 --partial",
    ],
    ids=["legendrian", "pencil", "verify", "interpolate", "partial"],
)
def test_out_file_equals_json_stdout(tmp_path, capsys, command):
    target = tmp_path / "report.json"
    code, out, err = run(
        capsys, command.split() + ["--format", "json", "--out", str(target)]
    )
    assert (code, err) == (0, "")
    assert target.read_text() == out


def test_interpolate_partial(capsys):
    code, out, _ = run(
        capsys,
        [
            "interpolate",
            "--family",
            "legendrian",
            "--min",
            "2",
            "--max",
            "4",
            "--partial",
        ],
    )
    assert code == 0
    lines = out.splitlines()
    assert "d=2: computed 2224, closed form 2224, match" in lines
    assert lines[-1] == "3/3 points match"


def test_interpolate_pencil_full(capsys):
    code, out, _ = run(
        capsys,
        ["interpolate", "--family", "pencil", "--min", "2", "--max", "14"],
    )
    assert code == 0
    lines = out.splitlines()
    assert "closed form match: yes" in lines
    assert "polynomial degree: 12 (bound 12)" in lines


def test_interpolate_match_does_not_trust_the_interpolator(capsys,
                                                           monkeypatch):
    """An interpolator that shifts every interpolant alike gives a wrong
    polynomial on both sides of a polynomial ==; the verdict compares
    values with the closed form, so it says NO and exits 1."""
    for module in (bott, polyfit):
        real = module.lagrange_interpolate
        monkeypatch.setattr(module, "lagrange_interpolate",
                            lambda x0, ys, real=real: real(x0 + 1, ys))
    code, out, _ = run(
        capsys,
        ["interpolate", "--family", "pencil", "--min", "2", "--max", "14"],
    )
    assert code == 1
    lines = out.splitlines()
    assert "closed form match: NO" in lines
    assert "polynomial degree: 12 (bound 12)" in lines


def test_interpolate_pencil_json(capsys):
    code, out, _ = run(
        capsys,
        [
            "interpolate",
            "--family",
            "pencil",
            "--min",
            "2",
            "--max",
            "14",
            "--format",
            "json",
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["matches_closed_form"] is True
    assert report["degree"] == 12
    assert len(report["coefficients"]) == 13
    # constant term 0, leading coefficient 1/15552
    assert report["coefficients"][0] == "0"
    assert report["coefficients"][-1] == "1/15552"


def test_interpolate_insufficient_range_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(
            ["interpolate", "--family", "pencil", "--min", "2", "--max", "5"]
        )
    assert info.value.code == 2


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["legendrian", "--degree", "1"],
        ["pencil", "--degree", "0"],
        ["legendrian", "--degree", "2", "--jobs", "0"],
        ["interpolate", "--family", "pencil", "--min", "2", "--max", "14",
         "--jobs", "-3"],
    ],
    ids=["legendrian-degree-1", "pencil-degree-0", "jobs-0", "jobs-minus-3"],
)
def test_bad_flag_values_exit_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert not out
    assert err.startswith("error: ") and err.count("\n") == 1


def _plus_one_at_34(js):
    """The family with a fiber table whose p_j, j in js, are one too
    large at (3,4), at every d."""
    def wrong(family):
        def shift(pair, *split):
            p = family.shift(pair, *split).p
            if pair == (3, 4):
                p = [f + Differences([1]) if j in js else f
                     for j, f in enumerate(p)]
            return PowerSums(p)
        return family._replace(shift=shift)
    return wrong


KERNEL_3 = ["legendrian", "--degree", "3", "--method", "kernel"]


@pytest.mark.parametrize(
    "module, name, wrong, argv, error",
    [
        (bott, "closed_form_counts", lambda real: lambda characters, pair: [
            c + 1 for c in real(characters, pair)],
         KERNEL_3, "closed-form and direct fibers disagree at (1, 2), d=3"),
        (limits, "_kernel_rule",
         lambda real: lambda chains: [c - 1 for c in real(chains)],
         KERNEL_3, "limit kernel rank"),
        (limits, "build_phi_basis",
         lambda real: lambda d: range(phi_dimension(d) + 1),
         KERNEL_3, "chains hold 70 fields, not dim Phi_d = 71 at (1, 2), d=3"),
        (bott, "LEGENDRIAN", lambda real: real._replace(
            shift=lambda *split: real.shift(*split)
            - PowerSums([Differences([1])] + [Differences()] * 5)),
         ["legendrian", "--degree", "6"], "fiber count 119, not 120, at d=6"),
        (pencil, "PENCIL", _plus_one_at_34((1, 2, 3, 4)),
         ["pencil", "--degree", "5"],
         "pencil localization sum 17147157/10 is not an integer "
         "(d=5, weights (0, 2, 7, 10))"),
        (pencil, "PENCIL", _plus_one_at_34((1,)),
         ["pencil", "--degree", "5"], "e_2 of these power sums is not integral"),
        (pencil, "PENCIL", lambda real: real._replace(
            shift=lambda *split: PowerSums(real.shift(*split).p[:4])),
         ["pencil", "--degree", "5"],
         "fiber table p_0..p_3 has no e_4 at (1, 2)"),
        (polyfit, "FAMILIES", lambda real: {**real, "pencil": real[
            "pencil"]._replace(formula=lambda d: Fraction(1, 2))},
         ["interpolate", "--family", "pencil", "--min", "2", "--max", "14",
          "--partial"], "closed form not integral at d=2"),
    ],
    ids=["method-disagreement", "saturation-rank", "basis-size",
         "fiber-count", "non-integral-sum", "newton", "short-table",
         "closed-form"],
)
def test_failed_computation_checks_exit_1(capsys, monkeypatch, module, name,
                                         wrong, argv, error):
    """A direct fiber unlike the closed form, a kernel limit of the wrong
    rank, chains short of the basis, a fiber table of the wrong count or
    one that stops before p_n, a Bott sum that is not an integer, an e_k
    that Newton's step cannot divide exactly or a closed form that is
    not an integer is a computation bug: one error: line and exit 1,
    with no report and no traceback."""
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    code, out, err = run(capsys, argv)
    assert code == 1
    assert not out
    assert err.startswith("error: " + error) and err.count("\n") == 1
    assert "Traceback" not in err


def test_unwritable_out_file_exits_2(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "x.json"
    code, out, err = run(
        capsys, ["pencil", "--degree", "2", "--out", str(target)]
    )
    assert code == 2
    assert not out
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert not target.exists()


def _never_called(*args, **kwargs):
    raise AssertionError("an --out path that cannot be written reached a computation")


@pytest.mark.parametrize("where, reason", [
    ("missing-dir", "No such file or directory"),
    ("directory", "Is a directory"),
    ("unwritable-dir", "Permission denied"),
    ("empty", "No such file or directory"),
], ids=["missing-dir", "directory", "unwritable-dir", "empty"])
@pytest.mark.parametrize("argv", [
    ["interpolate", "--family", "legendrian", "--min", "2", "--max", "400",
     "--partial"],
    ["legendrian", "--degree", "80", "--method", "both"],
    ["verify", "--example"],
], ids=["interpolate", "legendrian", "verify"])
def test_an_unwritable_out_path_is_refused_before_computing(
        capsys, monkeypatch, tmp_path, argv, where, reason):
    """An --out path whose directory is missing or not writable, that
    names a directory, or that is empty, exits 2 with one error: line
    before any computation runs (each is replaced by a function that
    fails the test), and creates no file."""
    for module, name in ((bott, "legendrian_degree"), (pencil, "pencil_degree"),
                         (polyfit, "interpolate_family"),
                         (polyfit, "compute_degree_points"),
                         (verify, "run_verify_checks")):
        monkeypatch.setattr(module, name, _never_called)
    target = {"missing-dir": "/nonexistent/dir/x.json",
              "directory": str(tmp_path),
              "unwritable-dir": str(tmp_path / "x.json"),
              "empty": ""}[where]
    if where == "unwritable-dir":
        # the tests may run as root, for whom every directory is writable
        monkeypatch.setattr(os, "access", lambda path, mode: False)
    code, out, err = run(capsys, argv + ["--out", target])
    assert code == 2
    assert not out
    assert err == "error: cannot write %s: %s\n" % (target, reason)
    assert os.listdir(tmp_path) == []


def test_a_write_that_fails_after_the_check_exits_2(capsys, monkeypatch, tmp_path):
    """The write itself still maps an OSError to exit 2, and no report
    is printed: here the disk fills after the path was found writable."""
    def full(path, mode):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    monkeypatch.setattr(cli, "open", full, raising=False)
    target = str(tmp_path / "x.json")
    code, out, err = run(capsys, ["pencil", "--degree", "2", "--out", target])
    assert code == 2
    assert not out
    assert err == "error: cannot write %s: %s\n" % (target, os.strerror(errno.ENOSPC))


def test_import_leaves_the_process_pool_out():
    """Only --jobs needs concurrent.futures and only the verify command
    loads foldeg.verify; a plain start imports neither."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys, foldeg, foldeg.cli; "
        "print('concurrent.futures' in sys.modules, "
        "'foldeg.verify' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "False False"
