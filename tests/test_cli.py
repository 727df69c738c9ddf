"""Tests for the command-line driver."""

import json
import os
import subprocess
import sys

import pytest

from foldeg import cli, reference


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


def test_verify_detects_tampered_constant(capsys, monkeypatch):
    """Corrupting one frozen constant must fail exactly the named check."""
    monkeypatch.setattr(reference, "LEGENDRIAN_D2_DEGREE", 9999)
    code, out, _ = run(capsys, ["verify"])
    assert code == 1
    lines = out.splitlines()
    assert any(line.startswith("FAIL total-degree-d2") for line in lines)
    assert sum(line.startswith("FAIL") for line in lines) == 1
    assert lines[-1] == "8/9 checks passed"


def test_verify_detects_tampered_fiber(capsys, monkeypatch):
    tampered = list(reference.D2_P34_QUOTIENT_WEIGHTS)
    tampered[0] -= 1
    monkeypatch.setattr(
        reference, "D2_P34_QUOTIENT_WEIGHTS", tuple(tampered)
    )
    code, out, _ = run(capsys, ["verify"])
    assert code == 1
    assert any(
        line.startswith("FAIL fiber-weights-d2-pair34")
        for line in out.splitlines()
    )


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


def test_unwritable_out_file_exits_2(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "x.json"
    code, out, err = run(
        capsys, ["pencil", "--degree", "2", "--out", str(target)]
    )
    assert code == 2
    assert not out
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert not target.exists()


def test_import_leaves_the_process_pool_out():
    """Only --jobs needs concurrent.futures; a serial run does not pay
    for importing it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys, foldeg, foldeg.cli; "
        "print('concurrent.futures' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "False"
