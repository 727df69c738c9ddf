"""Golden CLI transcripts: exit code, stdout and stderr, byte for byte.

tests/golden/cli.json holds one entry per command line.  Each is rerun
through cli.main with COLUMNS=80, so argparse wraps help and usage text
the same way everywhere.  To record the transcripts of the current
code (only when an output change is intended):

    PYTHONPATH=src python3 tests/test_cli_golden.py --write
"""

import contextlib
import io
import json
import os
import sys

import pytest

from foldeg import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "cli.json")

COMMANDS = (
    "legendrian --degree 2",
    "legendrian --degree 2 --format json",
    "legendrian --degree 5 --format json",
    "legendrian --degree 6 --method kernel",
    "legendrian --degree 6 --method both --format json",
    "legendrian --degree 9 --weights 0,1,5,13 --format json",
    "legendrian --degree 3 --jobs 3",
    "pencil --degree 3",
    "pencil --degree 12 --weights 1,3,9,20 --format json",
    "verify --example",
    "verify --format json",
    "interpolate --family pencil --min 2 --max 14",
    "interpolate --family pencil --min 2 --max 14 --format json",
    "interpolate --family legendrian --min 2 --max 8 --partial",
    "interpolate --family legendrian --min 2 --max 17",
    "legendrian --degree 1",
    "pencil --degree 3 --weights 0,1,2,3",
    "interpolate --family pencil --min 2 --max 14 --jobs 0",
    "interpolate --family nope --min 2 --max 14",
    "interpolate --help",
)


def transcript(argv):
    """Run cli.main on argv; return {argv, exit, stdout, stderr}."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return {" ".join(e["argv"]): e for e in json.load(fh)}


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_matches_golden_transcript(command, golden, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert transcript(command.split()) == golden[command]


def test_golden_file_holds_exactly_these_commands(golden):
    assert list(golden) == list(COMMANDS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_cli_golden.py --write")
    os.environ["COLUMNS"] = "80"
    entries = [transcript(c.split()) for c in COMMANDS]
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")
