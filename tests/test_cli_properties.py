"""Property test of the command line on malformed argv (needs
hypothesis): every invalid flag or value exits 2 with one message on
stderr, prints nothing on stdout and never a traceback."""

import io
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from unittest import mock

import pytest

from foldeg import cli
from foldeg.polyfit import FAMILIES

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SUBCOMMANDS = ("legendrian", "pencil", "verify", "interpolate")
OPTIONS = (
    "--help", "--degree", "--method", "--weights", "--format", "--out",
    "--jobs", "--example", "--family", "--min", "--max", "--partial",
)
WORDS = st.text("abcdefghijklmnopqrstuvwxyz0123456789_.+", min_size=1,
                max_size=8)


def _is_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


def _admissible(values):
    return len({a + b for a, b in combinations(values, 2)}) == 6


# A command line that is valid apart from what the strategies below add.
VALID = {
    "legendrian": ["legendrian", "--degree", "2"],
    "pencil": ["pencil", "--degree", "2"],
    "interpolate": ["interpolate", "--family", "pencil", "--min", "2",
                    "--max", "14"],
}

UNKNOWN_SUBCOMMAND = WORDS.filter(lambda w: w not in SUBCOMMANDS).map(
    lambda w: [w]
)
UNKNOWN_FLAG = st.tuples(
    st.sampled_from(sorted(VALID) + ["verify"]),
    WORDS.filter(lambda w: not any(o.startswith("--" + w) for o in OPTIONS)),
).map(lambda cw: VALID.get(cw[0], [cw[0]]) + ["--" + cw[1]])
NON_INTEGER_DEGREE = st.tuples(
    st.sampled_from(["legendrian", "pencil"]),
    st.one_of(WORDS, st.floats().map(repr)).filter(lambda w: not _is_int(w)),
).map(lambda cw: [cw[0], "--degree=" + cw[1]])
DEGREE_TOO_LOW = st.sampled_from(["legendrian", "pencil"]).flatmap(
    lambda name: st.integers(
        -50, FAMILIES[name].min_degree - 1
    ).map(lambda d: [name, "--degree", str(d)])
)
WRONG_COUNT = st.lists(st.integers(-9, 20), max_size=7).filter(
    lambda v: len(v) != 4
).map(lambda v: ",".join(map(str, v)))
NOT_INTEGERS = st.lists(
    st.one_of(st.integers(-9, 20).map(str), WORDS), min_size=4, max_size=4
).filter(lambda v: not all(map(_is_int, v))).map(",".join)
INADMISSIBLE = st.lists(
    st.integers(-9, 20), min_size=4, max_size=4
).filter(lambda v: not _admissible(v)).map(lambda v: ",".join(map(str, v)))
BAD_WEIGHTS = st.tuples(
    st.sampled_from(sorted(VALID)),
    st.one_of(WRONG_COUNT, NOT_INTEGERS, INADMISSIBLE),
).map(lambda cw: VALID[cw[0]] + ["--weights=" + cw[1]])
JOBS_BELOW_1 = st.tuples(
    st.sampled_from(["legendrian", "interpolate"]), st.integers(-50, 0)
).map(lambda cj: VALID[cj[0]] + ["--jobs=%d" % cj[1]])
MIN_ABOVE_MAX = st.tuples(
    st.sampled_from(sorted(FAMILIES)), st.integers(-50, 50),
    st.integers(1, 50),
).map(lambda fmk: ["interpolate", "--family", fmk[0], "--min",
                   str(fmk[1] + fmk[2]), "--max", str(fmk[1])])
UNKNOWN_FAMILY = WORDS.filter(lambda w: w not in FAMILIES).map(
    lambda w: ["interpolate", "--family", w, "--min", "2", "--max", "14"]
)

MALFORMED_ARGV = {
    "unknown-subcommand": UNKNOWN_SUBCOMMAND,
    "unknown-flag": UNKNOWN_FLAG,
    "non-integer-degree": NON_INTEGER_DEGREE,
    "degree-too-low": DEGREE_TOO_LOW,
    "bad-weights": BAD_WEIGHTS,
    "jobs-below-1": JOBS_BELOW_1,
    "min-above-max": MIN_ABOVE_MAX,
    "unknown-family": UNKNOWN_FAMILY,
}


def _never_called(*args, **kwargs):
    raise AssertionError("a malformed command line reached a computation")


@pytest.mark.parametrize("kind", sorted(MALFORMED_ARGV))
@hypothesis.given(data=st.data())
def test_malformed_argv_exits_2_without_a_traceback(kind, data):
    """No computation runs: the ones the subcommands call are replaced by
    a function that fails the test."""
    argv = data.draw(MALFORMED_ARGV[kind])
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.multiple(
        cli, legendrian_degree=_never_called, pencil_degree=_never_called,
        interpolate_family=_never_called,
        compute_degree_points=_never_called,
        run_verify_checks=_never_called,
    ), redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == 2, (argv, err.getvalue())
    assert out.getvalue() == ""
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().strip()
