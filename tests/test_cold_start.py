"""What a cold start loads, and the entry points that load the rest.

foldeg.forms (the form algebra and the written basis) and
foldeg.matrices (the global contraction and the dense elimination, which
only the tests and the names that perfbench/tracing.py hooks read) are
compiled only when one of their names is first called, and the bodies
of the subcommands (foldeg.commands, foldeg.verify) only when cli.main
runs one.  Each test runs in a fresh interpreter, so no module that
another test imported can hide a missing or circular import.
"""

import json
import os
import subprocess
import sys
from importlib.util import find_spec

import pytest

# the directory that holds the foldeg under test, found without importing
# it here: a foldeg that fails to import fails these tests, not collection
SRC = os.path.dirname(find_spec("foldeg").submodule_search_locations[0])

IMPORTED = ["foldeg"] + ["foldeg." + name for name in (
    "bott", "cli", "exact", "fields", "limits", "linalg", "pencil", "polyfit")]


def run_fresh(code):
    """Run code in a new interpreter that imports the foldeg under test;
    returns its standard output."""
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


WORKLOADS = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules
                  if m == "foldeg" or m.startswith("foldeg."))

import foldeg, foldeg.cli
steps = {"import": loaded()}
foldeg.legendrian_degree(2)
foldeg.legendrian_degree(5)
foldeg.pencil_degree(3)
for family, top in (("legendrian", 17), ("pencil", 30)):
    points = [(d, foldeg.family_closed_form(family, d))
              for d in range(2, top + 1)]
    foldeg.interpolate_family(family, 2, top, points=points)
steps["degrees"] = loaded()
codes = []
for step, argv in (("verify", ["verify", "--example", "--format", "json"]),
                   ("pencil", ["pencil", "--degree", "3"])):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(foldeg.cli.main(argv))
    steps[step] = loaded()
print(json.dumps({"codes": codes, "steps": steps}))
"""

VERIFIED = sorted(IMPORTED + ["foldeg.forms", "foldeg.verify"])


def test_the_workload_paths_load_only_the_import_set():
    """import foldeg, foldeg.cli loads the package and eight modules, and
    the public paths of the benchmark workloads load nothing more, but
    for what verify alone reads: its body and frozen constants
    (foldeg.verify) and the form algebra of its worked example
    (foldeg.forms).  Neither verify nor the degrees load the
    other subcommands' bodies (foldeg.commands); a pencil command loads
    them and nothing else."""
    out = json.loads(run_fresh(WORKLOADS).splitlines()[-1])
    assert out["codes"] == [0, 0]
    steps = out["steps"]
    assert steps["import"] == IMPORTED
    assert steps["degrees"] == IMPORTED
    assert steps["verify"] == VERIFIED
    assert steps["pencil"] == sorted(VERIFIED + ["foldeg.commands"])


def test_the_package_reads_the_form_algebra_on_first_use():
    """from foldeg import AntisymmetricForm loads foldeg.forms, and the
    package hands back the names that foldeg.forms defines."""
    out = run_fresh(
        "import sys\n"
        "import foldeg\n"
        "print('foldeg.forms' in sys.modules)\n"
        "from foldeg import AntisymmetricForm, contract\n"
        "from foldeg import forms\n"
        "print('foldeg.forms' in sys.modules,\n"
        "      AntisymmetricForm is forms.AntisymmetricForm,\n"
        "      contract is forms.contract)")
    assert out.split() == ["False", "True", "True", "True"]


def test_every_exported_name_resolves_in_a_fresh_interpreter():
    """A star import, the first import of the process, binds every name
    of foldeg.__all__, each to the object that importing it alone
    gives."""
    out = run_fresh(
        "import importlib, json\n"
        "star = {}\n"
        "exec('from foldeg import *', star)\n"
        "names = importlib.import_module('foldeg').__all__\n"
        "alone = {}\n"
        "for name in names:\n"
        "    space = {}\n"
        "    exec('from foldeg import ' + name, space)\n"
        "    alone[name] = space[name]\n"
        "print(json.dumps([len(names),\n"
        "                  [n for n in names if star.get(n) is not alone[n]]]))")
    assert json.loads(out) == [23, []]


@pytest.mark.parametrize("code, want", [
    # a contact form: the kernel has dimension (d + 4)(d + 2)d / 3; a
    # decomposable one, d + 2 more; neither writes a field
    ("import sys\n"
     "from foldeg import AntisymmetricForm, tangent_kernel_dimension\n"
     "print(tangent_kernel_dimension("
     "AntisymmetricForm({(1, 2): 1, (3, 4): 1}), 2),\n"
     "      tangent_kernel_dimension(AntisymmetricForm.koszul((1, 2)), 200),\n"
     "      'foldeg.matrices' in sys.modules)",
     "16 2747402 False"),
    ("import sys\n"
     "from foldeg import build_phi_basis\n"
     "print(build_phi_basis(2)[1].render(), 'foldeg.matrices' in sys.modules)",
     "x1^2*d/dx2 False"),
    ("from foldeg import linalg\n"
     "print(linalg.rank([[1, 2], [2, 4]], 2))\n"
     "print(*linalg.kernel_basis([[1, 2]], 2))",
     "1\n[Fraction(1, 1), Fraction(-1, 2)]"),
    ("from foldeg import build_phi_basis, limits\n"
     "print(limits.build_contraction_matrix((1, 2), 2, build_phi_basis(2)))",
     "ContractionMatrix(fp=(1, 2), d=2, shape=(20, 36), 44 entries)"),
    # matrices imported before fields and forms
    ("import foldeg.matrices as m\n"
     "print(m.rank([[1, 2], [2, 4]], 2))",
     "1"),
], ids=["tangent_kernel_dimension", "written-basis", "linalg-stubs",
        "build_contraction_matrix", "matrices-first"])
def test_each_moved_entry_point_works_as_the_first_call(code, want):
    assert run_fresh(code).strip() == want


LATE_CALLS = """
import contextlib, io, json
import foldeg, foldeg.cli
from foldeg import bott, exact, limits, pencil, polyfit

calls = {}
def wrapped(module, name):
    real = getattr(module, name)
    def call(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)
    setattr(module, name, call)
    return module, name, real

def run_commands():
    for argv in (["verify"], ["legendrian", "--degree", "2"],
                 ["pencil", "--degree", "3"],
                 ["interpolate", "--family", "pencil", "--min", "2", "--max", "14"],
                 ["interpolate", "--family", "pencil", "--min", "2", "--max", "3",
                  "--partial"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert foldeg.cli.main(argv) == 0
    return dict(calls)

# wrapped before foldeg.commands and foldeg.verify load
hooks = [wrapped(bott, "legendrian_degree"), wrapped(pencil, "pencil_degree"),
         wrapped(polyfit, "interpolate_family"),
         wrapped(polyfit, "compute_degree_points"),
         wrapped(limits, "limit_fiber_weights"),
         wrapped(exact, "elementary_symmetric")]
first = run_commands()
for module, name, real in hooks:
    setattr(module, name, real)
print(json.dumps([first, run_commands()]))
"""


def test_the_subcommand_bodies_call_through_the_modules():
    """A wrapper put on the package's functions before the subcommand
    bodies load sees their calls, and once taken off sees none: the
    bodies look each function up on its module when they call it, as a
    tracer that wraps and restores module attributes needs."""
    first, second = json.loads(run_fresh(LATE_CALLS).splitlines()[-1])
    assert set(first) == {"legendrian_degree", "pencil_degree",
                          "interpolate_family", "compute_degree_points",
                          "limit_fiber_weights", "elementary_symmetric"}
    assert second == first


def test_the_cli_run_as_a_script_loads_itself_once():
    """python -m foldeg.cli runs the module as __main__, and no
    subcommand body imports it again as foldeg.cli: python -v lists the
    package, its eight modules and foldeg.commands as the only foldeg
    modules the import system loads."""
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run(
        [sys.executable, "-v", "-m", "foldeg.cli", "legendrian", "--degree", "2"],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "degree: 2224"
    loaded = [line.split("'")[1] for line in run.stderr.splitlines()
              if line.startswith("import 'foldeg")]
    assert sorted(loaded) == sorted(
        [m for m in IMPORTED if m != "foldeg.cli"] + ["foldeg.commands"])


def test_interpolate_without_jobs_imports_no_process_pool():
    """interpolate runs its degrees serially unless --jobs asks for
    more: without the flag, not even concurrent.futures is imported."""
    out = run_fresh(
        "import contextlib, io, sys\n"
        "import foldeg.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = foldeg.cli.main(['interpolate', '--family', 'pencil',\n"
        "                           '--min', '2', '--max', '14'])\n"
        "print(code, 'concurrent.futures' in sys.modules)")
    assert out.split() == ["0", "False"]


def test_the_size_script_counts_the_import_path_within_the_total():
    """tests/sizes.py prints the module count, the lines and the AST
    nodes of src/foldeg, the nodes that a cold import compiles and the
    lines of code: one module per file, an import path above zero and
    no larger than the whole, and some lines but not all of them code."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sizes.py")
    run = subprocess.run([sys.executable, script, SRC],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    modules, lines, nodes, on_import, code = map(int, run.stdout.split())
    files = [name for name in os.listdir(os.path.join(SRC, "foldeg"))
             if name.endswith(".py")]
    assert modules == len(files) and lines > 0
    assert 0 < on_import <= nodes
    assert 0 < code < lines


def test_code_lines_leave_out_docstrings_comments_and_blanks(tmp_path):
    """A string that is no docstring counts as code on each of its
    lines; a docstring, a comment and a blank line do not."""
    from sizes import code_lines
    path = tmp_path / "sample.py"
    path.write_text('"""Module.\n\nmore."""\n# a comment\n\n'
                    'import os  # trailing\n\n\n'
                    'def f():\n    """Doc."""\n'
                    '    x = """not a\n    docstring"""\n    return x\n')
    assert code_lines(path) == 5
