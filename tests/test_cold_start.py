"""What a cold start loads, and the entry points that load the rest.

foldeg.matrices (the written basis, the global contraction and the dense
elimination) is compiled only when one of its names is first called.
Each test runs in a fresh interpreter, so no module that another test
imported can hide a missing or circular import.
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
with contextlib.redirect_stdout(io.StringIO()):
    code = foldeg.cli.main(["verify", "--example", "--format", "json"])
steps["verify"] = loaded()
print(json.dumps({"code": code, "steps": steps}))
"""


def test_the_workload_paths_load_only_the_import_set():
    """import foldeg, foldeg.cli loads the package and eight modules, and
    the public paths of the benchmark workloads load nothing more, but
    for the frozen constants that verify reads (foldeg.reference, which
    cli loads on the first verify)."""
    out = json.loads(run_fresh(WORKLOADS).splitlines()[-1])
    assert out["code"] == 0
    steps = out["steps"]
    assert steps["import"] == IMPORTED
    assert steps["degrees"] == IMPORTED
    assert steps["verify"] == sorted(IMPORTED + ["foldeg.reference"])


@pytest.mark.parametrize("code, want", [
    # a contact form: the kernel has dimension (d + 4)(d + 2)d / 3
    ("from foldeg import AntisymmetricForm, tangent_kernel_dimension\n"
     "print(tangent_kernel_dimension("
     "AntisymmetricForm({(1, 2): 1, (3, 4): 1}), 2))",
     "16"),
    ("from foldeg import build_phi_basis\n"
     "print(build_phi_basis(2)[1].render())",
     "x1^2*d/dx2"),
    ("from foldeg import linalg\n"
     "print(linalg.rank([[1, 2], [2, 4]], 2))\n"
     "print(*linalg.kernel_basis([[1, 2]], 2))",
     "1\n[Fraction(1, 1), Fraction(-1, 2)]"),
    ("from foldeg import build_phi_basis, limits\n"
     "print(limits.build_contraction_matrix((1, 2), 2, build_phi_basis(2)))",
     "ContractionMatrix(fp=(1, 2), d=2, shape=(20, 36), 44 entries)"),
    # a decomposable form: the kernel has rank 2 * C(d + 3, 3)
    ("import foldeg.matrices as m\n"
     "print(m.tangent_kernel_dimension(m.AntisymmetricForm.koszul((1, 2)), 1))",
     "8"),
], ids=["tangent_kernel_dimension", "written-basis", "linalg-stubs",
        "build_contraction_matrix", "matrices-first"])
def test_each_moved_entry_point_works_as_the_first_call(code, want):
    assert run_fresh(code).strip() == want
