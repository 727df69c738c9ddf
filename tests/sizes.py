"""The size of the package: the four figures that ROADMAP item 9 tracks.

    python tests/sizes.py [SRC]

prints, on one line, for the modules SRC/foldeg/*.py (SRC defaults to
the src/ beside these tests): their number, their lines as
``wc -l`` counts them, their AST nodes (``ast.walk`` over each module)
and the AST nodes of the modules that ``import foldeg, foldeg.cli``
loads in a fresh interpreter, the compile work of a cold start.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

LOADED = ("import sys, foldeg, foldeg.cli\n"
          "for name, module in sorted(sys.modules.items()):\n"
          "    if name == 'foldeg' or name.startswith('foldeg.'):\n"
          "        print(module.__file__)\n")


def nodes(path):
    return sum(1 for _ in ast.walk(ast.parse(Path(path).read_text())))


def sizes(src=SRC):
    """(modules, lines, nodes, nodes on import) of src/foldeg."""
    files = sorted(Path(src, "foldeg").glob("*.py"))
    loaded = subprocess.run(
        [sys.executable, "-c", LOADED], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60, check=True).stdout.splitlines()
    return (len(files), sum(path.read_text().count("\n") for path in files),
            sum(map(nodes, files)), sum(map(nodes, loaded)))


if __name__ == "__main__":
    print(*sizes(*sys.argv[1:]))
