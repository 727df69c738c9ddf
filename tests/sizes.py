"""The size of the package: the five figures that ROADMAP item 9 tracks.

    python tests/sizes.py [SRC]

prints, on one line, for the modules SRC/foldeg/*.py (SRC defaults to
the src/ beside these tests): their number, their lines as
``wc -l`` counts them, their AST nodes (``ast.walk`` over each module),
the AST nodes of the modules that ``import foldeg, foldeg.cli`` loads
in a fresh interpreter, the compile work of a cold start, and their
lines of code: the lines that hold a token other than a comment, less
the lines of docstrings (the leading string of a module, class or
function, found by ``ast``).
"""

import ast
import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

LOADED = ("import sys, foldeg, foldeg.cli\n"
          "for name, module in sorted(sys.modules.items()):\n"
          "    if name == 'foldeg' or name.startswith('foldeg.'):\n"
          "        print(module.__file__)\n")

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def nodes(path):
    return sum(1 for _ in ast.walk(ast.parse(Path(path).read_text())))


def code_lines(path):
    """Lines that hold code: no blank, comment or docstring lines."""
    text = Path(path).read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def sizes(src=SRC):
    """(modules, lines, nodes, nodes on import, code lines) of
    src/foldeg."""
    files = sorted(Path(src, "foldeg").glob("*.py"))
    loaded = subprocess.run(
        [sys.executable, "-c", LOADED], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60, check=True).stdout.splitlines()
    return (len(files), sum(path.read_text().count("\n") for path in files),
            sum(map(nodes, files)), sum(map(nodes, loaded)),
            sum(map(code_lines, files)))


if __name__ == "__main__":
    print(*sizes(*sys.argv[1:]))
