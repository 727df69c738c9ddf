"""The size of the package: the five figures that ROADMAP item 9 tracks.

    python tests/sizes.py [--by-module] [SRC]

prints, on one line, for the modules SRC/foldeg/*.py (SRC defaults to
the src/ beside these tests): their number, their lines as
``wc -l`` counts them, their AST nodes (``ast.walk`` over each module),
the AST nodes of the modules that ``import foldeg, foldeg.cli`` loads
in a fresh interpreter, the compile work of a cold start, and their
lines of code: the lines that hold a token other than a comment, less
the lines of docstrings (the leading string of a module, class or
function, found by ``ast``).  With --by-module it prints instead one
line per module, in file-name order: its name, lines, AST nodes and
lines of code, and "loaded" if ``import foldeg, foldeg.cli`` compiles
it, else "-".  So the rows split all five figures: their count, the
sums of the three numeric columns, and the nodes of the loaded rows.
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


def wc_lines(path):
    """Lines as ``wc -l`` counts them."""
    return Path(path).read_text().count("\n")


def modules(src=SRC):
    return sorted(Path(src, "foldeg").glob("*.py"))


def loaded(src=SRC):
    """The files of src/foldeg that ``import foldeg, foldeg.cli`` loads
    in a fresh interpreter, resolved."""
    out = subprocess.run(
        [sys.executable, "-c", LOADED], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60, check=True).stdout
    return {Path(path).resolve() for path in out.splitlines()}


def sizes(src=SRC):
    """(modules, lines, nodes, nodes on import, code lines) of
    src/foldeg."""
    files = modules(src)
    return (len(files), sum(map(wc_lines, files)), sum(map(nodes, files)),
            sum(map(nodes, loaded(src))), sum(map(code_lines, files)))


def by_module(src=SRC):
    """(name, lines, nodes, code lines, "loaded" or "-") of each module
    of src/foldeg."""
    imported = loaded(src)
    return [(path.stem, wc_lines(path), nodes(path), code_lines(path),
             "loaded" if path.resolve() in imported else "-")
            for path in modules(src)]


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--by-module"]:
        for row in by_module(*args[1:]):
            print(*row)
    else:
        print(*sizes(*args))
