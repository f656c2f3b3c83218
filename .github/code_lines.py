"""Count the code lines of each module of a package directory.

Usage: python .github/code_lines.py [DIR]   (DIR defaults to src/accretive)

A code line is a non-blank line that holds part of a token other than a
comment or a docstring (the string that opens a module, class or function
body).  Prints one "count  module" line per module, then the total.
"""

import ast
import io
import pathlib
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers spanned by every docstring in the tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in one module's source text."""
    text = source.splitlines()
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return sum(1 for i in lines - docs if text[i - 1].strip())


def main(root):
    total = 0
    for path in sorted(pathlib.Path(root).glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src/accretive")
