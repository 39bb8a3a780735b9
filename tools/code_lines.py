"""Print the number of code lines of the invseq package.

A code line is a line of a module that holds a token other than a
comment, where docstrings (of the module, of a class or of a function)
do not count as tokens.  One line per module of src/invseq, then the
code lines of tests/, then, on the last line, the total of src/invseq.
Standard library only:

    python3 tools/code_lines.py
"""

import ast
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "invseq"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree):
    """The line numbers that the docstrings of the tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """The number of code lines in the module at path."""
    source = path.read_text()
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


if __name__ == "__main__":
    modules = {path.name: code_lines(path)
               for path in sorted(PACKAGE.glob("*.py"))}
    for name, lines in modules.items():
        print("src/invseq/%-14s %5d" % (name, lines))
    print("%-25s %5d" % ("tests/", sum(map(code_lines,
                                            (ROOT / "tests").glob("*.py")))))
    print(sum(modules.values()))
