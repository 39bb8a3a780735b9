"""Print the number of code lines and the compile time of each module
of the invseq package.

A code line is a line of a module that holds a token other than a
comment, where docstrings (of the module, of a class or of a function)
do not count as tokens.  A module's compile time is the least of
COMPILE_RUNS calls of compile() on its source: what importing it costs
where no bytecode is cached, as when PYTHONDONTWRITEBYTECODE is set.
One line per module of src/invseq with both, then the code lines of
tests/, then, on the last line, the total code lines of src/invseq.
Standard library only:

    python3 tools/code_lines.py
"""

import ast
import pathlib
import timeit
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "invseq"
COMPILE_RUNS = 5
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


def compile_ms(path):
    """The least time, in milliseconds, of COMPILE_RUNS compile() calls
    on the source of the module at path."""
    source = path.read_text()
    return 1000 * min(timeit.repeat(lambda: compile(source, str(path), "exec"),
                                    number=1, repeat=COMPILE_RUNS))


if __name__ == "__main__":
    modules = {path.name: code_lines(path)
               for path in sorted(PACKAGE.glob("*.py"))}
    for name, lines in modules.items():
        print("src/invseq/%-14s %5d  %6.2f ms compile"
              % (name, lines, compile_ms(PACKAGE / name)))
    print("%-25s %5d" % ("tests/", sum(map(code_lines,
                                            (ROOT / "tests").glob("*.py")))))
    print(sum(modules.values()))
