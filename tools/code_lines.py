"""Print the number of code lines and the compile time of each module
of the invseq package.

A code line is a line of a module that holds a token other than a
comment, where docstrings (of the module, of a class or of a function)
do not count as tokens.  A module's compile time is the least of
COMPILE_RUNS calls of compile() on its source: what importing it costs
where no bytecode is cached, as when PYTHONDONTWRITEBYTECODE is set.
One line per module of src/invseq with both, then the code lines of
each module of tests/ and their total, so that a change to the tests
shows file by file, then three import times, each the median over
IMPORT_RUNS fresh interpreters in the caller's environment (with src/
on PYTHONPATH): ``import invseq``, ``import invseq.cli`` plus
``build_parser()``, what the benchmark's setup_s times, and ``import
invseq.series`` plus ``f_coefficients(60)``, which loads no rule
system.  On the last line, the total code lines of src/invseq.
Standard library only:

    python3 tools/code_lines.py
"""

import ast
import os
import pathlib
import statistics
import subprocess
import sys
import timeit
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "invseq"
COMPILE_RUNS = 5
IMPORT_RUNS = 9
IMPORTS = {
    "import invseq": "import invseq",
    "import invseq.cli + build_parser()":
        "import invseq.cli; invseq.cli.build_parser()",
    "import invseq.series + f_coefficients(60)":
        "import invseq.series; invseq.series.f_coefficients(60)",
}
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


def import_ms(code):
    """The median time, in milliseconds, that code takes to run in each
    of IMPORT_RUNS fresh interpreters, with src/ on PYTHONPATH."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    timed = ("import time; t = time.perf_counter(); %s; "
             "print(time.perf_counter() - t)" % code)
    return 1000 * statistics.median(
        float(subprocess.run([sys.executable, "-c", timed], env=env,
                             capture_output=True, text=True, timeout=60,
                             check=True).stdout)
        for _ in range(IMPORT_RUNS))


if __name__ == "__main__":
    modules = {path.name: code_lines(path)
               for path in sorted(PACKAGE.glob("*.py"))}
    for name, lines in modules.items():
        print("src/invseq/%-14s %5d  %6.2f ms compile"
              % (name, lines, compile_ms(PACKAGE / name)))
    tests = {path.name: code_lines(path)
             for path in sorted((ROOT / "tests").glob("*.py"))}
    for name, lines in tests.items():
        print("tests/%-19s %5d" % (name, lines))
    print("%-25s %5d" % ("tests/", sum(tests.values())))
    for label, code in IMPORTS.items():
        print("%-42s %6.2f ms" % (label, import_ms(code)))
    print(sum(modules.values()))
