"""Plant operator flips in src/invseq one at a time and see whether the
tier-1 tests catch each.

A flip swaps the operator between two operands for its twin: + and -,
<< and >>, & and |, < and <=, > and >=, == and !=.  The flips are read
from ``ast`` positions (binary operations and each link of a
comparison) and located on the token stream, so a flip is one operator
token of one module.  SAMPLE of them, drawn with
random.Random(SEED) from all flips in path, line and column order, are
each planted in a copy of the repository under a temporary directory,
never in the working tree, and the copy's tests at TESTS are run with
the tier-1 command, ``-x``, CI's ``-W error`` and the one ignore that
README's Testing section gives, so that a failing hypothesis test is
named instead of ending the run with INTERNALERROR.  Each run has a
fixed hypothesis seed, an empty example database, no bytecode writing
and its temporary files in the copy, so nothing is written outside it.  A flipped bound can loop or allocate without end, so each run is
a process group of its own, killed at TIMEOUT seconds, whose address
space is capped at MEMORY bytes.

One line per flip: its place, the swap and "caught" with the first
failing test, "survived" or "timed out"; then the three totals.  A
caught flip is one that the tests see; a survivor is either equivalent
on the data the tests reach or a gap in them.  Not part of CI: a flip
takes about 13 s with 2 CPUs.  Standard library only:

    python3 tools/fault_sample.py

To compare the kill set of a change that edits tests with its parent's,
import the module in each checkout and call report(chosen, tests) with
the same flips and the test files the change edits.
"""

import ast
import os
import pathlib
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = pathlib.Path("src") / "invseq"
TESTS = ("tests",)
SEED = 7
SAMPLE = 40
TIMEOUT = 300           # seconds per run
MEMORY = 2 << 30        # bytes of address space per run
TWINS = {"+": "-", "-": "+", "<<": ">>", ">>": "<<", "&": "|", "|": "&",
         "<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "=="}
IGNORED = {".git", ".hypothesis", ".pytest_cache", ".benchmarks",
           "__pycache__"}


def _operands(tree):
    """(left, right) around each operator between two operands: of a
    binary operation, and of each link of a comparison."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp):
            yield node.left, node.right
        elif isinstance(node, ast.Compare):
            yield from zip((node.left, *node.comparators), node.comparators)


def flips():
    """[(path, line, column, operator)] for every flip in the package,
    path relative to ROOT, in path, line and column order."""
    found = []
    for path in sorted((ROOT / PACKAGE).glob("*.py")):
        with open(path, "rb") as f:
            ops = {tok.start: tok.string for tok in tokenize.tokenize(f.readline)
                   if tok.type == tokenize.OP and tok.string not in "()"}
        for left, right in _operands(ast.parse(path.read_text())):
            start = (left.end_lineno, left.end_col_offset)
            end = (right.lineno, right.col_offset)
            places = [p for p in ops if start <= p < end]
            # is, in and not are names, not operator tokens
            if len(places) == 1 and ops[places[0]] in TWINS:
                found.append((path.relative_to(ROOT), *places[0],
                              ops[places[0]]))
    return sorted(found)


def plant(source, flip):
    """source with the flip's operator replaced by its twin."""
    _, line, column, op = flip
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    assert text.startswith(op, column), flip
    lines[line - 1] = text[:column] + TWINS[op] + text[column + len(op):]
    return "".join(lines)


def _limit():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def run(copy, tests):
    """("caught", first failing test), ("survived", "") or ("timed out",
    "") for the tests at the paths tests in the copy."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    command = [sys.executable, "-m", "pytest", "-q", "-x",
               "--continue-on-collection-errors", "-p", "no:cacheprovider",
               "--basetemp", str(copy / ".tmp"), "--hypothesis-seed=0",
               "-W", "error", "-W",
               "ignore:mypy_extensions.TypedDict is deprecated:"
               "DeprecationWarning", *tests]
    env = {**os.environ, "PYTHONPATH": str(copy / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen(command, cwd=copy, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            start_new_session=True, preexec_fn=_limit)
    out = None
    try:
        out = proc.communicate(timeout=TIMEOUT)[0]
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:     # timed out, or this process interrupted
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if out is None:
        return "timed out", ""
    if proc.returncode == 0:
        return "survived", ""
    failed = [line.split(" - ")[0].split()[1] for line in out.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return "caught", failed[0] if failed else "exit %d" % proc.returncode


def report(chosen, tests=TESTS):
    """Run the tests at the paths tests on each flip of chosen, planted
    in a copy of the repository, and print one line per flip and the
    totals."""
    totals = {"caught": 0, "survived": 0, "timed out": 0}
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy,
                        ignore=lambda _, names: IGNORED.intersection(names))
        for flip in chosen:
            path = copy / flip[0]
            source = path.read_text()
            path.write_text(plant(source, flip))
            try:
                verdict, test = run(copy, tests)
            finally:
                path.write_text(source)
            totals[verdict] += 1
            print("%s:%d:%d  %s -> %s  %s  %s" % (
                *flip[:3], flip[3], TWINS[flip[3]], verdict, test), flush=True)
    print("caught %(caught)d, survived %(survived)d, timed out "
          "%(timed out)d" % totals)


def main():
    every = flips()
    chosen = sorted(random.Random(SEED).sample(every, SAMPLE))
    print("%d flips in %s, %d drawn with seed %d" % (
        len(every), PACKAGE, SAMPLE, SEED), flush=True)
    report(chosen)


if __name__ == "__main__":
    main()
