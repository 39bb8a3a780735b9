"""Print the lines of src/invseq that no benchmark request reaches.

Builds the requests of the three workloads with
``bench/workloads.build(workload, SEED, SECONDS)`` (read from bench/,
which this script does not edit) and replays them in order through
``invseq.cli.main``, with stdout and stderr captured, under
``sys.settrace``.  Tracing starts before the
package is imported, so its import-time lines count as reached.  A
module's executable lines are the line starts of its compiled code and
of every function and class in it.  For each module of src/invseq, one
line with its unreached and executable lines, then the unreached ones
as ranges; a module that no request imports shows every line.  The
three workloads at seed 0 and one second take about 1.1 s on a 2-core
x86-64 VM with CPython 3.11.  Standard library only:

    python3 tools/workload_lines.py
"""

import contextlib
import io
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "invseq"
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SEED = 0
SECONDS = 1


def executable_lines(path):
    """The line starts of a module's compiled code and of every function
    and class in it."""
    lines = set()
    codes = [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def replay(argvs, paths):
    """{path: lines reached} over paths, from running each argv through
    invseq.cli.main under a tracer."""
    reached = {path: set() for path in paths}

    def on_call(frame, event, arg):
        seen = reached.get(frame.f_code.co_filename)
        if seen is None:
            return None
        seen.add(frame.f_code.co_firstlineno)

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line
        return on_line

    sys.settrace(on_call)
    try:
        import invseq.cli
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    invseq.cli.main(argv)
                except SystemExit:
                    pass
    finally:
        sys.settrace(None)
    return reached


def ranges(numbers):
    """'3-5, 9' for [3, 4, 5, 9]."""
    out = []
    for n in sorted(numbers):
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in out)


def main():
    argvs = [r["argv"] for name in workloads.WORKLOADS
             for r in workloads.build(name, SEED, SECONDS)]
    paths = sorted(PACKAGE.glob("*.py"))
    reached = replay(argvs, [str(path) for path in paths])
    print("%d requests of %s, seed %d, %g s"
          % (len(argvs), ", ".join(workloads.WORKLOADS), SEED, SECONDS))
    for path in paths:
        every = executable_lines(path)
        unreached = every - reached[str(path)]
        print("%s: %d of %d executable lines unreached"
              % (path.relative_to(ROOT), len(unreached), len(every)))
        if unreached:
            print("    " + ranges(unreached))


if __name__ == "__main__":
    main()
