"""Import boundaries between the layers.

The routes to the counting numbers stay independent only while the code
keeps them apart, and one table pins the package imports of each route
module, at any depth: the core matcher, the polynomial layer and the
prefix registry import nothing of the package, the oracle nothing but
pattern validation, the succession DP nothing but the registry, and the
series layer the registry and the polynomial layer, so nothing of the
succession DP or the oracle.  The two census routes, which step the DP,
live in ``invseq.checks``.  The polynomial layer reads no relation,
neither it nor the series layer is imported with the package or the
command line but by the first request that reads it, and reading or
running the closed form or the functional-equation iteration loads no
rule system.  The command line reaches the checks through
the public registry in ``invseq.checks``, not through private names,
every per-process state is a Prefix in the registry of
``invseq.prefix``, the only functools caches hold pattern data and the
command line's parser, no module runs generated code (exec, eval or
compile), and the runtime imports nothing outside the standard
library.  The oracle's counting and listing step
one transition of its raw states.  Every top-level function and class
of the runtime is read by the package or exported, so none serves tests
alone, and every name that a top-level import binds is read in its
module.  These tests read the imports and definitions from the source
(``ast``), the names the functions load (``co_names`` and ``dis``), and
the registry after requests of every kind."""

import ast
import dis
import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

import invseq
from invseq import cli, oracle, poly, series
from invseq.checks import CHECKS, run_check
from invseq.prefix import _STATES, Prefix
from invseq.succession import RuleSystem


def _invseq_imports(source):
    """{(module name, imported name)} for every import of an invseq module
    in the source text, at any depth; a whole-module import has name
    None."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0 and not base.startswith("invseq"):
                continue
            base = "" if base == "invseq" else base.split(".")[-1]
            for alias in node.names:
                found.add((base, alias.name) if base else (alias.name, None))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("invseq."):
                    found.add((alias.name.split(".")[1], None))
    return found


def _imports_of(module):
    return _invseq_imports(inspect.getsource(module))


def test_the_import_reader_sees_every_form():
    text = ("from .a import x\nfrom . import b\nimport invseq.c\n"
            "from invseq.d import y\nfrom invseq import e\nimport os\n"
            "from os import path\ndef f():\n    from .g import z\n")
    assert _invseq_imports(text) == {("a", "x"), ("b", None), ("c", None),
                                     ("d", "y"), ("e", None), ("g", "z")}


# route module -> the (module, name) pairs of the package that it imports
ROUTE_IMPORTS = {
    "core": set(),
    "oracle": {("core", "validate_pattern")},
    "succession": {("prefix", "shared")},
    "series": {("prefix", "shared"), *(("poly", name) for name in (
        "linear_ode", "nonnegative_roots", "recurrence", "ydy"))},
    "poly": set(),
    "prefix": set(),
}


@pytest.mark.parametrize("name", ROUTE_IMPORTS)
def test_each_route_module_imports_exactly_its_row(name):
    """What a route module imports of the package, at module level or in
    a function body: the core matcher depends on no counting route, the
    oracle on pattern validation alone, and the closed form, the
    relations and the functional equations on neither the succession DP
    nor the oracle."""
    module = importlib.import_module("invseq." + name)
    assert _imports_of(module) == ROUTE_IMPORTS[name]


def _code_runners(source):
    """The lines of the source text that call exec, eval or the builtin
    compile, by name or through ``builtins``; ``re.compile`` and other
    methods of that name are not the builtin."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(
                    func.value, ast.Name) and func.value.id == "builtins":
                name = func.attr
            else:
                name = getattr(func, "id", None)
            if name in ("exec", "eval", "compile"):
                lines.add(node.lineno)
    return lines


def test_the_runtime_runs_no_generated_code():
    """No module of the package calls exec, eval or the builtin compile:
    core decides every word with code written in its source, the
    structure sweep included, and generates none at run time."""
    text = ("exec(s)\nx = eval('1')\nimport builtins\n"
            "builtins.compile(s, 'f', 'exec')\nre.compile('a')\n"
            "def f():\n    return compile(s, 'f', 'eval')\n")
    assert _code_runners(text) == {1, 2, 4, 7}
    for path in pathlib.Path(invseq.__file__).parent.glob("*.py"):
        assert not _code_runners(path.read_text()), path.name


def test_the_runtime_imports_only_the_standard_library():
    """Every absolute import in the package, at any depth, but those of
    the package itself, names a top-level module of the standard library
    (``sys.stdlib_module_names``, Python 3.10+)."""
    found = set()
    for path in pathlib.Path(invseq.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    found.discard("invseq")
    assert {"itertools", "operator"} <= found
    assert found <= sys.stdlib_module_names, found - sys.stdlib_module_names


def test_poly_reads_no_relation():
    """The polynomial layer derives an ODE from the coefficients it is
    handed: no code object of it loads a relation constant of
    ``invseq.series``."""
    loaded = _loads_by_owner([pathlib.Path(poly.__file__)])
    constants = {name for name in vars(series)
                 if name.startswith("MINPOLY_") or name == "CUBIC_010_102"}
    assert len(constants) == 4 and not constants & set(loaded)
    assert {"solve", "pmul", "ydy"} <= set(loaded)


_FOOTPRINT = """\
import contextlib, io, json, sys
marks = []
def mark(label, lazy=("invseq.series", "invseq.poly")):
    marks.append([label, sorted(name for name in sys.modules if name in lazy)])
def run(*argv):
    import invseq.cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert invseq.cli.main(list(argv)) == 0, argv
    mark(" ".join(argv))
"""


def _footprints(code, *flags):
    """[label, the lazily loaded modules then] for each mark(label) that
    code makes in a fresh interpreter run with flags, after the prelude
    _FOOTPRINT, whose run(*argv) serves one request and marks it;
    mark(label, lazy) looks for the modules lazy instead of series and
    poly."""
    src = str(pathlib.Path(invseq.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, *flags, "-c",
         _FOOTPRINT + code + "\nprint(json.dumps(marks))"],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src}).stdout
    return [tuple(pair) for pair in json.loads(out)]


def test_importing_the_package_neither_imports_nor_runs_poly():
    """The package's import and the command line's, with its parser,
    what ``setup_s`` times, leave ``invseq.series`` and ``invseq.poly``
    unimported: no series source is compiled before a request reads the
    closed form or a check reads series algebra, and no ODE is derived
    before a minpoly check asks (a relation route's first step imports
    poly).  The package's first read of a series name imports series."""
    assert _footprints(
        "import invseq\nmark('invseq')\n"
        "import invseq.cli\ninvseq.cli.build_parser()\nmark('cli')\n"
        "invseq.relation_residual\nmark('relation_residual')\n") == [
        ("invseq", []), ("cli", []), ("relation_residual", ["invseq.series"])]


_PACKAGE = tuple(
    "invseq" + ("" if path.stem == "__init__" else "." + path.stem)
    for path in pathlib.Path(invseq.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("read, loaded", [
    ("", []),
    ("avoids", ["invseq.core"]),
    ("count_sequence", ["invseq.core", "invseq.oracle"]),
    ("step", ["invseq.prefix", "invseq.succession"]),
    ("f_coefficients", ["invseq.prefix", "invseq.series"]),
    ("f_coefficients(60)", ["invseq.prefix", "invseq.series"]),
    ("iterate_fe('011-201', 20)", ["invseq.prefix", "invseq.series"]),
    ("iterate_fe('010-100-120-210', 20)", ["invseq.prefix", "invseq.series"]),
])
def test_a_read_of_the_package_root_imports_the_home_of_the_name(read, loaded):
    """``import invseq`` imports no other module of the package, and the
    first read of a public name imports its home module and what that
    imports, no more: reading ``f_coefficients``, and running it or
    ``iterate_fe`` on either system, imports neither the succession DP
    nor the oracle nor poly.  Each read runs in its own interpreter,
    under ``-S``, so that site preloads nothing."""
    code = "import invseq\n%s\nmark('read', %r)\n" % (
        "invseq." + read if read else "", _PACKAGE)
    assert _footprints(code, "-S") == [("read", ["invseq", *loaded])]


def test_no_request_imports_pickle():
    """A prefix keeps its checkpoints as the levels it stepped past (see
    ``invseq.prefix``), so no request loads pickle: not a count, not a
    profile below the memo's depth, which steps from a checkpoint, and
    not any check at its default depth."""
    requests = [("count", "--system", "201-210", "--n", "300"),
                ("profile", "--system", "201-210", "--n", "250"),
                *(("verify", "--check", name) for name in CHECKS)]
    code = "".join("run(*%r)\n" % (argv,) for argv in requests)
    marks = _footprints(code + "mark('pickle', ('pickle',))\n")
    assert [label for label, _ in marks] == [
        *(" ".join(argv) for argv in requests), "pickle"]
    assert marks[-1] == ("pickle", [])


def test_only_requests_that_read_series_load_it():
    """A request on a basis or on the rules, a listing, a profile, a
    diagram and the checks that read no series algebra leave series
    unloaded; the first gf request loads series alone, and the first
    minpoly check series and poly."""
    quiet = [("count", "--basis", "201,210", "--n", "6"),
             ("series", "--basis", "011,201", "--n-max", "6"),
             ("count", "--system", "201-210", "--n", "6"),
             ("list", "--basis", "011,201", "--n", "3"),
             ("profile", "--system", "201-210", "--n", "3"),
             ("diagram", "--system", "201-210", "--n-max", "2"),
             ("verify", "--check", "structure-theorem", "--n-max", "5"),
             ("verify", "--check", "oracle-vs-rules", "--n-max", "6"),
             ("verify", "--check", "wilf-011-201", "--n-max", "20")]
    gf = ("count", "--system", "201-210", "--method", "gf", "--n", "6")
    minpoly = ("verify", "--check", "minpoly-F", "--n-max", "10")
    code = "".join("run(*%r)\n" % (argv,) for argv in [*quiet, gf])
    assert _footprints(code) == [
        *((" ".join(argv), []) for argv in quiet),
        (" ".join(gf), ["invseq.series"])]
    assert _footprints("run(*%r)\n" % (minpoly,)) == [
        (" ".join(minpoly), ["invseq.poly", "invseq.series"])]


def test_cli_imports_no_private_name():
    assert not {(m, name) for m, name in _imports_of(cli)
                if name and name.startswith("_")}


def _loads_by_owner(paths):
    """{name: {(owner, by_attribute)}} over every code object of the
    modules at paths that loads the name: a LOAD_* instruction with a
    name (not LOAD_CONST) or IMPORT_FROM.  The owner is the (module,
    name) of the top-level function or class whose body holds the code
    object, or (module, the code's name) for module-level code and what
    it holds outside a definition; by_attribute tells an IMPORT_FROM,
    LOAD_ATTR or LOAD_METHOD, which may read another module's name, from
    a load of the module's own.  The modules are compiled from their
    source, not run."""
    owners = {}
    for path in paths:
        module = compile(path.read_text(), str(path), "exec")
        todo = [(module, (path.stem, module.co_name))]
        while todo:
            code, owner = todo.pop()
            for ins in dis.get_instructions(code):
                if (ins.opname == "IMPORT_FROM"
                        or ins.opname.startswith("LOAD_")
                        and ins.opname != "LOAD_CONST") \
                        and isinstance(ins.argval, str):
                    by_attribute = ins.opname in (
                        "IMPORT_FROM", "LOAD_ATTR", "LOAD_METHOD")
                    owners.setdefault(ins.argval, set()).add(
                        (owner, by_attribute))
            todo.extend((const, (path.stem, const.co_name)
                         if code is module else owner)
                        for const in code.co_consts
                        if isinstance(const, types.CodeType))
    return owners


def _orphans(paths, exported):
    """{(module, name)} for each top-level function or class of the
    modules at paths that exported does not name and that no code object
    loads outside its own body: by name in the same module, or as an
    attribute or an import in any.  A module's ``__getattr__`` is
    exempt: the interpreter calls it on a missing attribute (PEP 562),
    and no code loads it."""
    owners = _loads_by_owner(paths)
    orphans = set()
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and node.name != "__getattr__":
                defined = path.stem, node.name
                if node.name not in exported and not any(
                        owner != defined
                        and (owner[0] == path.stem or by_attribute)
                        for owner, by_attribute in owners.get(node.name, ())):
                    orphans.add(defined)
    return orphans


def test_the_orphan_reader_sees_calls_tables_imports_and_recursion(tmp_path):
    (tmp_path / "a.py").write_text(
        "def called(n):\n    return tabled(n) if n else called(n)\n"
        "def tabled(n):\n    return [tabled for _ in ()]\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def imported():\n    pass\n"
        "def exported():\n    pass\n"
        "class Named:\n    def method(self):\n        return Named\n"
        "def attribute():\n    pass\n"
        "def keyed():\n    return 'quoted'\n"
        "def quoted():\n    pass\n"
        "def twin():\n    pass\n"
        "TABLE = {'k': called}\n")
    (tmp_path / "b.py").write_text(
        "from .a import imported\nimport a\n"
        "def reader():\n    return a.attribute, a.keyed, twin\n"
        "def twin():\n    pass\n")
    (tmp_path / "c.py").write_text(
        "def __getattr__(name):\n    raise AttributeError(name)\n"
        "def __dir__():\n    return []\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert _orphans(paths, ["exported", "reader"]) == {
        ("a", "recursive"), ("a", "Named"), ("a", "quoted"), ("a", "twin"),
        ("c", "__dir__")}


def test_every_top_level_definition_is_read_or_exported():
    """No function or class of the runtime serves tests alone: each one
    defined at the top level of a module is loaded by some code object
    of the package outside its own body, or named in ``invseq.__all__``."""
    paths = sorted(pathlib.Path(invseq.__file__).parent.glob("*.py"))
    assert _orphans(paths, invseq.__all__) == set()


def _unread_imports(source):
    """The names that a top-level import of the source binds and that no
    expression of the source reads; ``import a.b`` binds a."""
    tree = ast.parse(source)
    bound = {alias.asname or alias.name.split(".")[0]
             for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


def test_the_unread_import_reader_sees_every_binding():
    assert _unread_imports(
        "import os.path\nimport sys as system\nfrom .a import b, c as d\n"
        "from .e import f, g\n"
        "def h():\n    import json\n    return os.path, f, json\n"
        "g = 1\n") == {"system", "b", "d", "g"}


def test_every_top_level_import_is_read():
    """Every name that a top-level import of a runtime module binds is
    read somewhere in that module."""
    unread = {(path.stem, name)
              for path in pathlib.Path(invseq.__file__).parent.glob("*.py")
              for name in _unread_imports(path.read_text())}
    assert unread == set()


def _loaded_names(fn):
    """The global names that fn loads, in its own code or in the code of
    the functions defined inside it."""
    names = set()
    codes = [fn.__code__]
    while codes:
        code = codes.pop()
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        names.update(code.co_names)
    return names


def test_counting_and_listing_step_one_raw_transition():
    """Only the shared transition of the oracle's raw (banned, seen)
    states reads the pair rules, and both the counting DP and the
    listing's forward pass step it."""
    functions = {name: obj for name, obj in vars(oracle).items()
                 if isinstance(obj, types.FunctionType)
                 and obj.__module__ == oracle.__name__}
    assert {name for name, fn in functions.items()
            if "_pair_rules" in _loaded_names(fn)} == {"_raw_children"}
    for name in ("_count_raw", "listing_text"):
        assert "_raw_children" in _loaded_names(functions[name]), name


def _empty_container(node):
    """Whether the expression is an empty dict, list or set: a display or
    a call of dict, list or set with no arguments."""
    if isinstance(node, (ast.Dict, ast.List)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "list", "set")
            and not node.args and not node.keywords)


def test_the_registry_is_the_only_module_state():
    """The only module-level name bound to an empty container is the
    registry, and a rule system is not a Prefix."""
    bound = set()
    for path in pathlib.Path(invseq.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            if _empty_container(node.value):
                bound.update((path.stem, ast.unparse(t)) for t in targets)
    assert bound == {("prefix", "_STATES")}
    assert not issubclass(RuleSystem, Prefix)


def test_only_the_basis_compiler_and_the_parser_are_cached():
    """Every functools cache or lru_cache of the runtime decorates
    core._compile, which holds pattern data only, or cli._parser, which
    hands out a fresh Namespace on every parse, so no count is kept
    outside the registry."""
    cached = []
    for path in pathlib.Path(invseq.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        owner = {}  # each node of a decorator -> the function it decorates
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    owner.update((part, node.name)
                                 for part in ast.walk(decorator))
        for node in ast.walk(tree):
            name = getattr(node, "attr", getattr(node, "id", None))
            if (isinstance(node, (ast.Attribute, ast.Name))
                    and name in ("cache", "lru_cache")):
                cached.append((path.stem, owner.get(node)))
    assert sorted(cached) == [("cli", "_parser"), ("core", "_compile")]


def test_every_state_in_the_registry_is_a_prefix(capsys):
    """After every check at its default depth and one request of each
    command, every value in the registry is a Prefix, and evaluating a
    relation, under a check's name or another, leaves every entry as it
    was."""
    for name in CHECKS:
        assert run_check(name)[0], name
    for argv in (["count", "--system", "201-210", "--n", "8"],
                 ["series", "--system", "201-210", "--n-max", "8",
                  "--method", "gf", "--format", "csv"],
                 ["list", "--basis", "011,201", "--n", "3"],
                 ["profile", "--system", "201-210", "--n", "3"],
                 ["diagram", "--system", "201-210", "--n-max", "2"],
                 ["verify", "--check", "minpoly-B", "--n-max", "20"]):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    assert all(isinstance(state, Prefix) for state in _STATES.values())
    before = dict(_STATES)
    memos = [state._memo for state in before.values()]
    y = series.f_coefficients(30)
    for relation in (series.MINPOLY_A, series.MINPOLY_B, series.MINPOLY_F,
                     series.CUBIC_010_102,
                     series.PolyRelation("other", ((1,), (-1,)))):
        series.relation_residual(relation, y)
    assert _STATES == before
    assert all(state._memo is memo
               for state, memo in zip(_STATES.values(), memos))
