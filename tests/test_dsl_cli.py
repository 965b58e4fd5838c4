"""Text formats and the command-line front end."""

import argparse
import ast
import contextlib
import copy
import errno
import functools
import graphlib
import importlib
import inspect
import io
import json
import os
import pickle
import re
import string
import subprocess
import sys as _sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import countsys
from countsys.analysis import _cmd_analyze
from countsys.biadd import (
    _cmd_free_report, _cmd_mul, derive_multiplication_indexed,
)
from countsys.cli import _help, _parse_args, _COMMANDS, _UsageError, run_cli
from countsys.closure import _cmd_closure
from countsys.core import (
    Carrier, EndoMap, ExtensionConflict, minimal_core, new_system, product,
)
from countsys.derive import MonoidTable, _cmd_add, derive_addition
from countsys.dsl import (
    _cmd_core, _cmd_omega, _cmd_product, _cmd_validate, _json, emit_system,
    parse_odot, parse_system,
)
from countsys.errors import (
    CountingSystemError,
    ExtensionVerdict,
    InternalInvariantViolation,
    ParseError,
)
from countsys.fixtures import SIGN_ODOT_LINES, cyc, rho, zpair
from countsys.morphisms import (
    _cmd_free_eval, _cmd_initial, _cmd_morphism, morphism_find,
)
from test_closure import cycles
from test_golden import (
    GOLDEN, GROUPS, NONMIN, case as golden_case, write_inputs,
)
from test_laws import C2XC3, C2XC3_GENS, _shifts

CYC3 = """\
# a three-cycle
system cyc3
elements a b c
base a
map s = b c a
"""


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def process(args, unbuffered=False, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, **kwargs):
    """(exit code, stdout, stderr) of `python args...` on this countsys, with
    stdout block-buffered unless `unbuffered` (PYTHONUNBUFFERED=1)."""
    src = os.path.dirname(os.path.dirname(countsys.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run([_sys.executable, *args], stdout=stdout,
                          stderr=stderr, env=env, timeout=120, **kwargs)
    return proc.returncode, proc.stdout, proc.stderr


def fresh_stdout(probe, *argv):
    """What `python -c probe argv...` prints, run on this countsys."""
    code, out, err = process(["-c", probe, *argv])
    assert code == 0, err.decode()
    return out.decode()


def test_parse_system_basic():
    doc = parse_system(CYC3)
    assert doc.name == "cyc3"
    assert doc.system.carrier.labels == ("a", "b", "c")
    assert doc.system.base == 0
    assert doc.system.maps[0].table == (1, 2, 0)


def test_parse_rejects_unknown_declaration():
    with pytest.raises(ParseError) as exc:
        parse_system("system x\nfrobnicate y\n")
    assert exc.value.line == 2


def test_parse_rejects_missing_sections():
    with pytest.raises(ParseError):
        parse_system("system x\nelements a\nbase a\n")  # no maps
    with pytest.raises(ParseError):
        parse_system("elements a\nbase a\nmap s = a\n")  # no name


def test_parse_rejects_bad_base_and_images():
    with pytest.raises(ParseError) as exc:
        parse_system("system x\nelements a b\nbase c\nmap s = a b\n")
    assert "base" in exc.value.reason
    with pytest.raises(ParseError) as exc:
        parse_system("system x\nelements a b\nbase a\nmap s = a q\n")
    assert "image" in exc.value.reason


def test_parse_rejects_wrong_image_count():
    with pytest.raises(ParseError):
        parse_system("system x\nelements a b\nbase a\nmap s = a\n")


def test_parse_rejects_duplicate_map_label():
    text = "system x\nelements a b\nbase a\nmap s = b a\nmap s = a b\n"
    with pytest.raises(ParseError) as exc:
        parse_system(text)
    assert exc.value.line == 5


@pytest.mark.parametrize("text, line, col", [
    ("system x\nelements a b\n   base    q\nmap s = a b\n", 3, 12),
    ("system x\nelements a b\nbase a\nmap s = b a\n  map   s = a b\n", 5, 9),
], ids=["unknown-base", "duplicate-map-label"])
def test_parse_error_column_is_the_tokens_column_in_the_source(text, line, col):
    with pytest.raises(ParseError) as exc:
        parse_system(text)
    assert (exc.value.line, exc.value.col) == (line, col)


def test_parse_validation_errors_pass_through():
    # two well-formed but non-commuting maps: the structural error is not a
    # parse error
    from countsys.errors import NonCommuting

    text = "system x\nelements a b c\nbase a\nmap s = b a c\nmap t = a c b\n"
    with pytest.raises(NonCommuting):
        parse_system(text)


def test_emit_parse_round_trip_on_fixtures():
    for sys in [cyc(5), rho(2, 3), zpair(4)]:
        doc = parse_system(emit_system(sys, name="x"))
        assert doc.system.carrier.labels == sys.carrier.labels
        assert doc.system.base == sys.base
        assert doc.system.index_set == sys.index_set
        assert [f.table for f in doc.system.maps] == [f.table for f in sys.maps]


@given(st.integers(1, 12))
def test_emit_parse_round_trip_cyclic(n):
    doc = parse_system(emit_system(cyc(n)))
    assert doc.system.maps[0].table == cyc(n).maps[0].table


_LABEL = st.text(string.ascii_letters + string.digits + "()+-_,.'",
                 min_size=1, max_size=4)


@st.composite
def commuting_systems(draw):
    """Small systems whose maps are powers of one map, so they commute."""
    n = draw(st.integers(1, 6))
    f = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    maps = []
    for e in draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)):
        g = list(range(n))
        for _ in range(e):
            g = [f[x] for x in g]
        maps.append(EndoMap(tuple(g)))
    elements = draw(st.lists(_LABEL, min_size=n, max_size=n, unique=True))
    labels = draw(st.lists(_LABEL, min_size=len(maps), max_size=len(maps),
                           unique=True))
    base = draw(st.integers(0, n - 1))
    return new_system(Carrier(tuple(elements)), base, tuple(labels), maps)


@given(commuting_systems(), _LABEL)
def test_emit_parse_round_trip_random(sys, name):
    text = emit_system(sys, name=name)
    assert text == emit_per_element(sys, name)
    doc = parse_system(text)
    assert doc.name == name
    assert doc.system == sys


def emit_per_element(sys, name):
    """emit_system's text, written one image at a time."""
    labels = sys.carrier.labels
    lines = [f"system {name}", "elements " + " ".join(labels),
             f"base {labels[sys.base]}"]
    for s, f in zip(sys.index_set, sys.maps):
        imgs = " ".join(labels[f(i)] for i in range(sys.size))
        lines.append(f"map {s} = {imgs}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("sys", [cyc(1), cyc(2), rho(2, 3), zpair(3),
                                 product(cyc(4), zpair(3))],
                         ids=["cyc1", "cyc2", "rho23", "zpair3", "product"])
def test_emit_system_matches_the_per_element_text_on_fixtures(sys):
    assert emit_system(sys, name="x") == emit_per_element(sys, "x")


_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(alphabet=st.sampled_from('ab"\\/\n\t\x00\x1fé€😀 '), max_size=6),
    st.text(max_size=6))
_DATA = st.recursive(
    _SCALAR,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=20)


@given(_DATA)
def test_json_writes_the_text_of_json_dumps(value):
    """_json's pieces are what json.dumps(indent=2, sort_keys=True) writes:
    empty and nested containers, bools among ints, and escaped strings."""
    assert "".join(_json(value)) == json.dumps(value, indent=2, sort_keys=True)


def test_json_writes_the_text_of_json_dumps_on_edge_cases():
    for value in [[], {}, [[]], [{}], {"a": []}, [True, 1, None, 0.5],
                  ["q\"b\\c\u0001é"], {"b": [1, [2]], "a": {"c": ()}}]:
        assert "".join(_json(value)) == json.dumps(value, indent=2,
                                                   sort_keys=True)


_STRING = st.text(alphabet=st.sampled_from('ab"\\/\n\t\x00\x1fé€😀 +-'),
                  max_size=4)
_STRING_LISTS = st.recursive(
    st.lists(_STRING, max_size=4) | st.lists(_STRING, max_size=4).map(tuple),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_STRING, inner, max_size=4),
    max_leaves=12)


@given(_STRING_LISTS)
def test_json_writes_lists_of_strings_as_json_dumps_does(value):
    """Lists of strings, such as closure --json's words, as json.dumps
    writes them: nested in lists and objects, empty or of one item, and
    with strings that need escapes or are not ASCII."""
    assert "".join(_json(value)) == json.dumps(value, indent=2, sort_keys=True)


def test_json_writes_lists_of_strings_as_json_dumps_does_on_edge_cases():
    for value in [[""], ["a"], ("a", "b"), [[], ["s"], ["s", "t"]],
                  {"words": [[], ["+"], ["+", "-"]], "size": 3},
                  ["é", "€😀", "q\"b\\c", "\n\t\x00\x1f", "/"],
                  [["a", None], ["a", 1], ["a", ["b"]]]]:
        assert "".join(_json(value)) == json.dumps(value, indent=2,
                                                   sort_keys=True)


_TOKENS = ["system", "elements", "base", "map", "odot", "unit", "=", "a",
           "b", "s", "t", "+", "-", "#", "a#b", "\t", "(s,s)", "e0", "é"]
_TEXT = st.one_of(
    st.text(max_size=200),
    st.lists(st.lists(st.sampled_from(_TOKENS), max_size=7).map(" ".join),
             max_size=8).map("\n".join),
)


@given(_TEXT)
def test_parsers_raise_only_structured_errors(text):
    for parse in (parse_system, parse_odot,
                  lambda t: parse_odot(t, index_set=("+", "-"))):
        try:
            parse(text)
        except CountingSystemError:
            pass


def test_parse_odot_sign_table():
    od = parse_odot("\n".join(SIGN_ODOT_LINES))
    assert od.unit == "+"
    assert od.op[("-", "-")] == "+"
    assert od.op[("+", "-")] == od.op[("-", "+")] == "-"


def test_parse_odot_rejects_missing_header_and_duplicates():
    with pytest.raises(ParseError):
        parse_odot("+ + = +\n")
    with pytest.raises(ParseError):
        parse_odot("odot\n+ + = +\n+ + = -\n")


# -- CLI ---------------------------------------------------------------------

def test_cli_validate_ok(tmp_path):
    path = write(tmp_path, "c.csys", CYC3)
    code, out, err = run(["validate", path])
    assert code == 0
    assert "cyc3" in out


def test_cli_reads_a_file_saved_with_a_byte_order_mark(tmp_path):
    """A UTF-8 byte-order mark before a system or an odot document is not
    part of its first line: the command reads the file as without it."""
    system = emit_system(zpair(5), name="z5")
    odot = "\n".join(SIGN_ODOT_LINES) + "\n"
    plain = [write(tmp_path, "z.csys", system),
             write(tmp_path, "sign.odot", odot)]
    marked = [write(tmp_path, "z_bom.csys", "\ufeff" + system),
              write(tmp_path, "sign_bom.odot", "\ufeff" + odot)]
    assert Path(marked[0]).read_bytes()[:3] == b"\xef\xbb\xbf"
    assert run(["validate", marked[0]]) == (
        0, "ok: z5 (5 elements, 2 maps)\n", "")
    expected = run(["mul", plain[0], "--odot", plain[1]])
    assert expected[0] == 0
    assert run(["mul", marked[0], "--odot", marked[1]]) == expected
    assert run(["mul", plain[0], "--odot", marked[1]]) == expected


@pytest.mark.parametrize("command, flags", [
    ("validate", []), ("closure", []), ("add", []), ("mul", []),
    ("mul", ["--odot"]), ("free-report", []), ("initial", []),
    ("analyze", []),
], ids=["validate", "closure", "add", "mul", "mul-odot", "free-report",
        "initial", "analyze"])
def test_cli_never_loads_numpy(tmp_path, command, flags):
    """Every law is plain Python, so a fresh interpreter running a command of
    the derive path never executes numpy."""
    path = write(tmp_path, "c.csys", CYC3)
    if flags:
        flags = [*flags, write(tmp_path, "s.odot", "odot\ns s = s\nunit s\n")]
    probe = (
        "import sys\n"
        "from countsys.cli import run_cli\n"
        "code = run_cli(sys.argv[1:])\n"
        "print(code, any(m.startswith('numpy.') for m in sys.modules))\n"
    )
    out = fresh_stdout(probe, command, path, *flags)
    assert out.splitlines()[-1] == "0 False"


# an argv of each command on {c}, a system, and {o}, an odot, with the
# countsys modules it loads beyond cli, dsl, core and errors
COMMAND_MODULES = [
    (["validate", "{c}"], set()),
    (["core", "{c}"], set()),
    (["omega", "{c}"], set()),
    (["product", "{c}", "{c}"], set()),
    (["morphism", "{c}", "{c}"], {"morphisms"}),
    (["free-eval", "{c}", "--multiset", "s:2"], {"morphisms"}),
    (["initial", "{c}"], {"morphisms"}),
    (["analyze", "{c}"], {"analysis", "morphisms"}),
    (["closure", "{c}"], {"closure"}),
    (["closure", "{c}", "--full"], {"closure"}),
    (["add", "{c}"], {"derive", "laws"}),
    (["mul", "{c}"], {"derive", "biadd", "laws"}),
    (["mul", "{c}", "--odot", "{o}"], {"derive", "biadd", "laws"}),
    (["free-report", "{c}"], {"derive", "biadd", "laws"}),
]
COMMAND_IDS = ["validate", "core", "omega", "product", "morphism",
               "free-eval", "initial", "analyze", "closure", "closure-full",
               "add", "mul", "mul-odot", "free-report"]


@pytest.mark.parametrize("argv, extra", COMMAND_MODULES, ids=COMMAND_IDS)
def test_cli_loads_only_the_modules_of_its_command(tmp_path, argv, extra):
    """A fresh interpreter running one command imports the parser's modules
    and those of that command, and no other countsys module: only the
    commands that certify a table load `laws`.  Every law is
    plain Python and every record is built from its field list by a plain
    constructor, so it imports neither numpy nor dataclasses, nor the
    introspection modules (inspect, ast, dis, tokenize).  The command line
    is read by the command table, so neither argparse nor the gettext and
    locale modules it pulls in are loaded."""
    files = {"c": write(tmp_path, "c.csys", CYC3),
             "o": write(tmp_path, "s.odot", "odot\ns s = s\nunit s\n")}
    probe = (
        "import io, sys\n"
        "before = set(sys.modules)\n"
        "from countsys.cli import run_cli\n"
        "code = run_cli(sys.argv[1:], out=io.StringIO())\n"
        "new = set(sys.modules) - before\n"
        "print(code, *sorted(m for m in new if m.split('.')[0] in\n"
        "                    ('countsys', 'numpy', 'dataclasses', 'inspect',\n"
        "                     'ast', 'dis', 'tokenize', 'argparse', 'gettext',\n"
        "                     'locale')))\n"
    )
    out = fresh_stdout(probe, *(a.format(**files) for a in argv))
    code, *loaded = out.split()
    assert code == "0"
    names = {"cli", "dsl", "core", "errors"} | extra
    assert set(loaded) == {"countsys"} | {f"countsys.{m}" for m in names}


@pytest.mark.parametrize("argv, extra", COMMAND_MODULES, ids=COMMAND_IDS)
def test_cli_run_as_main_never_imports_countsys_cli(tmp_path, argv, extra):
    """`python -m countsys.cli` runs cli.py as `__main__`, so a handler that
    imported `countsys.cli` would compile and run it a second time.  The
    probe runs the module as `python -m` does and lists the countsys modules
    loaded when main() ends the process."""
    files = {"c": write(tmp_path, "c.csys", CYC3),
             "o": write(tmp_path, "s.odot", "odot\ns s = s\nunit s\n")}
    probe = (
        "import os, runpy, sys\n"
        "def end(code, _exit=os._exit):\n"
        "    print(code, *sorted(m for m in sys.modules\n"
        "                        if m.startswith('countsys.')), flush=True)\n"
        "    _exit(0)\n"
        "os._exit = end\n"
        "runpy.run_module('countsys.cli', run_name='__main__', alter_sys=True)\n"
    )
    out = fresh_stdout(probe, *(a.format(**files) for a in argv))
    code, *loaded = out.splitlines()[-1].split()
    assert code == "0"
    names = {"dsl", "core", "errors"} | extra
    assert set(loaded) == {f"countsys.{m}" for m in names}


def relative_imports():
    """Module -> the countsys modules it imports by a relative import, at
    module level or inside a function, read from the package's source."""
    graph = {}
    for path in sorted(Path(countsys.__file__).parent.glob("*.py")):
        deps = graph.setdefault(path.stem, set())
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:  # from .core import x
                    deps.add(node.module.split(".")[0])
                else:  # from . import laws
                    deps.update(alias.name for alias in node.names)
    return graph


def test_the_package_imports_downward_only():
    """The relative imports of countsys form no cycle, lazy ones included:
    `core` names its own commuting witness, and `dsl`, which every command
    loads, imports no construction module.  `cli` is only the grammar and
    the outcome map, and imports only `errors`: every handler is a
    `_cmd_<command>` of the module its `_COMMANDS` entry names."""
    graph = relative_imports()
    order = list(graphlib.TopologicalSorter(graph).static_order())
    assert sorted(order) == sorted(graph)
    assert graph["errors"] == set()
    assert graph["core"] == {"errors"}
    assert graph["dsl"] == {"core", "errors"}
    assert graph["cli"] == {"errors"}
    cli_source = ast.parse(Path(countsys.__file__).with_name(
        "cli.py").read_text(encoding="utf-8"))
    assert not [node.name for node in ast.walk(cli_source)
                if isinstance(node, ast.FunctionDef)
                and node.name.startswith("_cmd_")]
    for command, (module, _usage) in _COMMANDS.items():
        assert module in graph
        handler = "_cmd_" + command.replace("-", "_")
        assert callable(getattr(
            importlib.import_module(f"countsys.{module}"), handler))


def streams_written(fn):
    """What `fn` writes to: "print" for a print call, and the stream of
    each `<stream>.write(...)` or `<stream>.writelines(...)` call."""
    written = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            written.add("print")
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in ("write", "writelines")):
            written.add(ast.unparse(node.func.value))
    return written


def test_only_run_cli_decides_an_outcome():
    """A handler only answers: it takes (args), is a generator of its
    output's text pieces, returns nothing and writes nothing.  The exit
    codes are bound only in `cli`, and `run_cli` alone writes: stdout in
    blocks of pieces and every stderr line.  No function prints."""
    handlers, writers, binders = [], set(), set()
    for path in sorted(Path(countsys.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            writers.update((path.stem, fn.name, stream)
                           for stream in streams_written(fn))
            if fn.name.startswith("_cmd_"):
                handlers.append(fn.name)
                assert [a.arg for a in fn.args.args] == ["args"], fn.name
                assert not fn.args.kwonlyargs and not fn.args.vararg, fn.name
                assert not [node for node in ast.walk(fn)
                            if isinstance(node, ast.Return)
                            and node.value is not None], fn.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names = [node.id]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            if any(name.startswith("EXIT_") for name in names):
                binders.add(path.stem)
    assert sorted(handlers) == sorted(
        "_cmd_" + command.replace("-", "_") for command in _COMMANDS)
    for command, (module, _usage) in _COMMANDS.items():
        assert inspect.isgeneratorfunction(getattr(importlib.import_module(
            f"countsys.{module}"), "_cmd_" + command.replace("-", "_")))
    assert inspect.isgeneratorfunction(_help)
    assert writers == {("cli", "run_cli", "out"), ("cli", "run_cli", "err")}
    assert binders == {"cli"}


def test_one_kernel_walks_and_checks_every_extension():
    """Every morphism, homomorphism, section and projection is found by the
    one extension kernel, core._extend: it alone checks a walk
    (_intertwined), and a walk is made only by it and by biadd._rows,
    which walks the rows of a multiplication whose sections it checked."""
    refs = {"_walk": set(), "_intertwined": set()}
    for path in sorted(Path(countsys.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                name = getattr(node, "id", getattr(node, "attr", None))
                if name in refs and isinstance(node, (ast.Name,
                                                      ast.Attribute)):
                    refs[name].add((path.stem, fn.name))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.name in refs:
                        refs[alias.name].add((path.stem, "import"))
    assert refs["_intertwined"] == {("core", "_extend")}
    assert refs["_walk"] == {("core", "_extend"), ("biadd", "_rows"),
                             ("biadd", "import")}


def test_one_walk_follows_every_search_tree():
    """Every value made along a search tree (an addition's rows, a
    closure's maps, words and depths) is made by core._along; only
    core._walk, the integer walk of _extend and biadd._rows, loops over a
    tree's edges too."""
    loops = set()
    for path in sorted(Path(countsys.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    it = getattr(node, "iter", None)
                    if isinstance(it, ast.Attribute) and it.attr == "edges":
                        loops.add((path.stem, fn.name))
    assert loops == {("core", "_along"), ("core", "_walk")}


def test_importing_the_cli_loads_only_errors():
    """`cli` imports only `errors`; a command's own modules are imported
    once its command line is read."""
    probe = ("import sys\n"
             "import countsys.cli\n"
             "print(*sorted(m for m in sys.modules\n"
             "             if m.split('.')[0] == 'countsys'))\n")
    assert fresh_stdout(probe).split() == [
        "countsys", "countsys.cli", "countsys.errors"]


def test_every_source_parses_as_python_3_10():
    """pyproject.toml declares Python 3.10, so the package, its tests and
    the benchmark use no later syntax (a check of syntax only, not of the
    3.10 runtime)."""
    root = Path(__file__).resolve().parent.parent
    paths = [path for pattern in ("src/countsys/*.py", "tests/*.py",
                                  "bench/*.py")
             for path in sorted(root.glob(pattern))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=(3, 10))
    with pytest.raises(SyntaxError):  # 3.11's except* is refused
        ast.parse("try:\n    pass\nexcept* OSError:\n    pass\n",
                  feature_version=(3, 10))


def test_parse_odot_loads_no_construction_module():
    """`OdotTable` sits with its parser, so reading an odot loads only
    `dsl` and what it imports; `biadd`, which builds odots, still has it."""
    from countsys import biadd, dsl
    assert countsys.OdotTable is dsl.OdotTable is biadd.OdotTable
    probe = (
        "import sys\n"
        "from countsys.dsl import parse_odot\n"
        "table = parse_odot('odot\\ns s = s\\nunit s\\n')\n"
        "print(type(table).__name__, *sorted(\n"
        "    m for m in sys.modules if m.split('.')[0] == 'countsys'))\n"
    )
    assert fresh_stdout(probe).split() == [
        "OdotTable", "countsys", "countsys.core", "countsys.dsl",
        "countsys.errors"]


def test_a_non_commuting_system_is_named_without_the_laws():
    """`noncommuting` names its witness itself: a system whose maps do not
    commute is refused, with the first failing element, and `laws` is
    never loaded."""
    probe = (
        "import sys\n"
        "from countsys.core import Carrier, EndoMap, new_system\n"
        "from countsys.errors import NonCommuting\n"
        "try:\n"
        "    new_system(Carrier(('a', 'b', 'c')), 0, ('s', 't'),\n"
        "               (EndoMap((1, 2, 0)), EndoMap((1, 0, 2))))\n"
        "except NonCommuting as exc:\n"
        "    print(exc.s, exc.t, exc.x, 'countsys.laws' in sys.modules)\n"
    )
    assert fresh_stdout(probe) == "s t 0 False\n"


def test_package_names_resolve_lazily_to_their_submodules():
    assert len(countsys.__all__) == 49
    for name in countsys.__all__:
        obj = getattr(countsys, name)
        assert obj is getattr(importlib.import_module(obj.__module__), name)
        assert name in dir(countsys)
    with pytest.raises(AttributeError, match="no_such_name"):
        countsys.no_such_name
    probe = (
        "import sys\n"
        "import countsys\n"
        "loaded = [m for m in sys.modules if m.startswith('countsys.')]\n"
        "names = {}\n"
        "exec('from countsys import *', names)\n"
        "print(loaded, sorted(set(names) - {'__builtins__'})\n"
        "      == sorted(countsys.__all__))\n"
    )
    assert fresh_stdout(probe) == "[] True\n"


def test_cli_parse_error_exits_2(tmp_path):
    path = write(tmp_path, "bad.csys", "system x\nwhat\n")
    code, out, err = run(["validate", path])
    assert code == 2
    assert "parse error" in err


def test_cli_missing_file_exits_2():
    code, out, err = run(["validate", "/no/such/file"])
    assert code == 2


def test_cli_input_over_the_cap_exits_2(tmp_path, monkeypatch):
    """An input of MAX_INPUT_CHARS characters is read; one more is an
    InputTooLarge, exit 2 with one `error:` line."""
    path = write(tmp_path, "c.csys", CYC3)
    monkeypatch.setattr(countsys.dsl, "MAX_INPUT_CHARS", len(CYC3))
    assert run(["validate", path])[0] == 0
    monkeypatch.setattr(countsys.dsl, "MAX_INPUT_CHARS", len(CYC3) - 1)
    assert run(["validate", path]) == (
        2, "", f"error: input {path!r} holds more than {len(CYC3) - 1} "
        "characters\n")


@pytest.mark.parametrize("path", ["/dev/zero", "/dev/stdin"])
def test_main_an_endless_input_exits_2(path):
    """/dev/zero, directly or as stdin, is read up to the input cap only."""
    if not os.path.exists("/dev/zero"):
        pytest.skip("no /dev/zero on this system")
    with open("/dev/zero", "rb") as zero:
        got = process(["-m", "countsys.cli", "validate", path], stdin=zero)
    limit = countsys.dsl.MAX_INPUT_CHARS
    assert got == (2, b"", f"error: input {path!r} holds more than {limit} "
                   "characters\n".encode())


MEMORY_PROBE = """\
import resource, sys
from countsys.cli import main
# the address space this process has now, and 32 MiB more: too little to
# read up to the input cap
size = int(open("/proc/self/statm").read().split()[0])
limit = size * resource.getpagesize() + (32 << 20)
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
if hard != resource.RLIM_INFINITY:
    limit = min(limit, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
main()
"""


def test_main_out_of_memory_exits_2():
    """A MemoryError that no declared limit predicted exits 2 with one
    `error:` line; the address-space limit is set in the child only."""
    pytest.importorskip("resource")
    if not os.path.exists("/proc/self/statm") or not os.path.exists(
            "/dev/zero"):
        pytest.skip("needs /proc/self/statm and /dev/zero")
    got = process(["-c", MEMORY_PROBE, "validate", "/dev/zero"])
    assert got == (2, b"", b"error: out of memory\n")


CYC1_OUTPUT = {
    ("add",): "\te0\ne0\te0\n",
    ("mul",): "\te0\ne0\te0\n",
    ("closure", "--full"): "size: 1\ngenerator s: 0\n\t0\n0\t0\n",
    ("core",): "system c1_core\nelements e0\nbase e0\nmap s = e0\n",
    ("omega",): "system c1_omega\nelements e0 omega\nbase omega\n"
                "map s = e0 e0\n",
    ("morphism",): "e0\te0\n",
}


@pytest.mark.parametrize("argv", list(CYC1_OUTPUT), ids=" ".join)
def test_cli_on_one_point(tmp_path, argv):
    """Every gather of these commands has one index on cyc(1)."""
    path = write(tmp_path, "c1.csys", emit_system(cyc(1), name="c1"))
    paths = [path, path] if argv == ("morphism",) else [path]
    assert run([*argv, *paths]) == (0, CYC1_OUTPUT[argv], "")


def test_cli_core_of_one_point(tmp_path):
    """A core of one element is relabelled through one-index gathers."""
    text = "system r\nelements a b\nbase b\nmap s = b b\n"
    path = write(tmp_path, "r.csys", text)
    assert run(["core", path]) == (
        0, "system r_core\nelements b\nbase b\nmap s = b\n", "")


def test_cli_add_emits_tsv(tmp_path):
    path = write(tmp_path, "c.csys", CYC3)
    code, out, err = run(["add", path])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "\ta\tb\tc"
    assert lines[1] == "a\ta\tb\tc"
    assert lines[2] == "b\tb\tc\ta"


def test_cli_add_requires_minimal_input(tmp_path):
    text = "system x\nelements a b\nbase a\nmap s = a b\n"
    path = write(tmp_path, "x.csys", text)
    code, out, err = run(["add", path])
    assert code == 2
    code, out, err = run(["--auto-core", "add", path])
    assert code == 0
    assert out.splitlines()[0] == "\ta"


# two single-map systems with an unreachable element each, and a target
# whose core is a three-cycle
NONMIN_A = "system na\nelements z a b c\nbase a\nmap s = b b c a\n"
NONMIN_B = "system nb\nelements p q y r\nbase p\nmap s = q r r r\n"
NONMIN_CYC3 = "system t\nelements z p q r\nbase p\nmap s = p q r p\n"


def test_auto_core_applies_to_every_input(tmp_path):
    """--auto-core replaces every system a command reads by its core:
    `omega` and `product` print what they print on the cores, under the
    same names.  A morphism from a minimal source lands in the target's
    core, whose labels `minimal_core` keeps, so `morphism` prints the same
    lines, or the same absence, as without the flag."""
    paths, cores = {}, {}
    for name, text in (("a", NONMIN_A), ("b", NONMIN_B), ("n", NONMIN)):
        doc = parse_system(text)
        paths[name] = write(tmp_path, f"{name}.csys", text)
        cores[name] = write(tmp_path, f"{name}_core.csys", emit_system(
            minimal_core(doc.system), name=doc.name))
    for name in "ab":
        got = run(["--auto-core", "omega", paths[name]])
        assert got == run(["omega", cores[name]]) != run(
            ["omega", paths[name]])
        assert got[0] == 0
    for a, b in ("ab", "na", "bn"):
        got = run(["--auto-core", "product", paths[a], paths[b]])
        assert got == run(["product", cores[a], cores[b]]) != run(
            ["product", paths[a], paths[b]])
        assert got[0] == 0
    dst = write(tmp_path, "t.csys", NONMIN_CYC3)
    codes = []
    for i, sys_ in enumerate([cyc(3), cyc(6), rho(1, 2)]):
        src = write(tmp_path, f"src{i}.csys", emit_system(sys_))
        got = run(["--auto-core", "morphism", src, dst])
        assert got == run(["morphism", src, dst])
        codes.append(got[0])
    assert codes == [0, 0, 1]


def test_cli_mul_single_map(tmp_path):
    path = write(tmp_path, "c.csys", CYC3)
    code, out, err = run(["mul", path])
    assert code == 0
    assert out.splitlines()[2] == "b\ta\tb\tc"


def test_cli_mul_indexed(tmp_path):
    sys_path = write(tmp_path, "z.csys", emit_system(zpair(5), name="z5"))
    od_path = write(tmp_path, "sign.odot", "\n".join(SIGN_ODOT_LINES) + "\n")
    code, out, err = run(["mul", sys_path, "--odot", od_path])
    assert code == 0
    # row e2: e2 * e3 = e1 (mod 5)
    assert out.splitlines()[3].split("\t")[4] == "e1"


@pytest.mark.parametrize("table, message", [
    (SIGN_ODOT_LINES[:-1] + ("unit -",),
     "'-' is not a two-sided unit: - + = -"),
    (("odot", "+ + = +", "+ - = -", "- + = +", "- - = -", "unit +"),
     "'+' is not a two-sided unit: - + = +"),
    (SIGN_ODOT_LINES[:-1] + ("unit q",), "unknown unit label 'q'"),
    (SIGN_ODOT_LINES[:-1] + ("q q = q",), "unknown label 'q'"),
    (SIGN_ODOT_LINES[:-1] + ("+ q = +",), "unknown label 'q'"),
    (SIGN_ODOT_LINES[:-1] + ("q - = -",), "unknown label 'q'"),
], ids=["not-a-unit", "left-unit-only", "not-a-label", "entry-off-the-labels",
        "right-label-unknown", "left-label-unknown"])
def test_cli_mul_rejects_a_false_odot_unit(tmp_path, table, message):
    sys_path = write(tmp_path, "z.csys", emit_system(zpair(5), name="z5"))
    od_path = write(tmp_path, "u.odot", "\n".join(table) + "\n")
    code, out, err = run(["mul", sys_path, "--odot", od_path])
    assert (code, out, err) == (
        2, "", f"parse error: line 6, col 1: {message}\n")


def test_cli_mul_names_the_line_of_an_unknown_result_label(tmp_path):
    """An entry's result label is checked against the index set where it is
    read, like its two operands, so the error names its line; it used to
    surface after parsing as an undefined entry at (s, s)."""
    sys_path = write(tmp_path, "c4.csys", emit_system(cyc(4), name="c4"))
    od_path = write(tmp_path, "q.odot", "odot\ns s = q\n")
    assert run(["mul", sys_path, "--odot", od_path]) == (
        2, "", "parse error: line 2, col 1: unknown label 'q'\n")


def test_cli_mul_odot_names_a_map_called_unit(tmp_path):
    # '<s> <t> = <u>' is a table entry even when s is 'unit'
    sys_path = write(tmp_path, "u.csys", "system c3\nelements e0 e1 e2\n"
                     "base e0\nmap unit = e1 e2 e0\n")
    od_path = write(tmp_path, "u.odot", "odot\nunit unit = unit\nunit unit\n")
    code, out, err = run(["mul", sys_path, "--odot", od_path])
    assert (code, err) == (0, "")
    assert out.splitlines()[3] == "e2\te0\te2\te1"
    bad = write(tmp_path, "bad.odot", "odot\nunit unit = unit\nunit a b\n")
    assert run(["mul", sys_path, "--odot", bad]) == (
        2, "", "parse error: line 3, col 1: 'unit' takes exactly one label\n")


def test_cli_mul_multi_map_without_odot_exits_2(tmp_path):
    path = write(tmp_path, "z.csys", emit_system(zpair(4), name="z4"))
    code, out, err = run(["mul", path])
    assert code == 2


def test_cli_mul_absence_exits_1(tmp_path):
    sys_path = write(tmp_path, "z.csys", emit_system(zpair(4), name="z4"))
    od = "odot\n+ + = +\n+ - = +\n- + = +\n- - = -\n"
    od_path = write(tmp_path, "bad.odot", od)
    code, out, err = run(["mul", sys_path, "--odot", od_path])
    assert code == 1
    assert "no multiplication" in err


def test_cli_morphism_found_and_not_found(tmp_path):
    a = write(tmp_path, "a.csys", emit_system(cyc(6), name="c6"))
    b = write(tmp_path, "b.csys", emit_system(cyc(3), name="c3"))
    code, out, err = run(["morphism", a, b])
    assert code == 0
    assert out.splitlines()[3] == "e3\te0"
    code, out, err = run(["morphism", b, a])
    assert code == 1
    assert "no morphism" in err


def test_cli_morphism_relabel(tmp_path):
    a = write(tmp_path, "a.csys", emit_system(cyc(4), name="c4"))
    text = emit_system(cyc(4), name="c4").replace("map s", "map t")
    b = write(tmp_path, "b.csys", text)
    code, out, err = run(["morphism", a, b])
    assert code == 2  # index sets differ
    code, out, err = run(["morphism", a, b, "--relabel", "s=t"])
    assert code == 0


def test_cli_morphism_relabel_permuting_product_labels(tmp_path):
    # swapping (+,s) and (-,s) turns the source's successor into the
    # target's predecessor: the morphism is negation on the zpair factor
    p = write(tmp_path, "p.csys",
              emit_system(product(zpair(3), cyc(2)), name="p"))
    code, out, err = run(["morphism", p, p,
                          "--relabel", "(+,s)=(-,s),(-,s)=(+,s)"])
    assert (code, err) == (0, "")
    assert [line.split("\t") for line in out.splitlines()] == [
        [f"(e{x},e{y})", f"(e{-x % 3},e{y})"]
        for x in range(3) for y in range(2)
    ]


def test_cli_closure_full_refuses_a_table_above_its_limit(tmp_path):
    path = write(tmp_path, "c.csys", emit_system(cycles([5, 7, 9, 16])))
    code, out, err = run(["closure", path])
    assert (code, out.splitlines()[0]) == (0, "size: 5040")
    for extra in ([], ["--json"]):
        code, out, err = run(["closure", path, "--full", *extra])
        assert (code, out) == (2, "")
        assert err == ("error: composition table (closure --full) needs a "
                       "closure of at most 4096 elements; this one has "
                       "5040\n")


def test_cli_closure_json_refuses_words_above_their_limit(tmp_path):
    # the 5040 powers' words would hold 5040 * 5039 / 2 labels
    path = write(tmp_path, "c.csys", emit_system(cycles([5, 7, 9, 16])))
    code, out, err = run(["closure", path, "--json"])
    assert (code, out) == (2, "")
    assert err == ("error: closure words (closure --json) would hold "
                   "12698280 labels; limit is 4194304\n")
    code, out, err = run(["closure", path])
    assert (code, out.splitlines()[0]) == (0, "size: 5040")


def test_cli_add_refuses_a_non_minimal_system_before_its_closure(tmp_path):
    # the closure has lcm(5, 7, 9, 11, 13, 16) = 720720 elements, above its
    # 65536 limit; minimality is checked first
    path = write(tmp_path, "c.csys",
                 emit_system(cycles([5, 7, 9, 11, 13, 16])))
    code, out, err = run(["add", path])
    assert (code, out) == (2, "")
    assert err == ("error: system is not minimal; unreachable elements: "
                   + ", ".join(map(str, range(5, 61))) + "\n")


def test_cli_core_and_closure(tmp_path):
    text = "system x\nelements a b c\nbase a\nmap s = b a c\n"
    path = write(tmp_path, "x.csys", text)
    code, out, err = run(["core", path])
    assert code == 0
    assert "elements a b" in out
    code, out, err = run(["closure", path, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 2


def test_cli_analyze_json(tmp_path):
    path = write(tmp_path, "z.csys", emit_system(zpair(3), name="z3"))
    code, out, err = run(["analyze", path, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["minimal"] is True
    assert payload["initial"] is False
    assert payload["maps"]["+"]["bijective"] is True


def test_cli_product_and_omega(tmp_path):
    a = write(tmp_path, "a.csys", emit_system(cyc(2), name="c2"))
    b = write(tmp_path, "b.csys", emit_system(cyc(3), name="c3"))
    code, out, err = run(["product", a, b])
    assert code == 0
    assert "elements" in out and "(e0,e0)" in out
    code, out, err = run(["omega", a])
    assert code == 0
    assert "omega" in out


def test_cli_free_eval(tmp_path):
    path = write(tmp_path, "z.csys", emit_system(zpair(5), name="z5"))
    code, out, err = run(["free-eval", path, "--multiset", "+:3,-:1"])
    assert code == 0
    assert out.strip() == "e2"


def test_cli_initial_and_free_report(tmp_path):
    path = write(tmp_path, "c.csys", CYC3)
    code, out, err = run(["initial", path, "--json"])
    assert code == 0
    assert json.loads(out)["initial"] is False
    code, out, err = run(["free-report", path, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["free"] is False
    assert payload["direct_sum"] is True


def test_cli_free_eval_huge_count(tmp_path):
    path = write(tmp_path, "c.csys", emit_system(cyc(6), name="c6"))
    # 10^5000 has more digits than int() reads (4300 on 3.11)
    for count in ["10000000000", "1" + "0" * 5000]:
        code, out, err = run(["free-eval", path, "--multiset", f"s:{count}"])
        assert (code, out, err) == (0, "e4\n", "")


def test_cli_names_product_labels(tmp_path):
    c2xc3 = emit_system(product(cyc(2), cyc(3)), name="c2xc3")
    path = write(tmp_path, "p.csys", c2xc3)
    code, out, err = run(["free-eval", path, "--multiset", "(s,s):5"])
    assert (code, out, err) == (0, "(e1,e2)\n", "")
    c6 = write(tmp_path, "c6.csys", emit_system(cyc(6), name="c6"))
    code, out, err = run(["morphism", path, c6, "--relabel", "(s,s)=s"])
    assert code == 0 and err == ""
    assert out.splitlines()[1] == "(e0,e1)\te4"  # x = 0 mod 2, 1 mod 3
    pp = write(tmp_path, "pp.csys", emit_system(
        product(product(cyc(2), cyc(3)), zpair(2)), name="pp"))
    code, out, err = run(
        ["free-eval", pp, "--multiset", "((s,s),+):1, ((s,s),-):2"])
    assert (code, out, err) == (0, "((e1,e0),e1)\n", "")
    code, out, err = run(["free-eval", pp, "--multiset", "((s,s),+):1,(x"])
    assert (code, out, err) == (
        2, "", "parse error: line 1, col 13: --multiset expects label:count "
        "items, got '(x'\n")


def _modular_tsv(n, op):
    """The TSV text of the table (a, b) -> op(a, b) mod n on e0 ... e{n-1}."""
    labels = [f"e{i}" for i in range(n)]
    return "".join("\t".join(row) + "\n" for row in [["", *labels]] + [
        [labels[a], *(labels[op(a, b) % n] for b in range(n))]
        for a in range(n)])


def _free_report(sys, direct_sum):
    """free-report --json on a system of unit shifts of Z_n: each generator
    generates all of it, every map is injective and zero is in its image."""
    return json.dumps({"free": False, "direct_sum": direct_sum, "cyclic": [
        {"label": lab, "generator": f(0), "submonoid_size": sys.size,
         "free": False, "injective": True, "zero_in_image": True}
        for lab, f in zip(sys.index_set, sys.maps)]},
        indent=2, sort_keys=True) + "\n"


def test_add_mul_and_free_report_run_no_table_law(tmp_path, monkeypatch):
    """derive_addition proves its table's laws and checks none of them, so
    add, mul and free-report never call associative or translation (laws
    has no commutative any more).  biadd._rows proves its table biadditive
    and checks nothing; mul checks only the 2k sections it extends, along
    its generation tree: it makes no laws.homomorphisms call, and no pass
    over the n columns of its table.
    Each command prints what it printed when the checks ran.  Z_63 with the
    shifts by 1, 22 and 43 has the odot of their products."""
    def refuse(*args):
        raise AssertionError("a table law ran")

    from countsys import laws
    assert not hasattr(laws, "commutative")
    for name in ("associative", "translation"):
        monkeypatch.setattr("countsys.laws." + name, refuse)
    checked = []  # the number of maps of each laws.homomorphisms call
    homomorphisms = laws.homomorphisms

    def counted(src, dst, maps, *args):
        maps = list(maps)
        checked.append(len(maps))
        return homomorphisms(src, dst, maps, *args)

    monkeypatch.setattr(laws, "homomorphisms", counted)
    c64, z63 = cyc(64), _shifts(63, (1, 22, 43))
    c = write(tmp_path, "c.csys", emit_system(c64))
    z = write(tmp_path, "z.csys", emit_system(z63))
    o = write(tmp_path, "z.odot", "odot\n" + "".join(
        f"s{a} s{b} = s{a * b % 63}\n" for a in (1, 22, 43)
        for b in (1, 22, 43)))
    mod64, mod63 = _modular_tsv(64, int.__add__), _modular_tsv(63, int.__add__)
    for argv, want in [
        (["add", c], mod64),
        (["mul", c], _modular_tsv(64, int.__mul__)),
        (["free-report", "--json", c], _free_report(c64, True)),
        (["add", z], mod63),
        (["mul", z, "--odot", o], _modular_tsv(63, int.__mul__)),
        (["free-report", "--json", z], _free_report(z63, False)),
    ]:
        checked.clear()
        assert run(argv) == (0, want, ""), argv
        assert checked == [], argv


def count_searches(monkeypatch):
    """The list to which each generation search is appended, as its
    generators or system, wherever it is made: require_minimal under every
    name a countsys module binds it to, and require_generates."""
    from countsys import biadd, core, derive, morphisms
    searches = []

    def counted(search):
        def search_counted(*args):
            searches.append(args[-1])
            return search(*args)
        return search_counted

    for mod in (core, derive, biadd, morphisms):
        for name in ("require_minimal", "require_generates"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
    return searches


def count_walks(monkeypatch):
    """The list to which the name of each kernel walk (core._extend) and
    orbit walk (core._orbit) is appended, under every name a countsys
    module binds it to."""
    from countsys import biadd, core, morphisms
    walks = []

    def counted(name, walk):
        def walk_counted(*args):
            walks.append(name)
            return walk(*args)
        return walk_counted

    for mod in (core, biadd, morphisms):
        for name in ("_extend", "_orbit"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name,
                                                       getattr(mod, name)))
    return walks


def test_each_system_is_checked_for_commuting_once(tmp_path, monkeypatch):
    """The maps of a CountingSystem commute by construction, so a command
    makes the commuting check once per system it builds: once for the
    input, and once more for its core under --auto-core on a non-minimal
    input.  Nothing downstream checks again.  `initial` reads each label's
    morphism search and core from the input system itself, and checks its
    minimality once: one generation search (require_minimal), and no
    sorted carrier BFS (core.reach).  `analyze` reads its minimality and
    core size from that same check.  Likewise a command makes one
    generation search (require_minimal or require_generates, wherever it
    is called): `add` for its table; `mul --odot` for its 2k sections, its
    table and its rows; `mul` for its table and rows; `free-report` for
    all its projections and orbits; `morphism` for its map.  `projections`
    searches once too.  On that search `initial`, `analyze` and
    `free-report` make one kernel walk (core._extend) and one orbit walk
    per label, `mul` two kernel walks per label, and `morphism` one."""
    from countsys import biadd, core
    calls = []
    reaches = []
    noncommuting = core.noncommuting
    reach = core.reach

    def counted(index_set, maps):
        calls.append(index_set)
        return noncommuting(index_set, maps)

    def counted_reach(sys):
        reaches.append(sys)
        return reach(sys)

    c = write(tmp_path, "c.csys", emit_system(cyc(64)))
    z = write(tmp_path, "z.csys", emit_system(_shifts(63, (1, 22, 43))))
    o = write(tmp_path, "z.odot", "odot\n" + "".join(
        f"s{a} s{b} = s{a * b % 63}\n" for a in (1, 22, 43)
        for b in (1, 22, 43)))
    r = write(tmp_path, "r.csys", emit_system(product(cyc(2), cyc(4))))
    h = write(tmp_path, "h.csys", emit_system(cyc(32)))
    x = write(tmp_path, "c2xc3.csys",
              emit_system(product(cyc(2), cyc(3)), name="c2xc3"))
    monkeypatch.setattr(core, "noncommuting", counted)
    monkeypatch.setattr(core, "reach", counted_reach)
    searches = count_searches(monkeypatch)
    walks = count_walks(monkeypatch)
    # argv, systems built, (kernel walks, orbit walks)
    for argv, systems, walked in [
        (["add", c], 1, (0, 0)), (["mul", c], 1, (2, 0)),
        (["free-report", c], 1, (1, 1)), (["closure", c], 1, (0, 0)),
        (["initial", c], 1, (1, 1)), (["analyze", c], 1, (1, 1)),
        (["add", z], 1, (0, 0)), (["mul", z, "--odot", o], 1, (6, 0)),
        (["free-report", z], 1, (3, 3)), (["closure", z], 1, (0, 0)),
        (["initial", z], 1, (3, 3)), (["analyze", z], 1, (3, 3)),
        (["--auto-core", "add", r], 2, (0, 0)),
        (["morphism", c, h], 2, (1, 0)),
    ]:
        calls.clear()
        reaches.clear()
        searches.clear()
        walks.clear()
        code, _out, err = run(argv)
        assert (code, err) == (0, ""), argv
        assert len(calls) == systems, argv
        assert (walks.count("_extend"), walks.count("_orbit")) == walked, argv
        if argv[0] in ("add", "mul", "free-report", "initial", "analyze",
                       "morphism"):
            assert (len(searches), len(reaches)) == (1, 0), argv
    ones = write(tmp_path, "ones.odot", "odot\n" + "".join(
        f"s{a} s{b} = s1\n" for a in (1, 22, 43) for b in (1, 22, 43)))
    for argv, code in [(["mul", z, "--odot", ones], 1),
                       (["free-report", x], 0),
                       (["free-report", "--json", x], 0)]:
        searches.clear()
        assert run(argv)[0] == code, argv
        assert len(searches) == 1, argv
    searches.clear()
    assert biadd.projections(C2XC3, C2XC3_GENS)[0] is not None
    assert searches == [C2XC3_GENS]


class TableBuilt(Exception):
    """A MonoidTable was built where none may be."""


def refuse_tables(monkeypatch):
    def refuse(self, *args):
        raise TableBuilt

    monkeypatch.setattr(MonoidTable, "__init__", refuse)


def test_free_report_and_a_failing_mul_build_no_table(tmp_path, monkeypatch):
    """free-report reads the system's generation search, and mul --odot
    decides its sections on it before it builds the addition, so with no
    MonoidTable to be had, free-report (with and without --json), every
    mul that fails and every mul refused for want of --odot print their
    golden transcripts; a mul that succeeds needs the table."""
    write_inputs(tmp_path)
    checked = built = 0
    for group, cases in GROUPS.items():
        text = (GOLDEN / f"{group}.txt").read_text(encoding="utf-8")
        blocks = re.split(r"(?m)^(?=\$ countsys )", text)
        expected = {b.split("\n", 1)[0]: b for b in blocks if b}
        for argv in cases:
            if not {"mul", "free-report"} & set(argv):
                continue
            want = expected["$ countsys " + " ".join(argv)]
            with monkeypatch.context() as mp:
                refuse_tables(mp)
                if "mul" in argv and want.split("\n")[1] == "exit 0":
                    with pytest.raises(TableBuilt):
                        golden_case(argv, tmp_path)
                    built += 1
                else:
                    assert golden_case(argv, tmp_path) == want, argv
                    checked += 1
    assert (checked, built) == (6 * 2 + 4, 7)


def test_mul_reads_its_arguments_before_it_searches(tmp_path, monkeypatch):
    """mul reads its odot on the system's labels, so checks it, before any
    search: on a system that is not minimal, a missing or malformed odot
    is reported, not the minimality.  Without --odot, a multi-map system
    is refused after the minimality check, which a non-minimal one fails
    first, and before any table is built."""
    searches = count_searches(monkeypatch)
    refuse_tables(monkeypatch)
    write_inputs(tmp_path)
    nonmin, zpair5 = (str(tmp_path / f) for f in ("nonmin.csys",
                                                  "zpair5.csys"))
    unknown = write(tmp_path, "u.odot", "odot\ns s = u\n")
    for argv, searched, code, message in [
        (["mul", nonmin, "--odot", str(tmp_path / "missing.odot")], 0, 2,
         "error: [Errno 2] No such file or directory"),
        (["mul", nonmin, "--odot", unknown], 0, 2,
         "parse error: line 2, col 1: unknown label 'u'"),
        (["mul", nonmin], 1, 2,
         "error: system is not minimal; unreachable elements: 5"),
        (["mul", zpair5], 1, 2, "error: multi-map system needs --odot"),
    ]:
        searches.clear()
        got, out, err = run(argv)
        assert (got, out, len(searches)) == (code, "", searched), argv
        assert err.startswith(message), (argv, err)


def test_mul_at_the_label_limit(tmp_path):
    """16 labels, the declared limit: Z_256 with the shifts by 17^i,
    i < 16.  17 has order 16 mod 256, so the odot of their products is
    s_i odot s_j = s_(i + j mod 16), and mul prints Z_256's product."""
    steps = [pow(17, i, 256) for i in range(16)]
    z = write(tmp_path, "z.csys", emit_system(_shifts(256, steps)))
    o = write(tmp_path, "z.odot", "odot\n" + "".join(
        f"s{a} s{b} = s{a * b % 256}\n" for a in steps for b in steps))
    assert run(["mul", z, "--odot", o]) == (
        0, _modular_tsv(256, int.__mul__), "")


def test_cli_reports_an_internal_invariant_failure_as_a_bug(
        tmp_path, monkeypatch):
    def broken(sys):
        raise InternalInvariantViolation("derived table not associative")

    monkeypatch.setattr("countsys.derive.derive_addition", broken)
    path = write(tmp_path, "c.csys", CYC3)
    code, out, err = run(["add", path])
    assert (code, out, err) == (
        2, "", "bug: derived table not associative\n")


@pytest.mark.parametrize("argv, message", [
    (["free-eval", "{z}", "--multiset", "+:x"],
     "parse error: line 1, col 1: --multiset count 'x' is not a "
     "non-negative integer"),
    (["free-eval", "{z}", "--multiset", "+"],
     "parse error: line 1, col 1: --multiset expects label:count items, "
     "got '+'"),
    (["free-eval", "{z}", "--multiset", "+:1,-:-3"],
     "parse error: line 1, col 5: --multiset count '-3' is not a "
     "non-negative integer"),
    (["morphism", "{z}", "{z}", "--relabel", "abc"],
     "parse error: line 1, col 1: --relabel expects old=new items, "
     "got 'abc'"),
    (["morphism", "{z}", "{z}", "--relabel", "+=a,-=b,+=c"],
     "parse error: line 1, col 9: --relabel repeats label '+'"),
])
def test_cli_malformed_option_values_exit_2(tmp_path, argv, message):
    path = write(tmp_path, "z.csys", emit_system(zpair(5), name="z5"))
    code, out, err = run([a.format(z=path) for a in argv])
    assert (code, out, err) == (2, "", message + "\n")


def test_cli_relabel_collision_exits_2(tmp_path):
    path = write(tmp_path, "z.csys", emit_system(zpair(5), name="z5"))
    code, out, err = run(["morphism", path, path, "--relabel", "+=a,-=a"])
    assert code == 2
    assert err == "error: duplicate label 'a'\n"


def test_cli_relabel_of_an_unknown_label_exits_2(tmp_path):
    """A --relabel key that names no source label is refused, as
    --multiset refuses one, not dropped."""
    path = write(tmp_path, "z.csys", emit_system(zpair(5), name="z5"))
    code, out, err = run(["morphism", path, path,
                          "--relabel", "+=a,-=b,q=r"])
    assert (code, out, err) == (2, "", "error: unknown label 'q' "
                                "(known: +, -)\n")


def test_cli_bad_arguments_exit_2():
    code, out, err = run(["no-such-command"])
    assert code == 2
    code, out, err = run([])
    assert code == 2


# -- CLI fuzzing --------------------------------------------------------------

SUBCOMMANDS = (
    "validate", "analyze", "core", "closure", "add", "mul", "morphism",
    "product", "omega", "free-eval", "initial", "free-report",
)
FLAGS = ("--auto-core", "--json", "--full", "--odot", "--relabel",
         "--multiset", "-h")
JUNK = ("", "-", "--", "s:3", "+:1,-:2", "(s,s):5", "s:-1", "s=+,t=-",
        "+=-,-=+", "s", "no-such-file.csys", "nul\0.csys")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The golden corpus written to a directory: its files, a file that is
    not UTF-8 and the directory itself."""
    from test_golden import INPUTS

    root = tmp_path_factory.mktemp("corpus")
    for name, text in INPUTS.items():
        (root / name).write_text(text, encoding="utf-8")
    (root / "latin1.csys").write_bytes(b"system \xe9\n")
    files = [str(root / name) for name in (*INPUTS, "latin1.csys")]
    return files + [str(root)]


def argvs(files):
    token = st.one_of(
        st.sampled_from(SUBCOMMANDS), st.sampled_from(FLAGS),
        st.sampled_from(files), st.sampled_from(JUNK), st.text(max_size=6),
    )
    command = st.tuples(
        st.lists(st.just("--auto-core"), max_size=1),
        st.sampled_from(SUBCOMMANDS).map(lambda c: [c]),
        st.lists(st.one_of(st.sampled_from(files), token), max_size=5),
    ).map(lambda parts: [t for part in parts for t in part])
    return st.one_of(command, st.lists(token, max_size=6))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cli_fuzz_exits_0_1_or_2_without_a_traceback(corpus, data):
    argv = data.draw(argvs(corpus))
    out, err = io.StringIO(), io.StringIO()
    try:
        code = run_cli(argv, out=out, err=err)
    except SystemExit as exc:  # help and usage errors must return
        pytest.fail(f"SystemExit({exc.code}) escaped run_cli for {argv!r}")
    assert code in (0, 1, 2), argv


def test_cli_usage_errors_and_help_go_to_its_streams(capsys):
    out, err = io.StringIO(), io.StringIO()
    assert run_cli(["no-such-command"], out=out, err=err) == 2
    assert out.getvalue() == ""
    usage, error = err.getvalue().splitlines()
    assert usage.startswith("usage: countsys [-h] [--auto-core] COMMAND")
    assert error == "countsys: error: invalid command 'no-such-command'"
    out = io.StringIO()
    assert run_cli(["-h"], out=out) == 0
    assert [line.split()[:2] for line in out.getvalue().splitlines()[1:]] \
        == [["countsys", command] for command in SUBCOMMANDS]
    out = io.StringIO()
    assert run_cli(["morphism", "--help"], out=out) == 0
    assert out.getvalue() == (
        "usage: countsys morphism [-h] [--relabel=OLD=NEW,...] src dst\n")
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("argv, error", [
    (["free-eval", "{c}", "--multiset"], "--multiset takes one value"),
    (["mul", "{c}", "--odot"], "--odot takes one value"),
    (["morphism", "{c}", "--"], "missing dst"),
], ids=["multiset", "odot", "positional"])
def test_cli_an_argument_read_as_nothing_is_a_usage_error(tmp_path, argv,
                                                          error):
    """An option last on the line, or a positional that "--" leaves without
    a token, is a usage error; the handler never runs without it. A value
    or positional "--" is read as one (see DROPPED)."""
    c = write(tmp_path, "c.csys", CYC3)
    code, out, err = run([a.format(c=c) for a in argv])
    assert (code, out) == (2, "")
    assert err.splitlines()[1] == f"countsys: error: {error}"


def declared(words):
    """The options, each as (name, optional, takes a value), and the
    positionals of a usage's words; a value follows "=" or is the next word
    after an option that no "]" closes."""
    options, positionals, words = set(), [], iter(words)
    for word in words:
        name, eq, _ = word.strip("[]").partition("=")
        if name[:2] != "--":
            positionals.append(name.lower())
            continue
        takes = bool(eq) or word[-1] != "]"
        options.add((name, word[0] == "[", takes))
        if takes and not eq:
            next(words)
    return options, positionals


def test_readme_cli_table_matches_the_command_table():
    """README's CLI table has one row per command of `_COMMANDS`, in its
    order, with the options and positionals that its usage declares."""
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    table = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    rows = [cell.split() for cell in re.findall(r"^\| `([^`]+)` \|", table,
                                                 re.M)]
    assert [row[0] for row in rows] == list(_COMMANDS)
    for command, *words in rows:
        assert declared(words) == declared(_COMMANDS[command][1].split()), \
            command


def blocks_written(argv):
    """The writes of run_cli on argv, and a None for each flush."""
    calls = []
    out = SimpleNamespace(write=calls.append,
                          flush=lambda: calls.append(None))
    assert run_cli(argv, out=out) == 0
    return calls


@pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
def test_tsv_table_writes_each_block_of_256_rows_at_once(tmp_path, n):
    """`add`'s table is the text of a print per line, its header and each
    row a piece, and run_cli writes it in one write per block of 256 pieces
    (a system call each on an unbuffered stream), then flushes once."""
    sys_ = cyc(n)
    labels = sys_.carrier.labels
    expected = io.StringIO()
    print("\t" + "\t".join(labels), file=expected)
    for i, row in enumerate(derive_addition(sys_).op):
        print(labels[i] + "\t" + "\t".join([labels[j] for j in row]),
              file=expected)
    calls = blocks_written(
        ["add", write(tmp_path, "c.csys", emit_system(sys_, name="c"))])
    assert calls[-1] is None and None not in calls[:-1]
    assert "".join(calls[:-1]) == expected.getvalue()
    assert len(calls) - 1 == -(-(n + 1) // 256)
    assert all(len(block.splitlines()) == 256 for block in calls[:-2])


def test_a_negative_verdict_carries_its_conflict(tmp_path):
    """`morphism` and `mul` raise their exit-1 verdicts as ExtensionVerdict,
    with the kernel's ExtensionConflict as the field `conflict`, which
    pickle and copy keep; the text is unchanged.  cyc(4096) onto Z_4095
    breaks at its last edge, 4095 -> 0, where the walk has 0 and the edge
    forces 1."""
    def verdict(argv):
        args = _parse_args(argv)
        with pytest.raises(ExtensionVerdict) as info:
            list(args.fn(args))
        exc = info.value
        assert run(argv) == (1, "", str(exc) + "\n")
        assert exc.args == (str(exc),)
        for back in (pickle.loads(pickle.dumps(exc)), copy.copy(exc)):
            assert back.args == exc.args and back.conflict == exc.conflict
        return exc

    a = write(tmp_path, "a.csys", emit_system(cyc(4096), "a"))
    b = write(tmp_path, "b.csys", emit_system(cyc(4095), "b"))
    exc = verdict(["morphism", a, b])
    assert str(exc) == "no morphism: image propagation conflicts"
    assert exc.conflict == ExtensionConflict(0, 0, 1)
    assert exc.conflict.describe() == "element 0 forced to both 0 and 1"
    z63 = _shifts(63, (1, 22, 43))
    z = write(tmp_path, "z.csys", emit_system(z63))
    odot = "odot\n" + "".join(f"s{i} s{j} = s1\n" for i in (1, 22, 43)
                               for j in (1, 22, 43))
    exc = verdict(["mul", z, "--odot", write(tmp_path, "ones.odot", odot)])
    want = derive_multiplication_indexed(z63, None, parse_odot(odot)).conflict
    assert want is not None and exc.conflict == want
    assert str(exc).endswith(f"({want.describe()})")


@pytest.mark.parametrize("n", [1, 6, 600])
def test_cli_morphism_writes_its_map_at_once(tmp_path, n):
    """The map of cyc(2n) onto cyc(n) is the text of a print per line, a
    piece each, written in one write per block of 256 lines (at once for
    2n <= 256), then flushed once."""
    src, dst = cyc(2 * n), cyc(n)
    expected = io.StringIO()
    for i, j in enumerate(morphism_find(src, dst).map):
        print(f"{src.carrier.labels[i]}\t{dst.carrier.labels[j]}",
              file=expected)
    calls = blocks_written(["morphism",
                            write(tmp_path, "a.csys", emit_system(src, "a")),
                            write(tmp_path, "b.csys", emit_system(dst, "b"))])
    assert calls[-1] is None and None not in calls[:-1]
    assert "".join(calls[:-1]) == expected.getvalue()
    assert [len(block.splitlines()) for block in calls[:-1]] == [
        min(256, 2 * n - k) for k in range(0, 2 * n, 256)]


def test_cli_without_stdout_exits_2_for_every_command(tmp_path, monkeypatch):
    """With file descriptor 1 closed, sys.stdout is None: every command,
    and -h, exits 2 with one error line instead of writing nowhere."""
    path = write(tmp_path, "c.csys", CYC3)
    monkeypatch.setattr(_sys, "stdout", None)
    for argv in [[command, path] for command in SUBCOMMANDS] + [["-h"]]:
        err = io.StringIO()
        assert run_cli(argv, err=err) == 2, argv
        assert err.getvalue() == "error: no standard output\n"


def test_cli_reports_a_failed_write_of_the_help():
    """A failed write of the help is reported like a failed write of a
    command's output, not raised out of run_cli."""
    def full(text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    err = io.StringIO()
    assert run_cli(["-h"], out=SimpleNamespace(write=full), err=err) == 2
    assert err.getvalue() == (
        f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")


# -- the process entry point --------------------------------------------------

@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("case, code", [
    ("ok", 0), ("negative", 1), ("error", 2), ("large", 0),
])
def test_main_prints_what_run_cli_prints(tmp_path, case, code, unbuffered):
    """`python -m countsys.cli` ends with os._exit: its exit code, stdout
    and stderr are byte for byte those of run_cli in this process, also for
    an `add` table larger than a pipe's buffer."""
    c3 = write(tmp_path, "c3.csys", CYC3)
    argv = {
        "ok": ["analyze", c3],
        "negative": ["morphism", c3, write(tmp_path, "c6.csys",
                                           emit_system(cyc(6), name="c6"))],
        "error": ["validate", write(tmp_path, "bad.csys", "system x\nwhat\n")],
        "large": ["add", write(tmp_path, "c256.csys",
                               emit_system(cyc(256), name="c256"))],
    }[case]
    expected = run(argv)
    assert expected[0] == code
    assert case != "large" or len(expected[1]) > 2 ** 17
    got = process(["-m", "countsys.cli", *argv], unbuffered)
    assert got == (code, expected[1].encode(), expected[2].encode())


@pytest.mark.parametrize("sink", ["full-device", "pipe-without-reader"])
def test_main_reports_a_failed_final_flush(tmp_path, sink):
    """`validate`'s one line stays in stdout's buffer until the final flush;
    when that write fails, the process exits 2 with one `error:` line, not
    with the interpreter's `Exception ignored` message and exit 120."""
    path = write(tmp_path, "c.csys", CYC3)
    if sink == "full-device":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        with open("/dev/full", "wb") as full:
            code, _, err = process(["-m", "countsys.cli", "validate", path],
                                   stdout=full)
        num = errno.ENOSPC
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)  # a write to the pipe fails with EPIPE
        try:
            code, _, err = process(["-m", "countsys.cli", "validate", path],
                                   stdout=write_end)
        finally:
            os.close(write_end)
        num = errno.EPIPE
    assert code == 2
    assert err.decode() == f"error: [Errno {num}] {os.strerror(num)}\n"


@pytest.mark.parametrize("sink", ["full-device", "closed"])
def test_main_reports_a_failed_error_write_by_its_exit_code(sink):
    """An error that cannot be written to stderr still exits 2, not 1 (the
    code of a negative verdict) with the OSError raised out of run_cli."""
    argv = ["-m", "countsys.cli", "validate", "no-such-file.csys"]
    if sink == "closed":
        got = process(argv, stderr=None,
                      preexec_fn=functools.partial(os.close, 2))
    elif not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    else:
        with open("/dev/full", "wb") as full:
            got = process(argv, stderr=full)
    assert got == (2, b"", None)


def test_cli_a_negative_verdict_that_cannot_be_written_exits_2(tmp_path):
    def full(text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    a = write(tmp_path, "a.csys", emit_system(cyc(3), name="c3"))
    b = write(tmp_path, "b.csys", emit_system(cyc(6), name="c6"))
    err = SimpleNamespace(write=full)
    assert run_cli(["morphism", a, b], out=io.StringIO(), err=err) == 2


def test_run_cli_maps_every_outcome(tmp_path):
    """A handler raises what it does not print: a negative verdict exits 1
    with its line as it is, `mul` on a multi-map system without --odot
    exits 2 with an `error:` line, and either exits 2 when the line cannot
    be written to stderr."""
    def full(text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    z5 = write(tmp_path, "z5.csys", emit_system(zpair(5), name="z5"))
    odot = write(tmp_path, "bad.odot",
                 "odot\n+ + = +\n+ - = +\n- + = +\n- - = -\n")
    c3 = write(tmp_path, "c3.csys", emit_system(cyc(3), name="c3"))
    c6 = write(tmp_path, "c6.csys", emit_system(cyc(6), name="c6"))
    cases = [
        (["mul", z5, "--odot", odot], 1,
         "no multiplication: required endomorphism missing at label '+' "
         "(element 0 forced to both 0 and 2)\n"),
        (["morphism", c3, c6], 1,
         "no morphism: image propagation conflicts\n"),
        (["mul", z5], 2, "error: multi-map system needs --odot\n"),
    ]
    for argv, code, line in cases:
        assert run(argv) == (code, "", line)
        err = SimpleNamespace(write=full)
        assert run_cli(argv, out=io.StringIO(), err=err) == 2


def test_main_without_stdout_exits_2(tmp_path):
    """`core` wrote its system with out.write, which raised AttributeError
    on a closed stdout and exited 1, the code of a negative verdict."""
    path = write(tmp_path, "c.csys", CYC3)
    got = process(["-m", "countsys.cli", "core", path], stdout=None,
                  preexec_fn=functools.partial(os.close, 1))
    assert got == (2, None, b"error: no standard output\n")


def test_main_runs_the_atexit_callbacks_and_skips_teardown(tmp_path):
    """main() runs the atexit callbacks and flushes what they print, then
    ends the process before the interpreter's teardown would delete the
    probe's module globals and run their __del__."""
    probe = (
        "import atexit, sys\n"
        "class Guard:\n"
        "    def __del__(self):\n"
        "        print('teardown ran')\n"
        "guard = Guard()\n"
        "atexit.register(print, 'atexit ran')\n"
        "import countsys.cli\n"
        "countsys.cli.main()\n"
        "print('main returned')\n"
    )
    path = write(tmp_path, "c.csys", CYC3)
    code, out, err = process(["-c", probe, "validate", path])
    assert (code, err) == (0, b"")
    assert out.decode().splitlines() == [
        "ok: cyc3 (3 elements, 1 maps)", "atexit ran"]


# -- the command table against argparse ---------------------------------------

# The argparse parser that read the command line before the command table;
# on every argv of the grammar README states, the table reads what it read.
def build_parser():
    p = argparse.ArgumentParser(
        prog="countsys",
        description="derive and verify the algebra of finite counting systems",
    )
    p.add_argument(
        "--auto-core",
        action="store_true",
        help="replace a non-minimal input by its minimal core",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **files):
        sp = sub.add_parser(name)
        for arg in files.get("files", ["file"]):
            sp.add_argument(arg)
        sp.set_defaults(fn=fn)
        return sp

    add("validate", _cmd_validate)
    sp = add("analyze", _cmd_analyze)
    sp.add_argument("--json", action="store_true")
    add("core", _cmd_core)
    sp = add("closure", _cmd_closure)
    sp.add_argument("--full", action="store_true")
    sp.add_argument("--json", action="store_true")
    add("add", _cmd_add)
    sp = add("mul", _cmd_mul)
    sp.add_argument("--odot")
    sp = add("morphism", _cmd_morphism, files=["src", "dst"])
    sp.add_argument("--relabel", help="old=new[,old=new...] for SRC labels")
    add("product", _cmd_product, files=["a", "b"])
    add("omega", _cmd_omega)
    sp = add("free-eval", _cmd_free_eval)
    sp.add_argument("--multiset", required=True, help='e.g. "s:3,t:1"')
    sp = add("initial", _cmd_initial)
    sp.add_argument("--json", action="store_true")
    sp = add("free-report", _cmd_free_report)
    sp.add_argument("--json", action="store_true")
    return p


ORACLE = build_parser()
# the attributes that run_cli and the handlers read
READ = ("fn", "file", "src", "dst", "a", "b", "auto_core", "json", "full",
        "odot", "relabel", "multiset")


def argparse_outcome(argv):
    """0 for help, 2 for a usage error, else the attributes read."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            args = ORACLE.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    read = {key: getattr(args, key) for key in READ if hasattr(args, key)}
    # an argument whose only token is "--" read as [], which no handler
    # takes: the table reads `add --` as a missing file
    return 2 if [] in read.values() else read


def table_outcome(argv):
    try:
        args = _parse_args(argv)
    except _UsageError:
        return 2
    if args.fn is _help:
        return 0
    return {key: getattr(args, key) for key in READ if hasattr(args, key)}


@st.composite
def grammar_argvs(draw, files):
    """An argv of the grammar: --auto-core, a command, and in any order its
    options, named in full and each given 0 to 2 times, and about as many
    positionals as it takes, some of them after a "--"."""
    value = st.one_of(
        st.sampled_from(files),
        st.sampled_from([t for t in JUNK if t[:1] != "-"]),
        st.text(max_size=6).filter(lambda t: t[:1] != "-"))
    command = draw(st.sampled_from(SUBCOMMANDS))
    chunks, count = [], draw(st.sampled_from([-1, 0, 0, 0, 1]))
    for word in _COMMANDS[command][1].split():
        name, eq, _ = word.strip("[]").partition("=")
        if name[:2] != "--":
            count += 1
            continue
        for _ in range(draw(st.integers(0, 2))):
            if not eq:
                chunks.append([name])
            elif draw(st.booleans()):
                chunks.append([f"{name}={draw(value)}"])
            else:
                chunks.append([name, draw(value)])
    positionals = [draw(value) for _ in range(count)]
    dash = draw(st.integers(0, len(positionals))) if positionals else 0
    chunks += [[p] for p in positionals[:dash]]
    chunks = draw(st.permutations(chunks))
    tail = ["--", *positionals[dash:]] if dash < len(positionals) else []
    return ["--auto-core"] * draw(st.integers(0, 2)) + [command] + [
        t for chunk in chunks for t in chunk] + tail


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_table_parser_agrees_with_argparse(corpus, data):
    argv = data.draw(grammar_argvs(corpus))
    assert table_outcome(argv) == argparse_outcome(argv), argv


def reading(argv):
    """"-h", the usage error, or the attributes read but the handler."""
    try:
        args = _parse_args(argv)
    except _UsageError as exc:
        return exc.args[1]
    return "-h" if args.fn is _help else {
        key: value for key, value in vars(args).items() if key != "fn"}


# the reading of each form outside the grammar that argparse accepted, and
# of those where the grammar settles -h or "--"
DROPPED = {
    # no abbreviations
    ("--auto", "add", "F"): "unrecognized arguments: --auto",
    ("--a", "add", "F"): "unrecognized arguments: --a",
    ("--h",): "unrecognized arguments: --h",
    ("add", "F", "--he"): "unrecognized arguments: --he",
    ("closure", "F", "--j", "--fu"): "unrecognized arguments: --j",
    ("mul", "F", "--od", "O"): "unrecognized arguments: --od",
    ("mul", "F", "--od=O=P"): "unrecognized arguments: --od=O=P",
    ("free-eval", "F", "--m", "s:1"): "unrecognized arguments: --m",
    ("morphism", "F", "G", "--rel=s=t"):
        "unrecognized arguments: --rel=s=t",
    ("closure", "F", "--json", "--j"): "unrecognized arguments: --j",
    # -h is read alone, and before the first "--" whatever else argv holds
    ("-hh",): "unrecognized arguments: -hh",
    ("-h=h",): "unrecognized arguments: -h=h",
    ("-hx",): "unrecognized arguments: -hx",
    ("add", "-hhh"): "unrecognized arguments: -hhh",
    ("add", "-h=hh"): "unrecognized arguments: -h=hh",
    ("bogus", "-h"): "-h", ("add", "-h", "--=x"): "-h",
    ("mul", "F", "--odot", "-h"): "-h",
    ("closure", "F", "--json=x", "-h"): "-h",
    # no negative numbers: "-" starts an option, but not after "--"
    ("add", "-5"): "unrecognized arguments: -5",
    ("add", "--", "-5"): {"auto_core": False, "file": "-5"},
    # --opt value takes the next token verbatim, "--" and "-x" too
    ("mul", "F", "--odot", "-x"):
        {"auto_core": False, "odot": "-x", "file": "F"},
    ("mul", "F", "--odot", "--json"):
        {"auto_core": False, "odot": "--json", "file": "F"},
    ("mul", "F", "--odot", "--odot"):
        {"auto_core": False, "odot": "--odot", "file": "F"},
    ("free-eval", "F", "--multiset", "-s:1"):
        {"auto_core": False, "multiset": "-s:1", "file": "F"},
    ("mul", "F", "--odot", "O", "--"):
        {"auto_core": False, "odot": "O", "file": "F"},
    # a value or positional "--" is one, not an argument read as nothing
    ("mul", "F", "--odot=--"):
        {"auto_core": False, "odot": "--", "file": "F"},
    ("mul", "F", "--odot=O", "--odot=--"):
        {"auto_core": False, "odot": "--", "file": "F"},
    ("free-eval", "F", "--multiset=--"):
        {"auto_core": False, "multiset": "--", "file": "F"},
    ("morphism", "F", "--", "--"):
        {"auto_core": False, "relabel": None, "src": "F", "dst": "--"},
    # the command is the first positional, after a "--" too
    ("--", "add", "F"): {"auto_core": False, "file": "F"},
    ("--auto-core", "--", "add", "F"): {"auto_core": True, "file": "F"},
}


@pytest.mark.parametrize("argv", [
    # unknown options
    ["add", "F", "--=x"], ["--=", "add"],
    # --opt=value
    ["mul", "F", "--odot=O"], ["mul", "F", "--odot="],
    ["closure", "F", "--json=x"], ["closure", "F", "--json="],
    ["--auto-core=", "add", "F"], ["add", "F", "--help=x"],
    # --
    ["add", "--", "F"], ["add", "F", "--"], ["add", "--", "--"], ["add", "--"],
    ["--"], ["morphism", "F", "--", "G"], ["morphism", "--", "F", "G"],
    ["morphism", "F", "G", "--"], ["mul", "--odot", "O", "F", "--"],
    ["mul", "F", "--odot", "--", "O"], ["add", "--", "-h"],
    ["add", "F", "--", "--json"],
    # -
    ["add", "-"], ["-", "add"], ["mul", "F", "--odot", "-"], ["product", "-", "-"],
    # repeated options; the last value wins
    ["mul", "F", "--odot", "O", "--odot", "P"],
    ["--auto-core", "--auto-core", "add", "F"],
    ["mul", "F", "--odot=--", "--odot=O"],
    # an option value that starts with "-"
    ["mul", "F", "--odot", "-5"], ["mul", "F", "--odot", "-1.5"],
    ["mul", "F", "--odot", "-.5\n"], ["mul", "F", "--odot", "- x"],
    ["add", "-x"], ["morphism", "F", "G", "--relabel", "--x=y z"],
    # -h after an invalid token
    ["--bogus", "-h"], ["add", "F", "G", "-h"], ["add", "--bogus", "-h"],
    ["free-eval", "-h"], ["add", "F", "-hx"], ["add", "F", "-h="], ["-h="],
    # --auto-core after the command
    ["add", "F", "--auto-core"], ["add", "--auto-core", "F"],
    ["add", "F", "--auto"],
    # options and positionals interleaved, and missing ones
    ["morphism", "--relabel", "s=t", "F", "G"],
    ["morphism", "F", "--relabel", "s=t", "G"],
    ["free-eval", "--multiset", "s:1", "F"], ["free-eval", "F"],
    [], ["add"], ["morphism", "F"], ["--auto-core"], ["", "F"],
    *map(list, DROPPED),
], ids=repr)
def test_table_parser_agrees_with_argparse_on(argv):
    """The table reads argv as argparse read it, but a form in DROPPED as
    it pins: no unique prefix, no -h with letters or a value, no negative
    number, and no argument "--" read as nothing."""
    if tuple(argv) in DROPPED:
        assert reading(argv) == DROPPED[tuple(argv)]
    else:
        assert table_outcome(argv) == argparse_outcome(argv)
