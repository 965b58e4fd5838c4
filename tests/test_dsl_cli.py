"""Text formats and the command-line front end."""

import argparse
import contextlib
import errno
import functools
import importlib
import io
import json
import os
import re
import string
import subprocess
import sys as _sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import countsys
from countsys.cli import (
    _cmd_add, _cmd_analyze, _cmd_closure, _cmd_core, _cmd_free_eval,
    _cmd_free_report, _cmd_initial, _cmd_morphism, _cmd_mul, _cmd_omega,
    _cmd_product, _cmd_validate, _help, _parse_args, _tsv_table,
    _COMMANDS, _UsageError, run_cli,
)
from countsys.core import Carrier, EndoMap, new_system, product
from countsys.dsl import emit_system, parse_odot, parse_system
from countsys.errors import (
    CountingSystemError,
    InternalInvariantViolation,
    ParseError,
)
from countsys.fixtures import SIGN_ODOT_LINES, cyc, rho, zpair
from countsys.morphisms import morphism_find
from test_closure import cycles

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
    doc = parse_system(emit_system(sys, name=name))
    assert doc.name == name
    assert doc.system == sys


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


@pytest.mark.parametrize("argv, extra", [
    (["validate", "{c}"], set()),
    (["core", "{c}"], set()),
    (["omega", "{c}"], set()),
    (["product", "{c}", "{c}"], set()),
    (["morphism", "{c}", "{c}"], {"morphisms"}),
    (["free-eval", "{c}", "--multiset", "s:2"], {"morphisms"}),
    (["initial", "{c}"], {"morphisms"}),
    (["analyze", "{c}"], {"analysis", "morphisms"}),
    (["closure", "{c}"], {"closure"}),
    (["add", "{c}"], {"derive"}),
    (["mul", "{c}"], {"derive", "biadd"}),
    (["mul", "{c}", "--odot", "{o}"], {"derive", "biadd"}),
    (["free-report", "{c}"], {"derive", "biadd"}),
], ids=["validate", "core", "omega", "product", "morphism", "free-eval",
        "initial", "analyze", "closure", "add", "mul", "mul-odot",
        "free-report"])
def test_cli_loads_only_the_modules_of_its_command(tmp_path, argv, extra):
    """A fresh interpreter running one command imports the parser's modules
    and those of that command, and no other countsys module.  Every law is
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
    names = {"cli", "dsl", "core", "laws", "errors"} | extra
    assert set(loaded) == {"countsys"} | {f"countsys.{m}" for m in names}


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
], ids=["not-a-unit", "left-unit-only"])
def test_cli_mul_rejects_a_false_odot_unit(tmp_path, table, message):
    sys_path = write(tmp_path, "z.csys", emit_system(zpair(5), name="z5"))
    od_path = write(tmp_path, "u.odot", "\n".join(table) + "\n")
    code, out, err = run(["mul", sys_path, "--odot", od_path])
    assert (code, out, err) == (
        2, "", f"parse error: line 6, col 1: {message}\n")


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
    code, out, err = run(["free-eval", path, "--multiset", "s:10000000000"])
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


@pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
def test_tsv_table_writes_each_block_of_256_rows_at_once(n):
    """The text is the one of a print per line, in one write per block of
    256 rows (a system call each on an unbuffered stream)."""
    labels = [f"e{i}" for i in range(n)]
    table = [[(i * j + 1) % n for j in range(n)] for i in range(n)]
    expected = io.StringIO()
    print("\t" + "\t".join(labels), file=expected)
    for i, row in enumerate(table):
        print(labels[i] + "\t" + "\t".join([labels[j] for j in row]),
              file=expected)
    writes = []
    _tsv_table(labels, table, SimpleNamespace(write=writes.append))
    assert "".join(writes) == expected.getvalue()
    assert len(writes) == -(-n // 256)


@pytest.mark.parametrize("n", [1, 6, 600])
def test_cli_morphism_writes_its_map_at_once(tmp_path, n):
    """The map of cyc(2n) onto cyc(n) is the text of a print per line, in
    one write (a system call on an unbuffered stream)."""
    src, dst = cyc(2 * n), cyc(n)
    args = SimpleNamespace(
        src=write(tmp_path, "a.csys", emit_system(src, name="a")),
        dst=write(tmp_path, "b.csys", emit_system(dst, name="b")),
        auto_core=False, relabel=None)
    expected = io.StringIO()
    for i, j in enumerate(morphism_find(src, dst).map):
        print(f"{src.carrier.labels[i]}\t{dst.carrier.labels[j]}",
              file=expected)
    writes = []
    out = SimpleNamespace(write=writes.append)
    assert _cmd_morphism(args, out, io.StringIO()) == 0
    assert (len(writes), writes[0]) == (1, expected.getvalue())


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
