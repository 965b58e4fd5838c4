"""Text formats and the command-line front end."""

import importlib
import io
import json
import os
import string
import subprocess
import sys as _sys

import pytest
from hypothesis import given, settings, strategies as st

import countsys
from countsys.cli import run_cli
from countsys.core import Carrier, EndoMap, new_system, product
from countsys.dsl import emit_system, parse_odot, parse_system
from countsys.errors import (
    CountingSystemError,
    InternalInvariantViolation,
    ParseError,
)
from countsys.fixtures import SIGN_ODOT_LINES, cyc, rho, zpair
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


def fresh_stdout(probe, *argv):
    """What `python -c probe argv...` prints, run on this countsys."""
    src = os.path.dirname(os.path.dirname(countsys.__file__))
    return subprocess.run(
        [_sys.executable, "-c", probe, *argv], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=src),
    ).stdout


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
    plain Python and every record a plain class, so it imports neither
    numpy nor dataclasses."""
    files = {"c": write(tmp_path, "c.csys", CYC3),
             "o": write(tmp_path, "s.odot", "odot\ns s = s\nunit s\n")}
    probe = (
        "import io, sys\n"
        "before = set(sys.modules)\n"
        "from countsys.cli import run_cli\n"
        "code = run_cli(sys.argv[1:], out=io.StringIO())\n"
        "new = set(sys.modules) - before\n"
        "print(code, *sorted(m for m in new if m.split('.')[0] in\n"
        "                    ('countsys', 'numpy', 'dataclasses')))\n"
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
    except SystemExit as exc:  # argparse's --help and usage errors
        pytest.fail(f"SystemExit({exc.code}) escaped run_cli for {argv!r}")
    assert code in (0, 1, 2), argv
