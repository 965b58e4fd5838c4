"""Text formats and the command-line front end."""

import io
import json

import pytest
from hypothesis import given, strategies as st

from countsys.cli import run_cli
from countsys.dsl import emit_system, parse_odot, parse_system
from countsys.errors import ParseError
from countsys.fixtures import SIGN_ODOT_LINES, cyc, rho, zpair

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


def test_parse_odot_sign_table():
    od = parse_odot("\n".join(SIGN_ODOT_LINES))
    assert od.unit == "+"
    assert od.op[("-", "-")] == "+"
    assert od.is_commutative()


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
