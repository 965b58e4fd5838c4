"""Golden CLI transcripts: exit code, stdout and stderr of every command on a
small corpus, compared byte for byte with the files under tests/golden/.

After an intended change of output, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import re
import sys
from pathlib import Path

import pytest

from countsys import closure
from countsys.cli import run_cli
from countsys.core import product
from countsys.dsl import emit_system
from countsys.fixtures import SIGN_ODOT_LINES, cyc, rho, zpair

GOLDEN = Path(__file__).parent / "golden"

# Z5 under +1 (s) and -1 (t) with its carrier indices permuted, plus an
# unreachable fixed point z.  A level-sorted BFS from v0 reaches v0 v1 v4 v3 v2,
# discovery order reaches v0 v1 v4 v2 v3, so `core` shows which one it uses.
NONMIN = """\
system nonmin
elements v0 v4 v2 v3 v1 z
base v0
map s = v1 v0 v3 v4 v2 z
map t = v4 v3 v1 v2 v0 z
"""

INPUTS = {
    "cyc6.csys": emit_system(cyc(6), name="cyc6"),
    "rho23.csys": emit_system(rho(2, 3), name="rho23"),
    "zpair5.csys": emit_system(zpair(5), name="zpair5"),
    "c2xc3.csys": emit_system(product(cyc(2), cyc(3)), name="c2xc3"),
    "nonmin.csys": NONMIN,
    "sign.odot": "\n".join(SIGN_ODOT_LINES) + "\n",
    "bad.odot": "odot\n+ + = +\n+ - = +\n- + = +\n- - = -\n",
}

PER_SYSTEM = (
    ["validate"], ["analyze"], ["analyze", "--json"], ["core"], ["closure"],
    ["closure", "--full"], ["closure", "--json"], ["add"], ["mul"],
    ["initial"], ["initial", "--json"], ["free-report"],
    ["free-report", "--json"], ["omega"], ["closure", "--full", "--json"],
)


def _system_cases(name, multiset, prefix=()):
    path = f"{name}.csys"
    cases = [[*prefix, cmd[0], path, *cmd[1:]] for cmd in PER_SYSTEM]
    cases.append([*prefix, "free-eval", path, "--multiset", multiset])
    return cases


GROUPS = {
    "cyc6": _system_cases("cyc6", "s:8"),
    "rho23": _system_cases("rho23", "s:7"),
    "zpair5": _system_cases("zpair5", "+:3,-:1"),
    "c2xc3": _system_cases("c2xc3", ""),
    "nonmin": _system_cases("nonmin", "s:2,t:1"),
    "nonmin_auto_core": _system_cases("nonmin", "s:2,t:1", ("--auto-core",)),
    "pairs": [
        ["mul", "zpair5.csys", "--odot", "sign.odot"],
        ["mul", "zpair5.csys", "--odot", "bad.odot"],
        ["morphism", "cyc6.csys", "cyc6.csys"],
        ["morphism", "cyc6.csys", "rho23.csys"],
        ["morphism", "rho23.csys", "cyc6.csys"],
        ["morphism", "cyc6.csys", "c2xc3.csys"],
        ["morphism", "nonmin.csys", "zpair5.csys", "--relabel", "s=+,t=-"],
        ["--auto-core", "morphism", "nonmin.csys", "zpair5.csys",
         "--relabel", "s=+,t=-"],
        ["product", "cyc6.csys", "rho23.csys"],
        ["product", "zpair5.csys", "c2xc3.csys"],
    ],
}


def write_inputs(workdir):
    for fname, text in INPUTS.items():
        (workdir / fname).write_text(text, encoding="utf-8")


def case(argv, workdir):
    """One CLI run as a transcript block."""
    out, err = io.StringIO(), io.StringIO()
    resolved = [str(workdir / a) if a in INPUTS else a for a in argv]
    code = run_cli(resolved, out=out, err=err)
    return (
        f"$ countsys {' '.join(argv)}\nexit {code}\n"
        f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    )


def transcript(group, workdir):
    """Every case of the group run through the CLI, as one text."""
    write_inputs(workdir)
    return "".join(case(argv, workdir) for argv in GROUPS[group])


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_cli_matches_golden(group, tmp_path):
    expected = (GOLDEN / f"{group}.txt").read_bytes()
    assert transcript(group, tmp_path).encode("utf-8") == expected


def _derives(argv):
    """The cases that derive a table: add, mul (with or without --odot),
    and free-report, initial and analyze with --json."""
    cmd = argv[1] if argv[0] == "--auto-core" else argv[0]
    return cmd in ("add", "mul") or (
        cmd in ("free-report", "initial", "analyze") and "--json" in argv
    )


def test_derive_path_builds_no_closure(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("closure built on the derive path")

    guarded = (closure.monoid_closure, closure.evaluation)
    for name, mod in list(sys.modules.items()):
        if name == "countsys" or name.startswith("countsys."):
            for attr, obj in list(vars(mod).items()):
                if any(obj is g for g in guarded):
                    monkeypatch.setattr(mod, attr, refuse)
    assert closure.monoid_closure is refuse and closure.evaluation is refuse
    write_inputs(tmp_path)
    checked = 0
    for group in sorted(GROUPS):
        text = (GOLDEN / f"{group}.txt").read_text(encoding="utf-8")
        blocks = re.split(r"(?m)^(?=\$ countsys )", text)
        expected = {b.split("\n", 1)[0]: b for b in blocks if b}
        for argv in filter(_derives, GROUPS[group]):
            block = case(argv, tmp_path)
            assert block == expected[block.split("\n", 1)[0]]
            checked += 1
    assert checked == 6 * 5 + 2  # five per system group, two mul --odot


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(GROUPS):
            (GOLDEN / f"{name}.txt").write_bytes(
                transcript(name, Path(tmp)).encode("utf-8")
            )
