"""Homomorphism extension, biadditive tables and derived multiplication."""

import itertools
import tracemalloc

import pytest

from countsys import biadd, core
from countsys.biadd import (
    CyclicFreeness,
    DirectSumReport,
    FreeReport,
    HomTable,
    IndexedMultiplication,
    biadditive_extend,
    derive_multiplication_indexed,
    derive_multiplication_single,
    direct_sum_check,
    direct_sum_report,
    hom_extend,
    hom_extend_report,
    identity_hom,
    is_biadditive,
    is_free_report,
    is_hom,
    make_hom,
    projections,
)
from countsys.core import MAX_CARRIER_SIZE, _orbit, require_minimal
from countsys.derive import derive_addition, product_table, require_generates
from countsys.dsl import OdotTable
from countsys.errors import (
    CompatibilityViolated,
    GensDoNotGenerate,
    IndexSetMismatch,
    InternalInvariantViolation,
    OdotNotTotal,
    TargetCountMismatch,
)
from countsys.fixtures import SIGN_ODOT_LINES, cyc, rho, rho_collapse, zpair
from test_laws import (
    _minimal_systems, _shift_odots, _shifts, biadd_mutant,
)


def sign_odot():
    return OdotTable(
        ("+", "-"),
        {("+", "+"): "+", ("+", "-"): "-", ("-", "+"): "-", ("-", "-"): "+"},
        unit="+",
    )


def test_is_hom_on_cyclic_tables():
    z6 = derive_addition(cyc(6))
    z3 = derive_addition(cyc(3))
    assert is_hom(z6, z3, tuple(i % 3 for i in range(6)))
    assert not is_hom(z6, z3, tuple([0, 1, 2, 0, 1, 1]))
    with pytest.raises(InternalInvariantViolation):
        make_hom(z6, z3, (0, 1, 2, 0, 1, 1))


def test_hom_extend_finds_the_unique_extension():
    z6 = derive_addition(cyc(6))
    z3 = derive_addition(cyc(3))
    hom = hom_extend(z6, z3, (1,), (1,))
    assert hom is not None
    assert hom.map == tuple(i % 3 for i in range(6))


def test_hom_extend_reports_absence_with_witness():
    z5 = derive_addition(cyc(5))
    z3 = derive_addition(cyc(3))
    # 1 -> 1 cannot extend: 5 * 1 = 0 in Z5 but 5 * 1 = 2 in Z3
    hom, conflict = hom_extend_report(z5, z3, (1,), (1,))
    assert hom is None
    assert conflict is not None
    assert "forced to both" in conflict.describe()


def test_hom_extend_requires_generators():
    z6 = derive_addition(cyc(6))
    with pytest.raises(GensDoNotGenerate):
        hom_extend(z6, z6, (2,), (2,))


@pytest.mark.parametrize("gens, targets", [
    ((1,), ()), ((), (1,)), ((1, 2), (1,)),
], ids=["no-targets", "no-gens", "one-target-short"])
def test_hom_extend_refuses_unequal_gens_and_targets(gens, targets):
    z3 = derive_addition(cyc(3))
    with pytest.raises(TargetCountMismatch) as exc:
        hom_extend_report(z3, z3, gens, targets)
    assert (exc.value.gens, exc.value.targets) == (len(gens), len(targets))


def test_is_biadditive_on_modular_multiplication():
    z4 = derive_addition(cyc(4))
    mul = tuple(tuple((i * j) % 4 for j in range(4)) for i in range(4))
    assert is_biadditive(z4, z4, mul)
    bad = tuple(tuple((i * j + (i == j == 1)) % 4 for j in range(4)) for i in range(4))
    assert not is_biadditive(z4, z4, bad)


def test_biadditive_extend_builds_modular_multiplication():
    z5 = derive_addition(cyc(5))
    ident = identity_hom(z5)
    bi = biadditive_extend(z5, z5, (1,), (ident,), (ident,))
    assert bi.op == tuple(
        tuple((i * j) % 5 for j in range(5)) for i in range(5)
    )


def test_biadditive_extend_rejects_incompatible_sections():
    z4 = derive_addition(cyc(4))
    ident = identity_hom(z4)
    threefold = make_hom(z4, z4, tuple((3 * i) % 4 for i in range(4)))
    with pytest.raises(CompatibilityViolated) as exc:
        biadditive_extend(z4, z4, (1,), (ident,), (threefold,))
    assert str(exc.value) == (
        "incompatible section homomorphisms at generator positions (0, 0): "
        "1 != 3"
    )


def test_biadditive_extend_rejects_a_row_section_that_is_no_homomorphism():
    """(0, 1, 3, 2) is no endomorphism of Z4.  The rows built from it along
    the generation tree, ((0,0,0,0), (0,1,3,2), (0,2,2,0), (0,3,1,2)), have
    additive columns and row 1 is the section: only the check of the input
    sections rejects them."""
    z4 = derive_addition(cyc(4))
    bad = HomTable(z4, z4, (0, 1, 3, 2))
    with pytest.raises(InternalInvariantViolation):
        biadditive_extend(z4, z4, (1,), (bad,), (identity_hom(z4),))


def test_biadditive_extend_rejects_a_column_section_that_is_no_homomorphism():
    """lambda' = (0, 1, 3, 2) is no endomorphism of Z4 but agrees with the
    identity at the generator 1, so the sections are compatible.  The rows
    built from the identity are the modular multiplication, whose column 1
    is the identity, not lambda': the check of the column sections rejects
    the input before any row is built."""
    z4 = derive_addition(cyc(4))
    bad = HomTable(z4, z4, (0, 1, 3, 2))
    with pytest.raises(InternalInvariantViolation,
                       match="column section 0 is no homomorphism"):
        biadditive_extend(z4, z4, (1,), (identity_hom(z4),), (bad,))


def test_biadditive_extend_takes_one_section_per_generator():
    """Each side gives one section per generator, or TargetCountMismatch
    is raised before any other check: an empty side, a short one and a
    long one, whose extra section would go unchecked, on Z_5 at (1,) and
    on C2 x C3 at its coordinate generators, and on Z_6 at (2,), which
    does not generate: the count is checked before the search."""
    z5 = derive_addition(cyc(5))
    ident = identity_hom(z5)
    bad = HomTable(z5, z5, (0, 1, 3, 2, 4))  # no homomorphism
    c6 = product_table(derive_addition(cyc(2)), derive_addition(cyc(3)))
    deltas = projections(c6, (3, 1))[0]
    z6 = derive_addition(cyc(6))
    cases = [
        (z5, (1,), (), (ident,), 0), (z5, (1,), (ident,), (), 0),
        (z5, (1,), (), (), 0), (z5, (1,), (ident, bad), (ident,), 2),
        (z5, (1,), (ident,), (ident, bad), 2),
        (c6, (3, 1), deltas[:1], deltas, 1),
        (c6, (3, 1), deltas, deltas[:1], 1),
        (c6, (3, 1), deltas + deltas[:1], deltas, 3),
        (z6, (2,), (), (), 0),
    ]
    for M, gens, lambdas, lambda_primes, count in cases:
        with pytest.raises(TargetCountMismatch) as exc:
            biadditive_extend(M, M, gens, lambdas, lambda_primes)
        assert (exc.value.gens, exc.value.targets) == (len(gens), count)
    assert biadditive_extend(c6, c6, (3, 1), deltas, deltas).op[3][3] == 3


@pytest.mark.parametrize("sys, odot", [
    (cyc(256), None), (zpair(256), sign_odot()),
], ids=["cyc256", "zpair256-sign"])
def test_multiplication_peaks_below_twice_its_table(sys, odot):
    """biadditive_extend checks only the k prescribed sections, at the
    generators, and nothing of the table it builds: no n x n transpose or
    other temporary of the table's size is built beside the result."""
    t = derive_addition(sys)
    tracemalloc.start()
    try:
        if odot is None:
            mu = derive_multiplication_single(sys, t)
        else:
            mu = derive_multiplication_indexed(sys, t, odot).table
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(mu.op) == sys.size
    assert peak < 2 * held


def test_single_map_multiplication_is_modular():
    """Also as mul runs it: the odot s odot s = s with no table given."""
    for n in range(1, 10):
        sys = cyc(n)
        mult = derive_multiplication_single(sys, derive_addition(sys))
        assert mult.op == tuple(
            tuple((i * j) % n for j in range(n)) for i in range(n)
        )
        res = derive_multiplication_indexed(sys, None, biadd._single_odot(sys))
        assert res == IndexedMultiplication(mult)


def test_rho_multiplication_matches_collapse_oracle():
    for t_len, ell in [(1, 1), (1, 2), (2, 3), (3, 2), (2, 5)]:
        sys = rho(t_len, ell)
        mult = derive_multiplication_single(sys, derive_addition(sys))
        for a in range(sys.size):
            for b in range(sys.size):
                assert mult.op[a][b] == rho_collapse(t_len, ell, a * b)


def test_odot_validate_and_properties():
    od = sign_odot()
    od.validate()
    with pytest.raises(OdotNotTotal):
        OdotTable(od.index_set, od.op, unit="0").validate()
    partial = OdotTable(("+", "-"), {("+", "+"): "+"})
    with pytest.raises(OdotNotTotal):
        partial.validate()


def test_indexed_multiplication_on_zpair_is_modular():
    for n in range(2, 8):
        sys = zpair(n)
        t = derive_addition(sys)
        res = derive_multiplication_indexed(sys, t, sign_odot())
        assert res.ok
        assert res.table.op == tuple(
            tuple((i * j) % n for j in range(n)) for i in range(n)
        )


def test_indexed_multiplication_rejects_wrong_index_set():
    sys = cyc(4)
    t = derive_addition(sys)
    with pytest.raises(IndexSetMismatch) as exc:
        derive_multiplication_indexed(sys, t, sign_odot())
    assert exc.value.src_labels == ("+", "-")
    assert exc.value.dst_labels == ("s",)


def test_indexed_multiplication_reports_structured_absence():
    # the row map at "+" would need x_+ -> x_+ and x_- -> x_+, i.e. a
    # homomorphism of Z4 with 1 -> 1 and 3 -> 1; no such endomorphism exists
    sys = zpair(4)
    t = derive_addition(sys)
    od = OdotTable(
        ("+", "-"),
        {("+", "+"): "+", ("+", "-"): "+", ("-", "+"): "+", ("-", "-"): "-"},
    )
    res = derive_multiplication_indexed(sys, t, od)
    assert not res.ok
    assert res.failing_label in ("+", "-")
    assert res.conflict is not None


def test_projections_exist_for_coordinate_generators():
    z6 = product_table(derive_addition(cyc(2)), derive_addition(cyc(3)))
    gens = (1 * 3 + 0, 0 * 3 + 1)
    deltas, failing, conflict = projections(z6, gens)
    assert deltas is not None and failing is None and conflict is None
    assert deltas[0].map[gens[0]] == gens[0]
    assert deltas[0].map[gens[1]] == z6.zero


def test_direct_sum_true_for_z2_x_z3():
    z6 = product_table(derive_addition(cyc(2)), derive_addition(cyc(3)))
    assert direct_sum_check(z6, (3, 1))


def test_direct_sum_false_for_z4_with_two_units():
    z4 = derive_addition(cyc(4))
    rep = direct_sum_report(z4, (1, 3))
    assert not rep.ok
    assert rep.failing_gen is not None
    assert rep.conflict is not None


def test_free_report_never_free_on_finite_data():
    z6 = product_table(derive_addition(cyc(2)), derive_addition(cyc(3)))
    rep = is_free_report(z6, (3, 1))
    assert rep.direct_sum.ok
    assert not rep.free
    for c in rep.cyclic:
        # the submonoid is the orbit of zero under +g, hence minimal
        orbit, a = [], z6.zero
        while a not in orbit:
            orbit.append(a)
            a = z6.op[c.generator][a]
        assert c.submonoid == tuple(sorted(orbit))
        assert not c.free


def test_free_report_requires_generators():
    z6 = derive_addition(cyc(6))
    with pytest.raises(GensDoNotGenerate):
        is_free_report(z6, (2,))


# -- the system path against the table path ----------------------------------


def table_free_report(t, gens):
    """is_free_report as it was: each projection's targets and each orbit
    read as rows of the table t, along require_generates' search."""
    tree = require_generates(t, gens)
    ds = DirectSumReport(True)
    for i in range(len(gens)):
        h, conflict = biadd._extend(tree, t.zero, [
            t.op[g if j == i else t.zero] for j, g in enumerate(gens)])
        if h is None:
            ds = DirectSumReport(False, i, conflict)
            break
    cyclic = []
    for i, g in enumerate(gens):
        points, tail = _orbit(t.op[g], t.zero)
        cyclic.append(CyclicFreeness(i, g, tuple(sorted(points)), tail == 0,
                                     tail == 0))
    return FreeReport(ds, cyclic)


def table_indexed(sys, t, odot):
    """derive_multiplication_indexed as it was: its sections' targets read
    as rows of t, along require_generates' search of t at the x_s."""
    labels = sys.index_set
    x = {s: f(sys.base) for s, f in zip(labels, sys.maps)}
    tree = require_generates(t, tuple(x.values()))
    columns = []
    for s in labels:
        for pairs in (((s, u) for u in labels), ((u, s) for u in labels)):
            h, conflict = biadd._extend(tree, t.zero,
                                        [t.op[x[odot.op[p]]] for p in pairs])
            if h is None:
                return IndexedMultiplication(None, s, conflict)
        columns.append(h)
    return IndexedMultiplication(biadd._rows(tree, t, t, columns))


Z16 = _shifts(MAX_CARRIER_SIZE, range(1, 32, 2))
U16_STEPS = [pow(257, i, MAX_CARRIER_SIZE) for i in range(16)]


def _free_report_differences(systems):
    """The systems on which free-report's body, run on require_minimal(sys)
    as the command runs it, is not table_free_report of
    derive_addition(sys) at the x_s = f_s(base), or where projections'
    maps and failure are not the padded walks and direct sum of the
    body's pass (biadd._label_pass, core's)."""
    differ = []
    for sys in systems:
        t = derive_addition(sys)
        gens = tuple(f(sys.base) for f in sys.maps)
        tree = require_minimal(sys)
        deltas, failing, conflict = projections(t, gens)
        rep = biadd._free_report(tree)
        walks = [h for h, *_ in biadd._label_pass(tree)]
        if (rep != table_free_report(t, gens)
                or (failing, conflict) != (rep.direct_sum.failing_gen,
                                           rep.direct_sum.conflict)
                or deltas is not None
                and [d.map for d in deltas] != list(map(tuple, walks))):
            differ.append(sys)
    return differ


def test_free_report_from_the_system_is_the_tables():
    """free-report reads its projections and orbits off the system's
    generation search, as row x_s of the addition is f_s; the report,
    conflict witnesses included, is the one read off the table, on every
    minimal system of the enumerations, the fixtures and z16."""
    systems = [*_minimal_systems(), Z16]
    assert _free_report_differences(systems) == []
    direct = [biadd._free_report(require_minimal(s)).direct_sum.ok
              for s in systems]
    assert direct.count(True) > 700 and direct.count(False) > 50


@pytest.mark.parametrize("old, new", [
    ("[step if j == k else",
     "[tree.steps[(k + 1) % len(tree.steps)] if j == k else"),
    ("_orbit(step, start)",
     "_orbit(tree.steps[(k + 1) % len(tree.steps)], start)"),
], ids=["projection", "orbit"])
def test_a_generator_read_from_the_next_label_is_caught(old, new,
                                                        monkeypatch):
    """Mutation check: the free-report body's pass (core._label_pass)
    reading generator k's row from label k + 1, in a projection's target
    or in its orbit, differs from the table's report on some two-map
    system."""
    monkeypatch.setattr(biadd, "_label_pass",
                        biadd_mutant(old, new, "_label_pass", core))
    two_maps = [s for s in _minimal_systems() if len(s.maps) == 2]
    assert _free_report_differences(two_maps) != []


def test_odot_sections_from_the_system_are_the_tables():
    """derive_multiplication_indexed extends its sections along
    require_minimal(sys) with the targets' rows f_s: the outcome, failing
    label and conflict witness included, is the one read off the table,
    with t given or built by the call, on the Z_63 odots; on u16 with two
    odots whose sections conflict, the call with t None fails without
    building the addition."""
    z63 = _shifts(63, (1, 22, 43))
    t = derive_addition(z63)
    outcomes = []
    for odot in _shift_odots(63, (1, 22, 43)):
        want = table_indexed(z63, t, odot)
        assert derive_multiplication_indexed(z63, t, odot) == want
        assert derive_multiplication_indexed(z63, None, odot) == want
        outcomes.append(want.ok)
    assert True in outcomes and False in outcomes
    u16 = _shifts(MAX_CARRIER_SIZE, U16_STEPS)
    product, left = itertools.islice(
        _shift_odots(MAX_CARRIER_SIZE, U16_STEPS), 2)
    last = product.index_set[-1]  # its row section breaks, at x_last only
    odots = [left, OdotTable(product.index_set, {
        **product.op, (last, last): product.index_set[0]})]
    got = []
    for odot in odots:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(biadd, "derive_addition", None)  # not called
            got.append(derive_multiplication_indexed(u16, None, odot))
    t = derive_addition(u16)
    assert got == [table_indexed(u16, t, odot) for odot in odots]
    assert [r.failing_label for r in got] == ["s1", last]
