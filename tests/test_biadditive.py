"""Homomorphism extension, biadditive tables and derived multiplication."""

import itertools
import tracemalloc

import pytest

from countsys.biadd import (
    HomTable,
    OdotTable,
    biadditive_extend,
    derive_multiplication_indexed,
    derive_multiplication_single,
    direct_sum_check,
    direct_sum_report,
    hom_add,
    hom_extend,
    hom_extend_report,
    identity_hom,
    is_biadditive,
    is_free_report,
    is_hom,
    make_hom,
    projections,
    zero_hom,
)
from countsys.derive import derive_addition, product_table
from countsys.errors import (
    CompatibilityViolated,
    GensDoNotGenerate,
    IndexSetMismatch,
    InternalInvariantViolation,
    OdotNotTotal,
    TargetCountMismatch,
)
from countsys.fixtures import SIGN_ODOT_LINES, cyc, rho, rho_collapse, zpair


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


def test_hom_add_is_pointwise():
    z5 = derive_addition(cyc(5))
    ident = identity_hom(z5)
    doubled = hom_add(ident, ident)
    assert doubled.map == tuple((2 * i) % 5 for i in range(5))
    assert is_hom(z5, z5, doubled.map)
    assert hom_add(ident, zero_hom(z5, z5)).map == ident.map


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


@pytest.mark.parametrize("sys, odot", [
    (cyc(256), None), (zpair(256), sign_odot()),
], ids=["cyc256", "zpair256-sign"])
def test_multiplication_peaks_below_twice_its_table(sys, odot):
    """The certificate reads the columns one at a time and the addition's
    rows as its columns: no n x n transpose is built beside the result."""
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
    for n in range(1, 10):
        sys = cyc(n)
        mult = derive_multiplication_single(sys, derive_addition(sys))
        assert mult.op == tuple(
            tuple((i * j) % n for j in range(n)) for i in range(n)
        )


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
