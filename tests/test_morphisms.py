"""System morphisms, the free multiset monoid and initiality diagnostics."""

import random

import pytest
from hypothesis import given, strategies as st

from countsys.core import CountingSystem
from countsys.derive import derive_addition
from countsys.errors import (
    DuplicateLabel,
    IndexSetMismatch,
    MinimalityRequired,
    UnknownLabel,
)
from countsys.fixtures import cyc, one_point, rho, zpair
from countsys.morphisms import (
    FreeElement,
    SystemMorphism,
    bridge_check,
    free_add,
    free_eval,
    free_remove_one,
    free_uniqueness_probe,
    free_unit,
    free_zero,
    initiality_report,
    is_isomorphism,
    is_morphism,
    morphism_find,
    relabel_index_set,
)


def test_morphism_cyc6_to_cyc3_is_reduction():
    m = morphism_find(cyc(6), cyc(3))
    assert m is not None
    assert m.map == (0, 1, 2, 0, 1, 2)
    assert is_morphism(m)


def test_no_morphism_cyc3_to_cyc6():
    assert morphism_find(cyc(3), cyc(6)) is None


def test_morphism_rho_to_its_cycle():
    # collapsing the tail of rho(2, 3) onto the 3-cycle
    m = morphism_find(rho(2, 3), cyc(3))
    assert m is not None
    assert m.map == tuple(i % 3 for i in range(5))


def test_morphism_requires_matching_index_sets():
    with pytest.raises(IndexSetMismatch):
        morphism_find(cyc(3), zpair(3))


def test_morphism_requires_minimal_source():
    r = rho(2, 3)
    shifted = CountingSystem(r.carrier, 3, r.index_set, r.maps)
    with pytest.raises(MinimalityRequired):
        morphism_find(shifted, cyc(3))


def test_relabel_enables_cross_label_search():
    z = zpair(4)
    renamed = relabel_index_set(z, {"+": "a", "-": "b"})
    assert renamed.index_set == ("a", "b")
    with pytest.raises(UnknownLabel):
        relabel_index_set(z, {"+": "a"})


def test_relabel_rejects_colliding_and_empty_labels():
    z = zpair(4)
    with pytest.raises(DuplicateLabel) as exc:
        relabel_index_set(z, {"+": "a", "-": "a"})
    assert exc.value.label == "a"
    with pytest.raises(DuplicateLabel):
        relabel_index_set(z, {"+": "a", "-": ""})


def test_identity_is_isomorphism():
    sys = zpair(5)
    ident = SystemMorphism(sys, sys, tuple(range(5)))
    assert is_isomorphism(ident)


def test_reduction_is_not_isomorphism():
    m = morphism_find(cyc(6), cyc(3))
    assert not is_isomorphism(m)


def test_nontrivial_automorphism_of_zpair():
    # negation swaps the successor and predecessor roles: the target has
    # "+" acting as predecessor and "-" as successor
    z = zpair(5)
    target = CountingSystem(
        z.carrier, z.base, ("+", "-"), (z.maps[1], z.maps[0])
    )
    m = morphism_find(z, target)
    assert m is not None
    assert m.map == (0, 4, 3, 2, 1)
    assert is_isomorphism(m)


def test_bridge_theorem_on_examples():
    src, dst = cyc(6), cyc(3)
    t_src, t_dst = derive_addition(src), derive_addition(dst)
    good = morphism_find(src, dst)
    assert bridge_check(good, t_src, t_dst)
    bad = SystemMorphism(src, dst, (0, 1, 2, 0, 1, 0))
    assert not is_morphism(bad)
    assert not bridge_check(bad, t_src, t_dst)


# -- free multiset monoid ----------------------------------------------------

labels = st.sampled_from(["a", "b", "c"])
free_elements = st.dictionaries(labels, st.integers(0, 5)).map(FreeElement.of)


def test_free_element_canonical_form():
    assert FreeElement.of({"a": 0, "b": 2}) == FreeElement.of({"b": 2})
    assert free_zero() == FreeElement.of({})
    assert free_unit("a").degree() == 1
    with pytest.raises(ValueError):
        FreeElement.of({"a": -1})


@given(free_elements, free_elements)
def test_free_add_commutative(e1, e2):
    assert free_add(e1, e2) == free_add(e2, e1)


@given(free_elements, free_elements, free_elements)
def test_free_add_associative(e1, e2, e3):
    assert free_add(free_add(e1, e2), e3) == free_add(e1, free_add(e2, e3))


@given(free_elements)
def test_free_add_unit(e):
    assert free_add(e, free_zero()) == e


@given(free_elements, labels)
def test_free_remove_one_inverts_adding_a_unit(e, lab):
    assert free_remove_one(free_add(e, free_unit(lab)), lab) == e


def test_free_remove_one_requires_presence():
    with pytest.raises(UnknownLabel):
        free_remove_one(free_zero(), "a")


def test_free_eval_on_zpair():
    z = zpair(5)
    e = FreeElement.of({"+": 3, "-": 1})
    assert free_eval(z, e) == 2
    assert free_eval(z, free_zero()) == 0
    with pytest.raises(UnknownLabel):
        free_eval(z, free_unit("x"))


def test_free_eval_is_order_independent():
    z = zpair(6)
    e = FreeElement.of({"+": 4, "-": 2})
    rng = random.Random(7)
    expanded = ["+"] * 4 + ["-"] * 2
    expected = free_eval(z, e)
    for _ in range(50):
        rng.shuffle(expanded)
        assert free_eval(z, e, order=list(expanded)) == expected


def test_free_uniqueness_probe_on_fixtures():
    for sys in [cyc(4), rho(2, 2), zpair(4), one_point()]:
        assert free_uniqueness_probe(sys, 8)


def test_free_uniqueness_probe_requires_minimality():
    r = rho(2, 3)
    shifted = CountingSystem(r.carrier, 3, r.index_set, r.maps)
    with pytest.raises(MinimalityRequired):
        free_uniqueness_probe(shifted, 5)


# -- initiality --------------------------------------------------------------

def test_initiality_always_fails_on_finite_fixtures():
    for sys in [cyc(1), cyc(6), rho(2, 3), zpair(5), one_point()]:
        rep = initiality_report(sys)
        assert not rep.initial
        assert rep.failing()
        for cond in rep.failing():
            assert not cond.core_dedekind


def test_initiality_diagnostics_cyc():
    rep = initiality_report(cyc(4))
    (cond,) = rep.conditions
    assert cond.morphism_to_padded  # single label: the padding is the system
    assert cond.core_size == 4
    assert cond.core_injective
    assert cond.base_in_core_image  # finite injective maps are surjective


def test_initiality_diagnostics_zpair():
    rep = initiality_report(zpair(5))
    assert {c.label for c in rep.conditions} == {"+", "-"}
    for cond in rep.conditions:
        # padding out the other generator leaves no morphism: the padded
        # system would need the identity to agree with a 5-cycle
        assert not cond.morphism_to_padded
        assert cond.core_size == 5


def test_initiality_requires_minimality():
    r = rho(2, 3)
    shifted = CountingSystem(r.carrier, 3, r.index_set, r.maps)
    with pytest.raises(MinimalityRequired):
        initiality_report(shifted)
