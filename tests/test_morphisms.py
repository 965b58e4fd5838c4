"""System morphisms, the free multiset monoid and initiality diagnostics."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from countsys.core import CountingSystem, is_minimal, propagate
from countsys.derive import derive_addition
from countsys.errors import (
    DuplicateLabel,
    IndexSetMismatch,
    MinimalityRequired,
    UnknownLabel,
)
from countsys.fixtures import cyc, one_point, rho, rho_collapse, zpair
from countsys.morphisms import (
    FreeElement,
    SystemMorphism,
    bridge_check,
    free_add,
    free_eval,
    free_uniqueness_probe,
    free_unit,
    free_zero,
    initiality_report,
    is_isomorphism,
    is_morphism,
    morphism_find,
    relabel_index_set,
)
from test_laws import _system


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
    assert is_morphism(m)


def inverse(m):
    """The inverse of a bijective morphism, as a map dst -> src."""
    inv = [0] * m.dst.size
    for x, y in enumerate(m.map):
        inv[y] = x
    return SystemMorphism(m.dst, m.src, tuple(inv))


def test_found_morphisms_pass_the_exhaustive_check():
    # morphism_find and is_isomorphism no longer re-check what their
    # construction implies; is_morphism is the oracle, and a brute-force
    # search over all maps confirms each None
    sources = [
        _system(0, [f]) for n in range(1, 5)
        for f in itertools.product(range(n), repeat=n)
    ]
    targets = [
        _system(base, [f]) for n in range(1, 4)
        for f in itertools.product(range(n), repeat=n)
        for base in range(n)
    ]
    for src in filter(is_minimal, sources):
        for dst in targets:
            m = morphism_find(src, dst)
            if m is not None:
                assert is_morphism(m)
                if is_isomorphism(m):
                    assert is_morphism(inverse(m))
                continue
            assert not any(
                is_morphism(SystemMorphism(src, dst, h))
                for h in itertools.product(range(dst.size), repeat=src.size)
            )


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
    assert is_morphism(inverse(ident))


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
    assert is_morphism(inverse(m))


def test_bridge_theorem_on_examples():
    src, dst = cyc(6), cyc(3)
    t_src, t_dst = derive_addition(src), derive_addition(dst)
    good = morphism_find(src, dst)
    assert bridge_check(good, t_src, t_dst)
    bad = SystemMorphism(src, dst, (0, 1, 2, 0, 1, 0))
    assert not is_morphism(bad)
    assert not bridge_check(bad, t_src, t_dst)


def test_maps_are_paired_by_label_not_position():
    # the same zpair(5), with its labels declared in the other order: the
    # identity is a morphism, an isomorphism and a bridge
    z = zpair(5)
    swapped = CountingSystem(
        z.carrier, z.base, ("-", "+"), (z.maps[1], z.maps[0])
    )
    m = morphism_find(z, swapped)
    assert m is not None
    assert m.map == tuple(range(5))
    assert is_isomorphism(m)
    assert is_morphism(inverse(m))
    t = derive_addition(z)
    assert bridge_check(m, t, derive_addition(swapped))
    assert morphism_find(swapped, z).map == tuple(range(5))


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


def free_remove_one(e, label):
    """e less one unit at `label` (the step down of `way_down_probe`);
    UnknownLabel if e holds none."""
    counts = dict(e.multiplicity)
    if counts.get(label, 0) < 1:
        raise UnknownLabel(label, tuple(counts))
    counts[label] -= 1
    return FreeElement.of(counts)


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


def test_free_eval_reduces_counts_along_tail_and_cycle():
    # rho(t, ell): f^k(0) = rho_collapse(t, ell, k); the walk is at most
    # t + ell steps, so huge counts are no slower than small ones
    for t_len, ell in [(0, 6), (2, 3), (4, 1), (3, 5)]:
        sys = rho(t_len, ell)
        for k in [*range(3 * (t_len + ell)), 10**10, 10**30 + 7]:
            e = FreeElement.of({"s": k})
            assert free_eval(sys, e) == rho_collapse(t_len, ell, k)
    z = zpair(7)
    e = FreeElement.of({"+": 10**12 + 3, "-": 10**12})
    assert free_eval(z, e) == 3


def way_down_probe(target, bound):
    """The probe with its deleted pass: every way down by one unit from an
    element of degree <= bound gives the value propagation forced on it."""
    prop = propagate(free_zero(), target.base, [
        (lambda e, u=free_unit(lab): free_add(e, u), target.map_for(lab))
        for lab in target.index_set
    ], depth=bound)
    if prop.conflict is not None:
        return False
    values = prop.value
    for e, v in values.items():
        if v != free_eval(target, e):
            return False
        for lab, _count in e.multiplicity:
            prev = free_remove_one(e, lab)
            if target.map_for(lab)(values[prev]) != v:
                return False
    return True


def test_free_uniqueness_probe_on_fixtures():
    for sys in [cyc(4), rho(2, 2), zpair(4), one_point()]:
        assert free_uniqueness_probe(sys, 8)
        assert way_down_probe(sys, 8)


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
