"""Carrier, map and system construction, minimality and core extraction."""

import pytest

from countsys.core import (
    Carrier,
    CountingSystem,
    EndoMap,
    adjoin_omega,
    is_dedekind,
    is_minimal,
    minimal_core,
    new_system,
    pad_single,
    product,
    propagate,
    reach,
    reachable_set,
    single_map_subsystem,
)
from countsys.errors import (
    BadIndex,
    DuplicateLabel,
    EmptyIndexSet,
    NonCommuting,
    SingleMapRequired,
    UnknownLabel,
)
from countsys.fixtures import cyc, one_point, rho, zpair


def test_carrier_rejects_duplicate_labels():
    with pytest.raises(DuplicateLabel):
        Carrier(("a", "b", "a"))


def test_carrier_rejects_empty_label():
    with pytest.raises(DuplicateLabel):
        Carrier(("a", ""))


def test_endomap_rejects_out_of_range_image():
    with pytest.raises(BadIndex):
        EndoMap((0, 3))


def test_endomap_compose_order():
    # (f . g)(x) = f(g(x))
    f = EndoMap((1, 2, 0))
    g = EndoMap((0, 0, 1))
    assert f.compose(g).table == (1, 1, 2)
    assert g.compose(f).table == (0, 1, 0)


def test_endomap_injective_iff_surjective_on_finite_carrier():
    for table in [(0, 1, 2), (1, 2, 0), (0, 0, 1), (2, 2, 2)]:
        f = EndoMap(table)
        surjective = set(table) == set(range(len(table)))
        assert f.is_injective() == surjective == f.is_bijective()


def test_new_system_rejects_empty_index_set():
    with pytest.raises(EmptyIndexSet):
        new_system(Carrier(("a",)), 0, (), ())


def test_new_system_rejects_bad_base():
    with pytest.raises(BadIndex):
        new_system(Carrier(("a", "b")), 2, ("s",), (EndoMap((0, 1)),))


def test_new_system_rejects_non_commuting_family():
    f = EndoMap((1, 0, 2))
    g = EndoMap((0, 2, 1))
    with pytest.raises(NonCommuting) as exc:
        new_system(Carrier(("a", "b", "c")), 0, ("s", "t"), (f, g))
    # the witness element actually distinguishes the two compositions
    x = exc.value.x
    assert f(g(x)) != g(f(x))


def test_new_system_accepts_commuting_family():
    sys = zpair(4)
    assert sys.map_for("+")(0) == 1
    assert sys.map_for("-")(0) == 3
    with pytest.raises(UnknownLabel):
        sys.map_for("*")


def test_minimality_of_fixtures():
    assert is_minimal(cyc(7))
    assert is_minimal(rho(3, 4))
    assert is_minimal(zpair(5))
    assert is_minimal(one_point())


def test_non_minimal_when_base_inside_cycle_of_rho():
    r = rho(2, 3)
    shifted = CountingSystem(r.carrier, 3, r.index_set, r.maps)
    assert not is_minimal(shifted)
    assert reachable_set(shifted) == {2, 3, 4}


def test_minimal_core_is_identity_on_minimal_systems():
    for sys in [cyc(6), rho(2, 3), zpair(5)]:
        assert minimal_core(sys) is sys


def test_minimal_core_restricts_and_relabels():
    r = rho(2, 3)
    shifted = CountingSystem(r.carrier, 4, r.index_set, r.maps)
    core = minimal_core(shifted)
    assert core.size == 3
    assert is_minimal(core)
    # discovery order from base 4 is 4, 2, 3
    assert core.carrier.labels == ("e4", "e2", "e3")
    assert minimal_core(core) is core


def test_product_carrier_and_base():
    p = product(cyc(2), cyc(3))
    assert p.size == 6
    assert p.base == 0
    assert p.index_set == ("(s,s)",)
    f = p.maps[0]
    # (1, 2) -> (0, 0), row-major index 1*3+2 -> 0
    assert f(1 * 3 + 2) == 0


def test_product_of_minimal_systems_can_be_non_minimal():
    # the diagonal map on Z2 x Z2 only reaches half the carrier
    p = product(cyc(2), cyc(2))
    assert not is_minimal(p)
    assert len(reachable_set(p)) == 2


def test_adjoin_omega_shape():
    w = adjoin_omega(cyc(3))
    assert w.size == 4
    assert w.base == 3
    assert w.carrier.labels[3] == "omega"
    assert w.maps[0](3) == 0  # the new point feeds the old base
    assert is_minimal(w)


def test_adjoin_omega_fresh_label_avoids_collision():
    sys = CountingSystem(
        Carrier(("omega", "x")), 0, ("s",), (EndoMap((1, 0)),)
    )
    w = adjoin_omega(sys)
    assert w.carrier.labels[2] == "omega_1"


def test_adjoin_omega_rejects_multi_map():
    with pytest.raises(SingleMapRequired) as exc:
        adjoin_omega(zpair(3))
    assert str(exc.value) == (
        "a single-map system is required; this one has 2 maps"
    )


def test_dedekind_always_false_on_finite_carrier():
    for sys in [cyc(1), cyc(5), rho(1, 2), rho(4, 3), one_point()]:
        assert not is_dedekind(sys)


def test_dedekind_rejects_multi_map():
    with pytest.raises(SingleMapRequired):
        is_dedekind(zpair(3))


def test_pad_single_keeps_one_map():
    z = zpair(4)
    padded = pad_single(z, "+")
    assert padded.map_for("+").table == z.map_for("+").table
    assert padded.map_for("-").table == EndoMap.identity(4).table
    with pytest.raises(UnknownLabel):
        pad_single(z, "*")


def test_single_map_subsystem():
    z = zpair(4)
    sub = single_map_subsystem(z, "-")
    assert sub.index_set == ("-",)
    assert sub.maps[0].table == z.map_for("-").table
    assert sub.base == z.base


# -- forced propagation --------------------------------------------------------

def test_propagate_reports_first_conflict():
    # a 3-cycle forcing v -> v + 1: element 0 keeps 0 and is forced 3
    prop = propagate(0, 0, [(lambda x: (x + 1) % 3, lambda v: v + 1)])
    assert prop.conflict == (0, 0, 3)
    assert prop.order == [0, 1, 2]
    assert prop.value == {0: 0, 1: 1, 2: 2}


def test_propagate_consistent_values_and_parents():
    # x -> 2x and x -> 3x on Z5; forcing v -> 2v and v -> 3v is consistent
    edges = [(lambda x: 2 * x % 5, lambda v: 2 * v % 5),
             (lambda x: 3 * x % 5, lambda v: 3 * v % 5)]
    prop = propagate(1, 1, edges)
    assert prop.conflict is None
    assert prop.order == [1, 2, 3, 4]
    assert prop.value == {1: 1, 2: 2, 3: 3, 4: 4}
    assert prop.parent == {2: (1, 0), 3: (1, 1), 4: (2, 0)}


def test_propagate_depth_bound():
    prop = propagate(0, 0, [(lambda x: x + 1, lambda v: v + 2)], depth=3)
    assert prop.order == [0, 1, 2, 3]
    assert prop.value[3] == 6
    assert propagate(0, None, [(lambda x: x + 1, None)], depth=0).order == [0]


def test_sorted_levels_differ_from_discovery_order():
    # Z5 under +1 (s) and -1 (t) on permuted indices, plus a fixed point 5:
    # level 1 is discovered as [4, 1], so sorting changes level 2
    s = EndoMap((4, 0, 3, 1, 2, 5))
    t = EndoMap((1, 3, 4, 2, 0, 5))
    sys = new_system(Carrier(tuple("abcdez")), 0, ("s", "t"), (s, t))
    edges = [(s.table.__getitem__, None), (t.table.__getitem__, None)]
    assert propagate(0, None, edges).order == [0, 4, 1, 2, 3]
    assert propagate(0, None, edges, sort_levels=True).order == [0, 4, 1, 3, 2]
    assert reach(sys).order == [0, 4, 1, 3, 2]
    assert reachable_set(sys) == {0, 1, 2, 3, 4}
    core = minimal_core(sys)
    assert core.carrier.labels == tuple("aebdc")
