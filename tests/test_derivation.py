"""Derived addition tables: transfer, axioms, classification, Cayley check."""

import pytest

from countsys import core
from countsys.biadd import is_free_report
from countsys.core import (
    Carrier,
    CountingSystem,
    EndoMap,
    minimal_core,
    new_system,
    product,
    reach,
)
from countsys.derive import (
    cayley_embedding,
    classify,
    derive_addition,
    product_table,
    verify_plus_axioms,
)
from countsys.errors import MinimalityRequired, NonCommuting
from countsys.fixtures import cyc, one_point, rho, rho_collapse, zpair
from test_laws import (
    closure_transfer, dropped_addition_checks, generates, submonoid_closure,
)


def modular_table(n):
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def test_cyclic_addition_is_modular():
    for n in range(1, 12):
        t = derive_addition(cyc(n))
        assert t.op == modular_table(n)
        assert t.zero == 0


def test_zpair_addition_is_modular():
    for n in range(2, 10):
        t = derive_addition(zpair(n))
        assert t.op == modular_table(n)


def test_rho_addition_matches_exponent_collapse():
    for t_len, ell in [(1, 1), (1, 2), (2, 3), (3, 1), (4, 5)]:
        t = derive_addition(rho(t_len, ell))
        for a in range(t.size):
            for b in range(t.size):
                assert t.op[a][b] == rho_collapse(t_len, ell, a + b)


def test_derive_addition_requires_minimality():
    r = rho(2, 3)
    shifted = CountingSystem(r.carrier, 3, r.index_set, r.maps)
    with pytest.raises(MinimalityRequired) as exc:
        derive_addition(shifted)
    assert exc.value.unreachable == (0, 1)


# s . t and t . s differ at a: both send a to b, then t sends b to a and s
# sends b to c.  Point d is reached by neither map.
NON_COMMUTING = (EndoMap((1, 2, 0, 3)), EndoMap((1, 0, 2, 3)))


@pytest.mark.parametrize("n", [3, 4])
def test_counting_system_refuses_the_non_commuting_maps(n):
    """No system with these maps can be built, so derive_addition never sees
    one: neither on 3 points, where they reach everything, nor on 4, where
    point d is unreachable and minimality would be refused too."""
    maps = tuple(EndoMap(f.table[:n]) for f in NON_COMMUTING)
    with pytest.raises(NonCommuting) as exc:
        CountingSystem(Carrier(("a", "b", "c", "d")[:n]), 0, ("s", "t"), maps)
    assert (exc.value.s, exc.value.t, exc.value.x) == ("s", "t", 0)


def test_the_addition_proof_rests_on_the_constructors_commuting_check(
    monkeypatch
):
    """Mutation check: with noncommuting blinded, CountingSystem accepts the
    3-point maps, and derive_addition, which checks only minimality, returns
    a table that the checks its proof replaced reject."""
    monkeypatch.setattr(core, "noncommuting", lambda index_set, maps: None)
    sys = CountingSystem(Carrier(("a", "b", "c")), 0, ("s", "t"),
                         tuple(EndoMap(f.table[:3]) for f in NON_COMMUTING))
    assert dropped_addition_checks(sys, derive_addition(sys).op) is not None


@pytest.mark.parametrize("n", [3, 4])
def test_new_system_refuses_the_non_commuting_maps(n):
    maps = tuple(EndoMap(f.table[:n]) for f in NON_COMMUTING)
    with pytest.raises(NonCommuting) as exc:
        new_system(Carrier(("a", "b", "c", "d")[:n]), 0, ("s", "t"), maps)
    assert (exc.value.s, exc.value.t, exc.value.x) == ("s", "t", 0)


def test_reconstruction_agrees_with_transfer():
    for sys in [cyc(7), rho(2, 4), zpair(6), one_point()]:
        assert derive_addition(sys).op == closure_transfer(sys)


def word_applying_addition(sys):
    """The reference reconstruction: each element's whole generator word, read
    off its carrier-BFS parent path (maps in sorted-label order), applied to
    every b.  O(n^2 * depth)."""
    prop = reach(sys)
    labels = sorted(sys.index_set)
    word = {sys.base: ()}
    for x, k, y in prop.edges:
        word[y] = word[x] + (labels[k],)
    maps = dict(zip(sys.index_set, sys.maps))
    op = []
    for a in range(sys.size):
        row = []
        for b in range(sys.size):
            v = b
            for lab in word[a]:
                v = maps[lab](v)
            row.append(v)
        op.append(tuple(row))
    return tuple(op)


@pytest.mark.parametrize(
    "sys",
    [cyc(1), cyc(9), rho(3, 4), rho(1, 1), zpair(7),
     product(cyc(2), cyc(3)), minimal_core(product(zpair(4), zpair(6)))],
    ids=["cyc1", "cyc9", "rho34", "rho11", "zpair7", "c2xc3", "zz_core"],
)
def test_reconstruction_matches_the_word_applying_oracle(sys):
    assert derive_addition(sys).op == word_applying_addition(sys)


def test_verify_plus_axioms_passes_on_fixtures():
    for sys in [cyc(5), rho(3, 2), zpair(4)]:
        t = derive_addition(sys)
        ok, witness = verify_plus_axioms(sys, t)
        assert ok and witness is None


def test_verify_plus_axioms_reports_witnesses():
    sys = cyc(3)
    t = derive_addition(sys)
    bad_unit = type(t)(3, ((0, 1, 2), (1, 2, 0), (2, 0, 1)), 0)
    # tamper below the unit row so construction passes but the shift fails
    tampered = ((0, 1, 2), (1, 2, 0), (2, 0, 0))
    bad = type(t)(3, tampered, 0)
    ok, witness = verify_plus_axioms(sys, bad)
    assert not ok
    assert witness[0] == "shift"
    ok, witness = verify_plus_axioms(sys, bad_unit)
    assert ok


def test_classification_of_cyclic_groups():
    sys = cyc(6)
    c = classify(sys, derive_addition(sys))
    assert c.group and c.cancellative
    assert not c.zero_sum_free  # 1 + 5 = 0
    assert c.trichotomy


def test_classification_of_rho_shapes():
    sys = rho(2, 3)
    c = classify(sys, derive_addition(sys))
    assert not c.group and not c.cancellative
    assert c.zero_sum_free
    assert c.trichotomy


def test_trivial_monoid_is_group_and_zero_sum_free():
    c = classify(one_point(), derive_addition(one_point()))
    assert c.group and c.cancellative and c.zero_sum_free and c.trichotomy


def test_cayley_embedding_holds_on_all_fixtures():
    for sys in [cyc(1), cyc(8), rho(1, 1), rho(3, 4), zpair(5)]:
        assert cayley_embedding(derive_addition(sys))


def test_submonoid_closure_and_generates():
    # the test-side reference propagation; the cyclic submonoids that
    # is_free_report reads from the orbit of zero agree with it
    t = derive_addition(cyc(6))
    assert submonoid_closure(t, (2,)) == {0, 2, 4}
    assert submonoid_closure(t, (2, 3)) == set(range(6))
    assert not generates(t, (2,))
    assert generates(t, (1,))
    assert generates(t, (5,))
    rep = is_free_report(t, (2, 3))
    assert [c.submonoid for c in rep.cyclic] == [(0, 2, 4), (0, 3)]
    assert [set(c.submonoid) for c in rep.cyclic] == [
        submonoid_closure(t, (g,)) for g in (2, 3)]


def test_product_table_componentwise():
    a = derive_addition(cyc(2))
    b = derive_addition(cyc(3))
    p = product_table(a, b)
    assert p.size == 6
    assert p.zero == 0
    for i1 in range(2):
        for j1 in range(3):
            for i2 in range(2):
                for j2 in range(3):
                    left = p.op[i1 * 3 + j1][i2 * 3 + j2]
                    assert left == ((i1 + i2) % 2) * 3 + (j1 + j2) % 3
    assert cayley_embedding(p)
