"""Derived addition tables: transfer, axioms, classification, Cayley check."""

import pytest

from countsys.core import (
    Carrier,
    CountingSystem,
    EndoMap,
    minimal_core,
    product,
    reach,
)
from countsys.derive import (
    cayley_embedding,
    classify,
    derive_addition,
    generates,
    product_table,
    reconstruct_addition,
    submonoid_closure,
    verify_plus_axioms,
)
from countsys.errors import MinimalityRequired
from countsys.fixtures import cyc, one_point, rho, rho_collapse, zpair
from test_laws import closure_transfer


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


def test_reconstruction_agrees_with_transfer():
    for sys in [cyc(7), rho(2, 4), zpair(6), one_point()]:
        assert reconstruct_addition(sys).op == closure_transfer(sys)


def word_applying_addition(sys):
    """The reference reconstruction: each element's whole generator word, read
    off its carrier-BFS parent path (maps in sorted-label order), applied to
    every b.  O(n^2 * depth)."""
    prop = reach(sys)
    labels = sorted(sys.index_set)
    word = {sys.base: ()}
    for y in prop.order[1:]:
        x, k = prop.parent[y]
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
    assert reconstruct_addition(sys).op == word_applying_addition(sys)


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
    assert witness[0] in ("shift", "reconstruction")
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
    t = derive_addition(cyc(6))
    assert submonoid_closure(t, (2,)) == {0, 2, 4}
    assert submonoid_closure(t, (2, 3)) == set(range(6))
    assert not generates(t, (2,))
    assert generates(t, (1,))
    assert generates(t, (5,))


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
