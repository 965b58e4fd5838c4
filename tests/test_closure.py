"""Transformation-monoid closure and the evaluation map."""

import itertools
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from countsys import laws
from countsys.closure import (
    MAX_COMPOSITION_TABLE_SIZE,
    MAX_WORD_LABELS,
    TransformationMonoid,
    evaluation,
    is_invariant,
    monoid_closure,
)
from countsys.core import (
    Carrier,
    CountingSystem,
    EndoMap,
    is_minimal,
    new_system,
    propagate,
)
from countsys.derive import derive_addition
from countsys.errors import (
    ClosureTooLarge,
    CompositionTableTooLarge,
    InternalInvariantViolation,
    LimitExceeded,
    WordsTooLarge,
)
from countsys.fixtures import cyc, one_point, rho, zpair
from test_laws import FIXTURES, _enumeration, _power, _system


def oracle_comp(tm):
    """The composition table as the closure once built it: one validated
    compose per pair, looked up by image table."""
    index = {u.table: i for i, u in enumerate(tm.elements)}
    return tuple(
        tuple(index[ui.compose(uj).table] for uj in tm.elements)
        for ui in tm.elements
    )


def seed_monoid_closure(sys):
    """The closure as it was built in two passes: `propagate` finds the
    elements, then every (generator, element) pair is composed again to fill
    the Cayley graph and the parents are re-indexed by image table.  Its
    size limit, a `propagate` option, is left out."""
    prop = propagate(
        EndoMap.identity(sys.size), None, [(f.compose, None) for f in sys.maps]
    )
    elements = prop.order
    index = {u.table: i for i, u in enumerate(elements)}
    cayley = []
    for lab, f in zip(sys.index_set, sys.maps):
        row = [index.get(tuple(map(f.table.__getitem__, u.table)))
               for u in elements]
        assert None not in row
        cayley.append(tuple(row))
    gen_index = {
        lab: index[f.table] for lab, f in zip(sys.index_set, sys.maps)
    }
    for u in elements:
        for f in sys.maps:
            assert laws.intertwines(u.table, f.table, f.table) is None
    parent = (None,) + tuple(
        (index[prop.parent[u][0].table], prop.parent[u][1])
        for u in elements[1:]
    )
    return TransformationMonoid(
        tuple(elements), tuple(cayley), parent, gen_index
    )


def assert_matches_the_seed(sys):
    tm, seed = monoid_closure(sys), seed_monoid_closure(sys)
    assert [u.table for u in tm.elements] == [u.table for u in seed.elements]
    assert tm.cayley == seed.cayley
    assert tm.parent == seed.parent
    assert list(tm.gen_index.items()) == list(seed.gen_index.items())
    assert tm.words == seed.words


def cycles(lengths):
    """One permutation made of disjoint cycles of the given lengths; its
    closure is its powers, lcm(lengths) of them."""
    table, start = [], 0
    for ell in lengths:
        table += [start + (i + 1) % ell for i in range(ell)]
        start += ell
    labels = tuple(f"e{i}" for i in range(len(table)))
    return new_system(Carrier(labels), 0, ("s",), (EndoMap(tuple(table)),))


def test_identity_is_element_zero():
    tm = monoid_closure(cyc(4))
    assert tm.elements[0].table == (0, 1, 2, 3)
    assert tm.words[0] == ()


def test_cyclic_closure_is_the_powers_of_the_generator():
    for n in range(1, 9):
        tm = monoid_closure(cyc(n))
        assert tm.size == n
        # element with word of length k is the k-th power
        for i, word in enumerate(tm.words):
            k = len(word)
            assert tm.elements[i].table == tuple(
                (x + k) % n for x in range(n)
            )


def test_rho_closure_size_is_tail_plus_cycle():
    for t, ell in [(1, 1), (1, 2), (2, 3), (3, 2), (5, 4)]:
        tm = monoid_closure(rho(t, ell))
        # powers of f collapse exactly onto t + ell distinct maps
        assert tm.size == t + ell


def test_zpair_closure_collapses_inverse_pairs():
    # predecessor is the (n-1)-th power of successor, so the closure has
    # exactly n elements
    for n in range(2, 8):
        tm = monoid_closure(zpair(n))
        assert tm.size == n
        assert tm.comp[tm.gen_index["+"]][tm.gen_index["-"]] == 0


def test_composition_table_matches_function_composition():
    tm = monoid_closure(rho(2, 3))
    for i, j in itertools.product(range(tm.size), repeat=2):
        composed = tm.elements[i].compose(tm.elements[j])
        assert tm.elements[tm.comp[i][j]].table == composed.table


def test_closure_composition_is_commutative():
    for sys in [cyc(6), rho(3, 4), zpair(5)]:
        tm = monoid_closure(sys)
        for i, j in itertools.product(range(tm.size), repeat=2):
            assert tm.comp[i][j] == tm.comp[j][i]


def test_words_witness_their_elements():
    sys = zpair(5)
    tm = monoid_closure(sys)
    for i, word in enumerate(tm.words):
        u = EndoMap.identity(sys.size)
        for lab in word:
            u = sys.map_for(lab).compose(u)
        assert u.table == tm.elements[i].table


def test_closure_limit_is_enforced():
    with pytest.raises(ClosureTooLarge):
        monoid_closure(cyc(10), limit=5)


def test_closure_limit_raises_before_it_is_exceeded(monkeypatch):
    assert monoid_closure(cyc(10), limit=10).size == 10
    calls = _count_composes(monkeypatch)
    with pytest.raises(ClosureTooLarge):
        monoid_closure(cyc(10), limit=9)
    # raised on discovering the tenth element, f . u_8; none is expanded
    # after it
    assert len(calls) == 9


def test_evaluation_bijective_on_minimal_systems():
    for sys in [cyc(5), rho(2, 3), zpair(6), one_point()]:
        tm = monoid_closure(sys)
        ev = evaluation(tm, sys)
        assert ev.bijective
        assert sorted(ev.to_carrier) == list(range(sys.size))
        for i, x in enumerate(ev.to_carrier):
            assert ev.inverse[x] == i


def test_evaluation_not_bijective_on_non_minimal_systems():
    r = rho(2, 3)
    shifted = CountingSystem(r.carrier, 3, r.index_set, r.maps)
    tm = monoid_closure(shifted)
    ev = evaluation(tm, shifted)
    assert not ev.bijective
    assert ev.inverse is None


def test_is_invariant():
    r = rho(2, 3)
    assert is_invariant({2, 3, 4}, r)  # the cycle
    assert is_invariant(set(range(5)), r)
    assert not is_invariant({0, 1}, r)  # the tail leaks into the cycle


def test_generator_equal_to_identity_is_deduplicated():
    sys = CountingSystem(
        Carrier(("a", "b")), 0, ("s", "t"),
        (EndoMap((1, 0)), EndoMap((0, 1))),
    )
    tm = monoid_closure(sys)
    assert tm.size == 2
    assert tm.gen_index["t"] == 0


def test_lazy_comp_matches_the_pairwise_oracle():
    systems = list(FIXTURES)
    systems += [_system(0, tables) for tables in _enumeration()]
    for sys in systems:
        tm = monoid_closure(sys)
        assert tm.comp == oracle_comp(tm)


@st.composite
def non_minimal_two_map_systems(draw):
    """Disjoint union of two or three blocks A x B, with f = a x b^j and
    g = a^i x b on each: the maps commute, and the base, in one block,
    reaches no other."""
    f, g = [], []
    for _ in range(draw(st.integers(2, 3))):
        p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        a = draw(st.lists(st.integers(0, p - 1), min_size=p, max_size=p))
        b = draw(st.lists(st.integers(0, q - 1), min_size=q, max_size=q))
        i, j = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        start = len(f)
        for x, y in itertools.product(range(p), range(q)):
            f.append(start + a[x] * q + _power(b, j, y))
            g.append(start + _power(a, i, x) * q + b[y])
    n = len(f)
    return new_system(
        Carrier(tuple(f"e{x}" for x in range(n))),
        draw(st.integers(0, n - 1)), ("s", "t"),
        (EndoMap(tuple(f)), EndoMap(tuple(g))),
    )


@given(non_minimal_two_map_systems())
def test_lazy_comp_matches_the_pairwise_oracle_on_random_systems(sys):
    assert not is_minimal(sys)
    tm = monoid_closure(sys)
    assert tm.comp == oracle_comp(tm)


def _count_composes(monkeypatch):
    calls = []
    compose = EndoMap.compose

    def counted(self, other):
        calls.append(1)
        return compose(self, other)

    monkeypatch.setattr(EndoMap, "compose", counted)
    return calls


def test_closure_composes_once_per_cayley_edge(monkeypatch):
    calls = _count_composes(monkeypatch)
    for sys in FIXTURES + [rho(5, 4), zpair(7), cycles([3, 4, 5])]:
        calls.clear()
        tm = monoid_closure(sys)
        assert len(calls) == len(sys.maps) * tm.size
        tm.comp
        assert len(calls) == len(sys.maps) * tm.size


def test_closure_matches_the_two_pass_seed():
    systems = FIXTURES + [cycles([3, 4, 5])]
    systems += [_system(0, tables) for tables in _enumeration()]
    for sys in systems:
        assert_matches_the_seed(sys)


@given(non_minimal_two_map_systems())
def test_closure_matches_the_two_pass_seed_on_random_systems(sys):
    assert_matches_the_seed(sys)


def test_derive_addition_never_reads_comp(monkeypatch):
    def refuse(self):
        raise AssertionError("comp read")

    monkeypatch.setattr(TransformationMonoid, "comp", property(refuse))
    for sys in FIXTURES:
        derive_addition(sys)


def test_commutativity_guard_rejects_non_commuting_maps():
    # built without new_system, which would refuse the pair
    sys = CountingSystem(
        Carrier(("a", "b", "c")), 0, ("s", "t"),
        (EndoMap((1, 2, 0)), EndoMap((1, 0, 2))),
    )
    with pytest.raises(InternalInvariantViolation, match="not commutative"):
        monoid_closure(sys)


def test_full_table_is_refused_above_its_limit_before_allocating():
    tm = monoid_closure(cycles([5, 7, 9, 16]))  # 37 points
    assert tm.size == 5040 > MAX_COMPOSITION_TABLE_SIZE
    tracemalloc.start()
    try:
        with pytest.raises(CompositionTableTooLarge) as exc:
            tm.comp
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(exc.value, LimitExceeded)
    assert "closure --full" in str(exc.value)
    assert peak < 1 << 16


def test_words_are_refused_above_their_limit_before_allocating():
    tm = monoid_closure(cycles([5, 7, 9, 16]))
    # element i is the i-th power, at BFS depth i
    labels = tm.size * (tm.size - 1) // 2
    assert labels > MAX_WORD_LABELS
    tracemalloc.start()
    try:
        with pytest.raises(WordsTooLarge) as exc:
            tm.words
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(exc.value, LimitExceeded)
    assert (exc.value.size, exc.value.limit) == (labels, MAX_WORD_LABELS)
    assert "closure --json" in str(exc.value)
    # the words would hold a pointer per label
    assert peak < 1 << 20
