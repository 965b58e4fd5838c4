"""Transformation-monoid closure and the evaluation map."""

import itertools
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from countsys import closure, laws
from countsys.closure import (
    MAX_CLOSURE_SIZE,
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
    require_minimal,
)
from countsys.derive import derive_addition
from countsys.errors import (
    ClosureTooLarge,
    CompositionTableTooLarge,
    LimitExceeded,
    NonCommuting,
    WordsTooLarge,
)
from countsys.fixtures import cyc, one_point, rho, zpair
from test_laws import FIXTURES, _enumeration, _power, _system, seed_propagate


def oracle_comp(tm):
    """The composition table as the closure once built it: one validated
    compose per pair, looked up by image table."""
    index = {u.table: i for i, u in enumerate(tm.elements)}
    return tuple(
        tuple(index[ui.compose(uj).table] for uj in tm.elements)
        for ui in tm.elements
    )


def seed_monoid_closure(sys):
    """The closure as it was built in two passes: `seed_propagate` finds the
    elements, then every (generator, element) pair is composed again to fill
    the Cayley graph and the parents are re-indexed by image table.  Its
    size limit, a propagation option, is left out.  Returns the closure's
    fields, the words spelled along the propagation's parents."""
    prop = seed_propagate(
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
    words = {elements[0]: ()}
    for u in elements[1:]:
        p, k = prop.parent[u]
        words[u] = words[p] + (sys.index_set[k],)
    return SimpleNamespace(
        elements=tuple(elements), cayley=tuple(cayley), parent=parent,
        gen_index=gen_index, words=tuple(words[u] for u in elements),
    )


def assert_matches_the_seed(sys):
    tm, seed = monoid_closure(sys), seed_monoid_closure(sys)
    assert tm.elements == seed.elements
    assert tm.cayley == seed.cayley
    assert tm.parent == seed.parent
    assert list(tm.gen_index.items()) == list(seed.gen_index.items())
    assert tm.words == seed.words


def cycles(lengths, n=None):
    """One permutation made of disjoint cycles of the given lengths, then
    fixed points up to n; its closure is its powers, lcm(lengths) of them."""
    table, start = [], 0
    for ell in lengths:
        table += [start + (i + 1) % ell for i in range(ell)]
        start += ell
    table += range(start, n or start)
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
    steps = _count_steps(monkeypatch)
    with pytest.raises(ClosureTooLarge):
        monoid_closure(cyc(10), limit=9)
    # raised on discovering the tenth element, f . u_8; none is expanded
    # after it
    assert len(steps) == 9


def test_the_declared_closure_limit_is_enforced():
    sys = cycles([7, 8, 9, 11, 13])  # lcm 72072 > 65536
    with pytest.raises(ClosureTooLarge) as exc:
        monoid_closure(sys)
    assert exc.value.limit == MAX_CLOSURE_SIZE == 1 << 16


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


def _count(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _count_steps(monkeypatch):
    """Counts the key steps: every `_gather` that the closure module makes."""
    return _count(monkeypatch, closure, "_gather")


def test_closure_steps_once_per_cayley_edge(monkeypatch):
    composes = _count(monkeypatch, EndoMap, "compose")
    steps = _count_steps(monkeypatch)
    for sys in FIXTURES + [rho(5, 4), zpair(7), cycles([3, 4, 5])]:
        steps.clear()
        tm = monoid_closure(sys)
        assert len(steps) == len(sys.maps) * tm.size
        tm.comp, tm.words  # read from the Cayley graph: no map is composed
        assert not composes and "elements" not in vars(tm)
        tm.elements
        assert len(composes) == tm.size - 1
        composes.clear()


def assert_is_the_generation_search(sys):
    """The closure of a minimal system is require_minimal's search, keyed
    by the base alone and relabelled by discovery position."""
    tree = require_minimal(sys)
    at = {x: i for i, x in enumerate(tree.order)}
    tm = monoid_closure(sys)
    assert tm.keys == tuple((x,) for x in tree.order)
    assert tm.parent[1:] == tuple((at[p], k) for p, k, _c in tree.edges)
    assert tm.cayley == tuple(
        tuple(at[step[x]] for x in tree.order) for step in tree.steps
    )


def z16():
    """Z_4096 with the 16 maps x -> x + c, c = 1, 3, ..., 31."""
    n, shifts = 4096, range(1, 32, 2)
    return new_system(
        Carrier(tuple(f"e{x}" for x in range(n))), 0,
        tuple(f"s{c}" for c in shifts),
        tuple(EndoMap(tuple((x + c) % n for x in range(n))) for c in shifts),
    )


def test_closure_of_a_minimal_system_is_its_generation_search():
    systems = [s for s in FIXTURES if is_minimal(s)] + [z16()]
    for tables in _enumeration():
        systems += [_system(b, tables) for b in range(len(tables[0]))]
    searched = 0
    for sys in systems:
        if is_minimal(sys):
            assert_is_the_generation_search(sys)
            searched += 1
    assert searched > 800


def test_the_key_holds_every_moved_point_the_base_does_not_reach():
    # f^0 and f^3 agree at base 3 of rho(2, 3): 3 -> 4 -> 2 -> 3
    r = rho(2, 3)
    tm = monoid_closure(CountingSystem(r.carrier, 3, r.index_set, r.maps))
    assert tm.keys[0] == (3, 0, 1) and tm.size == 5
    # the base is fixed, and point 1 alone tells f from the identity
    assert monoid_closure(_system(0, [(0, 2, 2)])).keys == ((0, 1), (0, 2))


def test_a_65520_element_closure_on_4096_points_stays_small():
    sys = cycles([5, 7, 9, 16, 13], 4096)
    tracemalloc.start()
    try:
        tm = monoid_closure(sys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tm.size == 65520
    assert len(tm.keys[0]) == 1 + 7 + 9 + 16 + 13
    # 65520 image tables of 4096 points would take 2 GB
    assert peak < 48 << 20
    with pytest.raises(CompositionTableTooLarge):
        tm.comp
    with pytest.raises(WordsTooLarge):
        tm.words


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
    # monoid_closure's commutativity rests on this guard in the constructor
    with pytest.raises(NonCommuting) as exc:
        CountingSystem(
            Carrier(("a", "b", "c")), 0, ("s", "t"),
            (EndoMap((1, 2, 0)), EndoMap((1, 0, 2))),
        )
    assert (exc.value.s, exc.value.t, exc.value.x) == ("s", "t", 0)


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
