"""Carrier, map and system construction, minimality and core extraction."""

import copy
import importlib
import inspect
import itertools
import pickle
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from countsys import laws
from countsys.core import (
    MAX_CARRIER_SIZE,
    Carrier,
    CountingSystem,
    EndoMap,
    ExtensionConflict,
    Propagation,
    _intertwined,
    _walk,
    adjoin_omega,
    is_dedekind,
    is_minimal,
    minimal_core,
    new_system,
    noncommuting,
    pad_single,
    product,
    propagate,
    reach,
    reachable_set,
    require_minimal,
    single_map_subsystem,
    _gather,
)
from countsys.errors import (
    BadIndex,
    DuplicateLabel,
    EmptyIndexSet,
    MinimalityRequired,
    NonCommuting,
    SingleMapRequired,
    UnknownLabel,
)
from countsys.fixtures import cyc, one_point, rho, zpair
from test_laws import seed_propagate
from countsys.derive import derive_addition, require_generates
from countsys.morphisms import relabel_index_set
from test_laws import (
    FIXTURES,
    _enumeration,
    _shifts,
    _system,
    minimal_systems,
)


@st.composite
def gathers(draw):
    """(seq, idx): a tuple, list, dict or range, and a tuple or list of its
    keys, with repeats, of any length from 0."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from((tuple, list, dict, range)))
    if kind is dict:
        keys = draw(st.lists(st.text(max_size=2), min_size=n, max_size=n,
                             unique=True))
        seq = dict(zip(keys, draw(st.lists(st.integers(), min_size=n,
                                           max_size=n))))
    elif kind is range:
        keys, start = range(n), draw(st.integers(-5, 5))
        seq = range(start, start + n)
    else:
        keys = range(n)
        seq = kind(draw(st.lists(st.integers(), min_size=n, max_size=n)))
    idx = draw(st.lists(st.sampled_from(list(keys)), max_size=8))
    return seq, draw(st.sampled_from((tuple, list)))(idx)


@settings(deadline=None)
@given(gathers())
@example(((7,), ()))
@example(((7,), (0,)))
@example(({"a": 1, "b": 2}, ["b"]))
@example((["x", "y"], (1, 1, 0)))
@example((range(3, 6), range(3)))
def test_gather_is_the_tuple_of_the_indexed_items(case):
    seq, idx = case
    got = _gather(seq, idx)
    assert type(got) is tuple
    assert got == tuple(seq[i] for i in idx)


def test_itemgetter_of_many_indices_appears_only_in_gather():
    """Every n-cell index gather goes through core._gather, the one place
    that knows itemgetter's one-index case: `itemgetter(*` appears nowhere
    else in the package."""
    body = inspect.getsource(_gather)
    assert "itemgetter(*" in body
    assert laws._gather is _gather
    package = Path(inspect.getsourcefile(_gather)).parent
    for path in sorted(package.glob("*.py")):
        text = path.read_text("utf-8")
        if path.name == "core.py":
            text = text.replace(body, "", 1)
        assert "itemgetter(*" not in text, path.name


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


def test_endomap_compose_equals_the_checked_construction():
    """compose is the map the checked constructor builds from the gathered
    table, and it stays a frozen, hashable EndoMap."""
    for n in (1, 2, 5, 17):
        maps = [EndoMap(tuple((a * x + b) % n for x in range(n)))
                for a in range(3) for b in range(3)]
        for f in maps:
            for g in maps:
                fg = f.compose(g)
                checked = EndoMap(tuple(f.table[j] for j in g.table))
                assert type(fg) is EndoMap and fg == checked
                assert hash(fg) == hash(checked)
                assert type(fg.table) is tuple
                with pytest.raises(AttributeError):
                    fg.table = checked.table


def test_endomap_compose_checks_tables_of_unequal_length():
    # (2, 2, 2) after (0, 1) is (2, 2): image 2 on a carrier of size 2
    with pytest.raises(BadIndex) as info:
        EndoMap((2, 2, 2)).compose(EndoMap((0, 1)))
    assert (info.value.value, info.value.size) == (2, 2)
    assert EndoMap((1, 0, 0)).compose(EndoMap((0, 1))) == EndoMap((1, 0))


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


def oracle_noncommuting(labels, tables):
    """The first (s, t, x) with f_s(f_t(x)) != f_t(f_s(x)), cell by cell
    over the label pairs in order, or None."""
    return next((
        (labels[i], labels[j], x)
        for i, j in itertools.combinations(range(len(tables)), 2)
        for x in range(len(tables[i]))
        if tables[i][tables[j][x]] != tables[j][tables[i][x]]), None)


@pytest.mark.parametrize("n, k", [(1, 2), (2, 2), (3, 2), (2, 3), (2, 4)])
def test_noncommuting_names_the_first_failing_pair_and_element(n, k):
    """The composites are compared whole, and each distinct table once, yet
    the witness is the first that a cell-by-cell loop finds: over every
    family of k maps on n points, repeated maps among them."""
    labels = ("s", "t", "u", "v")[:k]
    tables = list(itertools.product(range(n), repeat=n))
    for family in itertools.product(tables, repeat=k):
        maps = tuple(map(EndoMap, family))
        assert noncommuting(labels, maps) == oracle_noncommuting(
            labels, family), family


def _constructions(sys, other):
    """sys, and each system that `core` and `morphisms` build from it: its
    minimal core, its product with `other`, each label padded and alone,
    its labels renamed and, for one map, omega adjoined."""
    yield sys
    yield minimal_core(sys)
    yield product(sys, other)
    yield relabel_index_set(sys, {lab: lab + "'" for lab in sys.index_set})
    for lab in sys.index_set:
        yield pad_single(sys, lab)
        yield single_map_subsystem(sys, lab)
    if len(sys.maps) == 1:
        yield adjoin_omega(sys)


def _assert_commutes(sys):
    for built in _constructions(sys, zpair(2)):
        tables = [f.table for f in built.maps]
        assert oracle_noncommuting(built.index_set, tables) is None, built


def test_every_construction_commutes_on_enumerations_and_fixtures():
    """Every CountingSystem commutes, whoever builds it: checked against
    the cell-by-cell oracle, not against the constructor's own check."""
    for sys in FIXTURES:
        _assert_commutes(sys)
    for tables in _enumeration():
        _assert_commutes(_system(0, tables))


@settings(max_examples=30, deadline=None)
@given(minimal_systems())
def test_every_construction_commutes_on_random_minimal_systems(sys):
    _assert_commutes(sys)


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


def per_cell_product(a, b):
    """The product as core.product built it before it read whole tables:
    two EndoMap calls per cell."""
    n, m = a.size, b.size
    labels = tuple(
        f"({la},{lb})" for la in a.carrier.labels for lb in b.carrier.labels
    )
    index_set = tuple(f"({s},{t})" for s in a.index_set for t in b.index_set)
    maps = []
    for fs in a.maps:
        for gt in b.maps:
            table = tuple(
                fs(i) * m + gt(j) for i in range(n) for j in range(m)
            )
            maps.append(EndoMap(table))
    return CountingSystem(
        Carrier(labels), a.base * m + b.base, index_set, tuple(maps)
    )


def n_scaled_product(a, b):
    """Mutant of core.product: a's images are scaled by a's own size n,
    not by b's size m."""
    n = a.size
    maps = [EndoMap(tuple(i * n + j for i in fs.table for j in gt.table))
            for fs in a.maps for gt in b.maps]
    p = product(a, b)
    return CountingSystem(p.carrier, p.base, p.index_set, maps)


def _is_per_cell_product(build, a, b):
    """build(a, b) is the per-cell product; a mutant may instead fail on
    an image out of range or maps that do not commute."""
    try:
        return build(a, b) == per_cell_product(a, b)
    except (BadIndex, NonCommuting):
        return False


@settings(max_examples=40, deadline=None)
@given(minimal_systems(), minimal_systems())
def test_product_is_the_per_cell_build_on_random_systems(a, b):
    """The whole-table build equals the per-cell one; the mutant scaling
    by n is caught wherever it builds something else: a has an image
    i > 0 and n != m."""
    assert _is_per_cell_product(product, a, b)
    if a.size != b.size and any(max(f.table) > 0 for f in a.maps):
        assert not _is_per_cell_product(n_scaled_product, a, b)


def test_product_is_the_per_cell_build_at_the_limits():
    """A 4096-point factor with 16 labels times one point, each way
    round, and the fixtures pairwise; the mutant is caught on the first."""
    z16 = _shifts(MAX_CARRIER_SIZE, range(1, 32, 2))
    pairs = [(z16, one_point()), (one_point(), z16),
             *itertools.product(FIXTURES, repeat=2)]
    for a, b in pairs:
        assert _is_per_cell_product(product, a, b)
    caught = [not _is_per_cell_product(n_scaled_product, a, b)
              for a, b in pairs]
    assert caught[0] and sum(caught) > 1


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
# The forcing tests pin down seed_propagate, the test-side oracle that
# forces values along the search propagate keeps.

def test_propagate_reports_first_conflict():
    # a 3-cycle forcing v -> v + 1: element 0 keeps 0 and is forced 3
    prop = seed_propagate(0, 0, [(lambda x: (x + 1) % 3, lambda v: v + 1)])
    assert prop.conflict == (0, 0, 3)
    assert prop.order == [0, 1, 2]
    assert prop.value == {0: 0, 1: 1, 2: 2}


def test_propagate_consistent_values_and_parents():
    # x -> 2x and x -> 3x on Z5; forcing v -> 2v and v -> 3v is consistent
    edges = [(lambda x: 2 * x % 5, lambda v: 2 * v % 5),
             (lambda x: 3 * x % 5, lambda v: 3 * v % 5)]
    prop = seed_propagate(1, 1, edges)
    assert prop.conflict is None
    assert prop.order == [1, 2, 3, 4]
    assert prop.value == {1: 1, 2: 2, 3: 3, 4: 4}
    assert prop.parent == {2: (1, 0), 3: (1, 1), 4: (2, 0)}
    tables = [tuple(step(x) for x in range(5)) for step, _push in edges]
    tree = propagate(1, tables)
    assert tree.order == prop.order
    assert tree.edges == [(1, 0, 2), (1, 1, 3), (2, 0, 4)]


def test_walk_forces_values_along_the_tree_and_is_checked_per_edge():
    # Z6 under +1 and +3 from 0, onto Z2: reduction mod 2 intertwines +1
    # and +3 with the swap; walked with the identity for +3, it breaks
    steps = [(1, 2, 3, 4, 5, 0), (3, 4, 5, 0, 1, 2)]
    tree = propagate(0, steps)
    assert tree.edges == [(0, 0, 1), (0, 1, 3), (1, 0, 2), (1, 1, 4),
                          (2, 1, 5)]
    swap, ident = (1, 0), range(2)
    h = _walk(tree, 0, [swap, swap])
    assert h == [0, 1, 0, 1, 0, 1] and _intertwined(h, tree, [swap, swap])
    h = _walk(tree, 0, [swap, ident])
    assert h == [0, 1, 0, 0, 1, 0]
    assert not _intertwined(h, tree, [swap, ident])


def test_propagate_depth_bound():
    prop = seed_propagate(0, 0, [(lambda x: x + 1, lambda v: v + 2)], depth=3)
    assert prop.order == [0, 1, 2, 3]
    assert prop.value[3] == 6
    assert seed_propagate(0, None, [(lambda x: x + 1, None)],
                          depth=0).order == [0]


def test_propagate_keeps_only_the_search():
    assert list(inspect.signature(propagate).parameters) == [
        "start", "steps", "sort_levels"]
    assert Propagation.__slots__ == ("order", "edges", "steps")


def test_sorted_levels_differ_from_discovery_order():
    # Z5 under +1 (s) and -1 (t) on permuted indices, plus a fixed point 5:
    # level 1 is discovered as [4, 1], so sorting changes level 2
    s = EndoMap((4, 0, 3, 1, 2, 5))
    t = EndoMap((1, 3, 4, 2, 0, 5))
    sys = new_system(Carrier(tuple("abcdez")), 0, ("s", "t"), (s, t))
    steps = [s.table, t.table]
    assert propagate(0, steps).order == [0, 4, 1, 2, 3]
    assert propagate(0, steps, sort_levels=True).order == [0, 4, 1, 3, 2]
    assert reach(sys).order == [0, 4, 1, 3, 2]
    assert reachable_set(sys) == {0, 1, 2, 3, 4}
    core = minimal_core(sys)
    assert core.carrier.labels == tuple("aebdc")


def test_propagate_over_tables_is_the_seed_search_on_enumerations():
    """Over index tables, propagate finds what seed_propagate found over
    their bound __getitem__, from every start of every enumerated family,
    of the fixtures and of the family above whose sorted levels differ,
    with levels in discovery order or sorted: the same order, and the
    edge (p, k, c) for each parent[c] = (p, k)."""
    families = [*_enumeration(), [(4, 0, 3, 1, 2, 5), (1, 3, 4, 2, 0, 5)],
                *([f.table for f in sys.maps] for sys in FIXTURES)]
    for tables in families:
        edges = [(table.__getitem__, None) for table in tables]
        for start in range(len(tables[0])):
            for sort_levels in (False, True):
                tree = propagate(start, tables, sort_levels)
                seed = seed_propagate(start, None, edges, sort_levels)
                assert tree.order == seed.order
                assert tree.edges == [(*seed.parent[c], c)
                                      for c in seed.order[1:]]


def test_a_tree_keeps_the_tables_it_searched():
    """Each tree.steps[k] is the table edge k read, not a copy: a map's
    table in label order for reach, a row of the addition for
    require_generates."""
    for sys in FIXTURES:
        tree = reach(sys)
        maps = [f for _lab, f in sorted(zip(sys.index_set, sys.maps))]
        assert len(tree.steps) == len(maps)
        assert all(step is f.table for step, f in zip(tree.steps, maps))
        if is_minimal(sys):
            t = derive_addition(sys)
            gens = [f(sys.base) for f in sys.maps]
            tree = require_generates(t, gens)
            assert len(tree.steps) == len(gens)
            assert all(step is t.op[g] for step, g in zip(tree.steps, gens))


def test_require_minimal_is_the_search_of_the_derived_table():
    """require_minimal searches with edge k along sys.maps[k], levels in
    discovery order: require_generates' search of derive_addition(sys) at
    the x_s = f_s(base), since row x_s of that table is f_s and its zero
    the base.  Same order and edges on every enumerated system, every
    fixture and Z_4096 with the 16 shifts by 257^i; a system that is not
    minimal raises in both, naming the same elements."""
    u16 = _shifts(4096, [pow(257, i, 4096) for i in range(16)])
    systems = [*FIXTURES, u16]
    systems += [_system(base, tables) for tables in _enumeration()
                for base in range(len(tables[0]))]
    searched = 0
    for sys in systems:
        try:
            tree = require_minimal(sys)
        except MinimalityRequired as exc:
            with pytest.raises(MinimalityRequired) as info:
                derive_addition(sys)
            assert info.value.unreachable == exc.unreachable
            continue
        gens = tuple(f(sys.base) for f in sys.maps)
        want = require_generates(derive_addition(sys), gens)
        assert (tree.order, tree.edges) == (want.order, want.edges), sys
        assert all(step is f.table for step, f in zip(tree.steps, sys.maps))
        searched += 1
    assert searched > 800


def test_endomap_names_the_first_bad_image():
    for table, bad in [
        ((0, "a", 7, 1), "a"),  # a str before an out-of-range int
        ((0, 7, "a", 1), 7),
        ((1, 0, -1, 2), -1),
        ((1.0, 0), 1.0),
        ((0, 1, 2, 4), 4),
    ]:
        with pytest.raises(BadIndex) as info:
            EndoMap(table)
        assert info.value.value == bad
        assert type(info.value.value) is type(bad)
        assert info.value.size == len(table)
    assert EndoMap((True, 0)).table == (1, 0)
    assert EndoMap(()).table == ()


def _value_cases():
    """(make, field): make(i) builds an instance from field values chosen by
    i, equal for equal i and different in one field for different i; field
    names a field of a frozen class, None for a mutable one.  One case per
    record class, the first eight in a fixed order."""
    from countsys.analysis import AnalysisReport, MapFlags
    from countsys.biadd import (
        BiadditiveTable,
        CyclicFreeness,
        DirectSumReport,
        FreeReport,
        HomTable,
        IndexedMultiplication,
    )
    from countsys.closure import EvaluationMap
    from countsys.derive import Classification, MonoidTable
    from countsys.dsl import OdotTable, SystemDocument
    from countsys.morphisms import (
        FreeElement,
        InitialityCondition,
        InitialityReport,
        SystemMorphism,
    )

    def table(i):
        return MonoidTable(2, ((0, 1), (1, i)), 0)

    def condition(i):
        return InitialityCondition("s", i == 0, 1, True, True, False)

    return [
        (lambda i: EndoMap((i, 1)), "table"),
        (lambda i: Carrier(("a", f"b{i}")), "labels"),
        (lambda i: CountingSystem(
            Carrier(("a",)), 0, (f"s{i}",), (EndoMap((0,)),)), "index_set"),
        (lambda i: FreeElement.of(s=i + 1), "multiplicity"),
        (table, None),
        (lambda i: HomTable(table(0), table(0), (0, i)), None),
        (lambda i: DirectSumReport(False, i), None),
        (lambda i: ExtensionConflict(1, i, 0), None),
        (lambda i: MapFlags(True, True, i == 0), None),
        (lambda i: AnalysisReport(True, 1, {"s": MapFlags(i, i, i)}, None,
                                  False), None),
        (lambda i: BiadditiveTable(table(0), table(0), ((0, 0), (0, i))),
         None),
        (lambda i: OdotTable(("s",), {("s", "s"): f"s{i}"}), None),
        (lambda i: IndexedMultiplication(
            None, "s", ExtensionConflict(1, i, 0)), None),
        (lambda i: CyclicFreeness(0, 1, (0, 1), True, i == 1), None),
        (lambda i: FreeReport(DirectSumReport(i == 0), ()), None),
        (lambda i: EvaluationMap((0, 1), True, (i, 1 - i)), None),
        (lambda i: Propagation([0, 1], [(0, i, 1)], [(1, 0)] * 2), None),
        (lambda i: Classification(False, False, True, i == 0), None),
        (lambda i: SystemDocument(f"c{i}", one_point()), None),
        (lambda i: SystemMorphism(one_point(), one_point(), (i,)), None),
        (condition, None),
        (lambda i: InitialityReport([condition(i)]), None),
    ]


# The fields a record may be built without, and the value each then holds.
OMITTED = {
    "OdotTable": {"unit": None},
    "IndexedMultiplication": {"failing_label": None, "conflict": None},
    "DirectSumReport": {"failing_gen": None, "conflict": None},
    "AnalysisReport": {"initial_diagnostics": None},
}


def _record_classes():
    """Every public subclass of core._Value in the package."""
    from countsys.core import _Value

    for mod in ("analysis", "biadd", "closure", "derive", "dsl", "morphisms"):
        importlib.import_module(f"countsys.{mod}")
    found, todo = set(), [_Value]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if not sub.__name__.startswith("_"):
                found.add(sub)
    return found


def test_value_classes_compare_hash_and_print_by_field():
    for make, field in _value_cases():
        a, b, c = make(0), make(0), make(1)
        assert a is not b
        assert a == b and not a != b
        assert a != c and not a == c
        assert a != (0, 1) and a != object()
        assert pickle.loads(pickle.dumps(a)) == a == copy.deepcopy(a)
        if field is None:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert {a, b, c} == {a, c}
            with pytest.raises(AttributeError):
                setattr(a, field, getattr(c, field))
            assert a == b
    assert repr(EndoMap((1, 0))) == "EndoMap(table=(1, 0))"
    assert repr(Carrier(("a",))) == "Carrier(labels=('a',))"
    assert repr(CountingSystem(Carrier(("a",)), 0, ("s",), (EndoMap((0,)),))) \
        == ("CountingSystem(carrier=Carrier(labels=('a',)), base=0, "
            "index_set=('s',), maps=(EndoMap(table=(0,)),))")
    reprs = [repr(make(1)) for make, _field in _value_cases()[3:8]]
    assert reprs == [
        "FreeElement(multiplicity=(('s', 2),))",
        "MonoidTable(size=2, op=((0, 1), (1, 1)), zero=0)",
        "HomTable(src=MonoidTable(size=2, op=((0, 1), (1, 0)), zero=0), "
        "dst=MonoidTable(size=2, op=((0, 1), (1, 0)), zero=0), map=(0, 1))",
        "DirectSumReport(ok=False, failing_gen=1, conflict=None)",
        "ExtensionConflict(element=1, expected=1, got=0)",
    ]


def test_value_records_build_from_their_field_list():
    """Every record is built from its fields, positionally or by keyword,
    in `__slots__` order; only the fields in OMITTED may be left out, and
    a missing, unknown, repeated or surplus argument is a TypeError."""
    records = [make(1) for make, _field in _value_cases()]
    assert [type(a) for a in records] == list(
        dict.fromkeys(type(a) for a in records))
    assert {type(a) for a in records} == _record_classes()
    for a in records:
        cls, names = type(a), type(a).__slots__
        fields = {name: getattr(a, name) for name in names}
        values = list(fields.values())
        assert cls(*values) == a == cls(**fields)
        assert repr(a) == "{}({})".format(cls.__qualname__, ", ".join(
            f"{name}={value!r}" for name, value in fields.items()))
        omitted = OMITTED.get(cls.__name__, {})
        required = [name for name in names if name not in omitted]
        assert list(names) == required + list(omitted)
        short = cls(**{name: fields[name] for name in required})
        assert short == cls(*values[:len(required)]) == cls(
            *values[:len(required)], *omitted.values())
        assert {name: getattr(short, name) for name in omitted} == omitted
        for args, kwargs in [
            (values[:len(required) - 1], {}),
            (values + [None], {}),
            (values, {"no_such_field": None}),
            (values, {names[0]: values[0]}),
            ([], {name: fields[name] for name in required[1:]}),
        ]:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)


ERROR_CASES = [
    # (class, arguments, message, public attributes)
    ("CountingSystemError", ("plain",), "plain", {}),
    ("BadIndex", (5, 3), "index 5 out of range for carrier of size 3",
     {"value": 5, "size": 3}),
    ("EmptyIndexSet", (), "index set must be non-empty", {}),
    ("DuplicateLabel", ("a",), "duplicate label 'a'", {"label": "a"}),
    ("NonCommuting", ("s", "t", 2),
     "maps 's' and 't' do not commute at element 2",
     {"s": "s", "t": "t", "x": 2}),
    ("UnknownLabel", ("u", ["s", "t"]), "unknown label 'u' (known: s, t)",
     {"label": "u"}),
    ("IndexSetMismatch", (["s"], ("t", "s")),
     "index sets differ: ['s'] vs ['t', 's']",
     {"src_labels": ("s",), "dst_labels": ("t", "s")}),
    ("SingleMapRequired", (2,),
     "a single-map system is required; this one has 2 maps", {"count": 2}),
    ("LimitExceeded", ("too big",), "too big", {}),
    ("CarrierTooLarge", (5000, 4096),
     "carrier would have 5000 elements; limit is 4096",
     {"size": 5000, "limit": 4096}),
    ("IndexSetTooLarge", (17, 16),
     "index set would have 17 labels; limit is 16",
     {"size": 17, "limit": 16}),
    ("ClosureTooLarge", (65536,),
     "transformation-monoid closure exceeds 65536 elements",
     {"limit": 65536}),
    ("CompositionTableTooLarge", (5000, 4096),
     "composition table (closure --full) needs a closure of at most 4096 "
     "elements; this one has 5000", {"size": 5000, "limit": 4096}),
    ("WordsTooLarge", (9, 8),
     "closure words (closure --json) would hold 9 labels; limit is 8",
     {"size": 9, "limit": 8}),
    ("InputTooLarge", ("in.csys", 8),
     "input 'in.csys' holds more than 8 characters",
     {"path": "in.csys", "limit": 8}),
    ("MinimalityRequired", ({3, 1},),
     "system is not minimal; unreachable elements: 1, 3",
     {"unreachable": (1, 3)}),
    ("GensDoNotGenerate", ([2], {3, 1}),
     "elements [2] do not generate; missing [1, 3]",
     {"gens": (2,), "missing": (1, 3)}),
    ("TargetCountMismatch", (2, 1), "2 generators but 1 targets",
     {"gens": 2, "targets": 1}),
    ("CompatibilityViolated", (0, 1, 4, 5),
     "incompatible section homomorphisms at generator positions (0, 1): "
     "4 != 5", {"s": 0, "t": 1, "left": 4, "right": 5}),
    ("OdotNotTotal", ("s", "t"),
     "index-set operation undefined at ('s', 't')", {"s": "s", "t": "t"}),
    ("NegativeVerdict", ("no morphism",), "no morphism", {}),
    ("ExtensionVerdict", ("no morphism", ExtensionConflict(0, 0, 1)),
     "no morphism", {"verdict": "no morphism",
                     "conflict": ExtensionConflict(0, 0, 1)}),
    ("InternalInvariantViolation", ("bug",), "bug", {}),
    ("ParseError", (3, 7, "bad"), "line 3, col 7: bad",
     {"line": 3, "col": 7, "reason": "bad"}),
]
LIMITS = {"LimitExceeded", "CarrierTooLarge", "IndexSetTooLarge",
          "ClosureTooLarge", "CompositionTableTooLarge", "WordsTooLarge",
          "InputTooLarge"}
# The classes that take any arguments and pass them to Exception as given.
PASS_THROUGH = {"CountingSystemError", "LimitExceeded", "NegativeVerdict",
                "InternalInvariantViolation"}


def test_error_cases_cover_every_error_class():
    from countsys import errors

    classes = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, Exception)
    }
    assert {case[0] for case in ERROR_CASES} == classes
    assert {name for name in classes if issubclass(
        getattr(errors, name), errors.LimitExceeded)} == LIMITS


@pytest.mark.parametrize("name, args, message, attrs", ERROR_CASES,
                         ids=[case[0] for case in ERROR_CASES])
def test_errors_build_their_message_and_attributes(name, args, message,
                                                    attrs):
    from countsys import errors

    cls = getattr(errors, name)
    exc = cls(*args)
    assert str(exc) == message
    assert exc.args == (message,)
    assert {attr: value for attr, value in vars(exc).items()
            if not attr.startswith("_")} == attrs
    for back in (pickle.loads(pickle.dumps(exc)), copy.copy(exc)):
        assert type(back) is cls and back.args == exc.args
        assert {attr: value for attr, value in vars(back).items()
                if not attr.startswith("_")} == attrs
    assert isinstance(exc, errors.CountingSystemError)
    assert isinstance(exc, errors.LimitExceeded) == (name in LIMITS)
    if name not in PASS_THROUGH:
        with pytest.raises(TypeError):
            cls(*args, None)
