"""The single-map questions read from one orbit walk, `core._orbit`.

initiality_report, is_free_report, free_eval and is_dedekind each read
their answer from the orbit of one point under one map.  The computations
they replaced are kept here as oracles: a padded system, morphism_find and
the minimal core of the single-map subsystem per label; the cyclic
submonoid closed by propagation with its restricted map; the dict walk
that reduced free_eval's counts; and the carrier BFS and image set of
is_dedekind.  Each new answer must equal its oracle's on every system of
test_laws' enumeration (every base), the fixtures and random minimal
systems, and the oracles must catch a broken orbit walk.
"""

import pytest
from hypothesis import given, settings

from countsys import biadd, core, morphisms
from countsys.analysis import analyze
from countsys.biadd import CyclicFreeness, direct_sum_report, is_free_report
from countsys.core import (
    _orbit,
    is_dedekind,
    is_minimal,
    minimal_core,
    pad_single,
    require_minimal,
    require_single_map,
    single_map_subsystem,
)
from countsys.derive import derive_addition
from countsys.fixtures import cyc, one_point, rho, rho_collapse, zpair
from countsys.morphisms import (
    FreeElement,
    InitialityCondition,
    InitialityReport,
    free_eval,
    initiality_report,
    morphism_find,
)
from test_biadditive import Z16, table_free_report
from test_laws import (
    FIXTURES,
    _enumeration,
    _minimal_systems,
    _system,
    biadd_mutant,
    minimal_systems,
    skip_the_last_check,
    submonoid_closure,
)

# -- oracles -------------------------------------------------------------------


def oracle_initiality_report(sys):
    """A padded system and morphism_find per label, and the Peano
    conditions of the minimal core of the single-map subsystem."""
    require_minimal(sys)
    conditions = []
    for lab in sys.index_set:
        has_morphism = morphism_find(sys, pad_single(sys, lab)) is not None
        c = minimal_core(single_map_subsystem(sys, lab))
        f = c.maps[0]
        injective = f.is_injective()
        base_in_image = c.base in set(f.table)
        conditions.append(InitialityCondition(
            lab, has_morphism, c.size, injective, base_in_image,
            injective and not base_in_image))
    return InitialityReport(conditions)


def oracle_cyclic(t, i, g):
    """The cyclic submonoid of g closed by propagation, sorted, and the
    map +g restricted to it (tau) on positions in that order."""
    sub = sorted(submonoid_closure(t, (g,)))
    pos = {a: k for k, a in enumerate(sub)}
    tau = [pos[t.op[g][a]] for a in sub]
    return CyclicFreeness(i, g, tuple(sub), len(set(tau)) == len(tau),
                          pos[t.zero] in set(tau))


def oracle_iterate(f, y, count):
    """f applied `count` times to y by a dict walk: once the orbit of y
    returns to a point it has visited, the rest of the count is reduced
    modulo the cycle it has closed."""
    orbit = []
    step_of = {}  # point -> the step at which the orbit first reached it
    for step in range(count):
        if y in step_of:
            start = step_of[y]
            return orbit[start + (count - start) % (step - start)]
        step_of[y] = step
        orbit.append(y)
        y = f(y)
    return y


def oracle_free_eval(sys, e):
    y = sys.base
    for lab, f in zip(sys.index_set, sys.maps):
        y = oracle_iterate(f, y, e.count(lab))
    return y


def oracle_is_dedekind(sys):
    """The carrier BFS for minimality and the image as a set."""
    require_single_map(sys)
    f = sys.maps[0]
    return (is_minimal(sys) and f.is_injective()
            and sys.base not in set(f.table))


# -- comparisons: each returns the first disagreeing case, or None -------------


def initiality_differs(systems):
    for sys in systems:
        if initiality_report(sys) != oracle_initiality_report(sys):
            return sys
    return None


def cyclic_differs(systems):
    for sys in systems:
        t = derive_addition(sys)
        gens = tuple(f(sys.base) for f in sys.maps)
        want = [oracle_cyclic(t, i, g) for i, g in enumerate(gens)]
        if is_free_report(t, gens).cyclic != want:
            return sys
    return None


def dedekind_differs(systems):
    for sys in systems:
        for lab in sys.index_set:
            single = single_map_subsystem(sys, lab)
            if is_dedekind(single) != oracle_is_dedekind(single):
                return single
    return None


def free_eval_differs(systems, counts):
    for sys in systems:
        for k in counts(sys):
            e = FreeElement.of({lab: k + i for i, lab in
                                enumerate(sys.index_set)})
            if free_eval(sys, e) != oracle_free_eval(sys, e):
                return sys, e
    return None


def _small_counts(sys):
    return range(2 * sys.size + 2)


def _every_system():
    """Every enumerated system with every base, minimal or not."""
    for tables in _enumeration():
        for base in range(len(tables[0])):
            yield _system(base, tables)


RHO_SHAPES = [(0, 1), (0, 6), (1, 1), (2, 3), (4, 1), (3, 5)]


def rho_free_eval_differs():
    """free_eval on rho(t, ell) against the dict walk and the collapse,
    at the counts 0 .. 3(t + ell) and 10**30 + 7."""
    for t_len, ell in RHO_SHAPES:
        sys = rho(t_len, ell)
        for k in [*range(3 * (t_len + ell) + 1), 10**30 + 7]:
            e = FreeElement.of({"s": k})
            want = oracle_free_eval(sys, e)
            assert want == rho_collapse(t_len, ell, k)
            if free_eval(sys, e) != want:
                return t_len, ell, k
    return None


# -- the walk itself -----------------------------------------------------------


def test_orbit_of_a_fixed_point_is_one_point_closing_at_once():
    assert _orbit((0,), 0) == ([0], 0)
    assert _orbit((1, 1, 0), 1) == ([1], 0)
    assert _orbit((1, 1, 0), 2) == ([2, 0, 1], 2)


@pytest.mark.parametrize("t_len, ell", RHO_SHAPES)
def test_orbit_of_rho_is_its_tail_then_its_cycle(t_len, ell):
    table = rho(t_len, ell).maps[0].table
    assert _orbit(table, 0) == (list(range(t_len + ell)), t_len)


def test_orbit_cut_short_by_steps_has_no_tail():
    table = rho(2, 3).maps[0].table
    assert _orbit(table, 0, 0) == ([], None)
    assert _orbit(table, 0, 3) == ([0, 1, 2], None)
    assert _orbit(table, 0, 4) == ([0, 1, 2, 3], None)
    # a walk of exactly the orbit's length closes: it is not cut short
    assert _orbit(table, 0, 5) == ([0, 1, 2, 3, 4], 2)
    assert _orbit(table, 0, 10**30) == ([0, 1, 2, 3, 4], 2)


# -- the new answers against the oracles ---------------------------------------


def test_single_map_answers_match_the_oracles_on_enumerations_and_fixtures():
    minimal = list(_minimal_systems())
    assert one_point() in minimal
    assert initiality_differs(minimal) is None
    assert cyclic_differs(minimal) is None
    everything = [*FIXTURES, *_every_system()]
    assert dedekind_differs(everything) is None
    assert free_eval_differs(everything, _small_counts) is None


@settings(max_examples=40, deadline=None)
@given(minimal_systems())
def test_single_map_answers_match_the_oracles_on_random_minimal_systems(sys):
    assert initiality_differs([sys]) is None
    assert cyclic_differs([sys]) is None
    assert dedekind_differs([sys]) is None
    assert free_eval_differs(
        [sys], lambda s: [0, 1, s.size - 1, s.size, 3 * s.size + 1,
                          10**30 + 7]) is None


def test_analyze_reads_dedekind_from_the_initiality_report():
    """analyze walks no second orbit: its dedekind flag, read from the one
    initiality condition or False off a minimal system, is is_dedekind's
    on every enumerated system, minimal or not, and the fixtures."""
    for sys in [*FIXTURES, *_every_system()]:
        single = len(sys.maps) == 1
        assert analyze(sys).dedekind == (is_dedekind(sys) if single
                                         else None), sys


def test_free_eval_matches_the_dict_walk_on_rho():
    assert rho_free_eval_differs() is None


def test_one_pass_per_label_is_initiality_freeness_and_the_direct_sum():
    """core._label_pass on the generation search is what `initial`,
    `analyze` and `free-report` report: each label's padded walk exists iff
    oracle_initiality_report finds a morphism to the padded system, its
    orbit holds that label's core facts and table_free_report's cyclic
    submonoid, and the first label whose walk fails, with its conflict, is
    the direct sum's failing generator, on the table and on the system.
    On every minimal system of the enumerations (the fixtures among them)
    and z16."""
    systems = [*_minimal_systems(), Z16]
    failing = []
    for sys in systems:
        tree = require_minimal(sys)
        passes = core._label_pass(tree)
        t = derive_addition(sys)
        gens = tuple(f(sys.base) for f in sys.maps)
        table = table_free_report(t, gens)
        oracle = oracle_initiality_report(sys)
        first = next(((k, conflict) for k, (h, conflict, *_rest)
                      in enumerate(passes) if h is None), (None, None))
        for ds in (table.direct_sum, direct_sum_report(t, gens),
                   biadd._free_report(tree).direct_sum):
            assert (ds.ok, ds.failing_gen, ds.conflict) == (
                first[0] is None, *first), sys
        for (h, conflict, points, tail), cond, cyclic in zip(
                passes, oracle.conditions, table.cyclic):
            assert (h is None) == (conflict is not None)
            assert (h is not None) == cond.morphism_to_padded, sys
            assert (len(points), tail == 0, tail == 0) == (
                cond.core_size, cond.core_injective, cond.base_in_core_image)
            assert tuple(sorted(points)) == cyclic.submonoid
            assert (tail == 0) == cyclic.injective == cyclic.zero_in_image
        failing.append(first[0] is not None)
    assert (len(systems), failing.count(True)) == (853, 79)
    assert failing[-1]  # z16's first label has no projection


# -- mutants the oracles must catch --------------------------------------------


def _install_orbit(monkeypatch, broken):
    for mod in (core, morphisms):
        monkeypatch.setattr(mod, "_orbit", broken)


def _caught(check, *args):
    """The check finds a disagreement, or the broken walk makes the new
    computation fail outright."""
    try:
        return check(*args) is not None
    except (IndexError, ZeroDivisionError):
        return True


MUTANT_SYSTEMS = [cyc(1), cyc(4), rho(2, 3), zpair(5), one_point()]


def test_an_orbit_whose_tail_is_one_too_late_is_caught(monkeypatch):
    def broken(f, x, steps=None):
        points, tail = _orbit(f, x, steps)
        return points, None if tail is None else tail + 1

    _install_orbit(monkeypatch, broken)
    assert _caught(initiality_differs, MUTANT_SYSTEMS)
    assert _caught(cyclic_differs, MUTANT_SYSTEMS)
    assert _caught(dedekind_differs, MUTANT_SYSTEMS)
    assert _caught(free_eval_differs, MUTANT_SYSTEMS, _small_counts)
    assert _caught(rho_free_eval_differs)


def test_an_orbit_that_drops_its_last_point_is_caught(monkeypatch):
    def broken(f, x, steps=None):
        points, tail = _orbit(f, x, steps)
        return points[:-1], tail

    _install_orbit(monkeypatch, broken)
    assert _caught(initiality_differs, MUTANT_SYSTEMS)
    assert _caught(cyclic_differs, MUTANT_SYSTEMS)
    assert _caught(free_eval_differs, MUTANT_SYSTEMS, _small_counts)
    assert _caught(rho_free_eval_differs)


def test_an_initiality_search_without_the_padding_is_caught(monkeypatch):
    # core._label_pass's walk and its check read each label's own map
    # where the padding puts the identity: the search is for a morphism to
    # the system itself, which always exists
    sys = zpair(5)
    want = oracle_initiality_report(sys)
    assert not any(c.morphism_to_padded for c in want.conditions)
    monkeypatch.setattr(morphisms, "_label_pass", biadd_mutant(
        "else ident", "else tree.steps[j]", "_label_pass", core))
    got = initiality_report(sys)
    assert all(c.morphism_to_padded for c in got.conditions)
    assert got != want


def test_an_initiality_search_skipping_the_last_label_check_is_caught(
    monkeypatch
):
    """Mutation: without the comparison at the last label's edges, the
    search finds morphisms to padded systems that oracle_initiality_report
    does not.  The oracle runs first: its morphism_find goes through the
    same kernel."""
    systems = [sys for sys in _minimal_systems() if len(sys.maps) == 2]
    want = [oracle_initiality_report(sys) for sys in systems]
    skip_the_last_check(monkeypatch)
    caught = 0
    for sys, rep in zip(systems, want):
        for got, cond in zip(initiality_report(sys).conditions,
                             rep.conditions):
            assert got.morphism_to_padded >= cond.morphism_to_padded
            caught += got != cond
    assert caught > 0
