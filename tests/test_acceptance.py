"""Acceptance suite: eleven oracle- and enumeration-based criteria.

Each test prints a single "criterion N: PASS/FAIL" line.  Expected values come
from independent oracles computed inside this file (modular arithmetic,
exponent collapse, brute-force enumeration over all candidate maps or tables),
never from the code under test.
"""

import itertools
import random
import time

import numpy as np
import pytest

from countsys.biadd import (
    biadditive_extend,
    derive_multiplication_indexed,
    derive_multiplication_single,
    direct_sum_check,
    direct_sum_report,
    hom_extend_report,
    identity_hom,
    is_biadditive,
    make_hom,
)
from countsys.closure import evaluation, monoid_closure
from countsys.core import (
    Carrier,
    CountingSystem,
    EndoMap,
    is_dedekind,
    is_minimal,
    reachable_set,
    single_map_subsystem,
)
from countsys.derive import derive_addition, product_table, verify_plus_axioms
from countsys.dsl import parse_odot
from countsys.errors import MinimalityRequired
from countsys.fixtures import (
    SIGN_ODOT_LINES,
    cyc,
    one_point,
    rho,
    rho_collapse,
    zpair,
)
from countsys.morphisms import (
    FreeElement,
    bridge_check,
    free_eval,
    free_uniqueness_probe,
    initiality_report,
    morphism_find,
)


def verdict(num, ok):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed"


def modular_add(n):
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def modular_mul(n):
    return tuple(tuple((i * j) % n for j in range(n)) for i in range(n))


# -- shared enumerations -----------------------------------------------------

_LABELS = tuple(f"e{i}" for i in range(8))


def _single_system(table, base):
    n = len(table)
    return CountingSystem(
        Carrier(_LABELS[:n]), base, ("s",), (EndoMap(tuple(table)),)
    )


@pytest.fixture(scope="module")
def single_enum():
    """All single-map systems with carrier size 1..5: every map, every base."""
    out = []
    for n in range(1, 6):
        for table in itertools.product(range(n), repeat=n):
            for base in range(n):
                out.append(_single_system(table, base))
    return out


@pytest.fixture(scope="module")
def two_map_enum():
    """All commuting two-map families with carrier size 1..3, every base."""
    out = []
    for n in range(1, 4):
        tables = list(itertools.product(range(n), repeat=n))
        for ft in tables:
            for gt in tables:
                if any(ft[gt[x]] != gt[ft[x]] for x in range(n)):
                    continue
                f, g = EndoMap(ft), EndoMap(gt)
                for base in range(n):
                    out.append(
                        CountingSystem(
                            Carrier(_LABELS[:n]), base, ("s", "t"), (f, g)
                        )
                    )
    return out


@pytest.fixture(scope="module")
def minimal_single_4():
    """Minimal single-map systems with carrier size 1..4, with derived data."""
    out = []
    for n in range(1, 5):
        for table in itertools.product(range(n), repeat=n):
            for base in range(n):
                sys = _single_system(table, base)
                if is_minimal(sys):
                    out.append(sys)
    return out


@pytest.fixture(scope="module")
def all_single_4():
    out = []
    for n in range(1, 5):
        for table in itertools.product(range(n), repeat=n):
            for base in range(n):
                out.append(_single_system(table, base))
    return out


_ALL_MAPS_CACHE = {}


def all_maps(m, n):
    """Every function from an n-element set to an m-element set, one row each."""
    if (m, n) not in _ALL_MAPS_CACHE:
        _ALL_MAPS_CACHE[(m, n)] = np.array(
            np.meshgrid(*([np.arange(m)] * n), indexing="ij")
        ).reshape(n, -1).T.copy()
    return _ALL_MAPS_CACHE[(m, n)]


def fixture_pool(max_size):
    pool = [cyc(n) for n in range(1, max_size + 1)]
    pool += [
        rho(t, ell)
        for t in range(1, max_size)
        for ell in range(1, max_size + 1 - t)
    ]
    pool += [zpair(n) for n in range(2, max_size + 1)]
    return pool


# -- criteria ----------------------------------------------------------------

def test_criterion_1_modular_emergence():
    start = time.monotonic()
    ok = True
    for n in range(1, 65):
        sys = cyc(n)
        t = derive_addition(sys)
        if t.op != modular_add(n) or t.zero != 0:
            ok = False
            break
        mult = derive_multiplication_single(sys, t)
        if mult.op != modular_mul(n):
            ok = False
            break
    elapsed = time.monotonic() - start
    verdict(1, ok and elapsed < 5.0)


def test_criterion_2_sign_table_integers():
    odot = parse_odot("\n".join(SIGN_ODOT_LINES))
    ok = True
    for n in range(2, 33):
        sys = zpair(n)
        res = derive_multiplication_indexed(sys, derive_addition(sys), odot)
        if not res.ok or res.table.op != modular_mul(n):
            ok = False
            break
        plus, minus = 1 % n, (n - 1) % n
        mu = res.table.op
        if not (
            mu[plus][plus] == plus
            and mu[minus][minus] == plus
            and mu[plus][minus] == minus
            and mu[minus][plus] == minus
        ):
            ok = False
            break
    verdict(2, ok)


def test_criterion_3_rho_law_suite():
    start = time.monotonic()
    ok = True
    for t_len in range(1, 24):
        for ell in range(1, 25 - t_len):
            n = t_len + ell
            sys = rho(t_len, ell)
            t = derive_addition(sys)
            passed, _ = verify_plus_axioms(sys, t)
            if not passed:
                ok = False
                break
            mult = derive_multiplication_single(sys, t)
            oracle = tuple(
                tuple(rho_collapse(t_len, ell, a * b) for b in range(n))
                for a in range(n)
            )
            if mult.op != oracle:
                ok = False
                break
            add = np.array(t.op)
            mu = np.array(mult.op)
            idx = np.arange(n)[:, None, None]
            laws = (
                np.array_equal(add[add], add[idx, add])  # + associative
                and np.array_equal(add, add.T)  # + commutative
                and np.array_equal(mu[mu], mu[idx, mu])  # x associative
                and np.array_equal(mu, mu.T)  # x commutative
                and (mu[0, :] == 0).all()  # (x0) absorption
                and (mu[1, :] == np.arange(n)).all()  # unit
                and np.array_equal(mu[idx, add], add[mu[:, :, None], mu[:, None, :]])
            )
            # (x1): f(x1) x x2 = x2 + (x1 x x2)
            succ = np.array(sys.maps[0].table)
            laws = laws and np.array_equal(
                mu[succ, :], add[np.arange(n)[None, :], mu]
            )
            if not laws:
                ok = False
                break
            # trichotomy: x1 in x2 + M or x2 in x1 + M
            cols = [set(add[:, c].tolist()) for c in range(n)]
            if not all(
                a in cols[b] or b in cols[a]
                for a in range(n)
                for b in range(n)
            ):
                ok = False
                break
        if not ok:
            break
    elapsed = time.monotonic() - start
    verdict(3, ok and elapsed < 30.0)


def test_criterion_4_bijectivity_iff_minimality(single_enum, two_map_enum):
    start = time.monotonic()
    ok = True
    for sys in single_enum + two_map_enum:
        tm = monoid_closure(sys)
        ev = evaluation(tm, sys)
        if ev.bijective != is_minimal(sys):
            ok = False
            break
    elapsed = time.monotonic() - start
    verdict(4, ok and elapsed < 60.0)


def _table_cancellative_oracle(op, n):
    rows = all(len(set(row)) == n for row in op)
    cols = all(len({op[x][c] for x in range(n)}) == n for c in range(n))
    return rows and cols


def _table_group_oracle(op, zero, n):
    # a finite monoid is a group iff every element has a right inverse
    return all(any(op[a][b] == zero for b in range(n)) for a in range(n))


def test_criterion_5_classification_equivalences(single_enum, two_map_enum):
    ok = True
    for sys in single_enum + two_map_enum:
        if not is_minimal(sys):
            continue
        t = derive_addition(sys)
        n = sys.size
        injective = all(f.is_injective() for f in sys.maps)
        bijective = all(f.is_bijective() for f in sys.maps)
        if _table_cancellative_oracle(t.op, n) != injective:
            ok = False
            break
        if _table_group_oracle(t.op, t.zero, n) != bijective:
            ok = False
            break
    verdict(5, ok)


def _count_plus_tables(sys):
    """Backtracking enumeration of all tables satisfying the unit and shift
    axioms; returns (solution count, one solution) column by column."""
    n = sys.size
    maps = sys.maps
    total = 1
    table_cols = []
    for b in range(n):
        solutions = []

        def consistent(v, assigned):
            if sys.base in assigned and v[sys.base] != b:
                return False
            for f in maps:
                for a in assigned:
                    fa = f(a)
                    if fa in assigned and v[fa] != f(v[a]):
                        return False
            return True

        def search(v, pos, assigned):
            if pos == n:
                solutions.append(tuple(v))
                return
            for cand in range(n):
                v[pos] = cand
                assigned.add(pos)
                if consistent(v, assigned):
                    search(v, pos + 1, assigned)
                assigned.discard(pos)

        search([0] * n, 0, set())
        total *= len(solutions)
        table_cols.append(solutions[0] if solutions else None)
    if total != 1:
        return total, None
    op = tuple(
        tuple(table_cols[b][a] for b in range(n)) for a in range(n)
    )
    return 1, op


def _system_gens(sys):
    return tuple(dict.fromkeys(f(sys.base) for f in sys.maps))


def test_criterion_6_uniqueness_oracles():
    pool = fixture_pool(6)
    tables = [(sys, derive_addition(sys)) for sys in pool]
    ok = True

    # exactly one binary operation satisfies the unit and shift axioms
    for sys, t in tables:
        count, op = _count_plus_tables(sys)
        if count != 1 or op != t.op:
            ok = False
    verdict_part_a = ok

    # at most one homomorphism extends any generator assignment, and the
    # extension search agrees with brute force over all candidate maps
    ok = True
    for (s_src, t_src), (s_dst, t_dst) in itertools.product(tables, repeat=2):
        gens = _system_gens(s_src)
        cand = all_maps(t_dst.size, t_src.size)
        cand = cand[cand[:, t_src.zero] == t_dst.zero]
        src_op = np.array(t_src.op)
        dst_op = np.array(t_dst.op)
        hom_mask = (
            cand[:, src_op]
            == dst_op[cand[:, :, None], cand[:, None, :]]
        ).all(axis=(1, 2))
        homs = [tuple(row) for row in cand[hom_mask]]
        by_gens = {}
        for h in homs:
            key = tuple(h[g] for g in gens)
            if key in by_gens:
                ok = False
            by_gens[key] = h
        for targets in itertools.product(range(t_dst.size), repeat=len(gens)):
            hom, conflict = hom_extend_report(t_src, t_dst, gens, targets)
            if hom is None:
                if targets in by_gens:
                    ok = False
            else:
                if by_gens.get(targets) != tuple(hom.map):
                    ok = False
        if not ok:
            break
    verdict_part_b = ok

    # exactly one biadditive table extends each compatible section assignment
    ok = True
    for sys, t in tables:
        gens = _system_gens(sys)
        n = t.size
        cand = all_maps(n, n)
        cand = cand[cand[:, t.zero] == t.zero]
        op_arr = np.array(t.op)
        hom_mask = (
            cand[:, op_arr] == op_arr[cand[:, :, None], cand[:, None, :]]
        ).all(axis=(1, 2))
        homs = [tuple(row) for row in cand[hom_mask]]
        free_rows = [a for a in range(n) if a != t.zero and a not in gens]
        zero_row = (t.zero,) * n
        for lams in itertools.product(homs, repeat=len(gens)):
            for lamps in itertools.product(homs, repeat=len(gens)):
                compatible = all(
                    lams[i][gens[j]] == lamps[j][gens[i]]
                    for i in range(len(gens))
                    for j in range(len(gens))
                )
                if not compatible:
                    continue
                found = []
                for choice in itertools.product(homs, repeat=len(free_rows)):
                    rows = {t.zero: zero_row}
                    rows.update(dict(zip(gens, lams)))
                    rows.update(dict(zip(free_rows, choice)))
                    table = tuple(rows[a] for a in range(n))
                    if not is_biadditive(t, t, table):
                        continue
                    if any(
                        tuple(table[a][g] for a in range(n)) != lamps[j]
                        for j, g in enumerate(gens)
                    ):
                        continue
                    found.append(table)
                if len(found) != 1:
                    ok = False
                    break
                built = biadditive_extend(
                    t,
                    t,
                    gens,
                    [make_hom(t, t, lam) for lam in lams],
                    [make_hom(t, t, lam) for lam in lamps],
                )
                if built.op != found[0]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            break
    verdict(6, verdict_part_a and verdict_part_b and ok)


def test_criterion_7_morphism_uniqueness(minimal_single_4, all_single_4):
    ok = True
    cand_cache = {}
    dst_data = [
        (dst, np.array(dst.maps[0].table), frozenset(reachable_set(dst)))
        for dst in all_single_4
    ]
    for src in minimal_single_4:
        n = src.size
        f_table = np.array(src.maps[0].table)
        for dst, g_np, core in dst_data:
            m = dst.size
            if (m, n) not in cand_cache:
                cand_cache[(m, n)] = all_maps(m, n)
            cand = cand_cache[(m, n)]
            mask = (cand[:, src.base] == dst.base) & (
                cand[:, f_table] == g_np[cand]
            ).all(axis=1)
            found = cand[mask]
            if len(found) > 1:
                ok = False
                break
            m_found = morphism_find(src, dst)
            if len(found) == 0:
                if m_found is not None:
                    ok = False
                    break
            else:
                if m_found is None or tuple(found[0]) != m_found.map:
                    ok = False
                    break
                if frozenset(found[0].tolist()) != core:
                    ok = False
                    break
        if not ok:
            break
    verdict(7, ok)


def test_criterion_8_bridge_theorem(minimal_single_4):
    ok = True
    data = [
        (sys, derive_addition(sys), np.array(sys.maps[0].table))
        for sys in minimal_single_4
    ]
    cand_cache = {}
    for src, t_src, f_np in data:
        n = src.size
        src_op = np.asarray(t_src.op)
        for dst, t_dst, g_np in data:
            m = dst.size
            if (m, n) not in cand_cache:
                cand_cache[(m, n)] = all_maps(m, n)
            cand = cand_cache[(m, n)]
            dst_op = np.asarray(t_dst.op)
            morph = (cand[:, src.base] == dst.base) & (
                cand[:, f_np] == g_np[cand]
            ).all(axis=1)
            bridge = (
                (cand[:, t_src.zero] == t_dst.zero)
                & (
                    cand[:, src_op]
                    == dst_op[cand[:, :, None], cand[:, None, :]]
                ).all(axis=(1, 2))
                & (cand[:, f_np[src.base]] == g_np[dst.base])
            )
            if not np.array_equal(morph, bridge):
                ok = False
                break
        if not ok:
            break
    verdict(8, ok)


def test_criterion_9_free_monoid_recursion():
    pool = fixture_pool(6) + [one_point()]
    ok = all(
        len(sys.index_set) <= 2 and free_uniqueness_probe(sys, 10)
        for sys in pool
    )
    rng = random.Random(20260826)
    for _ in range(1000):
        sys = rng.choice(pool)
        counts = {lab: rng.randrange(0, 7) for lab in sys.index_set}
        e = FreeElement.of(counts)
        expanded = [lab for lab in sys.index_set for _ in range(counts[lab])]
        rng.shuffle(expanded)
        if free_eval(sys, e, order=expanded) != free_eval(sys, e):
            ok = False
            break
    verdict(9, ok)


def test_criterion_10_finite_non_initiality(single_enum, two_map_enum):
    ok = True
    for sys in fixture_pool(6) + [one_point()]:
        rep = initiality_report(sys)
        if rep.initial or not rep.failing():
            ok = False
            break
        for cond in rep.failing():
            if cond.core_dedekind or cond.core_size < 1:
                ok = False
                break
    for sys in single_enum:
        if is_dedekind(sys):
            ok = False
            break
    for sys in two_map_enum:
        for lab in sys.index_set:
            if is_dedekind(single_map_subsystem(sys, lab)):
                ok = False
                break
    verdict(10, ok)


def test_criterion_11_direct_sum_decision():
    ok = True
    z6 = product_table(derive_addition(cyc(2)), derive_addition(cyc(3)))
    # coordinate generators (1, 0) and (0, 1), row-major
    if not direct_sum_check(z6, (1 * 3 + 0, 0 * 3 + 1)):
        ok = False

    shapes = [cyc(n) for n in range(1, 5)]
    shapes += [
        rho(t, ell) for t in range(1, 4) for ell in range(1, 5 - t)
    ]
    for a in shapes:
        for b in shapes:
            ta, tb = derive_addition(a), derive_addition(b)
            p = product_table(ta, tb)
            ga = a.maps[0](a.base) * tb.size + tb.zero
            gb = ta.zero * tb.size + b.maps[0](b.base)
            gens = tuple(dict.fromkeys((ga, gb)))
            if not direct_sum_check(p, gens):
                ok = False
                break
        if not ok:
            break

    z4 = derive_addition(cyc(4))
    rep = direct_sum_report(z4, (1, 3))
    if rep.ok or rep.failing_gen is None or rep.conflict is None:
        ok = False
    elif not isinstance(rep.conflict.element, int):
        ok = False
    verdict(11, ok)
