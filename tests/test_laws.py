"""Differential tests of `countsys.laws` against cell-by-cell loop oracles.

The oracles are the loops the package used before the laws moved into one
module, kept here as the reference: each scans its cells in row-major order
and returns the first failing index, or None.  Every law must give the same
verdict and the same witness as its oracle on every table derived from the
acceptance enumerations and the fixtures, and on every single-cell tampering
of a few small tables.
"""

import itertools
import tracemalloc

import pytest

from countsys import laws
from countsys.biadd import derive_multiplication_single
from countsys.closure import monoid_closure
from countsys.core import (
    Carrier,
    CountingSystem,
    EndoMap,
    is_minimal,
    new_system,
    product,
)
from countsys.derive import (
    MonoidTable,
    cayley_embedding,
    classify,
    derive_addition,
    reconstruct_addition,
    verify_plus_axioms,
)
from countsys.fixtures import cyc, one_point, rho, zpair

# -- oracles -------------------------------------------------------------------


def _cells(n, k):
    return itertools.product(range(n), repeat=k)


def oracle_translation(op, a, f):
    for x in range(len(op)):
        if op[a][x] != f[x]:
            return x
    return None


def oracle_unit(op, e):
    for x in range(len(op)):
        if op[e][x] != x or op[x][e] != x:
            return x
    return None


def oracle_associative(op):
    for a, b, c in _cells(len(op), 3):
        if op[op[a][b]][c] != op[a][op[b][c]]:
            return (a, b, c)
    return None


def oracle_commutative(op):
    for i in range(len(op)):
        for j in range(i + 1, len(op)):
            if op[i][j] != op[j][i]:
                return (i, j)
    return None


def oracle_homomorphism(src, dst, h):
    for a, b in _cells(len(src), 2):
        if h[src[a][b]] != dst[h[a]][h[b]]:
            return (a, b)
    return None


def oracle_sections(src, dst, mu):
    for a, b, c in _cells(len(src), 3):
        if mu[a][src[b][c]] != dst[mu[a][b]][mu[a][c]]:
            return (a, b, c)
    return None


def oracle_biadditive(src, dst, mu, zero, dst_zero):
    n = len(src)
    columns = [[mu[b][a] for b in range(n)] for a in range(n)]
    for side, m in enumerate((mu, columns)):
        for a in range(n):
            if m[a][zero] != dst_zero or any(
                m[a][src[b][c]] != dst[m[a][b]][m[a][c]]
                for b, c in _cells(n, 2)
            ):
                return (side, a)
    return None


def oracle_shift(op, f, g):
    # g: a map, or a table whose row x2 acts in column x2
    n = len(op)
    for x1, x2 in _cells(n, 2):
        after = g[x2] if isinstance(g[0], (tuple, list)) else g
        if op[f[x1]][x2] != after[op[x1][x2]]:
            return (x1, x2)
    return None


def oracle_intertwines(h, f, g):
    for x in range(len(h)):
        if h[f[x]] != g[h[x]]:
            return x
    return None


def oracle_difference(x, y):
    for a, b in _cells(len(x), 2):
        if x[a][b] != y[a][b]:
            return (a, b)
    return None


def oracle_group(op):
    for a, row in enumerate(op):
        if len(set(row)) != len(op):
            return a
    return None


def oracle_cancellative(op):
    n = len(op)
    for a in range(n):
        if len(set(op[a])) != n or len({op[x][a] for x in range(n)}) != n:
            return a
    return None


def oracle_trichotomy(op):
    n = len(op)
    cols = [set(op[x][c] for x in range(n)) for c in range(n)]
    for x1, x2 in _cells(n, 2):
        if not (x1 in cols[x2] or x2 in cols[x1]):
            return (x1, x2)
    return None


def oracle_zero_sum_free(op, zero):
    for x1, x2 in _cells(len(op), 2):
        if op[x1][x2] == zero and x2 != zero:
            return (x1, x2)
    return None


ORACLES = {
    name[len("oracle_"):]: fn
    for name, fn in globals().items()
    if name.startswith("oracle_")
}


def check(name, *args):
    """The law and its oracle agree; returns the witness."""
    want = ORACLES[name](*args)
    got = getattr(laws, name)(*args)
    assert got == want, (name, args)
    return want


def law_cases(op, zero, maps, mult=None):
    """(law, args) for every law on a table with its zero and some maps of
    its carrier; `mult` adds the multiplication laws."""
    n = len(op)
    ident = tuple(range(n))
    rows = [tuple(r) for r in op]
    maps = [tuple(f) for f in maps] + rows[:3]
    yield "unit", (op, zero)
    yield "unit", (op, n - 1)
    for a in range(n):
        yield "translation", (op, a, ident)
    for f in maps:
        yield "translation", (op, f[zero], f)
        yield "homomorphism", (op, op, f)
        yield "shift", (op, f, f)
        yield "intertwines", (f, rows[-1], rows[-1])
    for f, g in itertools.product(maps[:3], repeat=2):
        yield "intertwines", (rows[1 % n], f, g)
    yield "associative", (op,)
    yield "commutative", (op,)
    yield "sections", (op, op, op)
    yield "biadditive", (op, op, op, zero, zero)
    # every row the identity: the rows pass, the (constant) columns fail
    yield "biadditive", (op, op, (ident,) * n, zero, zero)
    yield "difference", (op, tuple(reversed(rows)))
    yield "group", (op,)
    yield "cancellative", (op,)
    yield "trichotomy", (op,)
    yield "zero_sum_free", (op, zero)
    yield "zero_sum_free", (op, n - 1)
    if mult is not None:
        yield "translation", (mult, zero, (zero,) * n)
        yield "associative", (mult,)
        yield "commutative", (mult,)
        yield "sections", (op, op, mult)
        yield "biadditive", (op, op, mult, zero, zero)
        for f in maps:
            yield "shift", (mult, f, op)


def check_all(op, zero, maps, mult=None):
    witnesses = {}
    for name, args in law_cases(op, zero, maps, mult):
        if check(name, *args) is not None:
            witnesses.setdefault(name, args)
    return witnesses


# -- the tables ----------------------------------------------------------------

_LABELS = tuple(f"e{i}" for i in range(8))


def _system(base, tables, labels=("s", "t")):
    n = len(tables[0])
    return CountingSystem(
        Carrier(_LABELS[:n]), base, labels[:len(tables)],
        tuple(EndoMap(tuple(t)) for t in tables),
    )


def _enumeration():
    """The acceptance enumerations: every single-map system on 1..5
    elements, every commuting two-map family on 1..3 elements; every base."""
    for n in range(1, 6):
        for f in itertools.product(range(n), repeat=n):
            yield [f]
    for n in range(1, 4):
        for f, g in itertools.product(
            itertools.product(range(n), repeat=n), repeat=2
        ):
            if all(f[g[x]] == g[f[x]] for x in range(n)):
                yield [f, g]


FIXTURES = [
    cyc(1), cyc(2), cyc(5), cyc(8), rho(1, 1), rho(2, 3), rho(3, 2),
    rho(4, 1), zpair(2), zpair(5), one_point(), product(cyc(2), cyc(3)),
]


def test_laws_agree_with_oracles_on_enumerations_and_fixtures():
    seen = set()
    failing = set()
    systems = [(s, [f.table for f in s.maps]) for s in FIXTURES]
    for tables in _enumeration():
        n = len(tables[0])
        systems.extend((_system(b, tables), tables) for b in range(n))
    for sys, tables in systems:
        # the closure does not depend on the base; many maps share one
        if tuple(tables) not in seen:
            seen.add(tuple(tables))
            comp = monoid_closure(sys).comp
            if comp not in seen:
                seen.add(comp)
                failing |= set(check_all(comp, 0, [comp[-1]]))
        if not is_minimal(sys):
            continue
        t = derive_addition(sys)
        mult = None
        if len(tables) == 1:
            mult = derive_multiplication_single(sys, t).op
        failing |= set(check_all(t.op, t.zero, tables, mult))
    # the enumeration exercises both verdicts of every law that valid
    # tables can fail
    assert failing >= {
        "unit", "translation", "homomorphism", "shift", "intertwines",
        "sections", "biadditive", "difference", "group", "cancellative",
        "trichotomy", "zero_sum_free",
    }


def _tamperings(op):
    n = len(op)
    for a, b in _cells(n, 2):
        for v in range(n):
            if v != op[a][b]:
                rows = [list(r) for r in op]
                rows[a][b] = v
                yield tuple(tuple(r) for r in rows)


# A zero-sum-free table where trichotomy fails: a and b are incomparable.
TOP = new_system(
    Carrier(("0", "a", "b", "top")), 0, ("s", "t"),
    (EndoMap((1, 3, 3, 3)), EndoMap((2, 3, 3, 3))),
)


@pytest.mark.parametrize("sys", [cyc(4), rho(1, 3), zpair(3), TOP],
                         ids=["cyc4", "rho13", "zpair3", "top"])
def test_every_law_rejects_a_tampered_cell_at_the_oracle_witness(sys):
    t = derive_addition(sys)
    maps = [f.table for f in sys.maps]
    mult = None
    if len(maps) == 1:
        mult = derive_multiplication_single(sys, t).op
    rejected = set()
    for op in _tamperings(t.op):
        rejected |= set(check_all(op, t.zero, maps))
    if mult is not None:
        for mu in _tamperings(mult):
            rejected |= set(check_all(t.op, t.zero, maps, mu))
    assert rejected == set(ORACLES)


# -- the public checks built on the laws ---------------------------------------


def seed_verify_plus_axioms(sys, t):
    n = sys.size
    for x in range(n):
        if t.op[sys.base][x] != x:
            return False, ("unit", x)
    for lab, f in zip(sys.index_set, sys.maps):
        for x1 in range(n):
            for x2 in range(n):
                if t.op[f(x1)][x2] != f(t.op[x1][x2]):
                    return False, ("shift", lab, x1, x2)
    recon = reconstruct_addition(sys)
    for a in range(n):
        for b in range(n):
            if recon.op[a][b] != t.op[a][b]:
                return False, ("reconstruction", a, b)
    return True, None


def seed_cayley_embedding(t):
    n = t.size
    rows = [EndoMap(tuple(t.op[x])) for x in range(n)]
    if len({r.table for r in rows}) != n:
        return False
    if rows[t.zero].table != EndoMap.identity(n).table:
        return False
    for a in range(n):
        for b in range(n):
            if rows[t.op[a][b]].table != rows[a].compose(rows[b]).table:
                return False
    return True


@pytest.mark.parametrize("sys", [cyc(3), rho(1, 2), zpair(3), TOP],
                         ids=["cyc3", "rho12", "zpair3", "top"])
def test_verify_plus_axioms_and_cayley_match_the_seed_loops(sys):
    t = derive_addition(sys)
    for op in [t.op, *_tamperings(t.op)]:
        if laws.unit(op, t.zero) is not None:
            continue  # not a MonoidTable
        tampered = MonoidTable(t.size, op, t.zero)
        assert verify_plus_axioms(sys, tampered) == \
            seed_verify_plus_axioms(sys, tampered)
        assert cayley_embedding(tampered) == seed_cayley_embedding(tampered)


def test_classify_matches_the_seed_loops():
    for tables in _enumeration():
        for base in range(len(tables[0])):
            sys = _system(base, tables)
            if not is_minimal(sys):
                continue
            t = derive_addition(sys)
            c = classify(sys, t)
            assert c.group == (oracle_group(t.op) is None)
            assert c.cancellative == (oracle_cancellative(t.op) is None)
            assert c.trichotomy == (oracle_trichotomy(t.op) is None)
            assert c.zero_sum_free == \
                (oracle_zero_sum_free(t.op, t.zero) is None)


def test_triple_laws_allocate_no_cube():
    # 64^3 intp entries would be 2 MB; a row at a time is 32 KB
    t = derive_addition(cyc(64))
    mult = derive_multiplication_single(cyc(64), t)
    mu = laws.table(mult.op)
    tracemalloc.start()
    try:
        assert laws.associative(t.np_op) is None
        assert laws.sections(t.np_op, t.np_op, mu) is None
        assert laws.biadditive(t.np_op, t.np_op, mu, 0, 0) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 ** 3 * 8 // 4
