"""Differential tests of `countsys.laws` against cell-by-cell loop oracles.

The oracles are the loops the package used before the laws moved into one
module, kept here as the reference: each scans its cells in row-major order
and returns the first failing index, or None.  Every law must give the same
verdict and the same witness as its oracle on every table derived from the
acceptance enumerations and the fixtures, and on every single-cell tampering
of a few small tables.  The checks restricted to generators must give the
oracle's verdict wherever their preconditions hold.

The constructions the derive path no longer makes are kept here as oracles
too: the closure transfer of the addition, the biadditive build behind the
direct-sum verdict, the cyclic submonoids behind the initiality report and
the biadditive extension propagated along every generator edge.  So are the
checks the package no longer makes: the multiplication laws checked after
the biadditive extension, which its certificate implies, every row and
column of that extension checked as a homomorphism, and the generator
values checked after a homomorphism extension and the generation pass made
before it.
"""

import collections
import functools
import itertools
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from countsys import biadd, laws
from countsys.biadd import (
    BiadditiveTable,
    DirectSumReport,
    ExtensionConflict,
    HomTable,
    OdotTable,
    biadditive_extend,
    derive_multiplication_indexed,
    derive_multiplication_single,
    direct_sum_report,
    hom_extend_report,
    identity_hom,
    is_biadditive,
    is_hom,
    projections,
    zero_hom,
)
from countsys.closure import evaluation, monoid_closure
from countsys.core import (
    Carrier,
    CountingSystem,
    EndoMap,
    Propagation,
    is_minimal,
    minimal_core,
    new_system,
    product,
    propagate,
    reachable_set,
    single_map_subsystem,
)
from countsys.derive import (
    MonoidTable,
    cayley_embedding,
    classify,
    derive_addition,
    generates,
    product_table,
    reconstruct_addition,
    require_generates,
    submonoid_closure,
    verify_plus_axioms,
)
from countsys.dsl import parse_odot
from countsys.errors import (
    CompatibilityViolated,
    GensDoNotGenerate,
    InternalInvariantViolation,
)
from countsys.fixtures import SIGN_ODOT_LINES, cyc, one_point, rho, zpair

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


# Oracles of checks that `laws` no longer has, kept as the reference for the
# multiplication laws and the table reconstruction below.
RETIRED = ("sections", "difference")

ORACLES = {
    name[len("oracle_"):]: fn
    for name, fn in globals().items()
    if name.startswith("oracle_") and name[len("oracle_"):] not in RETIRED
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
    yield "biadditive", (op, op, op, zero, zero)
    # every row the identity: the rows pass, the (constant) columns fail
    yield "biadditive", (op, op, (ident,) * n, zero, zero)
    yield "group", (op,)
    yield "cancellative", (op,)
    yield "trichotomy", (op,)
    yield "zero_sum_free", (op, zero)
    yield "zero_sum_free", (op, n - 1)
    if mult is not None:
        yield "translation", (mult, zero, (zero,) * n)
        yield "associative", (mult,)
        yield "commutative", (mult,)
        yield "biadditive", (op, op, mult, zero, zero)
        for f in maps:
            yield "shift", (mult, f, f)


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
        "biadditive", "group", "cancellative", "trichotomy", "zero_sum_free",
    }


def _power(f, e, x):
    for _ in range(e):
        x = f[x]
    return x


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


# -- generator certificates ---------------------------------------------------
#
# The derive path checks three laws on the generators only.  Each restricted
# call must give the exhaustive oracle's verdict whenever the preconditions
# that the law's docstring states hold; the witnesses may differ.

CERTIFICATES = ("light", "homomorphism", "biadditive")


def _reaches_all(op, zero, gens):
    """Every element is reached from zero by adding generators on the left:
    the oracle of require_generates."""
    seen, todo = {zero}, [zero]
    while todo:
        x = todo.pop()
        for g in gens:
            if op[g][x] not in seen:
                seen.add(op[g][x])
                todo.append(op[g][x])
    return len(seen) == len(op)


def certificate_cases(op, zero, gens, rng, homs=(), mu=None):
    """(certificate, preconditions hold, restricted verdict, oracle verdict):
    the preconditions are taken with the generators `gens`, the restricted
    calls with the range `rng`."""
    generated = oracle_unit(op, zero) is None and _reaches_all(op, zero, gens)
    monoid = generated and oracle_associative(op) is None
    yield ("light", generated, laws.associative(op, middle=rng),
           oracle_associative(op))
    for h in homs:
        yield ("homomorphism", monoid and h[zero] == zero,
               laws.homomorphism(op, op, h, right=rng),
               oracle_homomorphism(op, op, h))
    if mu is None:
        return
    yield ("biadditive", monoid and oracle_commutative(op) is None,
           generator_certificate(op, mu, zero, rng),
           oracle_biadditive(op, op, mu, zero, zero))


def generator_certificate(op, mu, zero, rng):
    """biadditive_extend's certificate, with the rows at the range in place
    of its input sections: those rows and every column are homomorphisms
    at the range.  None, or the first failing row and column indices."""
    rows = laws.homomorphisms(op, op, [mu[g] for g in rng], zero, zero, rng)
    cols = laws.homomorphisms(op, op, zip(*mu), zero, zero, rng)
    return None if rows is None and cols is None else (rows, cols)


def verdicts(cases):
    """{certificate: (cases whose preconditions hold, disagreements, oracle
    rejections among those)}"""
    out = {name: [0, 0, 0] for name in CERTIFICATES}
    for name, holds, got, want in cases:
        if holds:
            out[name][0] += 1
            out[name][1] += (got is None) != (want is None)
            out[name][2] += want is not None
    return {name: tuple(v) for name, v in out.items()}


def assert_agree(cases):
    counts = verdicts(cases)
    assert all(bad == 0 for _, bad, _ in counts.values()), counts
    return counts


def _homs(op, zero, mu):
    """Maps to check as homomorphisms: the identity, doubling, the constant
    zero and the sections of the multiplication."""
    n = len(op)
    return [tuple(range(n)), tuple(op[x][x] for x in range(n)), (zero,) * n,
            *(tuple(row) for row in mu or ())]


def derived_cases(sys, drop=False):
    """The certificate cases of a minimal system's derived tables; with
    `drop`, the range lacks the last generator."""
    t = derive_addition(sys)
    gens = tuple(f(sys.base) for f in sys.maps)
    mu = None
    if len(sys.maps) == 1:
        mu = derive_multiplication_single(sys, t).op
    return certificate_cases(t.op, t.zero, gens, gens[:-1] if drop else gens,
                             _homs(t.op, t.zero, mu), mu)


def _minimal_systems():
    for sys in FIXTURES:
        yield sys
    for tables in _enumeration():
        for base in range(len(tables[0])):
            sys = _system(base, tables)
            if is_minimal(sys):
                yield sys


def test_certificates_agree_with_oracles_on_enumerations_and_fixtures():
    counts = assert_agree(
        case for sys in _minimal_systems() for case in derived_cases(sys)
    )
    assert all(held for held, _, _ in counts.values()), counts


def _rho_map(draw, n):
    """A random map on n points and a start whose orbit is all n: a tail
    feeding a cycle, relabelled by a random permutation."""
    perm = draw(st.permutations(range(n)))
    tail = draw(st.integers(0, n - 1))
    f = [0] * n
    for i in range(n):
        f[perm[i]] = perm[i + 1] if i + 1 < n else perm[tail]
    return f, perm[0]


@st.composite
def minimal_systems(draw):
    """A minimal system on at most 64 points: one map, or the minimal core
    of the commuting maps a x b^j and a^i x b on A x B."""
    if draw(st.booleans()):
        f, base = _rho_map(draw, draw(st.integers(1, 64)))
        maps = [f]
    else:
        p, q = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        (a, x0), (b, y0) = _rho_map(draw, p), _rho_map(draw, q)
        i, j = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        cells = list(itertools.product(range(p), range(q)))
        maps = [[a[x] * q + _power(b, j, y) for x, y in cells],
                [_power(a, i, x) * q + b[y] for x, y in cells]]
        base = x0 * q + y0
    n = len(maps[0])
    sys = new_system(
        Carrier(tuple(f"e{x}" for x in range(n))), base,
        ("s", "t")[:len(maps)], tuple(EndoMap(tuple(f)) for f in maps),
    )
    return minimal_core(sys)


@settings(max_examples=30, deadline=None)
@given(minimal_systems())
def test_certificates_agree_with_oracles_on_random_minimal_systems(sys):
    assert_agree(derived_cases(sys))


def _tampered_maps(h, zero):
    """Every map differing from h in one entry other than zero's."""
    for x, v in itertools.product(range(len(h)), range(len(h))):
        if x != zero and v != h[x]:
            yield h[:x] + (v,) + h[x + 1:]


def tampered_cases(sys, drop=False):
    """Certificate cases on every single-cell tampering of the addition
    table, of the multiplication table (single-map systems) and of the
    identity and doubling maps."""
    t = derive_addition(sys)
    gens = tuple(f(sys.base) for f in sys.maps)
    rng = gens[:-1] if drop else gens
    for op in _tamperings(t.op):
        yield from certificate_cases(op, t.zero, gens, rng)
    homs = _homs(t.op, t.zero, None)[:2]
    tampered_homs = [g for h in homs for g in _tampered_maps(h, t.zero)]
    yield from certificate_cases(t.op, t.zero, gens, rng, tampered_homs)
    if len(sys.maps) == 1:
        for mu in _tamperings(derive_multiplication_single(sys, t).op):
            yield from certificate_cases(t.op, t.zero, gens, rng, (), mu)


# Z2 x Z2 under +e1 and +e2: every bilinear table, mu(ei, ej) = c[i][j],
# some of them not associative (c = [[e2, 0], [0, e1]]).
Z2SQ = new_system(
    Carrier(("00", "01", "10", "11")), 0, ("s", "t"),
    (EndoMap((1, 0, 3, 2)), EndoMap((2, 3, 0, 1))),
)


def bilinear_tables():
    t = derive_addition(Z2SQ)
    for c in itertools.product(range(4), repeat=4):
        yield tuple(
            tuple(
                # bits of a and b pick the generator products to add up
                functools.reduce(
                    t.add, [c[2 * i + j] for i in range(2) for j in range(2)
                            if a >> i & 1 and b >> j & 1], 0,
                )
                for b in range(4)
            )
            for a in range(4)
        )


def bilinear_cases(drop=False):
    t = derive_addition(Z2SQ)
    gens = (1, 2)
    for mu in bilinear_tables():
        yield from certificate_cases(
            t.op, 0, gens, gens[:-1] if drop else gens, (), mu
        )


@pytest.mark.parametrize("sys", [cyc(4), rho(1, 3), zpair(3)],
                         ids=["cyc4", "rho13", "zpair3"])
def test_certificates_reject_a_tampered_cell_exactly_when_the_oracle_does(sys):
    counts = assert_agree(tampered_cases(sys))
    # where a tampering keeps a certificate's preconditions, some tampering
    # is rejected
    assert all(rejected for held, _, rejected in counts.values() if held)


def test_generator_products_decide_the_laws_of_every_bilinear_table():
    """The lemma behind biadd's multiplication proofs: a biadditive table is
    associative iff it is on generator triples, and commutative iff it is on
    generator pairs.  All four verdict pairs occur over Z2 x Z2."""
    t = derive_addition(Z2SQ)
    gens = (1, 2)
    seen = set()
    for mu in bilinear_tables():
        assert oracle_biadditive(t.op, t.op, mu, 0, 0) is None
        associative = oracle_associative(mu) is None
        commutative = oracle_commutative(mu) is None
        assert associative == all(
            mu[mu[a][b]][c] == mu[a][mu[b][c]]
            for a, b, c in itertools.product(gens, repeat=3)
        )
        assert commutative == all(
            mu[a][b] == mu[b][a] for a, b in itertools.product(gens, repeat=2)
        )
        seen.add((associative, commutative))
    assert len(seen) == 4


def test_a_range_missing_one_generator_is_caught():
    """Mutation check: with one generator dropped from every range, each
    certificate disagrees with its oracle on some case above."""
    cases = itertools.chain(
        bilinear_cases(drop=True),
        *(tampered_cases(sys, drop=True)
          for sys in (cyc(4), rho(1, 3), zpair(3))),
    )
    counts = verdicts(cases)
    assert all(bad for _, bad, _ in counts.values()), counts


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
        verdict = verify_plus_axioms(sys, tampered)
        assert verdict == seed_verify_plus_axioms(sys, tampered)
        # the unit and shift axioms alone fix the table
        if verdict[0]:
            assert oracle_difference(reconstruct_addition(sys).op, op) is None
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
    # 64^3 8-byte entries would be 2 MB; a 64 x 64 transpose is 36 KB
    t = derive_addition(cyc(64))
    mu = derive_multiplication_single(cyc(64), t).op
    tracemalloc.start()
    try:
        assert laws.associative(t.op) is None
        assert laws.biadditive(t.op, t.op, mu, 0, 0) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 ** 3 * 8 // 4


# -- the constructions the derive path dropped ---------------------------------


def closure_transfer(sys):
    """The paper's addition: row a is the closure element evaluating to a.

    derive_addition builds the same rows along the carrier BFS tree.  In a
    minimal commuting system u(base) = v(base) implies u = v (every x is
    w(base) for a generator word w, so u(x) = w(u(base)) = w(v(base)) =
    v(x)), and the composite of the maps on a's parent path evaluates to a.
    """
    tm = monoid_closure(sys)
    ev = evaluation(tm, sys)
    assert ev.bijective
    return tuple(tm.elements[i].table for i in ev.inverse)


def diagonal_direct_sum_report(t, gens):
    """The direct-sum decision with the diagonal table built: projections,
    their biadditive extension, its generator values and the glueing
    homomorphism a_s -> diagonal(a_s, a_s).

    direct_sum_report stops after the projections.  Once they exist, the
    extension exists (applying delta_j to sum n_i g_i = sum m_i g_i gives
    n_j g_j = m_j g_j, so the section sums agree on the generators), its
    value at (g_s, g_t) is delta_s(g_t), and the glueing map is the
    identity; so the rest cannot change the verdict.
    """
    gens = tuple(gens)
    deltas, failing, conflict = projections(t, gens)
    if deltas is None:
        return DirectSumReport(False, failing, conflict)
    tri = biadditive_extend(t, t, gens, deltas, deltas)
    for i, g in enumerate(gens):
        for j, h in enumerate(gens):
            assert tri.op[g][h] == (g if i == j or g == h else t.zero)
    glue, conflict = hom_extend_report(
        t, t, gens, tuple(tri.op[g][g] for g in gens)
    )
    assert glue is not None, conflict
    return DirectSumReport(True)


def test_derive_addition_is_the_closure_transfer():
    for sys in _minimal_systems():
        assert derive_addition(sys).op == closure_transfer(sys)


@settings(max_examples=30, deadline=None)
@given(minimal_systems())
def test_derive_addition_is_the_closure_transfer_on_random_systems(sys):
    assert derive_addition(sys).op == closure_transfer(sys)


def _generating_sets(t, gens):
    """The generator images, and every generating set of one or two
    elements of a table on at most five elements."""
    yield gens
    if t.size <= 5:
        for k in (1, 2):
            for sub in itertools.permutations(range(t.size), k):
                if generates(t, sub):
                    yield sub


def _product_shapes():
    """Criterion 11: products of cyclic and rho tables, coordinate
    generators."""
    shapes = [cyc(n) for n in range(1, 5)]
    shapes += [
        rho(tail, ell) for tail in range(1, 4) for ell in range(1, 5 - tail)
    ]
    for a, b in itertools.product(shapes, repeat=2):
        ta, tb = derive_addition(a), derive_addition(b)
        ga = a.maps[0](a.base) * tb.size + tb.zero
        gb = ta.zero * tb.size + b.maps[0](b.base)
        yield product_table(ta, tb), tuple(dict.fromkeys((ga, gb)))


def test_direct_sum_report_agrees_with_the_diagonal_build():
    cases, seen = [], set()
    for sys in _minimal_systems():
        t = derive_addition(sys)
        for gens in _generating_sets(t, tuple(f(sys.base) for f in sys.maps)):
            if (t.op, gens) not in seen:
                seen.add((t.op, gens))
                cases.append((t, gens))
    cases.extend(_product_shapes())
    verdicts = set()
    for t, gens in cases:
        want = diagonal_direct_sum_report(t, gens)
        assert direct_sum_report(t, gens) == want
        verdicts.add(want.ok)
    assert verdicts == {True, False}


def test_initiality_cores_are_the_cyclic_submonoids():
    # initiality_report's single-map core at s, as a subset of the carrier,
    # is the submonoid of the derived table that x_s generates
    for sys in _minimal_systems():
        t = derive_addition(sys)
        for lab, f in zip(sys.index_set, sys.maps):
            assert submonoid_closure(t, (f(sys.base),)) == \
                reachable_set(single_map_subsystem(sys, lab))


# -- the checks the multiplication no longer makes -----------------------------


def generation_first_hom_extend_report(src, dst, gens, targets):
    """hom_extend_report with a require_generates pass before its
    propagation, which a conflict-free propagation that reaches every
    element makes redundant."""
    gens = tuple(gens)
    targets = tuple(targets)
    require_generates(src, gens)
    prop = propagate(src.zero, dst.zero, [
        (src.op[g].__getitem__, dst.op[b].__getitem__)
        for g, b in zip(gens, targets)
    ])
    if prop.conflict is not None:
        return None, ExtensionConflict(*prop.conflict)
    img = prop.value
    return HomTable(src, dst, tuple(img[a] for a in range(src.size))), None


def checked_hom_extend_report(src, dst, gens, targets):
    """generation_first_hom_extend_report with its final homomorphism check
    on the generators, which a conflict-free propagation makes dead on
    commutative tables."""
    hom, conflict = generation_first_hom_extend_report(src, dst, gens, targets)
    if hom is None:
        return hom, conflict
    mapping = hom.map
    w = laws.homomorphism(src.op, dst.op, mapping, right=tuple(gens))
    if w is not None:
        a, b = w
        ab = src.op[a][b]
        return None, ExtensionConflict(
            ab, mapping[ab], dst.op[mapping[a]][mapping[b]]
        )
    return hom, None


def seed_hom_extend_report(src, dst, gens, targets):
    """checked_hom_extend_report with a last pass over the generator values,
    which the first propagation level makes dead."""
    hom, conflict = checked_hom_extend_report(src, dst, gens, targets)
    for g, b in zip(gens, targets) if hom is not None else ():
        if hom.map[g] != b:
            return None, ExtensionConflict(g, b, hom.map[g])
    return hom, conflict


def _extension_cases():
    """(src, dst, gens, targets) over every derived table of the
    enumerations, into itself and, for the fixtures, into each fixture."""
    tables = {}
    for sys in _minimal_systems():
        t = derive_addition(sys)
        tables.setdefault(t.op, (t, tuple(f(sys.base) for f in sys.maps)))
    fixtures = [derive_addition(sys) for sys in FIXTURES]
    for t, gens in tables.values():
        for dst in [t] + (fixtures if t in fixtures else []):
            for targets in itertools.product(range(dst.size),
                                             repeat=len(gens)):
                yield t, dst, gens, targets


def test_hom_extend_report_matches_the_seed_with_its_generator_pass():
    found = set()
    for case in _extension_cases():
        want = seed_hom_extend_report(*case)
        assert checked_hom_extend_report(*case) == want
        assert hom_extend_report(*case) == want
        found.add(want[0] is not None)
    assert found == {True, False}


def conflict_unchecked_hom_extend_report(src, dst, gens, targets):
    """Mutant of hom_extend_report: its generation check runs only after a
    conflict-free run that falls short, not after a conflict."""
    gens = tuple(gens)
    prop = propagate(src.zero, dst.zero, [
        (src.op[g].__getitem__, dst.op[b].__getitem__)
        for g, b in zip(gens, targets)
    ])
    if prop.conflict is None and len(prop.order) != src.size:
        require_generates(src, gens)
    if prop.conflict is not None:
        return None, ExtensionConflict(*prop.conflict)
    img = prop.value
    return HomTable(src, dst, tuple(img[a] for a in range(src.size))), None


def _non_generating_cases():
    """(src, src, gens, targets, conflicts) for every tuple of one or two
    elements that does not generate a derived table of at most four
    elements, with the first target tuple whose propagation stops on a
    conflict and the first whose does not, as `conflicts` tells."""
    tables = {}
    for sys in _minimal_systems():
        t = derive_addition(sys)
        if t.size <= 4:
            tables.setdefault(t.op, t)
    for t in tables.values():
        for k in (1, 2):
            for gens in itertools.permutations(range(t.size), k):
                if generates(t, gens):
                    continue
                first = {}
                for targets in itertools.product(range(t.size), repeat=k):
                    prop = propagate(t.zero, t.zero, [
                        (t.op[g].__getitem__, t.op[b].__getitem__)
                        for g, b in zip(gens, targets)
                    ])
                    first.setdefault(prop.conflict is not None, targets)
                for conflicts, targets in first.items():
                    yield t, t, gens, targets, conflicts


def _extension_outcome(report, case):
    try:
        return report(*case)
    except GensDoNotGenerate as exc:
        return "GensDoNotGenerate", exc.gens, exc.missing


def _generation_disagreements(report):
    """The cases, with and without generating gens, on which `report` and
    the generation-first oracle differ, and the count of cases of each
    kind: (generating, assignment conflicts)."""
    cases = [(*case, None) for case in _extension_cases()]
    cases += _non_generating_cases()
    kinds, differ = collections.Counter(), []
    for *case, conflicts in cases:
        want = _extension_outcome(generation_first_hom_extend_report, case)
        if conflicts is None:
            kinds[True, want[0] is None] += 1
        else:
            assert want[0] == "GensDoNotGenerate"
            kinds[False, conflicts] += 1
        if _extension_outcome(report, case) != want:
            differ.append((*case, conflicts))
    return differ, kinds


def test_hom_extend_report_matches_the_generation_first_oracle():
    differ, kinds = _generation_disagreements(hom_extend_report)
    assert differ == []
    assert set(kinds) == {(True, False), (True, True), (False, False),
                          (False, True)}


def test_hom_extend_report_without_the_conflict_path_check_is_caught():
    """Mutation: dropping the generation check after a conflict returns
    the conflict for gens that do not generate, which the oracle
    rejects with GensDoNotGenerate."""
    differ, _ = _generation_disagreements(
        conflict_unchecked_hom_extend_report)
    assert differ
    assert all(conflicts for *_case, conflicts in differ)


def propagate_without_conflicts(start, value, edges):
    """propagate with its conflict check dropped: the first value forced
    on an element is kept and a different later one is ignored."""
    order, values = [start], {start: value}
    for x in order:  # the list grows as it is walked
        for step, push in edges:
            y = step(x)
            if y not in values:
                values[y] = push(values[x])
                order.append(y)
    return Propagation(order, values, {}, None)


def test_hom_extend_report_without_the_conflict_check_is_caught(monkeypatch):
    """Mutation: with nothing after the propagation, its conflict check
    alone rejects the assignments that extend to no homomorphism.  Dropping
    it returns maps that are no extension, which the oracle catches."""
    monkeypatch.setattr(biadd, "propagate", propagate_without_conflicts)
    caught = 0
    for src, dst, gens, targets in _extension_cases():
        hom, _ = hom_extend_report(src, dst, gens, targets)
        want, _ = checked_hom_extend_report(src, dst, gens, targets)
        if hom is not None and want is None:
            caught += 1
            assert not is_hom(src, dst, hom.map) or any(
                hom.map[g] != b for g, b in zip(gens, targets))
        else:
            assert hom == want
    assert caught > 0


def oracle_mult_laws(sys, t, mu):
    """The laws derive_multiplication_single used to check after the
    extension, on every cell: the first one mu fails, or None."""
    n = sys.size
    x0 = sys.base
    if oracle_translation(mu, x0, (x0,) * n) is not None:
        return "zero absorption"
    for f in sys.maps:
        if oracle_shift(mu, f.table, t.op) is not None:
            return "successor"
    if oracle_commutative(mu) is not None:
        return "commutative"
    if oracle_sections(t.op, t.op, mu) is not None:
        return "distributive"
    if oracle_associative(mu) is not None:
        return "associative"
    if oracle_translation(mu, sys.maps[0](x0), range(n)) is not None:
        return "unit"
    return None


def _odot_grid(odot):
    pos = {s: i for i, s in enumerate(odot.index_set)}
    return [[pos[odot.op[(s, u)]] for u in odot.index_set]
            for s in odot.index_set]


def oracle_indexed_laws(sys, t, odot, mu):
    """The checks derive_multiplication_indexed and biadditive_extend used
    to make after the extension, on every cell: the first one mu fails, or
    None.  Returns the odot laws that applied as well."""
    grid = _odot_grid(odot)
    x = {s: sys.map_for(s)(sys.base) for s in sys.index_set}
    applied = set()
    for s, u in itertools.product(sys.index_set, repeat=2):
        if mu[x[s]][x[u]] != x[odot.op[(s, u)]]:
            return "generator values", applied
    if oracle_associative(grid) is None:
        applied.add("associative")
        if oracle_associative(mu) is not None:
            return "associative", applied
    if oracle_commutative(grid) is None:
        applied.add("commutative")
        if oracle_commutative(mu) is not None:
            return "commutative", applied
    for i, u in enumerate(odot.index_set):
        if oracle_translation(grid, i, range(len(grid))) is None:
            applied.add("unit")
            if oracle_translation(mu, x[u], range(t.size)) is not None:
                return "unit", applied
    return None, applied


def test_single_map_multiplications_pass_the_dropped_checks():
    count = 0
    for sys in _minimal_systems():
        if len(sys.maps) == 1:
            t = derive_addition(sys)
            mu = derive_multiplication_single(sys, t).op
            assert oracle_mult_laws(sys, t, mu) is None, sys
            count += 1
    assert count > 700


def twin(n):
    """Z_n with two labels for the map x -> x + 1."""
    f = cyc(n).maps[0]
    return CountingSystem(cyc(n).carrier, 0, ("a", "b"), (f, f))


def _two_label_systems():
    for n in range(1, 6):
        yield zpair(n)
        yield twin(n)
    shapes = [cyc(1), cyc(2), cyc(3), rho(1, 1), rho(1, 2), rho(2, 1)]
    for a, b in itertools.product([zpair(2), zpair(3), twin(2)], shapes):
        yield minimal_core(product(a, b))


def _odots(labels):
    """All 16 operations on a two-label set."""
    for values in itertools.product(labels, repeat=4):
        yield OdotTable(labels, dict(zip(
            itertools.product(labels, repeat=2), values)))


def test_indexed_multiplications_pass_the_dropped_checks():
    applied, outcomes = set(), set()
    for sys in _two_label_systems():
        t = derive_addition(sys)
        for odot in _odots(sys.index_set):
            res = derive_multiplication_indexed(sys, t, odot)
            outcomes.add(res.ok)
            if res.ok:
                failed, laws_applied = oracle_indexed_laws(
                    sys, t, odot, res.table.op
                )
                assert failed is None, (sys, odot)
                applied |= laws_applied
    assert outcomes == {True, False}
    assert applied == {"associative", "commutative", "unit"}


def propagated_biadditive_extend(M, N, gens, lambdas, lambda_primes):
    """biadditive_extend as it was: every section forced along every one of
    the k x n generator edges by propagate, a conflict an internal error,
    then every row and every column checked to be a homomorphism (on the
    generators there, exhaustively here: the same verdict, as they
    generate M).  The build along the generation tree and the certificate
    at the generators replace it."""
    gens = tuple(gens)
    require_generates(M, gens)
    for i, (g_s, lam_s) in enumerate(zip(gens, lambdas)):
        for j, (g_t, lamp_t) in enumerate(zip(gens, lambda_primes)):
            if lam_s(g_t) != lamp_t(g_s):
                raise CompatibilityViolated(i, j, lam_s(g_t), lamp_t(g_s))
    prop = propagate(M.zero, zero_hom(M, N), [
        (M.op[g].__getitem__, lambda sec, lam=lam: biadd.hom_add(lam, sec))
        for g, lam in zip(gens, lambdas)
    ])
    if prop.conflict is not None:
        raise InternalInvariantViolation(
            f"section conflict at element {prop.conflict[0]}"
        )
    op = tuple(prop.value[a].map for a in range(M.size))
    if not is_biadditive(M, N, op):
        raise InternalInvariantViolation("extension is not biadditive")
    return BiadditiveTable(M, N, op)


def _tree_and_propagated(build):
    """build() with biadditive_extend, then with the propagated oracle."""
    got = build()
    with mock.patch.object(biadd, "biadditive_extend",
                           propagated_biadditive_extend):
        return got, build()


def _multiply(sys, odot=None):
    t = derive_addition(sys)
    if odot is None:
        return lambda: derive_multiplication_single(sys, t)
    return lambda: derive_multiplication_indexed(sys, t, odot)


def _same_indexed(got, want):
    assert got.ok == want.ok
    if got.ok:
        assert got.table.op == want.table.op
    else:
        assert got == want
    return got.ok


def test_tree_build_matches_the_propagated_extension():
    count = 0
    for sys in _minimal_systems():
        if len(sys.maps) == 1:
            got, want = _tree_and_propagated(_multiply(sys))
            assert got.op == want.op
            count += 1
    outcomes = set()
    for sys in _two_label_systems():
        for odot in _odots(sys.index_set):
            outcomes.add(_same_indexed(*_tree_and_propagated(
                _multiply(sys, odot))))
    assert count > 700 and outcomes == {True, False}


@settings(max_examples=30, deadline=None)
@given(minimal_systems(), st.integers(0, 15))
def test_tree_build_matches_the_propagated_extension_on_random_systems(
    sys, which
):
    if len(sys.maps) == 1:
        got, want = _tree_and_propagated(_multiply(sys))
        assert got.op == want.op
    else:
        odot = list(_odots(sys.index_set))[which]
        _same_indexed(*_tree_and_propagated(_multiply(sys, odot)))


@pytest.mark.parametrize("sys, odot", [
    (cyc(4), None), (rho(1, 3), None), (rho(2, 1), None), (rho(2, 3), None),
    (zpair(3), parse_odot("\n".join(SIGN_ODOT_LINES))),
], ids=["cyc4", "rho13", "rho21", "rho23", "zpair3-sign"])
def test_a_section_corrupted_in_one_cell_is_caught(sys, odot, monkeypatch):
    """Mutation check: biadditive_extend raises when any one row that it
    builds along the generation tree has one wrong cell, the generator
    rows included.  On rho(2, 1) and rho(2, 3) a corrupted row a0 can be
    another biadditive table, which the generator-row check catches."""
    t = derive_addition(sys)

    def build():
        if odot is None:
            return derive_multiplication_single(sys, t)
        return derive_multiplication_indexed(sys, t, odot)

    honest = biadd.hom_add
    sections = []  # the honest sum of every hom_add call, in call order

    def record(a, b):
        out = honest(a, b)
        sections.append(out.map)
        return out

    monkeypatch.setattr(biadd, "hom_add", record)
    build()
    assert len(sections) == t.size - 1  # one sum per generation-tree edge
    for k, sec in enumerate(sections):
        for cell, v in itertools.product(range(t.size), range(t.size)):
            if v == sec[cell]:
                continue
            calls = []

            def corrupt(a, b):
                out = honest(a, b)
                calls.append(None)
                if len(calls) - 1 == k:
                    out = HomTable(out.src, out.dst,
                                   sec[:cell] + (v,) + sec[cell + 1:])
                return out

            monkeypatch.setattr(biadd, "hom_add", corrupt)
            with pytest.raises(InternalInvariantViolation):
                build()
