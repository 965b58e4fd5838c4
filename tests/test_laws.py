"""Differential tests of `countsys.laws` against cell-by-cell loop oracles.

The oracles are the loops the package used before the laws moved into one
module, kept here as the reference: each scans its cells in row-major order
and returns the first failing index, or None.  Every law must give the same
verdict and the same witness as its oracle on every table derived from the
acceptance enumerations and the fixtures, and on every single-cell tampering
of a few small tables.  The checks restricted to generators, kept here as
laws had them, must give the oracle's verdict wherever their preconditions
hold, and biadditive_extend's section check must reject exactly the
sections that the restricted homomorphism check rejected.

The constructions the derive path no longer makes are kept here as oracles
too: the closure transfer of the addition, the biadditive build behind the
direct-sum verdict, the submonoid closure by propagation (the cyclic
submonoids of the initiality and freeness reports are read from an orbit
now; test_orbit.py compares them), the biadditive extension propagated
along every generator edge, and its build by pointwise row sums along the
generation tree, which the walk of each row replaced.  So are the checks
the package no longer makes: the laws of the derived addition (its
generator rows, Light's test at the generators, and commutativity), which
derive_addition's proof implies; the multiplication laws and the certificate of the biadditive
extension (its rows and columns homomorphisms, its generator rows the
prescribed sections), which biadd._rows' proof implies; and the
generator values checked after a homomorphism extension and the
generation pass made before it.  The forced propagation that extended a
homomorphism before it was walked along the generation tree, and checked
once per generator, is kept as `seed_propagate`, the kernel of the seed
oracles here and in the other test modules.
"""

import collections
import functools
import inspect
import itertools
import random
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from countsys import biadd, core, derive, laws
from countsys.biadd import (
    BiadditiveTable,
    DirectSumReport,
    HomTable,
    biadditive_extend,
    derive_multiplication_indexed,
    derive_multiplication_single,
    direct_sum_report,
    hom_extend,
    hom_extend_report,
    identity_hom,
    is_biadditive,
    is_hom,
    projections,
)
from countsys.closure import evaluation, monoid_closure
from countsys.core import (
    Carrier,
    CountingSystem,
    EndoMap,
    ExtensionConflict,
    Propagation,
    _gather,
    _intertwined,
    _orbit,
    _walk,
    is_minimal,
    minimal_core,
    new_system,
    product,
    propagate,
    reach,
    reachable_set,
    single_map_subsystem,
)
from countsys.derive import (
    MonoidTable,
    cayley_embedding,
    classify,
    derive_addition,
    product_table,
    require_generates,
    verify_plus_axioms,
)
from countsys.dsl import OdotTable, parse_odot
from countsys.errors import (
    CompatibilityViolated,
    GensDoNotGenerate,
    InternalInvariantViolation,
)
from countsys.fixtures import SIGN_ODOT_LINES, cyc, one_point, rho, zpair
from countsys.morphisms import initiality_report

# -- oracles -------------------------------------------------------------------


def seed_propagate(start, value, edges, sort_levels=False, depth=None):
    """Forced propagation, core.propagate before it kept only the search:
    breadth-first from `start`, level by level.

    Each edge is a `(step, push)` pair: `step(x)` is the next element and
    `push(v)` the value forced on it from x's value v (`push` None forces v
    itself).  Edges are taken in the given order; a level is expanded in
    discovery order, or ascending when `sort_levels` is set.  The first value
    forced on an element is kept; a different one forced later stops the run
    and is reported as `conflict`.  With `depth`, elements `depth` steps
    from the start are reached but not expanded.

    The outcome's `order` holds the elements in discovery order, start
    first; `value` maps element -> the first value forced on it; `parent`
    element -> (previous, edge index), for all but the start; `conflict`
    is (element, kept, forced) at a stop, or None.
    """
    order = [start]
    values = {start: value}
    parent = {}
    done = 0  # order[done:] is the level to expand next
    level = 0
    while done < len(order) and (depth is None or level < depth):
        frontier = order[done:]
        done = len(order)
        for x in sorted(frontier) if sort_levels else frontier:
            v = values[x]
            for k, (step, push) in enumerate(edges):
                y = step(x)
                forced = v if push is None else push(v)
                if y in values:
                    if values[y] != forced:
                        return SimpleNamespace(
                            order=order, value=values, parent=parent,
                            conflict=(y, values[y], forced))
                    continue
                values[y] = forced
                parent[y] = (x, k)
                order.append(y)
        level += 1
    return SimpleNamespace(order=order, value=values, parent=parent,
                           conflict=None)


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
# multiplication laws, the table reconstruction and the derived addition below.
RETIRED = ("sections", "difference", "commutative")

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
# Three laws can be checked on the generators only: homomorphism, which the
# derive path checks so on the sections of the multiplication (along the
# generation tree in biadditive_extend, through laws with a range before);
# biadditivity, which it checked so on the multiplication, and associativity
# by Light's test, which it checked on the derived addition, until proofs
# replaced both (`light` is kept below as part of that table's oracle).  The
# restricted checks are kept here: each must give the exhaustive oracle's
# verdict whenever the preconditions that its docstring states hold; the
# witnesses may differ.

CERTIFICATES = ("light", "homomorphism", "biadditive")


def light(op, middle):
    """First (a, b, c), b in `middle`, with op[op[a][b]][c] != op[a][op[b][c]].

    Light's test: when op has a two-sided unit and adding elements of
    `middle` on the left reaches every element from it, middle alone
    certifies associativity (the b it holds for are closed under op)."""
    for a, row in enumerate(op):
        for b in dict.fromkeys(middle):  # a repeat finds no earlier witness
            for c, bc in enumerate(op[b]):
                if op[row[b]][c] != row[bc]:
                    return a, b, c
    return None


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


def _restricted(src_col, dst_col, h, right):
    """laws._additive as it was when it took a range: the first (a, b),
    b in `right`, with h[src[a][b]] != dst[h[a]][h[b]], in row-major order
    over the range, where src_col(b) and dst_col(b) are the columns b."""
    best = None
    for b in dict.fromkeys(right):  # a repeat finds no earlier witness
        a = laws._first(_gather(h, src_col(b)), _gather(dst_col(h[b]), h))
        if a is not None and (best is None or a < best[0]):
            best = a, b
    return best


def restricted_homomorphism(src, dst, h, right):
    """laws.homomorphism restricted to right arguments in `right`, as laws
    had it until no caller passed a range.

    When both tables are associative with units, h sends src's unit to
    dst's, and adding elements of `right` on the left reaches every element
    of src from its unit, right alone certifies the law: the b it holds for
    form a submonoid."""
    return _restricted(lambda b: laws._column(src, b),
                       lambda b: laws._column(dst, b), h, right)


def restricted_homomorphisms(src, dst, maps, zero, dst_zero, right):
    """laws.homomorphisms restricted to right arguments in `right`, as
    biadditive_extend checked its sections at the generators until it
    compared them along its generation tree: the first i such that maps[i]
    does not send zero to dst_zero or fails restricted_homomorphism, src
    and dst commutative, their rows read as their columns."""
    src_col, dst_col = src.__getitem__, dst.__getitem__
    return next((i for i, h in enumerate(maps) if h[zero] != dst_zero
                 or _restricted(src_col, dst_col, h, right) is not None), None)


def certificate_cases(op, zero, gens, rng, homs=(), mu=None):
    """(certificate, preconditions hold, restricted verdict, oracle verdict):
    the preconditions are taken with the generators `gens`, the restricted
    calls with the range `rng`."""
    generated = oracle_unit(op, zero) is None and _reaches_all(op, zero, gens)
    monoid = generated and oracle_associative(op) is None
    yield ("light", generated, light(op, rng),
           oracle_associative(op))
    for h in homs:
        yield ("homomorphism", monoid and h[zero] == zero,
               restricted_homomorphism(op, op, h, rng),
               oracle_homomorphism(op, op, h))
    if mu is None:
        return
    yield ("biadditive", monoid and oracle_commutative(op) is None,
           generator_certificate(op, mu, zero, rng),
           oracle_biadditive(op, op, mu, zero, zero))


def generator_certificate(op, mu, zero, rng):
    """The certificate biadditive_extend ran until its proof replaced it,
    with the rows at the range in place of its input sections: those rows
    and every column are homomorphisms at the range.  None, or the first
    failing row and column indices."""
    rows = restricted_homomorphisms(op, op, [mu[g] for g in rng], zero, zero,
                                    rng)
    cols = restricted_homomorphisms(op, op, zip(*mu), zero, zero, rng)
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
    recon = derive_addition(sys)
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
            assert oracle_difference(derive_addition(sys).op, op) is None
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


def submonoid_closure(t, gens):
    """The least subset containing zero and closed under adding the
    generators: the propagation that decided generation and built the
    cyclic submonoids before they were read from an orbit."""
    return set(propagate(t.zero, [t.op[g] for g in gens]).order)


def generates(t, gens):
    return len(submonoid_closure(t, gens)) == t.size


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


# -- the checks derive_addition dropped ----------------------------------------


def dropped_addition_checks(sys, op):
    """The checks derive_addition made on its table until its proof replaced
    them, with exhaustive associativity besides: row x_s is f_s at each
    generator x_s = f_s(base), Light's test at the x_s, associativity and
    commutativity.  The first failing check's name and witness, or None."""
    gens = tuple(f(sys.base) for f in sys.maps)
    for g, f in zip(gens, sys.maps):
        x = oracle_translation(op, g, f.table)
        if x is not None:
            return "translation", g, x
    for name, w in [("light", light(op, gens)),
                    ("associative", oracle_associative(op)),
                    ("commutative", oracle_commutative(op))]:
        if w is not None:
            return name, w
    return None


def test_derive_addition_passes_the_dropped_checks():
    for sys in _minimal_systems():
        assert dropped_addition_checks(sys, derive_addition(sys).op) is None


@settings(max_examples=30, deadline=None)
@given(minimal_systems())
def test_derive_addition_passes_the_dropped_checks_on_random_systems(sys):
    assert dropped_addition_checks(sys, derive_addition(sys).op) is None


def _derived_from(sys, monkeypatch, op):
    """derive_addition(sys).op with the table it builds replaced by `op` and
    MonoidTable's unit check switched off, so that derive_addition checks
    nothing of the table."""
    monkeypatch.setattr(laws, "unit", lambda op, e: None)
    monkeypatch.setattr(derive, "MonoidTable",
                        lambda n, _rows, zero: MonoidTable(n, op, zero))
    return derive_addition(sys).op


def _apply(f, xs):
    return tuple(f[x] for x in xs)


def _rows_along_a_wrong_map(sys):
    """derive_addition's table with the row of one element a taken
    along a map other than the one that discovered a: another label's map,
    or the discovering map twice.  The rows below a are built from it."""
    edges = reach(sys).edges
    maps = [f.table for _lab, f in sorted(zip(sys.index_set, sys.maps))]
    for _p, k, a in edges:
        for g in [*maps[:k], *maps[k + 1:], _apply(maps[k], maps[k])]:
            rows = {sys.base: tuple(range(sys.size))}
            for p, j, y in edges:
                rows[y] = _apply(g if y == a else maps[j], rows[p])
            yield tuple(rows[y] for y in range(sys.size))


MUTANTS = [cyc(5), rho(2, 3), zpair(4)]
MUTANT_IDS = ["cyc5", "rho23", "zpair4"]


@pytest.mark.parametrize("sys", MUTANTS, ids=MUTANT_IDS)
def test_a_derived_table_with_one_cell_changed_fails_the_dropped_checks(
    sys, monkeypatch
):
    """Mutation check: with MonoidTable's unit check off, derive_addition
    returns whatever table it builds, and the oracle rejects each that
    differs from the honest one in one cell."""
    for op in _tamperings(derive_addition(sys).op):
        assert _derived_from(sys, monkeypatch, op) == op
        assert dropped_addition_checks(sys, op) is not None


@pytest.mark.parametrize("sys", MUTANTS, ids=MUTANT_IDS)
def test_a_derived_row_along_the_wrong_map_fails_the_dropped_checks(
    sys, monkeypatch
):
    """Mutation check: as above, for a table whose row a is taken along the
    wrong map g.  On these systems g never sends a's parent to a, which by
    the key lemma would make the row right, so every such table is wrong."""
    honest = derive_addition(sys).op
    count = 0
    for op in _rows_along_a_wrong_map(sys):
        assert op != honest
        assert _derived_from(sys, monkeypatch, op) == op
        assert dropped_addition_checks(sys, op) is not None
        count += 1
    assert count == (sys.size - 1) * len(sys.maps)


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
    # is the submonoid of the derived table that x_s generates: the orbit
    # of the base under f_s, and the carrier of the single-map subsystem
    for sys in _minimal_systems():
        t = derive_addition(sys)
        rep = initiality_report(sys)
        for lab, f, cond in zip(sys.index_set, sys.maps, rep.conditions):
            sub = submonoid_closure(t, (f(sys.base),))
            assert sub == set(_orbit(f.table, sys.base)[0])
            assert sub == reachable_set(single_map_subsystem(sys, lab))
            assert cond.core_size == len(sub)


# -- the checks the multiplication no longer makes -----------------------------


def generation_first_hom_extend_report(src, dst, gens, targets):
    """hom_extend_report with a require_generates pass before its
    propagation, which a conflict-free propagation that reaches every
    element makes redundant."""
    gens = tuple(gens)
    targets = tuple(targets)
    require_generates(src, gens)
    prop = seed_propagate(src.zero, dst.zero, [
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
    w = restricted_homomorphism(src.op, dst.op, mapping, gens)
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
    """Mutant of hom_extend_report as it propagated before it walked: its
    generation check runs only after a conflict-free propagation that
    falls short, not after a conflict."""
    gens = tuple(gens)
    prop = seed_propagate(src.zero, dst.zero, [
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
                    prop = seed_propagate(t.zero, t.zero, [
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


def test_hom_extend_report_without_the_conflict_check_is_caught(monkeypatch):
    """Mutation: with nothing after the walk, its check at the generator
    edges alone rejects the assignments that extend to no homomorphism.
    Dropping it returns walks that are no extension, which the oracle
    catches."""
    monkeypatch.setattr(core, "_intertwined", lambda *_args: True)
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


def skip_the_last_check(monkeypatch):
    """Mutate the check of the extension kernel, core._extend, which every
    walk goes through: it compares the walk at the edges of every
    generator but the last."""
    monkeypatch.setattr(core, "_intertwined", lambda h, tree, tables:
                        _intertwined(h, tree, tables[:-1]))


def test_hom_extend_report_skipping_the_last_generator_check_is_caught(
    monkeypatch
):
    """Mutation: without the comparison at the last generator's edges,
    hom_extend_report returns walks that break them, which the seed
    rejects."""
    cases = list(_extension_cases())
    want = [seed_hom_extend_report(*case) for case in cases]
    skip_the_last_check(monkeypatch)
    caught = 0
    for case, (hom, conflict) in zip(cases, want):
        got = hom_extend_report(*case)
        if got != (hom, conflict):
            assert hom is None and got[0] is not None
            caught += 1
    assert caught > 0


def index_first_hom_extend_report(src, dst, gens, targets):
    """Mutant of hom_extend_report: its conflict is at the first element x
    in index order, and the first generator g_s there, whose edge
    x -> g_s + x the walk breaks, as laws.intertwines finds it."""
    hom, conflict = hom_extend_report(src, dst, gens, targets)
    if hom is not None:
        return hom, conflict
    tables = [dst.op[b] for b in targets]
    h = _walk(require_generates(src, gens), dst.zero, tables)
    x, k = min((x, k) for k, (g, table) in enumerate(zip(gens, tables))
               if (x := laws.intertwines(h, src.op[g], table)) is not None)
    y = src.op[gens[k]][x]
    return None, ExtensionConflict(y, h[y], tables[k][h[x]])


def test_hom_extend_report_names_the_first_conflict_in_tree_order():
    """On Z_63 with the shifts 1, 22 and 43 the first edge a walk breaks
    in tree order is not the first in index order.  hom_extend_report
    names the first in tree order, where the seed's propagation stops, and
    a mutant naming the first in index order fails the comparison."""
    sys = _shifts(63, (1, 22, 43))
    t = derive_addition(sys)
    gens = tuple(f(sys.base) for f in sys.maps)
    rng = random.Random(0)
    conflicts = caught = 0
    for _ in range(300):
        targets = tuple(rng.randrange(t.size) for _g in gens)
        want = seed_hom_extend_report(t, t, gens, targets)
        assert hom_extend_report(t, t, gens, targets) == want
        conflicts += want[0] is None
        caught += index_first_hom_extend_report(t, t, gens, targets) != want
    assert caught == conflicts > 0


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


def zero_hom(src, dst):
    """The homomorphism sending every element of src to dst's zero."""
    return HomTable(src, dst, (dst.zero,) * src.size)


def hom_add(a, b):
    """Pointwise sum of two homomorphisms into the same commutative table."""
    dst = a.dst
    return HomTable(
        a.src, dst, tuple(dst.op[x][y] for x, y in zip(a.map, b.map))
    )


def restricted_section_checks(M, N, gens, lambdas, lambda_primes):
    """The checks of biadditive_extend, with no table built, as it made them
    before it compared its sections along its generation tree: the
    generation search, compatibility, then each row and column section by
    restricted_homomorphisms at the generators.  Raises what
    biadditive_extend raises; returns the tree."""
    gens = tuple(gens)
    tree = require_generates(M, gens)
    for i, (g_s, lam_s) in enumerate(zip(gens, lambdas)):
        for j, (g_t, lamp_t) in enumerate(zip(gens, lambda_primes)):
            if lam_s(g_t) != lamp_t(g_s):
                raise CompatibilityViolated(i, j, lam_s(g_t), lamp_t(g_s))
    for side, sections in (("row", lambdas), ("column", lambda_primes)):
        i = restricted_homomorphisms(M.op, N.op, [lam.map for lam in sections],
                                     M.zero, N.zero, gens)
        if i is not None:
            raise InternalInvariantViolation(
                f"{side} section {i} is no homomorphism")
    return tree


def row_sum_biadditive_extend(M, N, gens, lambdas, lambda_primes):
    """biadditive_extend before its rows were walked: the same checks, then
    row zero zero and row c = lambda_k + row p, a pointwise hom_add, on each
    edge c = g_k + p of the generation tree.  The walk gives the same table
    (biadd._rows' proof) without a sum of two rows per element."""
    tree = restricted_section_checks(M, N, gens, lambdas, lambda_primes)
    rows = [zero_hom(M, N)] * M.size
    for p, k, a in tree.edges:
        rows[a] = hom_add(lambdas[k], rows[p])
    return BiadditiveTable(M, N, tuple(r.map for r in rows))


def propagated_biadditive_extend(M, N, gens, lambdas, lambda_primes):
    """biadditive_extend as it was: every section forced along every one of
    the k x n generator edges by propagate, a conflict an internal error,
    then every row and every column checked to be a homomorphism (on the
    generators there, exhaustively here: the same verdict, as they
    generate M).  The build along the generation tree, from sections checked
    at the generators, replaces it."""
    gens = tuple(gens)
    require_generates(M, gens)
    for i, (g_s, lam_s) in enumerate(zip(gens, lambdas)):
        for j, (g_t, lamp_t) in enumerate(zip(gens, lambda_primes)):
            if lam_s(g_t) != lamp_t(g_s):
                raise CompatibilityViolated(i, j, lam_s(g_t), lamp_t(g_s))
    prop = seed_propagate(M.zero, zero_hom(M, N), [
        (M.op[g].__getitem__, lambda sec, lam=lam: hom_add(lam, sec))
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


def _tree_and_propagated(sys, odot=None, oracle=propagated_biadditive_extend):
    """The multiplication of sys, with odot when given, and the oracle's
    table over the sections it prescribes (_extension_args), as the same
    kind of result."""
    got = _multiply(sys, odot)()
    args = _extension_args(sys, odot)
    if odot is None:
        return got, oracle(*args)
    if isinstance(args, biadd.IndexedMultiplication):
        return got, args
    return got, biadd.IndexedMultiplication(oracle(*args))


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
            got, want = _tree_and_propagated(sys)
            assert got.op == want.op
            count += 1
    outcomes = set()
    for sys in _two_label_systems():
        for odot in _odots(sys.index_set):
            outcomes.add(_same_indexed(*_tree_and_propagated(sys, odot)))
    assert count > 700 and outcomes == {True, False}


@settings(max_examples=30, deadline=None)
@given(minimal_systems(), st.integers(0, 15))
def test_tree_build_matches_the_propagated_extension_on_random_systems(
    sys, which
):
    if len(sys.maps) == 1:
        got, want = _tree_and_propagated(sys)
        assert got.op == want.op
    else:
        odot = list(_odots(sys.index_set))[which]
        _same_indexed(*_tree_and_propagated(sys, odot))


def dropped_multiplication_certificate(M, N, gens, lambdas, op):
    """The certificate biadditive_extend ran on its table until its proof
    replaced it, made exhaustive: every row and every column of op is a
    homomorphism (oracle_biadditive), and row g_s is lambda_s.  The first
    failure and its witness, or None."""
    w = oracle_biadditive(M.op, N.op, op, M.zero, N.zero)
    if w is not None:
        return "biadditive", w
    return next((("row", g) for g, lam in zip(gens, lambdas)
                 if op[g] != lam.map), None)


def _random_section(draw, t, gens, targets):
    """The homomorphism sending gens to targets when it exists and `draw`
    asks for one, else an arbitrary map with those values at gens (the
    last value wins at a repeated generator)."""
    if draw(st.booleans()):
        lam, _conflict = hom_extend_report(t, t, gens, targets)
        if lam is not None:
            return lam
    n = t.size
    h = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    for g, b in zip(gens, targets):
        h[g] = b
    return HomTable(t, t, tuple(h))


def _times(t, m, x):
    """m x in the table t."""
    y = t.zero
    for _ in range(m):
        y = t.op[x][y]
    return y


def _draw_sections(sys, draw):
    """(t, gens, lambdas, lambda_primes) on derive_addition(sys) and its
    generators.  Row sections are random homomorphisms: the extension of
    random generator targets, or m x when that does not exist.  Column
    sections are the homomorphisms compatible with them, or arbitrary maps
    with the compatible values at the generators."""
    t = derive_addition(sys)
    gens = tuple(f(sys.base) for f in sys.maps)
    element = st.integers(0, t.size - 1)
    lambdas = []
    for _g in gens:
        lam, _conflict = hom_extend_report(
            t, t, gens, draw(st.lists(element, min_size=len(gens),
                                      max_size=len(gens))))
        if lam is None:
            m = draw(st.integers(0, t.size))
            lam = HomTable(t, t, tuple(_times(t, m, x) for x in range(t.size)))
        lambdas.append(lam)
    lambda_primes = [
        _random_section(draw, t, gens, [lam(g_t) for lam in lambdas])
        for g_t in gens
    ]
    return t, gens, lambdas, lambda_primes


def _outcome(extend, t, gens, lambdas, lambda_primes):
    """The table that extend builds, or the class of the error it raises."""
    try:
        return extend(t, t, gens, lambdas, lambda_primes).op
    except (CompatibilityViolated, InternalInvariantViolation) as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(minimal_systems(), st.data())
def test_biadditive_extend_matches_the_propagated_extension_on_random_sections(
    sys, data
):
    """Sections drawn by _draw_sections.  Where the propagated oracle
    raises, biadditive_extend raises the same error; where both return, the
    tables are equal; where only biadditive_extend raises, a column section
    is no homomorphism."""
    t, gens, lambdas, lambda_primes = _draw_sections(sys, data.draw)
    got = _outcome(biadditive_extend, t, gens, lambdas, lambda_primes)
    want = _outcome(propagated_biadditive_extend, t, gens, lambdas,
                    lambda_primes)
    if isinstance(want, type) or not isinstance(got, type):
        assert got == want
    else:
        assert got is InternalInvariantViolation
        assert any(lamp(t.zero) != t.zero
                   or oracle_homomorphism(t.op, t.op, lamp.map) is not None
                   for lamp in lambda_primes)




@settings(max_examples=60, deadline=None)
@given(minimal_systems(), st.data())
def test_biadditive_extend_matches_the_row_sums_on_random_sections(
    sys, data
):
    """The walk and the row-sum build make the same checks and, where both
    pass, the same table."""
    t, gens, lambdas, lambda_primes = _draw_sections(sys, data.draw)
    assert (_outcome(biadditive_extend, t, gens, lambdas, lambda_primes)
            == _outcome(row_sum_biadditive_extend, t, gens, lambdas,
                        lambda_primes))


def _shifts(n, steps):
    """Z_n with one label per step c, for the map x -> x + c."""
    maps = tuple(EndoMap(tuple((x + c) % n for x in range(n))) for c in steps)
    return new_system(cyc(n).carrier, 0, tuple(f"s{c}" for c in steps), maps)


def _shift_odots(n, steps):
    """On the labels of _shifts(n, steps): s_c odot s_d = s_(c d mod n), which
    the steps below close, then both projections and each constant."""
    labels = tuple(f"s{c}" for c in steps)
    pairs = list(itertools.product(labels, repeat=2))
    yield OdotTable(labels, {(f"s{c}", f"s{d}"): f"s{c * d % n}"
                             for c, d in itertools.product(steps, repeat=2)})
    yield OdotTable(labels, {(s, u): s for s, u in pairs})
    yield OdotTable(labels, {(s, u): u for s, u in pairs})
    for v in labels:
        yield OdotTable(labels, dict.fromkeys(pairs, v))


# Generation trees with three and four generators: x_c x_d = x_(c d) holds
# for these steps, as 3^2 = 0 mod 9, 21^2 = 0 mod 63 and the odd residues
# mod 8 are closed under products.
SHIFTS = [(9, (1, 4, 7)), (8, (1, 3, 5, 7)), (63, (1, 22, 43))]

# The addition of the c2xc3 golden's system, Z2 x Z3 on the indices
# 3 i + j, here generated by its two coordinates (1, 0) and (0, 1).
C2XC3 = derive_addition(product(cyc(2), cyc(3)))
C2XC3_GENS = (3, 1)


def _coordinate_sections(t, gens):
    """(lambdas, lambda_primes) for every matrix of generator products
    g_s g_t whose row and column sections all exist."""
    k = len(gens)
    for values in itertools.product(range(t.size), repeat=k * k):
        grid = [values[i * k:(i + 1) * k] for i in range(k)]
        sections = [hom_extend_report(t, t, gens, targets)[0]
                    for targets in (*grid, *zip(*grid))]
        if None not in sections:
            yield sections[:k], sections[k:]


def test_multi_generator_walks_match_both_oracles():
    """Trees with three and four generators, the c2xc3 table generated by
    its coordinates, and the one-point table, whose tree has no edge: the
    walk builds the table of the row-sum build and of the propagated
    extension, or raises or reports absence as they do."""
    outcomes, sections = set(), 0
    for n, steps in SHIFTS:
        for odot in _shift_odots(n, steps):
            for oracle in (row_sum_biadditive_extend,
                           propagated_biadditive_extend):
                outcomes.add(_same_indexed(*_tree_and_propagated(
                    _shifts(n, steps), odot, oracle)))
    one = derive_addition(one_point())
    cases = [(C2XC3, C2XC3_GENS, *pair)
             for pair in _coordinate_sections(C2XC3, C2XC3_GENS)]
    cases += [(one, (0,), *pair) for pair in _coordinate_sections(one, (0,))]
    for t, gens, lambdas, lambda_primes in cases:
        got = biadditive_extend(t, t, gens, lambdas, lambda_primes).op
        for oracle in (row_sum_biadditive_extend,
                       propagated_biadditive_extend):
            assert got == oracle(t, t, gens, lambdas, lambda_primes).op
        sections += 1
    # on c2xc3, (1, 0)^2 is one of the 2 elements that 2 kills, (0, 1)^2
    # one of the 3 that 3 kills, and their product is zero: 2 x 3 tables,
    # and one on the one point
    assert outcomes == {True, False} and sections == 7


def _extension_args(sys, odot=None):
    """The arguments of a biadditive_extend call that multiplies sys, with
    odot when given: its generators and the row and column sections the
    multiplication prescribes there, each extended by the public
    hom_extend_report.  With an odot and a section that does not exist,
    the IndexedMultiplication naming the first label, its row section
    before its column section, and the conflict."""
    t = derive_addition(sys)
    if odot is None:
        ident = identity_hom(t)
        return t, t, (sys.maps[0](sys.base),), (ident,), (ident,)
    x = {s: sys.map_for(s)(sys.base) for s in sys.index_set}
    gens = tuple(x.values())
    sections = []
    for s in sys.index_set:
        for pairs in ([(s, u) for u in x], [(u, s) for u in x]):
            hom, conflict = hom_extend_report(
                t, t, gens, [x[odot.op[p]] for p in pairs])
            if hom is None:
                return biadd.IndexedMultiplication(None, s, conflict)
            sections.append(hom)
    return t, t, gens, sections[::2], sections[1::2]


def _c2xc3_componentwise():
    """The componentwise product on C2XC3: g_s g_t is g_s when s = t, else
    zero."""
    zero = C2XC3.zero
    grid = [[g if s == u else zero for u in C2XC3_GENS]
            for s, g in enumerate(C2XC3_GENS)]
    lambdas, lambda_primes = [
        [hom_extend(C2XC3, C2XC3, C2XC3_GENS, targets)
         for targets in rows] for rows in (grid, zip(*grid))]
    return C2XC3, C2XC3, C2XC3_GENS, lambdas, lambda_primes


def _shift_times(n, steps):
    return _extension_args(_shifts(n, steps), next(_shift_odots(n, steps)))


SIGN = parse_odot("\n".join(SIGN_ODOT_LINES))
# name -> the arguments of a biadditive_extend call, built when a test runs
WALKS = {
    "cyc4": lambda: _extension_args(cyc(4)),
    "rho23": lambda: _extension_args(rho(2, 3)),
    "c2xc3": lambda: _extension_args(product(cyc(2), cyc(3))),
    "one-point": lambda: _extension_args(one_point()),
    "zpair3-sign": lambda: _extension_args(zpair(3), SIGN),
    "z9-3-shifts": lambda: _shift_times(*SHIFTS[0]),
    "z8-4-shifts": lambda: _shift_times(*SHIFTS[1]),
    "c2xc3-coordinates": _c2xc3_componentwise,
}
MULTI = ["zpair3-sign", "z9-3-shifts", "z8-4-shifts", "c2xc3-coordinates"]


def _rejected(args, want, op):
    """Both oracles reject op as biadditive_extend(*args): it is not want,
    the propagated extension's table, and the dropped certificate fails."""
    M, N, gens, lambdas, _lambda_primes = args
    return op != want and dropped_multiplication_certificate(
        M, N, gens, lambdas, op) is not None


def biadd_mutant(old, new, name="biadditive_extend", module=biadd):
    """The function `name` of `module` compiled from its own source with
    `old`, which must occur there once, replaced by `new`: a mutant of the
    code itself, not of a copy of it."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    return namespace[name]


# Z_2 x Z_2, element i + 2j, with a adding (1, 0) and b adding (0, 1), and
# the odot s t = s: mu(x, y) = x (i_y + j_y), which is not commutative, so
# its row section at x_a (x_a at both generators) is not its column
# section there (the identity).  On twin5 (test_golden) x_a = x_b, and
# every section of every odot is the identity.
V4 = _system(0, [(1, 0, 3, 2), (2, 3, 0, 1)], labels=("a", "b"))
LEFT = parse_odot("odot\na a = a\na b = a\nb a = b\nb b = b\n")
TWIN5 = twin(5)


def _row_walk_cases():
    """(sys, odot): every minimal single-map system with None, every
    minimal two-label system with each of the 16 odots on its labels,
    V4 and twin5 with LEFT, and zpair(3) with the sign odot."""
    systems = list(_minimal_systems())
    for sys in systems:
        if len(sys.maps) == 1:
            yield sys, None
    for sys in [s for s in systems if len(s.maps) == 2]:
        for odot in _odots(sys.index_set):
            yield sys, odot
    yield from [(V4, LEFT), (TWIN5, LEFT), (zpair(3), SIGN)]


def test_a_multiplication_is_biadditive_extend_over_its_sections():
    """derive_multiplication_single and derive_multiplication_indexed walk
    their rows (biadd._rows) on the tree they searched for their sections,
    checking none again; the table is the checked biadditive_extend's over
    the sections they prescribe, extended test-side, and a missing section
    is the same failure."""
    outcomes = collections.Counter()
    for sys, odot in _row_walk_cases():
        got, want = _tree_and_propagated(sys, odot, biadditive_extend)
        if odot is None:
            assert got.op == want.op, sys
            outcomes["single"] += 1
        else:
            outcomes[_same_indexed(got, want)] += 1
    assert outcomes["single"] > 700 and outcomes[True] > 100
    assert outcomes[False] > 100


# derive_multiplication_indexed's two extensions at a label; swapped, the
# last one, which the rows are walked from, is the row section
ROW_THEN_COLUMN = "(((s, u) for u in labels), ((u, s) for u in labels))"
COLUMN_THEN_ROW = "(((u, s) for u in labels), ((s, u) for u in labels))"


def test_a_row_walk_fed_the_row_sections_is_caught():
    """Mutation check: derive_multiplication_indexed walking its rows from
    the row sections in place of the column sections.  Where the odot is
    not commutative on the generators, as on V4 with LEFT, its table is
    not biadditive_extend's over the prescribed sections, and the dropped
    certificate rejects it; where the odot is commutative there, the two
    kinds of section agree and so do the tables."""
    mutant = biadd_mutant(ROW_THEN_COLUMN, COLUMN_THEN_ROW,
                          "derive_multiplication_indexed")
    caught = []
    for sys, odot in _row_walk_cases():
        if odot is None:
            continue
        t = derive_addition(sys)
        got = derive_multiplication_indexed(sys, t, odot)
        bad = mutant(sys, t, odot)
        if not (got.ok and bad.ok) or bad.table.op == got.table.op:
            continue
        _M, _N, gens, lambdas, _lambda_primes = _extension_args(sys, odot)
        assert dropped_multiplication_certificate(
            t, t, gens, lambdas, bad.table.op) is not None
        caught.append(sys)
    assert V4 in caught and TWIN5 not in caught and len(caught) > 10


# biadditive_extend's check of a section h: the kernel's walk from zero
SECTION_CHECK = "_extend(tree, N.zero, u)[0] != list(h)"


@pytest.mark.parametrize("name", WALKS)
def test_a_walk_from_a_wrong_value_at_a_generator_is_caught(name):
    """Mutation check: with the section checks switched off, zero test
    included, row a is walked from a wrong value v = lambda'_k(a) at g_k.
    In a generator's row compatibility rejects it; every other such table
    comes back from biadditive_extend, and both oracles reject it."""
    args = WALKS[name]()
    M, N, gens, lambdas, lambda_primes = args
    want = propagated_biadditive_extend(*args).op
    unchecked_extend = biadd_mutant(SECTION_CHECK, "False")
    caught = 0
    for k, lamp in enumerate(lambda_primes):
        for a, v in itertools.product(range(M.size), range(N.size)):
            if v == lamp.map[a]:
                continue
            wrong = HomTable(M, N, lamp.map[:a] + (v,) + lamp.map[a + 1:])
            mutant = (M, N, gens, lambdas,
                      (*lambda_primes[:k], wrong, *lambda_primes[k + 1:]))
            if a in gens:
                with pytest.raises(CompatibilityViolated):
                    unchecked_extend(*mutant)
                continue
            op = unchecked_extend(*mutant).op
            assert _rejected(args, want, op), (k, a, v)
            caught += 1
    assert caught == (M.size - len(set(gens))) * len(gens) * (N.size - 1)


def _verdict(extend, args):
    """None when extend(*args) returns, else its error's class and text,
    which names the failing section and its index."""
    try:
        extend(*args)
    except (CompatibilityViolated, InternalInvariantViolation) as exc:
        return type(exc).__name__, str(exc)
    return None


def _section_corruptions():
    """(walk, where, args): the arguments of each walk of WALKS, and of
    rho(1, 1), whose generator absorbs every element, with one section
    wrong in one cell; `where` is "zero" when that cell is zero's, else
    "cell"."""
    walks = {**WALKS, "rho11": lambda: _extension_args(rho(1, 1))}
    for name, build in walks.items():
        M, N, gens, *sides = build()
        for side, k, a in itertools.product(range(2), range(len(gens)),
                                            range(M.size)):
            h = sides[side][k].map
            for v in (v for v in range(N.size) if v != h[a]):
                wrong = list(sides[side])
                wrong[k] = HomTable(M, N, h[:a] + (v,) + h[a + 1:])
                pair = (wrong, sides[1]) if side == 0 else (sides[0], wrong)
                yield (name, "zero" if a == M.zero else "cell",
                       (M, N, gens, *pair))


def _walked_corruptions():
    """(walk, "walk", args): the arguments of each walk of WALKS with row
    section k and column section j each walked (core._walk) from its
    values at the generators but one, v at g_j and at g_k: compatible
    sections that the kernel's walk returns, so that only its check at the
    generators can reject them."""
    for name, build in WALKS.items():
        M, N, gens, lambdas, lambda_primes = build()
        tree = require_generates(M, gens)

        def walked(h, i, v):
            values = [v if m == i else h[g] for m, g in enumerate(gens)]
            return HomTable(M, N, tuple(_walk(tree, N.zero,
                                              [N.op[b] for b in values])))

        for k, j in itertools.product(range(len(gens)), repeat=2):
            row, column = lambdas[k].map, lambda_primes[j].map
            for v in (v for v in range(N.size) if v != row[gens[j]]):
                rows, columns = list(lambdas), list(lambda_primes)
                rows[k], columns[j] = walked(row, j, v), walked(column, k, v)
                yield name, "walk", (M, N, gens, rows, columns)


def _section_disagreements(extend, corruptions=_section_corruptions):
    """The corruptions (walk, where, want) on which extend and the
    restricted checks disagree, where want is the checks' verdict, and a
    count of those verdicts' classes by where; by default the one-cell
    corruptions."""
    differ, seen = [], collections.Counter()
    for name, where, args in corruptions():
        want = _verdict(restricted_section_checks, args)
        seen[where, want and want[0]] += 1
        if _verdict(extend, args) != want:
            differ.append((name, where, want))
    return differ, seen


def test_section_check_matches_the_restricted_check_on_corrupted_sections():
    """biadditive_extend compares each section along its generation tree:
    it rejects exactly the corrupted sections that laws.homomorphisms
    restricted to the generators rejected, with the same error at the same
    index."""
    differ, seen = _section_disagreements(biadditive_extend)
    assert differ == []
    assert set(seen) == {("cell", "CompatibilityViolated"),
                         ("cell", "InternalInvariantViolation"),
                         ("zero", "InternalInvariantViolation")}


def test_a_section_check_without_its_zero_test_is_caught():
    """Mutation check: without the zero test, the kernel's walk starting
    from the section's own value at zero, a section that is additive at
    the generators but moves zero passes.  On rho(1, 1) the identity moved
    to the constant at the generator is one; the restricted checks reject
    it."""
    differ, _seen = _section_disagreements(
        biadd_mutant("_extend(tree, N.zero,", "_extend(tree, h[M.zero],"))
    assert differ
    assert all(name == "rho11" and where == "zero"
               and want[0] == "InternalInvariantViolation"
               for name, where, want in differ)


def test_a_section_check_skipping_the_last_generator_is_caught(monkeypatch):
    """Mutation check: without the kernel's comparison at the last
    generator's edges, sections additive at the other generators alone
    pass, which the restricted checks reject.  A section corrupted in one
    cell is not the kernel's walk, which the check compares it with, so
    the sections tried are walks from wrong generator values."""
    assert _section_disagreements(biadditive_extend,
                                  _walked_corruptions)[0] == []
    skip_the_last_check(monkeypatch)
    differ, _seen = _section_disagreements(biadditive_extend,
                                           _walked_corruptions)
    assert differ
    assert all(want[0] == "InternalInvariantViolation"
               for _name, _where, want in differ)


@settings(max_examples=60, deadline=None)
@given(minimal_systems(), st.data())
def test_section_check_matches_the_restricted_check_on_random_sections(
    sys, data
):
    """Sections drawn by _draw_sections, then one of them set to a drawn
    value in one cell, zero's or a drawn one: biadditive_extend raises
    exactly when the restricted checks do, with the same error at the same
    index."""
    t, gens, *sides = _draw_sections(sys, data.draw)
    side, k = data.draw(st.integers(0, 1)), data.draw(
        st.integers(0, len(gens) - 1))
    h = list(sides[side][k].map)
    a = t.zero if data.draw(st.booleans()) else data.draw(
        st.integers(0, t.size - 1))
    h[a] = data.draw(st.integers(0, t.size - 1))
    sides[side] = list(sides[side])
    sides[side][k] = HomTable(t, t, tuple(h))
    args = (t, t, gens, *sides)
    assert (_verdict(biadditive_extend, args)
            == _verdict(restricted_section_checks, args))


@pytest.mark.parametrize("name", MULTI)
def test_a_walk_reading_the_wrong_edge_generator_is_caught(name,
                                                           monkeypatch):
    """Mutation check: the walk reads generator j != k on the tree edge
    c = g_k + p, so row a (c) is lambda'_j(a) + row a (p).  On these
    systems lambda'_j and lambda'_k differ somewhere, so every such table
    is wrong; it comes back from biadditive_extend, and both oracles
    reject it."""
    args = WALKS[name]()
    M, _N, gens, _lambdas, _lambda_primes = args
    want = propagated_biadditive_extend(*args).op
    tree, rows = require_generates(M, gens), biadd._rows
    caught = 0
    for i, (p, k, c) in enumerate(tree.edges):
        for j in [j for j in range(len(gens)) if j != k]:
            wrong = Propagation(tree.order, [*tree.edges[:i], (p, j, c),
                                             *tree.edges[i + 1:]], tree.steps)
            # the sections are checked on the true tree, the rows walked
            # on the wrong one
            monkeypatch.setattr(biadd, "_rows", lambda _tree, *rest,
                                tree=wrong: rows(tree, *rest))
            op = biadditive_extend(*args).op
            assert _rejected(args, want, op), (c, j)
            caught += 1
    assert caught == (M.size - 1) * (len(gens) - 1) > 0


@pytest.mark.parametrize("sys, odot", [
    (cyc(4), None), (rho(1, 3), None), (rho(2, 1), None), (rho(2, 3), None),
    (zpair(3), SIGN), (product(cyc(2), cyc(3)), None), (one_point(), None),
    (_shifts(*SHIFTS[0]), next(_shift_odots(*SHIFTS[0]))),
], ids=["cyc4", "rho13", "rho21", "rho23", "zpair3-sign", "c2xc3",
        "one-point", "z9-3-shifts"])
def test_a_section_corrupted_in_one_cell_is_caught(sys, odot, monkeypatch):
    """Mutation check: the multiplication checks nothing of the table
    biadd._rows walks, so that table with one wrong cell, in a generator
    row or any other, comes back as the multiplication; the dropped
    certificate, kept above as a test-side oracle, rejects each such
    table."""
    build = _multiply(sys, odot)
    args = _extension_args(sys, odot)
    M, N, gens, lambdas, _lambda_primes = args
    honest = biadditive_extend(*args).op
    assert dropped_multiplication_certificate(M, N, gens, lambdas,
                                              honest) is None
    count = 0
    for a, b, v in itertools.product(range(M.size), range(M.size),
                                     range(N.size)):
        if v == honest[a][b]:
            continue
        row = honest[a][:b] + (v,) + honest[a][b + 1:]
        op = honest[:a] + (row,) + honest[a + 1:]
        monkeypatch.setattr(biadd, "_rows", lambda _tree, M, N, _cols, op=op:
                            BiadditiveTable(M, N, op))
        table = build()
        assert (table if odot is None else table.table).op == op
        assert dropped_multiplication_certificate(
            M, N, gens, lambdas, op) is not None
        count += 1
    assert count == M.size ** 2 * (N.size - 1)
