"""Derived addition tables and their verification.

The addition on a minimal system's carrier is obtained by transferring the
closure's composition through the evaluation bijection.  The table is checked
from two independent directions: the transfer itself, and a reconstruction
that uses only the unit axiom and the shift axiom along generator words.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .closure import evaluation, monoid_closure
from .core import EndoMap, propagate, require_minimal, words
from .errors import GensDoNotGenerate, InternalInvariantViolation


@dataclass
class MonoidTable:
    size: int
    op: tuple  # n x n tuple-of-tuples of element indices
    zero: int

    def __post_init__(self):
        z = self.zero
        for x in range(self.size):
            if self.op[z][x] != x or self.op[x][z] != x:
                raise InternalInvariantViolation(
                    f"unit law fails at element {x}"
                )

    def add(self, a, b):
        return self.op[a][b]

    @cached_property
    def np_op(self):
        return np.array(self.op, dtype=np.intp)


@dataclass
class Classification:
    group: bool
    cancellative: bool
    zero_sum_free: bool
    trichotomy: bool


def _check_associative(t):
    op = t.np_op
    # op[op[i,j],k] against op[i,op[j,k]], all triples at once
    left = op[op]
    right = op[np.arange(t.size)[:, None, None], op]
    return bool(np.array_equal(left, right))


def _check_commutative(t):
    op = t.np_op
    return bool(np.array_equal(op, op.T))


def derive_addition(sys):
    """Addition transferred through the evaluation bijection; zero is the base.

    Raises MinimalityRequired (with the unreachable witness set) when the
    evaluation map is not a bijection.
    """
    n = sys.size
    tm = monoid_closure(sys)
    ev = evaluation(tm, sys)
    if not ev.bijective:
        require_minimal(sys)
        raise InternalInvariantViolation(
            "evaluation not bijective on a minimal system"
        )
    inv = ev.inverse
    op = tuple(
        tuple(ev.to_carrier[tm.comp[inv[a]][inv[b]]] for b in range(n))
        for a in range(n)
    )
    t = MonoidTable(n, op, sys.base)
    if not _check_associative(t):
        raise InternalInvariantViolation("derived table not associative")
    if not _check_commutative(t):
        raise InternalInvariantViolation("derived table not commutative")
    # shift property: f_s(x) = x_s + x for every generator and element
    for f in sys.maps:
        xs = f(sys.base)
        for x in range(n):
            if t.op[xs][x] != f(x):
                raise InternalInvariantViolation(
                    f"shift property fails at element {x}"
                )
    return t


def reconstruct_addition(sys):
    """Rebuild the table from the unit and shift axioms alone.

    Each element is represented by a generator word discovered by BFS from the
    base; a + b is that word applied to b.  Independent of the closure-based
    transfer; used to establish uniqueness.
    """
    n = sys.size
    word = words(require_minimal(sys), sorted(sys.index_set))
    maps = dict(zip(sys.index_set, sys.maps))
    op = []
    for a in range(n):
        row = []
        for b in range(n):
            v = b
            for lab in word[a]:
                v = maps[lab](v)
            row.append(v)
        op.append(tuple(row))
    return MonoidTable(n, tuple(op), sys.base)


def verify_plus_axioms(sys, t):
    """Check the unit and shift axioms and the table's uniqueness.

    Returns (ok, witness); the witness names the first failing axiom instance
    or reconstruction mismatch, and is None on success.
    """
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
    if recon.op != t.op:
        for a in range(n):
            for b in range(n):
                if recon.op[a][b] != t.op[a][b]:
                    return False, ("reconstruction", a, b)
    return True, None


def _table_cancellative(t):
    return all(len(set(row)) == t.size for row in t.op) and all(
        len({t.op[x][c] for x in range(t.size)}) == t.size
        for c in range(t.size)
    )


def _table_group(t):
    # finite monoid: a group iff every translation is a permutation
    return all(len(set(row)) == t.size for row in t.op)


def classify(sys, t):
    """Classify the derived table; both sides of each equivalence are computed
    and compared, and a disagreement is an internal error, never a flag."""
    n = sys.size
    maps_injective = all(f.is_injective() for f in sys.maps)
    maps_bijective = all(f.is_bijective() for f in sys.maps)
    cancellative = _table_cancellative(t)
    group = _table_group(t)
    if cancellative != maps_injective:
        raise InternalInvariantViolation(
            "cancellation law disagrees with generator injectivity"
        )
    if group != maps_bijective:
        raise InternalInvariantViolation(
            "group test disagrees with generator bijectivity"
        )
    if group and not cancellative:
        raise InternalInvariantViolation("group but not cancellative")

    cols = [set(t.op[x][c] for x in range(n)) for c in range(n)]
    trichotomy = all(
        x1 in cols[x2] or x2 in cols[x1]
        for x1 in range(n)
        for x2 in range(n)
    )
    zero_sum_free = all(
        x2 == t.zero
        for x1 in range(n)
        for x2 in range(n)
        if t.op[x1][x2] == t.zero
    )
    image = set()
    for f in sys.maps:
        image.update(f.table)
    if sys.base not in image and not zero_sum_free:
        raise InternalInvariantViolation(
            "base outside every image but zero has a non-trivial sum"
        )
    return Classification(group, cancellative, zero_sum_free, trichotomy)


def cayley_embedding(t):
    """Check that left translations embed the table into the self-map monoid.

    This is a theorem for any verified table, so a False return on valid input
    indicates a bug; the operation exists as a cross-check.
    """
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


def submonoid_closure(t, gens):
    """Least subset containing zero and closed under adding the generators."""
    edges = [(t.op[g].__getitem__, None) for g in gens]
    return set(propagate(t.zero, None, edges).order)


def generates(t, gens):
    return len(submonoid_closure(t, gens)) == t.size


def require_generates(t, gens):
    """Raise GensDoNotGenerate, with the missing elements, unless the
    generators reach every element of the table."""
    closure = submonoid_closure(t, gens)
    if len(closure) != t.size:
        raise GensDoNotGenerate(gens, set(range(t.size)) - closure)


def product_table(a, b):
    """Componentwise table on the cartesian set, row-major in the first factor."""
    n, m = a.size, b.size
    op = tuple(
        tuple(
            a.op[i1][i2] * m + b.op[j1][j2]
            for i2 in range(n)
            for j2 in range(m)
        )
        for i1 in range(n)
        for j1 in range(m)
    )
    return MonoidTable(n * m, op, a.zero * m + b.zero)
