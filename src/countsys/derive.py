"""Derived addition tables and their verification.

The addition on a minimal system's carrier is obtained by transferring the
closure's composition through the evaluation bijection: row a of the table is
the closure element that evaluates to a.  The table is checked from two
independent directions: the transfer itself, and a reconstruction that uses
only the unit axiom and the shift axiom along generator words.
"""

from dataclasses import dataclass

from . import laws
from .closure import evaluation, monoid_closure
from .core import propagate, require_minimal
from .errors import GensDoNotGenerate, InternalInvariantViolation


@dataclass
class MonoidTable:
    """An associative table with unit `zero`.  The unit is checked here;
    derive_addition verifies associativity and product_table preserves it,
    and the generator certificates in biadd rely on it."""

    size: int
    op: tuple  # n x n tuple-of-tuples of element indices
    zero: int

    def __post_init__(self):
        x = laws.unit(self.op, self.zero)
        if x is not None:
            raise InternalInvariantViolation(f"unit law fails at element {x}")

    def add(self, a, b):
        return self.op[a][b]


@dataclass
class Classification:
    group: bool
    cancellative: bool
    zero_sum_free: bool
    trichotomy: bool


def derive_addition(sys):
    """Addition transferred through the evaluation bijection; zero is the base.

    Raises MinimalityRequired (with the unreachable witness set) before the
    closure is built when the system is not minimal.
    """
    require_minimal(sys)
    tm = monoid_closure(sys)
    ev = evaluation(tm, sys)
    if not ev.bijective:
        raise InternalInvariantViolation(
            "evaluation not bijective on a minimal system"
        )
    # with u_a the element evaluating to a: a + b = (u_a . u_b)(base) = u_a(b)
    op = tuple(tm.elements[i].table for i in ev.inverse)
    t = MonoidTable(sys.size, op, sys.base)
    # shift property: f_s(x) = x_s + x for every generator and element
    gens = tuple(f(sys.base) for f in sys.maps)
    for g, f in zip(gens, sys.maps):
        x = laws.translation(t.op, g, f.table)
        if x is not None:
            raise InternalInvariantViolation(
                f"shift property fails at element {x}"
            )
    # Light's test: unit, shift (above) and minimality make the x_s generate t
    if laws.associative(t.op, middle=gens) is not None:
        raise InternalInvariantViolation("derived table not associative")
    if laws.commutative(t.op) is not None:
        raise InternalInvariantViolation("derived table not commutative")
    return t


def reconstruct_addition(sys):
    """Rebuild the table from the unit and shift axioms alone.

    Row base is the identity (unit).  Every other element a was discovered
    by the carrier BFS as f_k(p) for its parent p, so by the shift axiom
    a + b = f_k(p + b): row a is row p mapped through f_k.  Independent of
    the closure-based transfer; used to establish uniqueness.
    """
    n = sys.size
    prop = require_minimal(sys)
    maps = [f for _lab, f in sorted(zip(sys.index_set, sys.maps))]
    rows = [None] * n
    rows[sys.base] = tuple(range(n))
    for a in prop.order[1:]:
        p, k = prop.parent[a]
        rows[a] = tuple(map(maps[k].table.__getitem__, rows[p]))
    return MonoidTable(n, tuple(rows), sys.base)


def verify_plus_axioms(sys, t):
    """Check the unit and shift axioms and the table's uniqueness.

    Returns (ok, witness); the witness names the first failing axiom instance
    or reconstruction mismatch, and is None on success.
    """
    x = laws.translation(t.op, sys.base, range(sys.size))
    if x is not None:
        return False, ("unit", x)
    for lab, f in zip(sys.index_set, sys.maps):
        w = laws.shift(t.op, f.table, f.table)
        if w is not None:
            return False, ("shift", lab, *w)
    w = laws.difference(reconstruct_addition(sys).op, t.op)
    if w is not None:
        return False, ("reconstruction", *w)
    return True, None


def classify(sys, t):
    """Classify the derived table; both sides of each equivalence are computed
    and compared, and a disagreement is an internal error, never a flag."""
    maps_injective = all(f.is_injective() for f in sys.maps)
    maps_bijective = all(f.is_bijective() for f in sys.maps)
    cancellative = laws.cancellative(t.op) is None
    group = laws.group(t.op) is None
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

    trichotomy = laws.trichotomy(t.op) is None
    zero_sum_free = laws.zero_sum_free(t.op, t.zero) is None
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
    # the unit law, checked when the table was built, makes the translations
    # distinct (a + zero = a) and zero's the identity; translation by a + b
    # is the composite of those by a and b iff (a + b) + c = a + (b + c)
    return laws.associative(t.op) is None


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
