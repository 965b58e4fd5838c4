"""Derived addition tables and their verification.

The paper defines the addition on a minimal system's carrier by transferring
the closure's composition through the evaluation bijection: a + b = u_a(b),
where u_a is the closure element with u_a(base) = a.  That element needs no
closure to find.  Key lemma: in a minimal commuting system, u(base) = v(base)
implies u = v, since every x is w(base) for a generator word w, so
u(x) = w(u(base)) = w(v(base)) = v(x).  So u_a is the composite of the maps
along a's carrier-BFS parent path, and row a of the table is row parent(a)
mapped through the discovering generator; derive_addition then certifies
the table.
"""

from . import laws
from .core import _Value, propagate, require_minimal
from .errors import GensDoNotGenerate, InternalInvariantViolation


class MonoidTable(_Value):
    """An associative table with unit `zero`.  The unit is checked here;
    derive_addition verifies associativity and product_table preserves it,
    and the generator certificates in biadd rely on it.  `op` is an n x n
    tuple-of-tuples of element indices."""

    __slots__ = ("size", "op", "zero")

    def __init__(self, size, op, zero):
        super().__init__(size, op, zero)
        x = laws.unit(op, zero)
        if x is not None:
            raise InternalInvariantViolation(f"unit law fails at element {x}")

    def add(self, a, b):
        return self.op[a][b]


class Classification(_Value):
    __slots__ = ("group", "cancellative", "zero_sum_free", "trichotomy")


def derive_addition(sys):
    """The transferred addition; zero is the base.

    Built by reconstruct_addition (the key lemma in the module docstring
    makes its rows the closure elements u_a), then certified: the unit law
    (MonoidTable), row x_s = f_s for each generator x_s = f_s(base), Light's
    test on the x_s, and commutativity.  Rows x_s = f_s give
    a = f_k(p) = x_k + p along every BFS edge, so the x_s generate the table
    from zero and Light's test certifies associativity; then the shift axiom
    f_s(a + b) = x_s + (a + b) = (x_s + a) + b = f_s(a) + b holds.

    Raises MinimalityRequired, with the unreachable witness set, when the
    system is not minimal.
    """
    t = reconstruct_addition(sys)
    gens = tuple(f(sys.base) for f in sys.maps)
    for g, f in zip(gens, sys.maps):
        x = laws.translation(t.op, g, f.table)
        if x is not None:
            raise InternalInvariantViolation(
                f"shift property fails at element {x}"
            )
    if laws.associative(t.op, middle=gens) is not None:
        raise InternalInvariantViolation("derived table not associative")
    if laws.commutative(t.op) is not None:
        raise InternalInvariantViolation("derived table not commutative")
    return t


def reconstruct_addition(sys):
    """Rebuild the table from the unit and shift axioms alone.

    Row base is the identity (unit).  Every other element a was discovered
    by the carrier BFS as f_k(p) for its parent p, so by the shift axiom
    a + b = f_k(p + b): row a is row p mapped through f_k.  Any table with
    the unit and shift axioms is this one, which establishes uniqueness.
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
    """Check the unit and shift axioms, which make the table unique.

    Returns (ok, witness); the witness names the first failing axiom instance
    and is None on success.  A passing table is reconstruct_addition's: row
    base is the identity and row f_k(p) is f_k applied to row p, which on a
    minimal system (MinimalityRequired otherwise) reaches every row.
    """
    x = laws.translation(t.op, sys.base, range(sys.size))
    if x is not None:
        return False, ("unit", x)
    for lab, f in zip(sys.index_set, sys.maps):
        w = laws.shift(t.op, f.table, f.table)
        if w is not None:
            return False, ("shift", lab, *w)
    require_minimal(sys)
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
    """The breadth-first pass from zero adding gens[k] on edge k; raises
    GensDoNotGenerate, with the missing elements, unless it reaches all."""
    prop = propagate(t.zero, None, [(t.op[g].__getitem__, None) for g in gens])
    if len(prop.order) != t.size:
        raise GensDoNotGenerate(gens, set(range(t.size)) - set(prop.order))
    return prop


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
