"""Derived addition tables and their verification.

The paper defines the addition on a minimal system's carrier by transferring
the closure's composition through the evaluation bijection: a + b = u_a(b),
where u_a is the closure element with u_a(base) = a.  That element needs no
closure to find.  Key lemma: in a minimal commuting system, u(base) = v(base)
implies u = v, since every x is w(base) for a generator word w, so
u(x) = w(u(base)) = w(v(base)) = v(x).  So u_a is the composite of the maps
along a's carrier-BFS parent path, and row a of the table is row parent(a)
mapped through the discovering generator.  derive_addition proves that
table's laws and checks only their premise of minimality; the other, that
the maps commute, holds for every CountingSystem, whose constructor checks it.
"""

from . import laws
from .core import _Value, _translations, propagate, require_minimal
from .dsl import _load, _tsv_table
from .errors import GensDoNotGenerate, InternalInvariantViolation


class MonoidTable(_Value):
    """An associative table with unit `zero`.  The unit is checked here, and
    the generator checks in biadd rely on it; derive_addition's
    tables are associative by its proof, and product_table preserves it.
    `op` is an n x n tuple-of-tuples of element indices."""

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


def derive_addition(sys, tree=None):
    """The transferred addition; zero is the base.  `tree` is
    require_minimal(sys), searched here unless given, which raises
    MinimalityRequired, with the unreachable witness set, when the system
    is not minimal; the maps of a CountingSystem commute.

    Row base is the identity (unit).  Every other element a was discovered
    by the search as f_k(p) for its parent p, so by the shift axiom
    a + b = f_k(p + b): row a is row p mapped through f_k.  Any table with
    the unit and shift axioms is this one, which establishes uniqueness.
    Given minimality and commuting maps, the table's laws are theorems:

    - row a is u_a, the closure element with u_a(base) = a, by induction
      along the tree: row base is the identity, and row a = f_k . u_p
      for a's parent p is a composite of maps with value f_k(p) = a;
    - so a + b = u_a(b);
    - u_a . u_b is a closure element with value u_a(b) = a + b at base, so
      by the key lemma it is u_{a+b}.  That gives associativity,
      (a + b) + c = u_a(u_b(c)) = a + (b + c), and, as f_s is u_x for
      x = f_s(base), so that x + a = f_s(a), the shift axiom
      f_s(a + b) = (x + a) + b = f_s(a) + b;
    - composites of commuting maps commute, so
      a + b = u_a(u_b(base)) = u_b(u_a(base)) = b + a;
    - row base is the identity and a + base = u_a(base) = a, so base is
      the unit.

    The checks this proof replaced (row f_s(base) = f_s, Light's test and
    commutativity) stay in the test suite as an oracle of the table.
    """
    if tree is None:
        tree = require_minimal(sys)
    return MonoidTable(sys.size, _translations(tree), sys.base)


def verify_plus_axioms(sys, t):
    """Check the unit and shift axioms, which make the table unique.

    Returns (ok, witness); the witness names the first failing axiom instance
    and is None on success.  A passing table is derive_addition's: row
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
    if not zero_sum_free and all(sys.base not in f.table for f in sys.maps):
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


def require_generates(t, gens):
    """The breadth-first pass from zero adding gens[k] on edge k; raises
    GensDoNotGenerate, with the missing elements, unless it reaches all."""
    prop = propagate(t.zero, [t.op[g] for g in gens])
    if len(prop.order) != t.size:
        raise GensDoNotGenerate(gens, set(range(t.size)) - set(prop.order))
    return prop


def product_table(a, b):
    """Componentwise table on the cartesian set, row-major in the first factor."""
    m = b.size
    op = tuple(tuple(x * m + y for x in row_a for y in row_b)
               for row_a in a.op for row_b in b.op)
    return MonoidTable(a.size * m, op, a.zero * m + b.zero)


def _cmd_add(args):
    doc = _load(args.file, args.auto_core)
    t = derive_addition(doc.system)
    yield from _tsv_table(doc.system.carrier.labels, t.op)
