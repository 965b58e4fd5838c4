"""Transformation-monoid closure of a commuting family, and its evaluation map.

The closure is built breadth-first from the identity, composing with the
generators in index-set order and deduplicating by the full image table.  It
keeps the left Cayley graph (the index of f_k . u for every generator f_k and
element u) and the edge that discovered each element, as in Froidure & Pin,
"Algorithms for computing finite semigroups" (1997).  The composition table
is lazy: it is built from the graph by index lookups, never by composing
maps, and only when read (`closure --full`).  The evaluation map sends each
closure element u to u(base).
"""

from dataclasses import dataclass
from functools import cached_property

from . import laws
from .core import EndoMap, propagate
from .errors import CompositionTableTooLarge, InternalInvariantViolation

MAX_CLOSURE_SIZE = 1 << 16
MAX_COMPOSITION_TABLE_SIZE = 1 << 12  # largest closure whose `comp` is built


@dataclass
class TransformationMonoid:
    elements: tuple  # EndoMaps; elements[0] is the identity
    cayley: tuple  # cayley[k][i] = index of maps[k] . elements[i]
    parent: tuple  # parent[i] = (p, k): elements[i] = maps[k] . elements[p]
    gen_index: dict  # label -> element index, in index-set order

    @property
    def size(self):
        return len(self.elements)

    @cached_property
    def words(self):
        """One witness generator word (labels) per element: the labels of
        the edges on its parent path from the identity.  Built only when
        read, since the words of a cyclic closure hold m^2 / 2 labels."""
        labels = tuple(self.gen_index)
        out = [()]
        for p, k in self.parent[1:]:
            out.append(out[p] + (labels[k],))
        return tuple(out)

    @cached_property
    def comp(self):
        """comp[i][j] = index of elements[i] . elements[j].

        Row i follows from the edge that discovered u_i = f_k . u_p:
        u_i . u_j = f_k . (u_p . u_j), so comp[i][j] = cayley[k][comp[p][j]].
        Raises CompositionTableTooLarge before allocating above
        MAX_COMPOSITION_TABLE_SIZE elements.
        """
        if self.size > MAX_COMPOSITION_TABLE_SIZE:
            raise CompositionTableTooLarge(
                self.size, MAX_COMPOSITION_TABLE_SIZE
            )
        rows = [tuple(range(self.size))]
        for p, k in self.parent[1:]:
            rows.append(tuple(map(self.cayley[k].__getitem__, rows[p])))
        return tuple(rows)


@dataclass
class EvaluationMap:
    to_carrier: tuple  # element index -> carrier element u(base)
    bijective: bool
    inverse: tuple | None  # carrier element -> element index, when bijective


def monoid_closure(sys, limit=MAX_CLOSURE_SIZE):
    """Least composition-closed set of self-maps containing the generators."""
    # each step is a bound `compose`, so that a wrapper on EndoMap.compose
    # (bench/tracing.py) counts every composition the closure makes
    prop = propagate(
        EndoMap.identity(sys.size), None,
        [(f.compose, None) for f in sys.maps], limit=limit,
    )
    elements = prop.order
    index = {u.table: i for i, u in enumerate(elements)}
    cayley = []
    for lab, f in zip(sys.index_set, sys.maps):
        row = [index.get(tuple(map(f.table.__getitem__, u.table)))
               for u in elements]
        if None in row:
            raise InternalInvariantViolation(
                f"closure not closed under {lab!r} at element {row.index(None)}"
            )
        cayley.append(tuple(row))
    gen_index = {
        lab: index[f.table] for lab, f in zip(sys.index_set, sys.maps)
    }
    # every element commutes with every generator iff the closure commutes:
    # the generators generate it
    for i, u in enumerate(elements):
        for lab, f in zip(sys.index_set, sys.maps):
            if laws.intertwines(u.table, f.table, f.table) is not None:
                raise InternalInvariantViolation(
                    f"closure not commutative at ({i}, {gen_index[lab]})"
                )
    parent = (None,) + tuple(
        (index[prop.parent[u][0].table], prop.parent[u][1])
        for u in elements[1:]
    )
    return TransformationMonoid(
        tuple(elements), tuple(cayley), parent, gen_index
    )


def evaluation(tm, sys):
    """Evaluate every closure element at the base point."""
    to_carrier = tuple(u(sys.base) for u in tm.elements)
    bijective = (
        len(set(to_carrier)) == len(to_carrier)
        and len(to_carrier) == sys.size
    )
    inverse = None
    if bijective:
        inv = [0] * sys.size
        for i, x in enumerate(to_carrier):
            inv[x] = i
        inverse = tuple(inv)
    return EvaluationMap(to_carrier, bijective, inverse)


def is_invariant(subset, sys):
    """True iff every generator maps the subset into itself."""
    subset = set(subset)
    return all(f(x) in subset for f in sys.maps for x in subset)
