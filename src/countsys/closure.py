"""Transformation-monoid closure of a commuting family, and its evaluation map.

The closure is built breadth-first from the identity, composing with the
generators in index-set order and deduplicating by the full image table.  The
composition table is materialised eagerly; the evaluation map sends each
closure element u to u(base).
"""

from dataclasses import dataclass

from .core import EndoMap, propagate, words
from .errors import InternalInvariantViolation

MAX_CLOSURE_SIZE = 1 << 16


@dataclass
class TransformationMonoid:
    elements: tuple  # EndoMaps; elements[0] is the identity
    comp: tuple  # comp[i][j] = index of elements[i] . elements[j]
    gen_index: dict  # label -> element index
    words: tuple  # one witness generator word per element (labels)

    @property
    def size(self):
        return len(self.elements)


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
    word = words(prop, sys.index_set)

    m = len(elements)
    comp = []
    for i in range(m):
        row = []
        ui = elements[i]
        for j in range(m):
            w = ui.compose(elements[j])
            try:
                row.append(index[w.table])
            except KeyError:
                raise InternalInvariantViolation(
                    f"closure not closed under composition at ({i}, {j})"
                ) from None
        comp.append(tuple(row))
    for i in range(m):
        for j in range(i + 1, m):
            if comp[i][j] != comp[j][i]:
                raise InternalInvariantViolation(
                    f"closure not commutative at ({i}, {j})"
                )
    gen_index = {
        lab: index[f.table] for lab, f in zip(sys.index_set, sys.maps)
    }
    # a generator may coincide with a shorter word (e.g. the identity); keep
    # the canonical witness for its element
    return TransformationMonoid(
        tuple(elements), tuple(comp), gen_index,
        tuple(word[u] for u in elements),
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
