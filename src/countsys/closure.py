"""Transformation-monoid closure of a commuting family, and its evaluation map.

The closure is built breadth-first from the identity, composing with the
generators in index-set order and deduplicating by the full image table.  The
same pass keeps the left Cayley graph (the index of f_k . u for every
generator f_k and element u) and the edge that discovered each element, as in
Froidure & Pin, "Algorithms for computing finite semigroups" (1997).  The
composition table is lazy: it is built from the graph by index lookups, never
by composing maps, and only when read (`closure --full`).  The evaluation map
sends each closure element u to u(base).
"""

from functools import cached_property

from .core import EndoMap, _Value, _gather
from .dsl import _emit, _load, _tsv_table
from .errors import (
    ClosureTooLarge,
    CompositionTableTooLarge,
    WordsTooLarge,
)

MAX_CLOSURE_SIZE = 1 << 16
MAX_COMPOSITION_TABLE_SIZE = 1 << 12  # largest closure whose `comp` is built
MAX_WORD_LABELS = 1 << 22  # most labels that `words` (closure --json) holds


class TransformationMonoid:
    # no __slots__: cached_property stores in the instance __dict__
    __hash__ = None

    def __init__(self, elements, cayley, parent, gen_index):
        self.elements = elements  # EndoMaps; elements[0] is the identity
        self.cayley = cayley  # cayley[k][i] = index of maps[k] . elements[i]
        # parent[i] = (p, k): elements[i] = maps[k] . elements[p]
        self.parent = parent
        self.gen_index = gen_index  # label -> element index, index-set order

    @property
    def size(self):
        return len(self.elements)

    @cached_property
    def words(self):
        """One witness generator word (labels) per element: the labels of
        the edges on its parent path from the identity.  Built only when
        read: they hold as many labels as the BFS depths add up to (m^2 / 2
        on a cyclic closure), and above MAX_WORD_LABELS WordsTooLarge is
        raised before any word is built."""
        depth = [0]
        for p, _k in self.parent[1:]:
            depth.append(depth[p] + 1)
        if sum(depth) > MAX_WORD_LABELS:
            raise WordsTooLarge(sum(depth), MAX_WORD_LABELS)
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
            rows.append(_gather(self.cayley[k], rows[p]))
        return tuple(rows)


class EvaluationMap(_Value):
    """`to_carrier`: element index -> carrier point u(base); `inverse`:
    carrier point -> element index, or None."""

    __slots__ = ("to_carrier", "bijective", "inverse")


def monoid_closure(sys, limit=MAX_CLOSURE_SIZE):
    """Least composition-closed set of self-maps containing the generators.

    One breadth-first pass composes each element u_i, in order, once with
    each generator f_k.  A new image table is appended with parent (i, k),
    or ClosureTooLarge raised past `limit`; its index is cayley[k][i].

    The closure is commutative: the generators of a CountingSystem commute
    (its constructor checks them), so along u_i = f_k . u_p,
    f_j . u_i = f_k . f_j . u_p = f_k . u_p . f_j = u_i . f_j.
    """
    elements = [EndoMap.identity(sys.size)]
    index = {elements[0].table: 0}
    parent = [None]
    cayley = tuple([] for _ in sys.maps)
    for i, u in enumerate(elements):  # the list grows as it is walked
        for k, f in enumerate(sys.maps):
            v = f.compose(u)  # a wrapper on it counts compositions (bench)
            j = index.get(v.table)
            if j is None:
                if len(elements) >= limit:
                    raise ClosureTooLarge(limit)
                j = index[v.table] = len(elements)
                elements.append(v)
                parent.append((i, k))
            cayley[k].append(j)
    # element 0 is the identity, so f_k is element cayley[k][0]
    gen_index = {s: cayley[k][0] for k, s in enumerate(sys.index_set)}
    return TransformationMonoid(
        tuple(elements), tuple(map(tuple, cayley)), tuple(parent), gen_index
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


def _cmd_closure(args, out):
    doc = _load(args.file, args.auto_core)
    tm = monoid_closure(doc.system)
    payload = {"size": tm.size, "generators": tm.gen_index}
    if args.full:
        # built, or refused, before the words and before any output
        payload["comp"] = tm.comp
    if args.json:
        # a cyclic closure's words hold m^2 / 2 labels; text never builds them
        payload["words"] = tm.words
    _emit(payload, args.json, out, "generator", tm.gen_index)
    if args.full and not args.json:
        _tsv_table([str(i) for i in range(tm.size)], tm.comp, out)
