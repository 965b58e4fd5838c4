"""Transformation-monoid closure of a commuting family, and its evaluation map.

The closure is built breadth-first from the identity, composing with the
generators in index-set order and deduplicating by a short key: an element's
values at the base and at the moved points the base does not reach
(`monoid_closure`).  The same pass keeps the left Cayley graph (the index of
f_k . u for every generator f_k and element u) and the edge that discovered
each element, as in Froidure & Pin, "Algorithms for computing finite
semigroups" (1997).  The maps, the words and the composition table are built
along those edges only when read, the table by index lookups (`closure
--full`).  The evaluation map sends each closure element u to u(base).
"""

from functools import cached_property

from .core import EndoMap, _Value, _gather, propagate
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

    def __init__(self, keys, maps, cayley, parent, gen_index):
        self.keys = keys  # keys[i] = elements[i] at the key points, base first
        self.maps = maps  # the generators' EndoMaps, in index-set order
        self.cayley = cayley  # cayley[k][i] = index of maps[k] . elements[i]
        # parent[i] = (p, k): elements[i] = maps[k] . elements[p]
        self.parent = parent
        self.gen_index = gen_index  # label -> element index, index-set order

    @property
    def size(self):
        return len(self.keys)

    def _along_parent(self, first, step):
        """v[0] = first, v[i] = step(v[p], k) along parent[i] = (p, k)."""
        out = [first]
        for p, k in self.parent[1:]:
            out.append(step(out[p], k))
        return tuple(out)

    @cached_property
    def elements(self):
        """The EndoMaps, composed along parent only when read (no command
        reads them); elements[0] is the identity."""
        return self._along_parent(
            EndoMap.identity(self.maps[0].carrier_size),
            lambda u, k: self.maps[k].compose(u))

    @cached_property
    def words(self):
        """One witness generator word (labels) per element: the labels of
        the edges on its parent path from the identity.  Built only when
        read: they hold as many labels as the BFS depths add up to (m^2 / 2
        on a cyclic closure), and above MAX_WORD_LABELS WordsTooLarge is
        raised before any word is built."""
        size = sum(self._along_parent(0, lambda depth, _k: depth + 1))
        if size > MAX_WORD_LABELS:
            raise WordsTooLarge(size, MAX_WORD_LABELS)
        labels = tuple(self.gen_index)
        return self._along_parent((), lambda w, k: w + (labels[k],))

    @cached_property
    def comp(self):
        """comp[i][j] = index of elements[i] . elements[j].

        Row i follows from the edge that discovered u_i = f_k . u_p:
        u_i . u_j = f_k . (u_p . u_j), so comp[i][j] = cayley[k][comp[p][j]].
        Raises CompositionTableTooLarge before allocating above
        MAX_COMPOSITION_TABLE_SIZE elements.
        """
        if self.size > MAX_COMPOSITION_TABLE_SIZE:
            raise CompositionTableTooLarge(self.size,
                                           MAX_COMPOSITION_TABLE_SIZE)
        return self._along_parent(tuple(range(self.size)),
                                  lambda row, k: _gather(self.cayley[k], row))


class EvaluationMap(_Value):
    """`to_carrier`: element index -> carrier point u(base); `inverse`:
    carrier point -> element index, or None."""

    __slots__ = ("to_carrier", "bijective", "inverse")


def monoid_closure(sys, limit=MAX_CLOSURE_SIZE):
    """Least composition-closed set of self-maps containing the generators.

    Each element u is keyed by its values at B: the base, then, ascending,
    every point that some generator moves and the base does not reach.  The
    key fixes u: a point the base reaches is w(base) for a generator word w,
    and u commutes with w, so u(w(base)) = w(u(base)); every other point is
    in B, or fixed by each generator and so by u.  On a minimal system B is
    (base,), derive's key lemma, and this search is require_minimal's.

    One breadth-first pass steps each element u_i, in order, once with each
    generator f_k: f_k . u_i is keyed by f_k at u_i's key.  A new key is
    appended with parent (i, k), or ClosureTooLarge raised past `limit`; its
    index is cayley[k][i].

    The closure is commutative: the generators of a CountingSystem commute
    (its constructor checks them), so along u_i = f_k . u_p,
    f_j . u_i = f_k . f_j . u_p = f_k . u_p . f_j = u_i . f_j.
    """
    tables = [f.table for f in sys.maps]
    moved = {x for f in tables for x, y in enumerate(f) if x != y}
    unreached = moved.difference(propagate(sys.base, tables).order)
    keys = [(sys.base, *sorted(unreached))]  # the identity's key is B
    index = {keys[0]: 0}
    parent = [None]
    cayley = tuple([] for _ in tables)
    for i, key in enumerate(keys):  # the list grows as it is walked
        for k, f in enumerate(tables):
            v = _gather(f, key)
            j = index.get(v)
            if j is None:
                if len(keys) >= limit:
                    raise ClosureTooLarge(limit)
                j = index[v] = len(keys)
                keys.append(v)
                parent.append((i, k))
            cayley[k].append(j)
    # element 0 is the identity, so f_k is element cayley[k][0]
    gen_index = {s: cayley[k][0] for k, s in enumerate(sys.index_set)}
    return TransformationMonoid(tuple(keys), sys.maps,
                                tuple(map(tuple, cayley)), tuple(parent),
                                gen_index)


def evaluation(tm, sys):
    """Evaluate every closure element at the base point: the first entry of
    its key, as tm is monoid_closure(sys)."""
    to_carrier = tuple(key[0] for key in tm.keys)
    inv = {x: i for i, x in enumerate(to_carrier)}  # injective iff no repeat
    bijective = len(inv) == len(to_carrier) == sys.size
    inverse = _gather(inv, range(sys.size)) if bijective else None
    return EvaluationMap(to_carrier, bijective, inverse)


def is_invariant(subset, sys):
    """True iff every generator maps the subset into itself."""
    subset = set(subset)
    return all(f(x) in subset for f in sys.maps for x in subset)


def _cmd_closure(args):
    doc = _load(args.file, args.auto_core)
    tm = monoid_closure(doc.system)
    payload = {"size": tm.size, "generators": tm.gen_index}
    if args.full:
        # built, or refused, before the words and before any output
        payload["comp"] = tm.comp
    if args.json:
        # a cyclic closure's words hold m^2 / 2 labels; text never builds them
        payload["words"] = tm.words
    yield from _emit(payload, args.json, "generator", tm.gen_index)
    if args.full and not args.json:
        yield from _tsv_table([str(i) for i in range(tm.size)], tm.comp)
