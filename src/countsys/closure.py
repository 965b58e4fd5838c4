"""Transformation-monoid closure of a commuting family, and its evaluation map.

The closure is built breadth-first from the identity, composing with the
generators in index-set order and deduplicating by a short key: an element's
values at the base and at the moved points the base does not reach
(`monoid_closure`).  It is a minimal counting system, the left-regular
representation of Froidure & Pin, "Algorithms for computing finite
semigroups" (1997): elements numbered in discovery order, the identity as
base and f_k acting by composition, whose generation search the pass keeps
(`tm.tree`).  Its maps, words and composition table, that system's derived
addition, are walked along the search only when read (`closure --full`).
The evaluation map sends each closure element u to u(base).
"""

from functools import cached_property

from .core import (MAX_CARRIER_SIZE, EndoMap, Propagation, _along, _gather,
                   _translations, _Value, propagate)
from .dsl import _emit, _load, _tsv_table
from .errors import ClosureTooLarge, CompositionTableTooLarge, WordsTooLarge

MAX_CLOSURE_SIZE = 1 << 16
MAX_WORD_LABELS = 1 << 22  # most labels that `words` (closure --json) holds


class TransformationMonoid:
    # no __slots__: cached_property stores in the instance __dict__
    __hash__ = None

    def __init__(self, keys, maps, tree, gen_index):
        self.keys = keys  # keys[i] = elements[i] at the key points, base first
        self.maps = maps  # the generators' EndoMaps, in index-set order
        self.tree = tree  # the Cayley system's search (monoid_closure)
        self.gen_index = gen_index  # label -> element index, index-set order

    @property
    def size(self):
        return len(self.keys)

    @cached_property
    def elements(self):
        """The EndoMaps, composed along the tree only when read (no command
        reads them); elements[0] is the identity."""
        return _along(self.tree, EndoMap.identity(self.maps[0].carrier_size),
                      lambda u, k: self.maps[k].compose(u))

    @cached_property
    def words(self):
        """One witness generator word (labels) per element: the labels of
        the edges on its tree path from the identity.  Built only when
        read: they hold as many labels as the BFS depths add up to (m^2 / 2
        on a cyclic closure), and above MAX_WORD_LABELS WordsTooLarge is
        raised before any word is built."""
        size = sum(_along(self.tree, 0, lambda depth, _k: depth + 1))
        if size > MAX_WORD_LABELS:
            raise WordsTooLarge(size, MAX_WORD_LABELS)
        labels = tuple(self.gen_index)
        return _along(self.tree, (), lambda w, k: w + (labels[k],))

    @cached_property
    def comp(self):
        """comp[i][j] = index of elements[i] . elements[j], the Cayley
        system's derived addition: that system is minimal and commuting
        (monoid_closure), so by derive_addition's proof i + j = u_i(j), u_i
        the left composition with elements[i].  CompositionTableTooLarge is
        raised before allocating past MAX_CARRIER_SIZE, its carrier cap."""
        if self.size > MAX_CARRIER_SIZE:
            raise CompositionTableTooLarge(self.size, MAX_CARRIER_SIZE)
        return _translations(self.tree)


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
    appended as element j, with tree edge (i, k, j), or ClosureTooLarge
    raised past `limit`; j is steps[k][i].  This is propagate's search of
    the Cayley system (carrier range(m), base 0, f_k acting by steps[k]),
    so tm.tree is require_minimal of it.

    The closure is commutative: the generators of a CountingSystem commute
    (its constructor checks them), so along u_i = f_k . u_p,
    f_j . u_i = f_k . f_j . u_p = f_k . u_p . f_j = u_i . f_j.  The Cayley
    system is minimal, and its maps commute as the generators do.
    """
    tables = [f.table for f in sys.maps]
    moved = {x for f in tables for x, y in enumerate(f) if x != y}
    unreached = moved.difference(propagate(sys.base, tables).order)
    keys = [(sys.base, *sorted(unreached))]  # the identity's key is B
    index = {keys[0]: 0}
    order, edges = [0], []
    steps = [[] for _ in tables]
    for i, key in enumerate(keys):  # the list grows as it is walked
        for k, f in enumerate(tables):
            v = _gather(f, key)
            j = index.get(v)
            if j is None:
                if len(keys) >= limit:
                    raise ClosureTooLarge(limit)
                j = index[v] = len(keys)
                keys.append(v)
                order.append(j)
                edges.append((i, k, j))
            steps[k].append(j)
    # element 0 is the identity, so f_k is element steps[k][0]
    gen_index = {s: steps[k][0] for k, s in enumerate(sys.index_set)}
    tree = Propagation(order, edges, list(map(tuple, steps)))
    return TransformationMonoid(tuple(keys), sys.maps, tree, gen_index)


def evaluation(tm, sys):
    """Evaluate every closure element at the base point: the first entry of
    its key, as tm is monoid_closure(sys).  This is the unique morphism
    from the Cayley system, core._extend's walk on tm.tree from the base,
    read from the keys as it is needed past MAX_CARRIER_SIZE elements,
    where that system cannot be built."""
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
