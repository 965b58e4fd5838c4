"""Carriers, commuting families and counting systems.

A counting system is a finite carrier, a base point and a non-empty family of
pairwise-commuting total self-maps indexed by string labels.  Carriers, maps
and systems are immutable after construction; all functions are pure.

Every record subclasses `_Value`: its fields are its `__slots__`, and one
constructor builds it from them, positionally or by keyword; only the fields
named in the class's `_defaults` may be left out.  `Carrier`, `EndoMap` and
`derive.MonoidTable` validate their input in constructors of their own.
"""

import operator

from . import laws
from .errors import (
    BadIndex,
    CarrierTooLarge,
    DuplicateLabel,
    EmptyIndexSet,
    IndexSetTooLarge,
    MinimalityRequired,
    NonCommuting,
    SingleMapRequired,
    UnknownLabel,
)

MAX_CARRIER_SIZE = 4096
MAX_INDEX_SET_SIZE = 16


def require_distinct(labels):
    """Raise DuplicateLabel for the first empty or repeated label."""
    seen = set()
    for lab in labels:
        if not lab or lab in seen:
            raise DuplicateLabel(lab)
        seen.add(lab)


class _Value:
    """A record (see above): equal to an instance of the same class with
    equal fields, printed as `Name(field=value, ...)`, and unhashable (it
    defines __eq__ only), since its fields may be reassigned."""

    __slots__ = ()
    _defaults = {}  # field -> its value when left out

    def __init_subclass__(cls):
        names = cls.__slots__
        get = operator.attrgetter(*names) if names else (lambda self: ())
        if len(names) == 1:  # attrgetter of one name gives the bare value
            get = (lambda one: lambda self: (one(self),))(get)
        cls._fields = staticmethod(get)  # the field tuple of an instance

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        if (len(args) > len(names) or values.keys() != set(names)
                or not kwargs.keys().isdisjoint(names[:len(args)])):
            raise TypeError(f"{type(self).__name__}({', '.join(names)}) got "
                            f"{len(args)} positional and {sorted(kwargs)}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __repr__(self):
        fields = (f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({', '.join(fields)})"


class _Frozen(_Value):
    """A _Value hashed by its fields, which cannot be reassigned."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return self.__class__, self._fields(self)


class Carrier(_Frozen):
    """A finite set of n elements with distinct display labels."""

    __slots__ = ("labels",)

    def __init__(self, labels):
        if len(labels) < 1:
            raise BadIndex(0, 0)
        if len(labels) > MAX_CARRIER_SIZE:
            raise CarrierTooLarge(len(labels), MAX_CARRIER_SIZE)
        require_distinct(labels)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self):
        return len(self.labels)


class EndoMap(_Frozen):
    """A total self-map of a carrier, stored as an image table on indices."""

    __slots__ = ("table",)

    def __init__(self, table):
        n = len(table)
        for img in table:
            if not isinstance(img, int) or not 0 <= img < n:
                raise BadIndex(img, n)
        object.__setattr__(self, "table", table)

    @property
    def carrier_size(self):
        return len(self.table)

    def __call__(self, i):
        return self.table[i]

    def compose(self, other):
        """self after other: (self . other)(x) = self(other(x)).  On tables of
        one length n, other's images index self's, and self's lie in range(n),
        so the result is valid unchecked; unequal lengths are checked."""
        table = tuple(map(self.table.__getitem__, other.table))
        if len(table) != len(self.table):
            return EndoMap(table)
        new = object.__new__(EndoMap)
        object.__setattr__(new, "table", table)
        return new

    def is_injective(self):
        return len(set(self.table)) == len(self.table)

    def is_bijective(self):
        return self.is_injective()

    @staticmethod
    def identity(n):
        return EndoMap(tuple(range(n)))


class CountingSystem(_Frozen):
    """Carrier + base point + commuting family of self-maps: `maps` holds an
    EndoMap per label."""

    __slots__ = ("carrier", "base", "index_set", "maps")

    def map_for(self, label):
        try:
            return self.maps[self.index_set.index(label)]
        except ValueError:
            raise UnknownLabel(label, self.index_set) from None

    @property
    def size(self):
        return self.carrier.size


def noncommuting(index_set, maps):
    """The first (s, t, x), s before t, with f_s(f_t(x)) != f_t(f_s(x)), or
    None when the maps commute pairwise."""
    for i, (s, fs) in enumerate(zip(index_set, maps)):
        for t, ft in zip(index_set[i + 1:], maps[i + 1:]):
            x = laws.intertwines(fs.table, ft.table, ft.table)
            if x is not None:
                return s, t, x
    return None


def new_system(carrier, base, index_set, maps):
    """Validate and build a counting system.

    The commuting invariant is checked exhaustively over all label pairs and
    all elements; the first failure is reported with its witness element.
    """
    n = carrier.size
    if not 0 <= base < n:
        raise BadIndex(base, n)
    index_set = tuple(index_set)
    maps = tuple(maps)
    if not index_set:
        raise EmptyIndexSet()
    if len(index_set) > MAX_INDEX_SET_SIZE:
        raise IndexSetTooLarge(len(index_set), MAX_INDEX_SET_SIZE)
    require_distinct(index_set)
    if len(maps) != len(index_set):
        raise BadIndex(len(maps), len(index_set))
    for f in maps:
        if f.carrier_size != n:
            raise BadIndex(f.carrier_size, n)
    w = noncommuting(index_set, maps)
    if w is not None:
        raise NonCommuting(*w)
    return CountingSystem(carrier, base, index_set, maps)


class Propagation(_Value):
    """The outcome of `propagate`: `order` holds the elements in discovery
    order, start first; `value` maps element -> the first value forced on
    it; `parent` element -> (previous, edge index), for all but the start;
    `conflict` is (element, kept, forced) at a stop, or None."""

    __slots__ = ("order", "value", "parent", "conflict")


def propagate(start, value, edges, sort_levels=False, depth=None):
    """Forced propagation: breadth-first from `start`, level by level.

    Each edge is a `(step, push)` pair: `step(x)` is the next element and
    `push(v)` the value forced on it from x's value v (`push` None forces v
    itself).  Edges are taken in the given order; a level is expanded in
    discovery order, or ascending when `sort_levels` is set.  The first value
    forced on an element is kept; a different one forced later stops the run
    and is reported as `conflict`.  With `depth`, elements `depth` steps
    from the start are reached but not expanded.
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
                        return Propagation(
                            order, values, parent, (y, values[y], forced)
                        )
                    continue
                values[y] = forced
                parent[y] = (x, k)
                order.append(y)
        level += 1
    return Propagation(order, values, parent, None)


def reach(sys):
    """Carrier BFS from the base: levels expanded element-index ascending,
    maps applied in ascending label order (edge k is `sorted(index_set)[k]`).
    """
    edges = [
        (f.table.__getitem__, None)
        for _lab, f in sorted(zip(sys.index_set, sys.maps))
    ]
    return propagate(sys.base, None, edges, sort_levels=True)


def require_minimal(sys):
    """The carrier BFS of a minimal system; raises MinimalityRequired with the
    unreachable elements otherwise."""
    prop = reach(sys)
    if len(prop.order) != sys.size:
        raise MinimalityRequired(set(range(sys.size)) - set(prop.order))
    return prop


def reachable_set(sys):
    return set(reach(sys).order)


def is_minimal(sys):
    """True iff the base point reaches every element under the family."""
    return len(reachable_set(sys)) == sys.size


def minimal_core(sys):
    """Restrict to the least invariant subset containing the base.

    Elements of the core are relabelled in the order of `reach`; the result is
    always minimal and the operation is idempotent up to that relabelling.
    """
    order = reach(sys).order
    if len(order) == sys.size:
        # already minimal; identity relabelling keeps the operation idempotent
        return sys
    new_index = {old: new for new, old in enumerate(order)}
    labels = tuple(sys.carrier.labels[old] for old in order)
    maps = tuple(
        EndoMap(tuple(new_index[f(old)] for old in order)) for f in sys.maps
    )
    return CountingSystem(Carrier(labels), new_index[sys.base], sys.index_set, maps)


def product(a, b):
    """Product system on the cartesian carrier, row-major in the first factor."""
    n, m = a.size, b.size
    if n * m > MAX_CARRIER_SIZE:
        raise CarrierTooLarge(n * m, MAX_CARRIER_SIZE)
    if len(a.index_set) * len(b.index_set) > MAX_INDEX_SET_SIZE:
        raise IndexSetTooLarge(
            len(a.index_set) * len(b.index_set), MAX_INDEX_SET_SIZE
        )
    labels = tuple(
        f"({la},{lb})" for la in a.carrier.labels for lb in b.carrier.labels
    )
    index_set = tuple(f"({s},{t})" for s in a.index_set for t in b.index_set)
    maps = []
    for fs in a.maps:
        for gt in b.maps:
            table = tuple(
                fs(i) * m + gt(j) for i in range(n) for j in range(m)
            )
            maps.append(EndoMap(table))
    return CountingSystem(
        Carrier(labels), a.base * m + b.base, index_set, tuple(maps)
    )


def require_single_map(sys):
    """Raise SingleMapRequired unless the system has exactly one map."""
    if len(sys.index_set) != 1:
        raise SingleMapRequired(len(sys.index_set))


def _fresh_label(taken, stem):
    if stem not in taken:
        return stem
    k = 1
    while f"{stem}_{k}" in taken:
        k += 1
    return f"{stem}_{k}"


def adjoin_omega(sys):
    """Append a fresh element mapped onto the old base and make it the new base.

    Only defined for single-map systems.
    """
    require_single_map(sys)
    n = sys.size
    omega = _fresh_label(set(sys.carrier.labels), "omega")
    labels = sys.carrier.labels + (omega,)
    f = sys.maps[0]
    table = tuple(f(i) for i in range(n)) + (sys.base,)
    return CountingSystem(
        Carrier(labels), n, sys.index_set, (EndoMap(table),)
    )


def is_dedekind(sys):
    """Minimal, injective map, base outside the image.  Single-map systems only.

    Always false on a finite carrier: an injective self-map of a finite set is
    surjective, so the base is in the image.
    """
    require_single_map(sys)
    f = sys.maps[0]
    return (
        is_minimal(sys)
        and f.is_injective()
        and sys.base not in set(f.table)
    )


def pad_single(sys, label):
    """Keep the map at `label`, replace every other map by the identity."""
    if label not in sys.index_set:
        raise UnknownLabel(label, sys.index_set)
    ident = EndoMap.identity(sys.size)
    maps = tuple(f if lab == label else ident
                 for lab, f in zip(sys.index_set, sys.maps))
    return CountingSystem(sys.carrier, sys.base, sys.index_set, maps)


def single_map_subsystem(sys, label):
    """The single-map system (X, f_label, base) on the same carrier."""
    return CountingSystem(
        sys.carrier, sys.base, (label,), (sys.map_for(label),)
    )
