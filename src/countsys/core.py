"""Carriers, commuting families and counting systems.

A counting system is a finite carrier, a base point and a non-empty family of
pairwise-commuting total self-maps indexed by string labels.  Carriers, maps
and systems are immutable after construction; all functions are pure.

Every record subclasses `_Value`: its fields are its `__slots__`, and one
constructor builds it from them, positionally or by keyword; only the fields
named in the class's `_defaults` may be left out.  `Carrier`, `EndoMap`,
`CountingSystem` and `derive.MonoidTable` validate their input in
constructors of their own.  So the maps of every `CountingSystem` commute:
that is checked once, when the system is built, and by nothing downstream.

A map out of a carrier that one point reaches is fixed by its value there:
the extension kernel `_extend` walks it along one breadth-first search
tree (`propagate`), checks it once per generator and names the first edge
it breaks.  Walks read `require_minimal`'s search, not `reach`'s, as the
map does not depend on the tree; `_label_pass` walks each label padded.
`_along` makes every other value along a tree: an addition's rows and a
closure's maps and words.  Every module builds on this one, which imports
only `errors`.
"""

from operator import attrgetter, itemgetter

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


def _gather(seq, idx):
    """tuple(seq[i] for i in idx), in one C-level call when idx has two or
    more entries (itemgetter of one index returns the bare item).  Private,
    so that tracing, which wraps public functions, adds no span per row."""
    if len(idx) > 1:
        return itemgetter(*idx)(seq)
    return tuple(seq[i] for i in idx)


def _orbit(f, x, steps=None):
    """(points, tail): x, f[x], ... up to the first repeat, with f mapping
    the last point to points[tail]; with `steps`, at most that many points,
    and tail None if the walk was cut short.  f moves points[i] to
    points[i + 1], so f's image of the orbit is points[1:] plus
    points[tail]: on the orbit, f is injective iff tail == 0 iff x is in
    that image."""
    points = []
    index = {}  # point -> its position in points
    while x not in index:
        if len(points) == steps:
            return points, None
        index[x] = len(points)
        points.append(x)
        x = f[x]
    return points, index[x]


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
        get = attrgetter(*names) if names else (lambda self: ())
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
        """self after other: (self . other)(x) = self(other(x))."""
        return EndoMap(_gather(self.table, other.table))

    def is_injective(self):
        return len(set(self.table)) == len(self.table)

    def is_bijective(self):
        return self.is_injective()

    @staticmethod
    def identity(n):
        return EndoMap(tuple(range(n)))


class CountingSystem(_Frozen):
    """Carrier + base point + commuting family of self-maps: `maps` holds an
    EndoMap per label.  The constructor validates every field, and refuses
    non-commuting maps last, with NonCommuting at noncommuting's witness."""

    __slots__ = ("carrier", "base", "index_set", "maps")

    def __init__(self, carrier, base, index_set, maps):
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
        super().__init__(carrier, base, index_set, maps)

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
    None when the maps commute pairwise.

    Each distinct table is compared once, under its first label, and the
    witness is unchanged: if (i, j) is the first failing pair, an earlier
    f_i' = f_i would make (i', j) fail first; f_j != f_i, as equal maps
    commute, and an earlier f_j' = f_j would make (j', i) or (i, j') fail
    first.  So i and j are the first occurrences of their tables."""
    first = {}  # table -> its first label
    for s, f in zip(index_set, maps):
        first.setdefault(f.table, s)
    tables = tuple(first.items())
    for i, (f, s) in enumerate(tables):
        for g, t in tables[i + 1:]:
            fg, gf = _gather(f, g), _gather(g, f)  # f . g and g . f
            if fg != gf:
                return s, t, next(x for x, a in enumerate(fg) if a != gf[x])
    return None


def new_system(carrier, base, index_set, maps):
    """A validated counting system: the CountingSystem constructor."""
    return CountingSystem(carrier, base, index_set, maps)


class Propagation(_Value):
    """A breadth-first search (`propagate`, closure.monoid_closure): `order`
    holds the elements in discovery order, start first; `edges` the tree
    edges (p, k, c), c = steps[k][p] discovered from p, in discovery order,
    so that c is order[i + 1] for edge i; `steps` the tables searched."""

    __slots__ = ("order", "edges", "steps")


def propagate(start, steps, sort_levels=False):
    """Breadth-first search from `start`, level by level.

    `steps[k][x]` is the element edge k leads to from x.  Edges are taken
    in the given order; a level is expanded in discovery order, or
    ascending when `sort_levels` is set.
    """
    order = [start]
    seen = {start}
    edges = []
    done = 0  # order[done:] is the level to expand next
    while done < len(order):
        frontier = order[done:]
        done = len(order)
        for x in sorted(frontier) if sort_levels else frontier:
            for k, step in enumerate(steps):
                y = step[x]
                if y not in seen:
                    seen.add(y)
                    edges.append((x, k, y))
                    order.append(y)
    return Propagation(order, edges, steps)


def _along(tree, first, step):
    """v[start] = first and v[c] = step(v[p], k) on each edge (p, k, c) of
    a search tree spanning range(n), as a tuple: an addition's rows
    (_translations), and a closure's maps, words and depths."""
    v = [first] * len(tree.order)
    for p, k, c in tree.edges:
        v[c] = step(v[p], k)
    return tuple(v)


def _translations(tree):
    """derive_addition's rows (its proof): row start is the identity, and
    row c is steps[k] after row p on each edge (p, k, c)."""
    return _along(tree, tuple(range(len(tree.order))),
                  lambda row, k: _gather(tree.steps[k], row))


def _walk(tree, value, tables):
    """_along with step (v, k) -> tables[k][v], as a list and written out:
    biadd._rows runs it over n^2 edges, where a call per edge doubles the
    time (0.5 s to 1.0 s at 4096 elements).  A map m with m(start) = value
    and m(steps[k][x]) = tables[k][m(x)] for every x and k is this walk h,
    by induction along the tree; so one exists iff h is one, which
    _intertwined checks once per generator."""
    h = [value] * len(tree.order)
    for p, k, c in tree.edges:
        h[c] = tables[k][h[p]]
    return h


def _intertwined(h, tree, tables):
    """True iff h . tree.steps[k] == tables[k] . h for every k."""
    return all(_gather(h, step) == _gather(table, h)
               for step, table in zip(tree.steps, tables))


class ExtensionConflict(_Value):
    """Where an extension breaks down (_extend): the element whose image
    is forced two different ways, with the walked image and the other."""

    __slots__ = ("element", "expected", "got")

    def describe(self):
        return (f"element {self.element} forced to both {self.expected} "
                f"and {self.got}")


def _extend(tree, value, tables):
    """The map h with h[start] = value and h . steps[k] == tables[k] . h
    for every k, as a list, and None; or None and the ExtensionConflict at
    the first edge x -> c = steps[k][x] that _walk's h breaks, x in tree
    order, k in order: c walked to h[c] and forced to tables[k][h[x]]."""
    h = _walk(tree, value, tables)
    if _intertwined(h, tree, tables):
        return h, None
    c, x, table = next((s[x], x, t) for x in tree.order for s, t
                       in zip(tree.steps, tables) if h[s[x]] != t[h[x]])
    return None, ExtensionConflict(c, h[c], table[h[x]])


def _label_pass(tree):
    """Per generator k, (h, conflict, points, tail): _extend from the start
    with steps[k] at k and the identity elsewhere, and _orbit(steps[k],
    start), for every k.  On require_minimal(sys) the walk is the morphism
    into pad_single(sys, s_k), unbuilt, and, as row x_k = f_k(base) of
    derive_addition(sys) is steps[k] and row zero the identity, the
    projection x_k -> x_k, x_j -> zero; the orbit is x_k's submonoid."""
    start, ident, gens = tree.order[0], range(len(tree.order)), tree.steps
    return [(*_extend(tree, start, [step if j == k else ident
                                    for j in range(len(gens))]),
             *_orbit(step, start)) for k, step in enumerate(gens)]


def reach(sys):
    """Carrier BFS from the base: levels expanded element-index ascending,
    maps applied in ascending label order (edge k is `sorted(index_set)[k]`).
    Its order is the one `minimal_core` relabels by."""
    steps = [f.table for _lab, f in sorted(zip(sys.index_set, sys.maps))]
    return propagate(sys.base, steps, sort_levels=True)


def require_minimal(sys):
    """The generation search of a minimal system, edge k along sys.maps[k]
    and levels in discovery order: require_generates' search of the derived
    table at the x_s = f_s(base), as adding x_s is f_s.  Raises
    MinimalityRequired with the unreachable elements otherwise."""
    prop = propagate(sys.base, [f.table for f in sys.maps])
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
    labels = _gather(sys.carrier.labels, order)
    maps = tuple(
        EndoMap(_gather(new_index, _gather(f.table, order))) for f in sys.maps
    )
    return CountingSystem(Carrier(labels), new_index[sys.base], sys.index_set, maps)


def product(a, b):
    """Product system on the cartesian carrier, row-major in the first factor."""
    n, m = a.size, b.size
    k = len(a.index_set) * len(b.index_set)
    if n * m > MAX_CARRIER_SIZE:
        raise CarrierTooLarge(n * m, MAX_CARRIER_SIZE)
    if k > MAX_INDEX_SET_SIZE:
        raise IndexSetTooLarge(k, MAX_INDEX_SET_SIZE)
    labels = tuple(f"({la},{lb})" for la in a.carrier.labels
                   for lb in b.carrier.labels)
    index_set = tuple(f"({s},{t})" for s in a.index_set for t in b.index_set)
    maps = [EndoMap(tuple(i * m + j for i in fs.table for j in gt.table))
            for fs in a.maps for gt in b.maps]
    return CountingSystem(Carrier(labels), a.base * m + b.base, index_set, maps)


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
    table = sys.maps[0].table + (sys.base,)
    return CountingSystem(
        Carrier(labels), n, sys.index_set, (EndoMap(table),)
    )


def is_dedekind(sys):
    """Minimal, injective map, base outside the image.  Single-map systems only.

    The base's orbit is the carrier BFS, so the system is minimal iff it is
    the carrier, and then the base is in the image iff its tail is 0.
    Always false on a finite carrier: an injective self-map of a finite set is
    surjective, so the base is in the image.
    """
    require_single_map(sys)
    f = sys.maps[0]
    points, tail = _orbit(f.table, sys.base)
    return len(points) == sys.size and f.is_injective() and tail != 0


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
