"""Morphisms between counting systems, and the free commutative monoid over
the index set with its evaluation morphism.

A morphism out of a minimal system is fixed by its value at the base, so
core's kernel `_extend` finds it; the initiality report formats core's
`_label_pass`.  Free-monoid elements are sparse multisets over the labels.
"""

from itertools import combinations_with_replacement

from .core import (
    CountingSystem, _Frozen, _Value, _extend, _label_pass, _orbit,
    require_minimal,
)
from .dsl import _emit, _load
from .errors import (
    ExtensionVerdict, IndexSetMismatch, ParseError, UnknownLabel,
)


class SystemMorphism(_Value):
    """`map` holds the per-element image index."""

    __slots__ = ("src", "dst", "map")


def _paired_maps(src, dst):
    """(f_s, g_s) for each label s of the source, in its order; the two
    index sets must hold the same labels, in any order."""
    if set(src.index_set) != set(dst.index_set):
        raise IndexSetMismatch(src.index_set, dst.index_set)
    return [(f, dst.map_for(lab)) for lab, f in zip(src.index_set, src.maps)]


def morphism_find(src, dst):
    """The unique morphism from a minimal system (MinimalityRequired
    otherwise), or None when there is none: _morphism_walk's map."""
    h, _conflict = _morphism_walk(src, dst)
    return None if h is None else SystemMorphism(src, dst, tuple(h))


def _morphism_walk(src, dst):
    """core._extend along src's generation search from dst.base, edge k
    read in dst's map of src's k-th label, as a morphism m has
    m(base) = dst.base and m(f_s(x)) = g_s(m(x)) for every x and s."""
    tables = [g.table for _f, g in _paired_maps(src, dst)]
    return _extend(require_minimal(src), dst.base, tables)


def is_morphism(m):
    """Exhaustive check: base preserved and every generator intertwined."""
    from . import laws
    if m.map[m.src.base] != m.dst.base:
        return False
    return all(
        laws.intertwines(m.map, f.table, g.table) is None
        for f, g in _paired_maps(m.src, m.dst)
    )


def is_isomorphism(m):
    """A morphism that is a bijection.  Its inverse h is a morphism too, so
    it is not checked: h(dst.base) = src.base, and h . g_s = f_s . h follows
    from g_s = m . f_s . h."""
    return is_morphism(m) and m.src.size == m.dst.size == len(set(m.map))


def bridge_check(m, t_src, t_dst):
    """Monoid-homomorphism formulation of the morphism property: the map is a
    homomorphism of the derived tables sending each generator image to the
    matching one."""
    from .biadd import is_hom
    pairs = _paired_maps(m.src, m.dst)
    return is_hom(t_src, t_dst, m.map) and all(
        m.map[f(m.src.base)] == g(m.dst.base) for f, g in pairs)


class FreeElement(_Frozen):
    """A finite multiset over index labels, in canonical sparse form:
    `multiplicity` is a sorted tuple of (label, count), counts > 0."""

    __slots__ = ("multiplicity",)

    @staticmethod
    def of(mapping=(), **kwargs):
        counts = dict(mapping)
        counts.update(kwargs)
        for lab, c in counts.items():
            if c < 0:
                raise ValueError(f"negative multiplicity for {lab!r}")
        return FreeElement(
            tuple(sorted((lab, c) for lab, c in counts.items() if c > 0))
        )

    def count(self, label):
        return dict(self.multiplicity).get(label, 0)

    def degree(self):
        return sum(c for _, c in self.multiplicity)


def free_zero():
    return FreeElement(())


def free_unit(label):
    return FreeElement(((label, 1),))


def free_add(a, b):
    counts = dict(a.multiplicity)
    for lab, c in b.multiplicity:
        counts[lab] = counts.get(lab, 0) + c
    return FreeElement(tuple(sorted(counts.items())))


def free_eval(target, e, order=None):
    """Apply each generator as many times as its multiplicity, starting at the
    target's base.  The result is independent of application order because the
    family commutes; `order` overrides the default label order for testing.
    f^c(y) is points[c] of y's orbit walked for c + 1 points, or, if it
    closed sooner, c reduced modulo its cycle points[tail:]."""
    for lab, _ in e.multiplicity:
        if lab not in target.index_set:
            raise UnknownLabel(lab, target.index_set)
    y = target.base
    if order is None:
        for lab, f in zip(target.index_set, target.maps):
            count = e.count(lab)
            points, tail = _orbit(f.table, y, count + 1)
            if count >= len(points):
                count = tail + (count - tail) % (len(points) - tail)
            y = points[count]
        return y
    for lab in order:
        y = target.map_for(lab)(y)
    return y


def free_uniqueness_probe(target, bound):
    """Confirm that the two defining conditions force the evaluation values on
    every multiset of total degree <= bound.

    A map m with m(empty) = base and m(e + unit_s) = f_s(m(e)) is fixed by
    induction over degree, so it is free_eval (whose value at empty is the
    base) up to `bound` iff free_eval(e + unit_s) = f_s(free_eval(e)) for
    every e of degree below `bound` and every s.  That is checked, and
    cross-checks free_eval's count reduction along the orbit.
    """
    require_minimal(target)
    for degree in range(bound):
        for word in combinations_with_replacement(target.index_set, degree):
            e = FreeElement.of({lab: word.count(lab) for lab in word})
            y = free_eval(target, e)
            if any(free_eval(target, free_add(e, free_unit(lab))) != f(y)
                   for lab, f in zip(target.index_set, target.maps)):
                return False
    return True


class InitialityCondition(_Value):
    __slots__ = ("label", "morphism_to_padded", "core_size", "core_injective",
                 "base_in_core_image", "core_dedekind")

    @property
    def holds(self):
        return self.morphism_to_padded and self.core_dedekind


class InitialityReport(_Value):
    """`conditions` holds an InitialityCondition per label."""

    __slots__ = ("conditions",)

    @property
    def initial(self):
        return all(c.holds for c in self.conditions)

    def failing(self):
        return [c for c in self.conditions if not c.holds]


def initiality_report(sys):
    """Per-label decomposition of initiality for a minimal system.

    For each label: a morphism to the padded-out system must exist, and the
    single-map core at that label must satisfy the Peano conditions.  On a
    finite carrier the second condition always fails, so the diagnostics are
    the informative content.

    Both are read off core._label_pass on the one minimality check's
    search: its padded walk is the morphism, and its orbit of the base
    under f_s the core, the submonoid of x_s = f_s(base) in the derived
    table, as adding x_s is f_s (derive_addition's proof).
    """
    conditions = []
    for lab, (h, _conflict, points, tail) in zip(
            sys.index_set, _label_pass(require_minimal(sys))):
        injective = base_in_image = tail == 0
        dedekind = injective and not base_in_image  # the core is minimal
        conditions.append(InitialityCondition(
            lab, h is not None, len(points), injective, base_in_image,
            dedekind))
    return InitialityReport(conditions)


def relabel_index_set(sys, mapping):
    """Rename index labels via an old -> new mapping that names each label
    and nothing else (UnknownLabel); the new labels must be non-empty and
    distinct (DuplicateLabel from CountingSystem)."""
    for lab in sys.index_set:
        if lab not in mapping:
            raise UnknownLabel(lab, tuple(mapping))
    for key in mapping:
        if key not in sys.index_set:
            raise UnknownLabel(key, sys.index_set)
    new_labels = [mapping[lab] for lab in sys.index_set]
    return CountingSystem(sys.carrier, sys.base, new_labels, sys.maps)


def _pairs(text, sep, option, form):
    """(column, key, value) for each comma-separated part of an option value;
    a part without `sep` is a ParseError at its column.  Commas inside
    parentheses do not separate, so product labels such as `(s,t)` pass."""
    pairs = []
    col = 1
    depth = 0
    for end, ch in enumerate(text + ","):  # the last comma ends the text
        depth += (ch == "(") - (ch == ")")
        if ch != "," or (depth > 0 and end < len(text)):
            continue
        part = text[col - 1:end]
        key, found, value = part.partition(sep)
        if not found:
            raise ParseError(
                1, col, f"{option} expects {form} items, got {part!r}"
            )
        pairs.append((col, key, value))
        col = end + 2
    return pairs


def _cmd_morphism(args):
    src_doc = _load(args.src, args.auto_core)
    dst_doc = _load(args.dst, args.auto_core)
    src = src_doc.system
    if args.relabel:
        mapping = {}
        for col, old, new in _pairs(args.relabel, "=", "--relabel", "old=new"):
            if old in mapping:
                raise ParseError(1, col, f"--relabel repeats label {old!r}")
            mapping[old] = new
        src = relabel_index_set(src, mapping)
    h, conflict = _morphism_walk(src, dst_doc.system)
    if h is None:
        raise ExtensionVerdict("no morphism: image propagation conflicts",
                               conflict)
    dst_labels = dst_doc.system.carrier.labels
    for label, j in zip(src.carrier.labels, h):
        yield f"{label}\t{dst_labels[j]}\n"


def _cmd_free_eval(args):
    doc = _load(args.file, args.auto_core)
    counts = {}
    if args.multiset.strip():
        parts = _pairs(args.multiset, ":", "--multiset", "label:count")
        for col, lab, text in parts:
            try:
                num = int(text)
            except ValueError:  # or more digits than int() reads (4300)
                num, digits = -1, text.strip()
                if digits.isascii() and digits.isdigit():
                    num = 0
                    for i in range(0, len(digits), 4000):
                        piece = digits[i:i + 4000]
                        num = num * 10 ** len(piece) + int(piece)
            if num < 0:
                raise ParseError(
                    1, col, f"--multiset count {text!r} is not a "
                    "non-negative integer"
                )
            counts[lab.strip()] = counts.get(lab.strip(), 0) + num
    idx = free_eval(doc.system, FreeElement.of(counts))
    yield doc.system.carrier.labels[idx] + "\n"


def _cmd_initial(args):
    doc = _load(args.file, args.auto_core)
    rep = initiality_report(doc.system)
    keys = ("morphism_to_padded", "core_size", "core_dedekind",
            "core_injective", "base_in_core_image")
    conditions = [{"label": c.label, **{k: getattr(c, k) for k in keys}}
                  for c in rep.conditions]
    payload = {"initial": rep.initial, "conditions": conditions}
    yield from _emit(payload, args.json, "label",
                     {c["label"]: c for c in conditions}, keys)
