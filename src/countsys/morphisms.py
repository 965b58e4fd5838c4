"""Morphisms between counting systems, and the free commutative monoid over
the index set with its evaluation morphism.

A morphism out of a minimal system is forced along generator words, so the
search is a breadth-first propagation with conflict detection.  Free-monoid
elements are sparse multisets over the index labels.
"""

from . import laws
from .core import (
    CountingSystem,
    _Frozen,
    _Value,
    minimal_core,
    pad_single,
    propagate,
    require_distinct,
    require_minimal,
    single_map_subsystem,
)
from .errors import IndexSetMismatch, UnknownLabel


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
    """The unique morphism from a minimal system, or None if propagation
    forces two different images for some element.  A run without conflict
    is a morphism (is_morphism): value[base] = dst.base, and every x is
    reached and expanded along each s, forcing value[f_s(x)] = g_s(value[x]).
    """
    pairs = _paired_maps(src, dst)
    require_minimal(src)
    prop = propagate(src.base, dst.base, [
        (f.table.__getitem__, g.table.__getitem__) for f, g in pairs
    ])
    if prop.conflict is not None:
        return None
    img = prop.value
    return SystemMorphism(src, dst, tuple(img[x] for x in range(src.size)))


def is_morphism(m):
    """Exhaustive check: base preserved and every generator intertwined."""
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


def _iterate(f, y, count):
    """f applied `count` times to y, in at most n steps: once the orbit of y
    returns to a point it has visited, the rest of the count is reduced
    modulo the cycle it has closed."""
    orbit = []
    step_of = {}  # point -> the step at which the orbit first reached it
    for step in range(count):
        if y in step_of:
            start = step_of[y]
            return orbit[start + (count - start) % (step - start)]
        step_of[y] = step
        orbit.append(y)
        y = f(y)
    return y


def free_eval(target, e, order=None):
    """Apply each generator as many times as its multiplicity, starting at the
    target's base.  The result is independent of application order because the
    family commutes; `order` overrides the default label order for testing."""
    for lab, _ in e.multiplicity:
        if lab not in target.index_set:
            raise UnknownLabel(lab, target.index_set)
    y = target.base
    if order is None:
        for lab in target.index_set:
            y = _iterate(target.map_for(lab), y, e.count(lab))
        return y
    for lab in order:
        y = target.map_for(lab)(y)
    return y


def free_uniqueness_probe(target, bound):
    """Confirm that the two defining conditions force the evaluation values on
    every multiset of total degree <= bound.

    Any map m with m(empty) = base and m(e + unit_s) = f_s(m(e)) is computed
    by induction over degree; every inductive route must agree with free_eval.
    A run without conflict has checked every route, since each e - unit_s
    has degree below `bound` and was expanded along s; the comparison with
    free_eval cross-checks its count reduction (`_iterate`).
    """
    require_minimal(target)
    prop = propagate(free_zero(), target.base, [
        (lambda e, u=free_unit(lab): free_add(e, u), target.map_for(lab))
        for lab in target.index_set
    ], depth=bound)
    if prop.conflict is not None:
        return False
    return all(v == free_eval(target, e) for e, v in prop.value.items())


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

    The single-map core at a label is the cyclic submonoid of the derived
    table generated by x_s = f_s(base): derive_addition certifies that
    adding x_s is f_s, so that submonoid is the orbit of the base under f_s.
    """
    require_minimal(sys)
    conditions = []
    for lab in sys.index_set:
        padded = pad_single(sys, lab)
        has_morphism = morphism_find(sys, padded) is not None
        core = minimal_core(single_map_subsystem(sys, lab))
        f = core.maps[0]
        injective = f.is_injective()
        base_in_image = core.base in set(f.table)
        dedekind = injective and not base_in_image  # the core is minimal
        conditions.append(InitialityCondition(
            lab, has_morphism, core.size, injective, base_in_image, dedekind
        ))
    return InitialityReport(conditions)


def relabel_index_set(sys, mapping):
    """Rename index labels via an explicit old -> new mapping; the new labels
    must be non-empty and distinct (DuplicateLabel otherwise)."""
    new_labels = []
    for lab in sys.index_set:
        if lab not in mapping:
            raise UnknownLabel(lab, tuple(mapping))
        new_labels.append(mapping[lab])
    require_distinct(new_labels)
    return CountingSystem(sys.carrier, sys.base, tuple(new_labels), sys.maps)
