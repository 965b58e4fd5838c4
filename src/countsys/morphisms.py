"""Morphisms between counting systems, and the free commutative monoid over
the index set with its evaluation morphism.

A morphism out of a minimal system is forced along generator words, so the
search is a breadth-first propagation with conflict detection.  Free-monoid
elements are sparse multisets over the index labels.
"""

from dataclasses import dataclass, field

from .core import (
    CountingSystem,
    is_dedekind,
    minimal_core,
    pad_single,
    propagate,
    reachable_set,
    require_distinct,
    require_minimal,
    single_map_subsystem,
)
from .derive import derive_addition, submonoid_closure
from .errors import (
    IndexSetMismatch,
    InternalInvariantViolation,
    UnknownLabel,
)


@dataclass
class SystemMorphism:
    src: object
    dst: object
    map: tuple  # per-element image index


def _require_same_index_set(src, dst):
    if tuple(src.index_set) != tuple(dst.index_set):
        raise IndexSetMismatch(src.index_set, dst.index_set)


def morphism_find(src, dst):
    """The unique morphism from a minimal system, or None if propagation
    forces two different images for some element."""
    _require_same_index_set(src, dst)
    require_minimal(src)
    prop = propagate(src.base, dst.base, [
        (f.table.__getitem__, g.table.__getitem__)
        for f, g in zip(src.maps, dst.maps)
    ])
    if prop.conflict is not None:
        return None
    img = prop.value
    m = SystemMorphism(src, dst, tuple(img[x] for x in range(src.size)))
    if not is_morphism(m):
        return None
    return m


def is_morphism(m):
    """Exhaustive check: base preserved and every generator intertwined."""
    if m.map[m.src.base] != m.dst.base:
        return False
    return all(
        m.map[f(x)] == g(m.map[x])
        for f, g in zip(m.src.maps, m.dst.maps)
        for x in range(m.src.size)
    )


def is_isomorphism(m):
    """A morphism that is a bijection; the inverse is verified to be a
    morphism as well, which must always hold."""
    if not is_morphism(m):
        return False
    if len(set(m.map)) != m.src.size or m.src.size != m.dst.size:
        return False
    inv = [0] * m.dst.size
    for x, y in enumerate(m.map):
        inv[y] = x
    back = SystemMorphism(m.dst, m.src, tuple(inv))
    if not is_morphism(back):
        raise InternalInvariantViolation("inverse of a bijective morphism is not a morphism")
    return True


def bridge_check(m, t_src, t_dst):
    """Monoid-homomorphism formulation of the morphism property: the map is a
    homomorphism of the derived tables sending each generator image to the
    matching one."""
    _require_same_index_set(m.src, m.dst)
    mp = m.map
    if mp[t_src.zero] != t_dst.zero:
        return False
    n = t_src.size
    for a in range(n):
        for b in range(n):
            if mp[t_src.op[a][b]] != t_dst.op[mp[a]][mp[b]]:
                return False
    for f, g in zip(m.src.maps, m.dst.maps):
        if mp[f(m.src.base)] != g(m.dst.base):
            return False
    return True


@dataclass(frozen=True)
class FreeElement:
    """A finite multiset over index labels, in canonical sparse form."""

    multiplicity: tuple  # sorted tuple of (label, count), counts > 0

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
        for lab, c in self.multiplicity:
            if lab == label:
                return c
        return 0

    def degree(self):
        return sum(c for _, c in self.multiplicity)

    def labels(self):
        return tuple(lab for lab, _ in self.multiplicity)


def free_zero():
    return FreeElement(())


def free_unit(label):
    return FreeElement(((label, 1),))


def free_add(a, b):
    counts = dict(a.multiplicity)
    for lab, c in b.multiplicity:
        counts[lab] = counts.get(lab, 0) + c
    return FreeElement(tuple(sorted(counts.items())))


def free_remove_one(e, label):
    counts = dict(e.multiplicity)
    if counts.get(label, 0) < 1:
        raise UnknownLabel(label, e.labels())
    counts[label] -= 1
    return FreeElement(tuple(sorted((l, c) for l, c in counts.items() if c > 0)))


def free_eval(target, e, order=None):
    """Apply each generator as many times as its multiplicity, starting at the
    target's base.  The result is independent of application order because the
    family commutes; `order` overrides the default label order for testing."""
    for lab, _ in e.multiplicity:
        if lab not in target.index_set:
            raise UnknownLabel(lab, target.index_set)
    if order is None:
        order = [lab for lab in target.index_set for _ in range(e.count(lab))]
    y = target.base
    for lab in order:
        y = target.map_for(lab)(y)
    return y


def free_uniqueness_probe(target, bound):
    """Confirm that the two defining conditions force the evaluation values on
    every multiset of total degree <= bound.

    Any map m with m(empty) = base and m(e + unit_s) = f_s(m(e)) is computed
    by induction over degree; every inductive route must agree with free_eval.
    """
    require_minimal(target)
    prop = propagate(free_zero(), target.base, [
        (lambda e, u=free_unit(lab): free_add(e, u), target.map_for(lab))
        for lab in target.index_set
    ], depth=bound)
    if prop.conflict is not None:
        return False
    values = prop.value
    # re-derivation pass: every way down by one unit gives the same value
    for e, v in values.items():
        if v != free_eval(target, e):
            return False
        for lab in e.labels():
            prev = free_remove_one(e, lab)
            if target.map_for(lab)(values[prev]) != v:
                return False
    return True


@dataclass
class InitialityCondition:
    label: str
    morphism_to_padded: bool
    core_size: int
    core_injective: bool
    base_in_core_image: bool
    core_dedekind: bool

    @property
    def holds(self):
        return self.morphism_to_padded and self.core_dedekind


@dataclass
class InitialityReport:
    conditions: list = field(default_factory=list)

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
    """
    require_minimal(sys)
    table = derive_addition(sys)
    report = InitialityReport()
    for lab in sys.index_set:
        padded = pad_single(sys, lab)
        has_morphism = morphism_find(sys, padded) is not None
        single = single_map_subsystem(sys, lab)
        core_elements = sorted(reachable_set(single))
        core = minimal_core(single)
        f = core.maps[0]
        ded = is_dedekind(core)
        # the cyclic submonoid generated by the label's first step must be the
        # single-map core, as a subset of the original carrier
        xs = sys.map_for(lab)(sys.base)
        sub = sorted(submonoid_closure(table, (xs,)))
        if sub != core_elements:
            raise InternalInvariantViolation(
                f"cyclic submonoid at {lab!r} differs from the single-map core"
            )
        report.conditions.append(
            InitialityCondition(
                label=lab,
                morphism_to_padded=has_morphism,
                core_size=core.size,
                core_injective=f.is_injective(),
                base_in_core_image=core.base in set(f.table),
                core_dedekind=ded,
            )
        )
    return report


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
