"""Aggregate structural report for a counting system."""

from .core import _Value, is_dedekind, reachable_set
from .morphisms import initiality_report


class MapFlags(_Value):
    __slots__ = ("injective", "surjective", "bijective")

    def __init__(self, injective, surjective, bijective):
        self.injective = injective
        self.surjective = surjective
        self.bijective = bijective


class AnalysisReport(_Value):
    __slots__ = ("minimal", "core_size", "map_flags", "dedekind", "initial",
                 "initial_diagnostics")

    def __init__(self, minimal, core_size, map_flags, dedekind, initial,
                 initial_diagnostics=None):
        self.minimal = minimal
        self.core_size = core_size
        self.map_flags = map_flags  # label -> MapFlags
        self.dedekind = dedekind  # single-map systems only, else None
        self.initial = initial
        self.initial_diagnostics = initial_diagnostics


def analyze(sys):
    core_size = len(reachable_set(sys))
    minimal = core_size == sys.size
    # a self-map of a finite carrier is injective iff it is surjective, so
    # injectivity decides all three flags
    flags = {}
    for lab, f in zip(sys.index_set, sys.maps):
        injective = f.is_injective()
        flags[lab] = MapFlags(injective, injective, injective)
    dedekind = is_dedekind(sys) if len(sys.index_set) == 1 else None
    rep = initiality_report(sys) if minimal else None
    initial = rep is not None and rep.initial
    return AnalysisReport(minimal, core_size, flags, dedekind, initial, rep)
