"""Aggregate structural report for a counting system."""

from dataclasses import dataclass

from .core import is_dedekind, is_minimal, reachable_set
from .morphisms import initiality_report


@dataclass
class MapFlags:
    injective: bool
    surjective: bool
    bijective: bool


@dataclass
class AnalysisReport:
    minimal: bool
    core_size: int
    map_flags: dict  # label -> MapFlags
    dedekind: bool | None  # single-map systems only
    initial: bool
    initial_diagnostics: object | None = None


def analyze(sys):
    minimal = is_minimal(sys)
    # a self-map of a finite carrier is injective iff it is surjective, so
    # injectivity decides all three flags
    flags = {}
    for lab, f in zip(sys.index_set, sys.maps):
        injective = f.is_injective()
        flags[lab] = MapFlags(injective, injective, injective)
    dedekind = is_dedekind(sys) if len(sys.index_set) == 1 else None
    if minimal:
        rep = initiality_report(sys)
        initial = rep.initial
    else:
        rep = None
        initial = False
    return AnalysisReport(
        minimal=minimal,
        core_size=len(reachable_set(sys)),
        map_flags=flags,
        dedekind=dedekind,
        initial=initial,
        initial_diagnostics=rep,
    )
