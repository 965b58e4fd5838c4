"""Aggregate structural report for a counting system."""

from .core import _Value
from .dsl import _emit, _load
from .errors import MinimalityRequired
from .morphisms import initiality_report


class MapFlags(_Value):
    __slots__ = ("injective", "surjective", "bijective")


class AnalysisReport(_Value):
    """`map_flags`: label -> MapFlags; `dedekind`: None unless one map."""

    __slots__ = ("minimal", "core_size", "map_flags", "dedekind", "initial",
                 "initial_diagnostics")
    _defaults = {"initial_diagnostics": None}


def analyze(sys):
    """One carrier BFS and, per label, one orbit walk (initiality_report).

    `dedekind` is read from the one condition of a single-map system, and
    is False when the system is not minimal, as is_dedekind: then the
    base's orbit misses the carrier.  On a minimal single-map system the
    orbit is the carrier, so f is injective iff tail == 0, and both
    core_dedekind and is_dedekind are "tail == 0 and tail != 0": false.
    """
    try:  # one carrier BFS; MinimalityRequired names the unreachable set
        rep, core_size = initiality_report(sys), sys.size
    except MinimalityRequired as exc:
        rep, core_size = None, sys.size - len(exc.unreachable)
    # a self-map of a finite carrier is injective iff it is surjective
    flags = {lab: MapFlags(*[f.is_injective()] * 3)
             for lab, f in zip(sys.index_set, sys.maps)}
    minimal = rep is not None
    dedekind = ((minimal and rep.conditions[0].core_dedekind)
                if len(sys.index_set) == 1 else None)
    initial = minimal and rep.initial
    return AnalysisReport(minimal, core_size, flags, dedekind, initial, rep)


def _cmd_analyze(args):
    doc = _load(args.file, args.auto_core)
    rep = analyze(doc.system)
    keys = ("injective", "surjective", "bijective")
    maps = {lab: {k: getattr(fl, k) for k in keys}
            for lab, fl in rep.map_flags.items()}
    payload = {"name": doc.name, "minimal": rep.minimal,
               "core_size": rep.core_size, "dedekind": rep.dedekind,
               "initial": rep.initial, "maps": maps}
    if rep.initial_diagnostics is not None:
        fields = ("label", "morphism_to_padded", "core_size", "core_dedekind")
        payload["initial_conditions"] = [
            {k: getattr(c, k) for k in fields}
            for c in rep.initial_diagnostics.conditions
        ]
    yield from _emit(payload, args.json, "map", maps, keys)
