"""Finite counting systems and the commutative monoids they determine.

`import countsys` loads no submodule.  A public name resolves on access to
the attribute of the submodule that defines it (PEP 562), so
`from countsys import derive_addition` imports only `countsys.derive` and
what it needs.
"""

from importlib import import_module as _import_module

# public name -> the submodule that defines it
_HOME = {
    **dict.fromkeys(("AnalysisReport", "analyze"), "analysis"),
    **dict.fromkeys((
        "BiadditiveTable", "HomTable", "OdotTable", "biadditive_extend",
        "derive_multiplication_indexed", "derive_multiplication_single",
        "direct_sum_check", "direct_sum_report", "hom_extend",
        "is_free_report", "projections",
    ), "biadd"),
    **dict.fromkeys((
        "EvaluationMap", "TransformationMonoid", "evaluation", "is_invariant",
        "monoid_closure",
    ), "closure"),
    **dict.fromkeys((
        "Carrier", "CountingSystem", "EndoMap", "adjoin_omega", "is_dedekind",
        "is_minimal", "minimal_core", "new_system", "pad_single", "product",
    ), "core"),
    **dict.fromkeys((
        "Classification", "MonoidTable", "cayley_embedding", "classify",
        "derive_addition", "product_table", "verify_plus_axioms",
    ), "derive"),
    **dict.fromkeys((
        "SystemDocument", "emit_system", "parse_odot", "parse_system",
    ), "dsl"),
    **dict.fromkeys((
        "FreeElement", "SystemMorphism", "bridge_check", "free_add",
        "free_eval", "free_uniqueness_probe", "initiality_report",
        "is_isomorphism", "is_morphism", "morphism_find",
    ), "morphisms"),
}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
