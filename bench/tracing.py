"""Outside-in tracing of countsys: spans recorded from the benchmark's side.

`Tracer.install` replaces every public function of the countsys modules, under
every name a countsys namespace binds it to, by a wrapper that records a span
(name, start, end, parent span, job) and counts the call.  It also counts
`EndoMap.compose` calls.  `uninstall` puts the originals back, so untraced
runs in the same process pay nothing.  Spans stay in memory until the run
writes them out as JSON lines.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "countsys"
MODULES = ("cli", "dsl", "core", "closure", "derive", "biadd", "morphisms",
           "analysis", "fixtures")
# Private functions that are stages of their own.
EXTRA = {"biadd._verify_mult_laws"}

SELF_TIME = {
    "cli.self_s": ("cli.run_cli", "cli.build_parser", "cli.main"),
    "dsl.parse_s": ("dsl.parse_system", "dsl.parse_odot"),
    "dsl.emit_s": ("dsl.emit_system",),
    "core.new_system_s": ("core.new_system",),
    "core.reach_s": ("core.reachable_set", "core.is_minimal",
                     "core.minimal_core"),
    "core.product_s": ("core.product",),
    "closure.monoid_closure_s": ("closure.monoid_closure",),
    "closure.evaluation_s": ("closure.evaluation",),
    "derive.derive_addition_self_s": ("derive.derive_addition",),
    "derive.submonoid_closure_s": ("derive.submonoid_closure",),
    "biadd.hom_extend_s": ("biadd.hom_extend_report", "biadd.hom_extend"),
    "biadd.biadditive_extend_s": ("biadd.biadditive_extend",),
    "biadd.is_biadditive_s": ("biadd.is_biadditive",),
    "biadd.mult_laws_s": ("biadd._verify_mult_laws",),
    "biadd.free_report_s": ("biadd.is_free_report", "biadd.direct_sum_report",
                            "biadd.direct_sum_check", "biadd.projections"),
    "morphisms.morphism_find_s": ("morphisms.morphism_find",
                                  "morphisms.is_morphism"),
    "morphisms.initiality_self_s": ("morphisms.initiality_report",),
    "morphisms.free_eval_s": ("morphisms.free_eval",),
    "analysis.analyze_self_s": ("analysis.analyze",),
}
# Self time of every other span of these modules.
OTHER = ("core", "closure", "derive", "biadd", "morphisms")

# Counts that must repeat exactly when the same jobs run again.
FIDELITY = ("closure.compose_calls", "closure.elements",
            "biadd.hom_extend_calls")


class Tracer:
    def __init__(self):
        mods = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        self.names = {}  # original function -> "module.function"
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                qual = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or qual in EXTRA)):
                    self.names[obj] = qual
        wrappers = {fn: self._wrap(fn, qual) for fn, qual in self.names.items()}
        self.patches = []  # (namespace, attribute, original, replacement)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    self.patches.append((mod, attr, obj, wrappers[obj]))
        endo = importlib.import_module(f"{PACKAGE}.core").EndoMap
        compose = endo.compose

        def counted_compose(this, other):
            self.counts["closure.compose_calls"] += 1
            return compose(this, other)

        self.patches.append((endo, "compose", compose, counted_compose))
        self.spans = []
        self.counts = Counter()
        self.stack = []
        self.job = None

    def _wrap(self, fn, qual):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(sid)
            tracer.counts["calls." + qual] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[sid] = (sid, parent, tracer.job, qual, start, end)
            tracer._observe(qual, result)
            return result

        return traced

    def _observe(self, qual, result):
        if qual == "closure.monoid_closure":
            self.counts["closure.elements"] += result.size
        elif qual == "biadd.hom_extend_report":
            self.counts["biadd.hom_extend_ok"] += result[0] is not None
        elif qual == "morphisms.morphism_find":
            self.counts["morphisms.morphism_found"] += result is not None

    def install(self, job):
        """job: (job number, job kind), stored on every span."""
        self.job = job
        for ns, attr, _, new in self.patches:
            setattr(ns, attr, new)

    def uninstall(self):
        for ns, attr, old, _ in self.patches:
            setattr(ns, attr, old)
        self.job = None

    def mark(self):
        """Position to aggregate from: (span index, copy of the counts)."""
        return len(self.spans), Counter(self.counts)

    def layer_metrics(self, since):
        """Per-layer self times and counts of the spans and calls recorded
        after the mark `since`."""
        first, before = since
        spans = self.spans[first:]
        child = defaultdict(float)
        for sid, parent, _, _, start, end in spans:
            if parent is not None:
                child[parent] += end - start
        self_time = defaultdict(float)
        for sid, _, _, qual, start, end in spans:
            self_time[qual] += end - start - child[sid]
        out = {}
        listed = set()
        for metric, quals in SELF_TIME.items():
            out[metric] = sum(self_time[q] for q in quals)
            listed.update(quals)
        for layer in OTHER:
            out[f"{layer}.other_s"] = sum(
                t for q, t in self_time.items()
                if q.split(".", 1)[0] == layer and q not in listed
            )
        counts = self.counts - before
        calls = counts["calls.biadd.hom_extend_report"]
        finds = counts["calls.morphisms.morphism_find"]
        out["closure.compose_calls"] = counts["closure.compose_calls"]
        out["closure.elements"] = counts["closure.elements"]
        out["biadd.hom_extend_calls"] = calls
        out["biadd.hom_extend_ok_ratio"] = (
            counts["biadd.hom_extend_ok"] / calls if calls else 0.0)
        out["morphisms.morphism_found_ratio"] = (
            counts["morphisms.morphism_found"] / finds if finds else 0.0)
        return out

    def traffic(self):
        """Job kind -> sorted wrapped functions its spans reached."""
        reached = defaultdict(set)
        for _, _, (_, kind), qual, _, _ in self.spans:
            reached[kind].add(qual)
        return {kind: sorted(quals) for kind, quals in sorted(reached.items())}

    def public_names(self):
        return sorted(self.names.values())

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, (job, kind), qual, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "job": job, "kind": kind,
                    "name": qual, "start": start, "end": end,
                }) + "\n")
