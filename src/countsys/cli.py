"""Command-line interface.

Exit codes: 0 for success or a positive verdict, 1 for a well-formed negative
verdict or structured absence (no morphism, no extension), 2 for parse or
validation errors and violated preconditions, and for an internal invariant
failure (a bug), which is reported with a `bug:` prefix instead of `error:`.

Each command imports what it runs in its own body, so a run loads only the
modules of its command.
"""

import argparse
import sys as _sys

from .dsl import emit_system, parse_odot, parse_system
from .errors import CountingSystemError, InternalInvariantViolation, ParseError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def _read(path):
    """The text of a file; a path with a NUL byte or a file that is not
    UTF-8 is an OSError, like a missing file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except ValueError as exc:
        raise OSError(f"cannot read {path!r}: {exc}") from None


def _load(path, auto_core=False):
    from .core import minimal_core
    doc = parse_system(_read(path))
    if auto_core:
        doc.system = minimal_core(doc.system)
    return doc


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


def _tsv_table(labels, table, out):
    print("\t" + "\t".join(labels), file=out)
    for i, row in enumerate(table):
        print(labels[i] + "\t" + "\t".join([labels[j] for j in row]), file=out)


def _emit(payload, as_json, out, head="", rows=None, keys=()):
    """Print a report as JSON, or as text: one `key: value` line per scalar
    field that is not None, in insertion order, then one
    `<head> <label>: k=v ...` line per entry of `rows` (label -> row) over
    `keys`.  Fields that are neither scalars nor rows appear only in JSON."""
    if as_json:
        import json
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        return
    for key, value in payload.items():
        if isinstance(value, (bool, int, str)):
            print(f"{key}: {value}", file=out)
    for label, row in (rows or {}).items():
        fields = " ".join(f"{k}={row[k]}" for k in keys)
        print(f"{head} {label}: {fields}", file=out)


def _cmd_validate(args, out, err):
    doc = _load(args.file, args.auto_core)
    print(f"ok: {doc.name} ({doc.system.size} elements, "
          f"{len(doc.system.index_set)} maps)", file=out)
    return EXIT_OK


def _cmd_analyze(args, out, err):
    from .analysis import analyze
    doc = _load(args.file, args.auto_core)
    rep = analyze(doc.system)
    keys = ("injective", "surjective", "bijective")
    maps = {lab: {k: getattr(fl, k) for k in keys}
            for lab, fl in rep.map_flags.items()}
    payload = {
        "name": doc.name,
        "minimal": rep.minimal,
        "core_size": rep.core_size,
        "dedekind": rep.dedekind,
        "initial": rep.initial,
        "maps": maps,
    }
    if rep.initial_diagnostics is not None:
        fields = ("label", "morphism_to_padded", "core_size", "core_dedekind")
        payload["initial_conditions"] = [
            {k: getattr(c, k) for k in fields}
            for c in rep.initial_diagnostics.conditions
        ]
    _emit(payload, args.json, out, "map", maps, keys)
    return EXIT_OK


def _cmd_core(args, out, err):
    from .core import minimal_core
    doc = _load(args.file)
    core = minimal_core(doc.system)
    out.write(emit_system(core, name=doc.name + "_core"))
    return EXIT_OK


def _cmd_closure(args, out, err):
    from .closure import monoid_closure
    doc = _load(args.file, args.auto_core)
    tm = monoid_closure(doc.system)
    payload = {"size": tm.size, "generators": tm.gen_index}
    if args.full:
        # built, or refused, before the words and before any output
        payload["comp"] = tm.comp
    if args.json:
        # a cyclic closure's words hold m^2 / 2 labels; text never builds them
        payload["words"] = tm.words
    _emit(payload, args.json, out)
    if not args.json:
        for lab, idx in tm.gen_index.items():
            print(f"generator {lab}: {idx}", file=out)
        if args.full:
            _tsv_table([str(i) for i in range(tm.size)], tm.comp, out)
    return EXIT_OK


def _cmd_add(args, out, err):
    from .derive import derive_addition
    doc = _load(args.file, args.auto_core)
    t = derive_addition(doc.system)
    _tsv_table(doc.system.carrier.labels, t.op, out)
    return EXIT_OK


def _cmd_mul(args, out, err):
    from .biadd import (
        derive_multiplication_indexed, derive_multiplication_single)
    from .derive import derive_addition
    doc = _load(args.file, args.auto_core)
    sys_ = doc.system
    t = derive_addition(sys_)
    if args.odot:
        odot = parse_odot(_read(args.odot), index_set=sys_.index_set)
        res = derive_multiplication_indexed(sys_, t, odot)
        if not res.ok:
            msg = "no multiplication: required endomorphism missing " \
                  f"at label {res.failing_label!r}"
            if res.conflict is not None:
                msg += f" ({res.conflict.describe()})"
            print(msg, file=err)
            return EXIT_NEGATIVE
        mult = res.table
    else:
        if len(sys_.index_set) != 1:
            print("error: multi-map system needs --odot", file=err)
            return EXIT_ERROR
        mult = derive_multiplication_single(sys_, t)
    _tsv_table(sys_.carrier.labels, mult.op, out)
    return EXIT_OK


def _cmd_morphism(args, out, err):
    from .morphisms import morphism_find, relabel_index_set
    src_doc = _load(args.src, args.auto_core)
    dst_doc = _load(args.dst)
    src = src_doc.system
    if args.relabel:
        mapping = {
            old: new
            for _, old, new in _pairs(args.relabel, "=", "--relabel", "old=new")
        }
        src = relabel_index_set(src, mapping)
    m = morphism_find(src, dst_doc.system)
    if m is None:
        print("no morphism: image propagation conflicts", file=err)
        return EXIT_NEGATIVE
    src_labels = src.carrier.labels
    dst_labels = dst_doc.system.carrier.labels
    for i, j in enumerate(m.map):
        print(f"{src_labels[i]}\t{dst_labels[j]}", file=out)
    return EXIT_OK


def _cmd_product(args, out, err):
    from .core import product
    a = _load(args.a)
    b = _load(args.b)
    sys_ = product(a.system, b.system)
    out.write(emit_system(sys_, name=f"{a.name}_x_{b.name}"))
    return EXIT_OK


def _cmd_omega(args, out, err):
    from .core import adjoin_omega
    doc = _load(args.file)
    out.write(emit_system(adjoin_omega(doc.system), name=doc.name + "_omega"))
    return EXIT_OK


def _cmd_free_eval(args, out, err):
    from .morphisms import FreeElement, free_eval
    doc = _load(args.file, args.auto_core)
    counts = {}
    if args.multiset.strip():
        parts = _pairs(args.multiset, ":", "--multiset", "label:count")
        for col, lab, text in parts:
            try:
                num = int(text)
            except ValueError:
                num = -1
            if num < 0:
                raise ParseError(
                    1, col, f"--multiset count {text!r} is not a "
                    "non-negative integer"
                )
            counts[lab.strip()] = counts.get(lab.strip(), 0) + num
    e = FreeElement.of(counts)
    idx = free_eval(doc.system, e)
    print(doc.system.carrier.labels[idx], file=out)
    return EXIT_OK


def _cmd_initial(args, out, err):
    from .morphisms import initiality_report
    doc = _load(args.file, args.auto_core)
    rep = initiality_report(doc.system)
    keys = ("morphism_to_padded", "core_size", "core_dedekind",
            "core_injective", "base_in_core_image")
    conditions = [{"label": c.label, **{k: getattr(c, k) for k in keys}}
                  for c in rep.conditions]
    payload = {"initial": rep.initial, "conditions": conditions}
    _emit(payload, args.json, out, "label",
          {c["label"]: c for c in conditions}, keys)
    return EXIT_OK


def _cmd_free_report(args, out, err):
    from .biadd import is_free_report
    from .derive import derive_addition
    doc = _load(args.file, args.auto_core)
    sys_ = doc.system
    t = derive_addition(sys_)
    gens = tuple(f(sys_.base) for f in sys_.maps)
    rep = is_free_report(t, gens)
    cyclic = [
        {
            "label": sys_.index_set[c.label_index],
            "generator": c.generator,
            "submonoid_size": len(c.submonoid),
            "free": c.free,
            "injective": c.injective,
            "zero_in_image": c.zero_in_image,
        }
        for c in rep.cyclic
    ]
    payload = {
        "free": rep.free,
        "direct_sum": rep.direct_sum.ok,
        "cyclic": cyclic,
    }
    _emit(payload, args.json, out, "label", {c["label"]: c for c in cyclic},
          ("free", "submonoid_size", "injective", "zero_in_image"))
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="countsys",
        description="derive and verify the algebra of finite counting systems",
    )
    p.add_argument(
        "--auto-core",
        action="store_true",
        help="replace a non-minimal input by its minimal core",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **files):
        sp = sub.add_parser(name)
        for arg in files.get("files", ["file"]):
            sp.add_argument(arg)
        sp.set_defaults(fn=fn)
        return sp

    add("validate", _cmd_validate)
    sp = add("analyze", _cmd_analyze)
    sp.add_argument("--json", action="store_true")
    add("core", _cmd_core)
    sp = add("closure", _cmd_closure)
    sp.add_argument("--full", action="store_true")
    sp.add_argument("--json", action="store_true")
    add("add", _cmd_add)
    sp = add("mul", _cmd_mul)
    sp.add_argument("--odot")
    sp = add("morphism", _cmd_morphism, files=["src", "dst"])
    sp.add_argument("--relabel", help="old=new[,old=new...] for SRC labels")
    add("product", _cmd_product, files=["a", "b"])
    add("omega", _cmd_omega)
    sp = add("free-eval", _cmd_free_eval)
    sp.add_argument("--multiset", required=True, help='e.g. "s:3,t:1"')
    sp = add("initial", _cmd_initial)
    sp.add_argument("--json", action="store_true")
    sp = add("free-report", _cmd_free_report)
    sp.add_argument("--json", action="store_true")
    return p


def run_cli(argv, out=None, err=None):
    out = out if out is not None else _sys.stdout
    err = err if err is not None else _sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        return args.fn(args, out, err)
    except ParseError as exc:
        print(f"parse error: {exc}", file=err)
        return EXIT_ERROR
    except InternalInvariantViolation as exc:
        print(f"bug: {exc}", file=err)
        return EXIT_ERROR
    except (CountingSystemError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_ERROR


def main():
    raise SystemExit(run_cli(_sys.argv[1:]))


if __name__ == "__main__":
    main()
