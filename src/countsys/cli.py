"""Command-line interface.

Exit codes: 0 for success or a positive verdict, 1 for a well-formed negative
verdict or structured absence (no morphism, no extension), 2 for parse or
validation errors and violated preconditions, and for an internal invariant
failure (a bug), which is reported with a `bug:` prefix instead of `error:`.

Each command imports what it runs in its own body, so a run loads only the
modules of its command.  The command line is read against one table,
`_COMMANDS`, by the grammar README states: `--auto-core` before the command,
then its options, named in full, and its positionals in any order.
"""

import atexit
import os
import sys as _sys
from types import SimpleNamespace

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
    """Header and rows, 256 rows to a write (6 MB of text at 4096 rows)."""
    text = "\t" + "\t".join(labels) + "\n"
    for k in range(0, len(table), 256):
        out.write(text + "".join([
            labels[i] + "\t" + "\t".join([labels[j] for j in row]) + "\n"
            for i, row in enumerate(table[k:k + 256], k)]))
        text = ""


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
    out.write("".join([f"{src_labels[i]}\t{dst_labels[j]}\n"
                       for i, j in enumerate(m.map)]))  # one write
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


# command: (handler, usage); in a usage, an option in brackets may be left
# out, one with "=" takes a value, and a word without "-" is a positional;
# argv is read against it by the grammar README states
_COMMANDS = {
    "validate": (_cmd_validate, "file"),
    "analyze": (_cmd_analyze, "[--json] file"),
    "core": (_cmd_core, "file"),
    "closure": (_cmd_closure, "[--full] [--json] file"),
    "add": (_cmd_add, "file"),
    "mul": (_cmd_mul, "[--odot=ODOT] file"),
    "morphism": (_cmd_morphism, "[--relabel=OLD=NEW,...] src dst"),
    "product": (_cmd_product, "a b"),
    "omega": (_cmd_omega, "file"),
    "free-eval": (_cmd_free_eval, "--multiset=LABEL:COUNT,... file"),
    "initial": (_cmd_initial, "[--json] file"),
    "free-report": (_cmd_free_report, "[--json] file"),
}
# before the command; --auto-core replaces a non-minimal input by its core
_GLOBAL = (None, "[--auto-core] COMMAND ...")


class _UsageError(Exception):
    """A command line outside the grammar: (command or "", message)."""


def _usage(command):
    usage = _COMMANDS.get(command, _GLOBAL)[1]
    return f"usage: countsys {command} [-h] {usage}".replace("  ", " ")


def _help(args, out, err):
    """The command's usage, or with no command every command's usage."""
    lines = [] if args.command else [
        _usage(c).removeprefix("usage: ") for c in _COMMANDS]
    print(_usage(args.command), *lines, sep="\n  ", file=out)
    return EXIT_OK


def _parse_args(argv):
    """The namespace for a handler, read from argv; -h or --help before the
    first "--" reads as `_help` whatever else argv holds."""
    end = argv.index("--") if "--" in argv else len(argv)
    if {"-h", "--help"} & set(argv[:end]):
        command = next((t for t in argv[:end] if t in _COMMANDS), "")
        return SimpleNamespace(fn=_help, command=command)
    args = SimpleNamespace(auto_core=False)
    command, takes, required, todo = "", {"--auto-core": False}, {}, []
    tokens = iter(enumerate(argv))
    for i, token in tokens:
        name, eq, value = token.partition("=")
        if i == end:
            continue
        if i < end and token[:1] == "-" != token:  # an option
            if name not in takes or eq and not takes[name]:
                raise _UsageError(command, f"unrecognized arguments: {token}")
            if takes[name] and not eq:  # the next token, whatever it is
                value = next(tokens, (i, None))[1]
                if value is None:
                    raise _UsageError(command, f"{name} takes one value")
            setattr(args, name[2:].replace("-", "_"),
                    value if takes[name] else True)
            required.pop(name, None)
        elif command:
            if not todo:
                raise _UsageError(command, f"unrecognized arguments: {token}")
            setattr(args, todo.pop(0), token)
        elif token in _COMMANDS:
            command, (args.fn, usage) = token, _COMMANDS[token]
            takes = {}
            for word in usage.split():
                name, eq, _ = word.strip("[]").partition("=")
                if name[:2] != "--":
                    todo.append(name)
                    continue
                takes[name] = bool(eq)
                setattr(args, name[2:].replace("-", "_"),
                        None if eq else False)
                if word[0] != "[":
                    required[name] = True
        else:
            raise _UsageError("", f"invalid command {token!r}")
    if not command:
        raise _UsageError("", "missing COMMAND")
    if required or todo:
        raise _UsageError(command, f"missing {', '.join([*required, *todo])}")
    return args


def run_cli(argv, out=None, err=None):
    out = out if out is not None else _sys.stdout
    err = err if err is not None else _sys.stderr
    try:
        if out is None:  # file descriptor 1 was closed
            raise OSError("no standard output")
        args = _parse_args(argv)
        code = args.fn(args, out, err)
        out.flush()  # a failed write of the last output is an error too
        return code
    except _UsageError as exc:
        command, error = exc.args
        message = f"{_usage(command)}\ncountsys: error: {error}"
    except ParseError as exc:
        message = f"parse error: {exc}"
    except InternalInvariantViolation as exc:
        message = f"bug: {exc}"
    except (CountingSystemError, OSError) as exc:
        message = f"error: {exc}"
    try:  # an error that cannot be reported still exits 2
        err.write(message + "\n")
    except (AttributeError, OSError):  # stderr is None, or failed
        pass
    return EXIT_ERROR


def main():
    """run_cli, the atexit callbacks, a flush of stdout and stderr, and
    os._exit: the interpreter's teardown frees only what the OS reclaims."""
    code = run_cli(_sys.argv[1:])
    atexit._run_exitfuncs()
    for stream in (_sys.stdout, _sys.stderr):
        try:  # what the callbacks wrote; run_cli reported its own failures
            stream.flush()
        except (AttributeError, OSError):  # a stream that is None, or failed
            pass
    os._exit(code)


if __name__ == "__main__":
    main()
