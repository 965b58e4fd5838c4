"""Line-oriented input format for counting systems and index-set operations.

A system document:

    system <name>
    elements <l1> <l2> ... <ln>
    base <label>
    map <s> = <img1> ... <imgn>     # one line per index label

`#` starts a comment; blank lines are ignored.  An odot document starts with
an `odot` header, then `<s> <t> = <u>` lines covering the whole square, plus
an optional `unit <s>` line naming a two-sided unit of the table.

Every command loads this module, so it also holds what their handlers
share (reading input files, reports and tables as text) and the handlers
of `validate`, `core`, `product` and `omega`, which run only `core`.  It
imports only `core` and `errors`; the exit codes are `cli`'s.
"""

from .core import (Carrier, EndoMap, _Value, _gather, adjoin_omega,
                   minimal_core, new_system, product)
from .errors import DuplicateLabel, InputTooLarge, OdotNotTotal, ParseError

MAX_INPUT_CHARS = 1 << 26  # most characters an input file may hold


class SystemDocument(_Value):
    __slots__ = ("name", "system")


def _logical_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        yield lineno, line


def parse_system(text):
    name = None
    elements = None
    base = None  # (lineno, column, label)
    map_lines = []  # (lineno, column of the label, label, images)
    for lineno, line in _logical_lines(text):
        tokens = line.split()
        head = tokens[0]
        rest = line.lstrip()[len(head):].lstrip()
        col = len(line) - len(rest) + 1  # column of tokens[1]
        if head == "system":
            if name is not None:
                raise ParseError(lineno, 1, "duplicate 'system' declaration")
            if len(tokens) != 2:
                raise ParseError(lineno, 1, "'system' takes exactly one name")
            name = tokens[1]
        elif head == "elements":
            if elements is not None:
                raise ParseError(lineno, 1, "duplicate 'elements' declaration")
            if len(tokens) < 2:
                raise ParseError(lineno, 1, "'elements' needs at least one label")
            elements = tokens[1:]
            elements_line = lineno
        elif head == "base":
            if base is not None:
                raise ParseError(lineno, 1, "duplicate 'base' declaration")
            if len(tokens) != 2:
                raise ParseError(lineno, 1, "'base' takes exactly one label")
            base = (lineno, col, tokens[1])
        elif head == "map":
            if len(tokens) < 4 or tokens[2] != "=":
                raise ParseError(lineno, 1, "expected 'map <s> = <images...>'")
            map_lines.append((lineno, col, tokens[1], tokens[3:]))
        else:
            raise ParseError(lineno, 1, f"unknown declaration {head!r}")

    if name is None:
        raise ParseError(1, 1, "missing 'system' declaration")
    if elements is None:
        raise ParseError(1, 1, "missing 'elements' declaration")
    if base is None:
        raise ParseError(1, 1, "missing 'base' declaration")
    if not map_lines:
        raise ParseError(1, 1, "missing 'map' declarations")

    try:
        carrier = Carrier(tuple(elements))
    except DuplicateLabel as exc:
        raise ParseError(
            elements_line, 1, f"duplicate element label {exc.label!r}"
        ) from None
    index = {lab: i for i, lab in enumerate(elements)}
    base_line, base_col, base_label = base
    if base_label not in index:
        raise ParseError(
            base_line, base_col,
            f"base {base_label!r} is not a declared element",
        )

    index_set = []
    maps = []
    seen = set()
    for lineno, col, s, images in map_lines:
        if s in seen:
            raise ParseError(lineno, col, f"duplicate map label {s!r}")
        seen.add(s)
        if len(images) != len(elements):
            raise ParseError(
                lineno, 1,
                f"map {s!r} lists {len(images)} images for "
                f"{len(elements)} elements",
            )
        try:
            table = _gather(index, images)
        except KeyError as exc:
            raise ParseError(
                lineno, 1, f"image {exc.args[0]!r} is not a declared element"
            ) from None
        index_set.append(s)
        maps.append(EndoMap(table))
    sys = new_system(carrier, index[base_label], tuple(index_set), tuple(maps))
    return SystemDocument(name, sys)


def emit_system(sys, name=None):
    name = name or "system"
    labels = sys.carrier.labels
    lines = [f"system {name}", "elements " + " ".join(labels),
             f"base {labels[sys.base]}"]
    for s, f in zip(sys.index_set, sys.maps):
        imgs = " ".join(_gather(labels, f.table))
        lines.append(f"map {s} = {imgs}")
    return "\n".join(lines) + "\n"


class OdotTable(_Value):
    """A total binary operation on the index-set labels, with optional unit;
    `op` maps (s, t) -> label."""

    __slots__ = ("index_set", "op", "unit")
    _defaults = {"unit": None}

    def validate(self):
        for s in self.index_set:
            for t in self.index_set:
                if self.op.get((s, t)) not in self.index_set:
                    raise OdotNotTotal(s, t)  # missing, or not a label
        if self.unit is not None and self.unit not in self.index_set:
            raise OdotNotTotal(self.unit, self.unit)


def parse_odot(text, index_set=None):
    header_seen = False
    op = {}
    unit = None
    labels = set()
    for lineno, line in _logical_lines(text):
        tokens = line.split()
        if not header_seen:
            if tokens != ["odot"]:
                raise ParseError(lineno, 1, "expected 'odot' header")
            header_seen = True
            continue
        entry = len(tokens) == 4 and tokens[2] == "="
        if tokens[0] == "unit" and not entry:  # a map may be named unit
            if len(tokens) != 2:
                raise ParseError(lineno, 1, "'unit' takes exactly one label")
            if unit is not None:
                raise ParseError(lineno, 1, "duplicate 'unit' declaration")
            unit, unit_line = tokens[1], lineno
            if index_set is not None and unit not in index_set:
                raise ParseError(lineno, 1, f"unknown unit label {unit!r}")
            labels.add(unit)
            continue
        if not entry:
            raise ParseError(lineno, 1, "expected '<s> <t> = <u>'")
        s, t, u = tokens[0], tokens[1], tokens[3]
        for x in (s, t, u) if index_set is not None else ():
            if x not in index_set:  # validate cannot name its line
                raise ParseError(lineno, 1, f"unknown label {x!r}")
        if (s, t) in op:
            raise ParseError(lineno, 1, f"duplicate entry for ({s!r}, {t!r})")
        op[(s, t)] = u
        labels.update((s, t, u))
    if not header_seen:
        raise ParseError(1, 1, "missing 'odot' header")
    if index_set is None:
        index_set = tuple(sorted(labels))
    table = OdotTable(tuple(index_set), op, unit)
    table.validate()
    for s in table.index_set if unit is not None else ():
        for a, b in ((unit, s), (s, unit)):
            if op[(a, b)] != s:
                raise ParseError(
                    unit_line, 1, f"{unit!r} is not a two-sided unit: "
                    f"{a} {b} = {op[(a, b)]}"
                )
    return table


def _read(path):
    """The text of a file; a path with a NUL byte or a file that is not
    UTF-8 is an OSError, like a missing file.  At most MAX_INPUT_CHARS + 1
    characters are read, so an endless file such as /dev/zero is an
    InputTooLarge, not a process that grows until it is killed."""
    parts, size = [], 0
    try:
        with open(path, encoding="utf-8-sig") as fh:  # drops a BOM
            # read(k) allocates k bytes up front, so k is at most 1 MiB
            while size <= MAX_INPUT_CHARS and (part := fh.read(
                    min(1 << 20, MAX_INPUT_CHARS + 1 - size))):
                parts.append(part)
                size += len(part)
    except ValueError as exc:
        raise OSError(f"cannot read {path!r}: {exc}") from None
    if size > MAX_INPUT_CHARS:
        raise InputTooLarge(path, MAX_INPUT_CHARS)
    return "".join(parts)


def _load(path, auto_core=False):
    doc = parse_system(_read(path))
    if auto_core:
        doc.system = minimal_core(doc.system)
    return doc


def _cmd_validate(args):
    doc = _load(args.file, args.auto_core)
    yield (f"ok: {doc.name} ({doc.system.size} elements, "
           f"{len(doc.system.index_set)} maps)\n")


def _cmd_core(args):
    doc = _load(args.file, args.auto_core)
    yield emit_system(minimal_core(doc.system), name=doc.name + "_core")


def _cmd_product(args):
    a, b = _load(args.a, args.auto_core), _load(args.b, args.auto_core)
    yield emit_system(product(a.system, b.system), name=f"{a.name}_x_{b.name}")


def _cmd_omega(args):
    doc = _load(args.file, args.auto_core)
    yield emit_system(adjoin_omega(doc.system), name=doc.name + "_omega")


def _tsv_table(labels, table):
    """A square table as TSV: the header, then one piece a row."""
    yield "\t" + "\t".join(labels) + "\n"
    for label, row in zip(labels, table):
        yield label + "\t" + "\t".join(_gather(labels, row)) + "\n"


_SCALARS = {str, int, float, bool, type(None)}


def _json(value, pad="\n"):
    """json.dumps(value, indent=2, sort_keys=True) for string-keyed data, a
    key or an item to a piece.  json.dumps takes its C encoder only without
    indent, so the indentation and key order are built here; a list of
    scalars is one piece, by the C encoder with the indent as separator."""
    import json
    inner = pad + "  "
    if not isinstance(value, (dict, list, tuple)) or not value:
        yield json.dumps(value)  # a scalar, {} or []
    elif not isinstance(value, dict) and set(map(type, value)) <= _SCALARS:
        items = json.dumps(value, separators=("," + inner, ""))[1:-1]
        yield "[" + inner + items + pad + "]"
    else:
        keyed = isinstance(value, dict)
        ends = "{}" if keyed else "[]"
        for i, k in enumerate(sorted(value) if keyed else range(len(value))):
            head = json.dumps(k) + ": " if keyed else ""
            yield ("," if i else ends[0]) + inner + head
            yield from _json(value[k], inner)
        yield pad + ends[1]


def _emit(payload, as_json, head="", rows=None, keys=()):
    """A report's pieces, as JSON, or as text: one `key: value` line per
    scalar field that is not None, in insertion order, then one
    `<head> <label>: k=v ...` line per entry of `rows` (label -> row) over
    `keys`, or with no `keys` `<head> <label>: <row>`.  Fields that are
    neither scalars nor rows appear only in JSON."""
    if as_json:
        yield from _json(payload)
        yield "\n"
        return
    for key, value in payload.items():
        if isinstance(value, (bool, int, str)):
            yield f"{key}: {value}\n"
    for label, row in (rows or {}).items():
        fields = " ".join(f"{k}={row[k]}" for k in keys) if keys else row
        yield f"{head} {label}: {fields}\n"
