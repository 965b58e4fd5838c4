"""Line-oriented input format for counting systems and index-set operations.

A system document:

    system <name>
    elements <l1> <l2> ... <ln>
    base <label>
    map <s> = <img1> ... <imgn>     # one line per index label

`#` starts a comment; blank lines are ignored.  An odot document starts with
an `odot` header, then `<s> <t> = <u>` lines covering the whole square, plus
an optional `unit <s>` line naming a two-sided unit of the table.
"""

from .core import Carrier, EndoMap, _Value, new_system
from .errors import DuplicateLabel, ParseError


class SystemDocument(_Value):
    __slots__ = ("name", "system")

    def __init__(self, name, system):
        self.name = name
        self.system = system


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
            table = tuple(index[img] for img in images)
        except KeyError as exc:
            raise ParseError(
                lineno, 1, f"image {exc.args[0]!r} is not a declared element"
            ) from None
        index_set.append(s)
        maps.append(EndoMap(table))
    sys = new_system(carrier, index[base_label], tuple(index_set), tuple(maps))
    return SystemDocument(name, sys)


def emit_system(doc_or_sys, name=None):
    if isinstance(doc_or_sys, SystemDocument):
        sys = doc_or_sys.system
        name = name or doc_or_sys.name
    else:
        sys = doc_or_sys
        name = name or "system"
    labels = sys.carrier.labels
    lines = [f"system {name}", "elements " + " ".join(labels),
             f"base {labels[sys.base]}"]
    for s, f in zip(sys.index_set, sys.maps):
        imgs = " ".join(labels[f(i)] for i in range(sys.size))
        lines.append(f"map {s} = {imgs}")
    return "\n".join(lines) + "\n"


def parse_odot(text, index_set=None):
    from .biadd import OdotTable
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
        if tokens[0] == "unit":
            if len(tokens) != 2:
                raise ParseError(lineno, 1, "'unit' takes exactly one label")
            if unit is not None:
                raise ParseError(lineno, 1, "duplicate 'unit' declaration")
            unit, unit_line = tokens[1], lineno
            labels.add(unit)
            continue
        if len(tokens) != 4 or tokens[2] != "=":
            raise ParseError(lineno, 1, "expected '<s> <t> = <u>'")
        s, t, u = tokens[0], tokens[1], tokens[3]
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
