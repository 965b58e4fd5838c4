"""Reference answers for every benchmark job, computed without countsys.

Each oracle is a closed form or a brute force over a small search space:

- a minimal system generated from its base derives either Z_N (cycles, zpair,
  shift systems x -> x + c mod N, and coprime cycle products through the
  Chinese remainder theorem) or the tail-and-cycle monoid N / (t ~ t + ell);
- homomorphisms Z_N -> Z_N are exactly x -> a*x, so every question about
  endomorphisms (odot tables, projections, morphisms to padded systems) is a
  brute force over a in 0..N-1;
- a single map with tails and cycles generates f^0 .. f^(m-1) with
  m = max tail + lcm(cycle lengths); two maps acting on disjoint components
  generate the product of their cyclic monoids;
- a morphism cyc(a) -> cyc(b) (or zpair) exists iff b divides a.

A checker takes the job's (exit code, stdout, stderr) and returns None when the
output matches, or a short reason.
"""

import json
import math


class Monoid:
    """Z_N (tail 0) or the tail-and-cycle monoid on 0..size-1."""

    def __init__(self, size, tail=0):
        self.size = size
        self.tail = tail
        self.period = size - tail

    def reduce(self, k):
        if k < self.tail:
            return k
        return (k - self.tail) % self.period + self.tail


class Cyclic:
    """A minimal system whose derived monoid is known in closed form.

    `value[i]` is the monoid value of carrier element i (file order) and
    `gens[label]` the value of f_label(base).  The base has value 0.
    """

    def __init__(self, labels, monoid, value, gens):
        self.labels = labels
        self.monoid = monoid
        self.value = value
        self.gens = gens
        self.label_of = {v: labels[i] for i, v in enumerate(value)}
        self.index_of = {v: i for i, v in enumerate(value)}
        self.value_of = {lab: value[i] for i, lab in enumerate(labels)}

    def add(self, a, b):
        return self.monoid.reduce(a + b)


def endo_exists(n, sources, targets):
    """Some x -> a*x on Z_n sends each source to its target."""
    return any(
        all(a * c % n == b for c, b in zip(sources, targets)) for a in range(n)
    )


def projection_exists(model, label):
    """The endomorphism keeping gens[label] and sending every other
    generator to zero.  The tail-and-cycle monoids here have one generator,
    whose projection is the identity."""
    if model.monoid.tail:
        return True
    n = model.monoid.size
    c = model.gens
    return endo_exists(
        n, list(c.values()),
        [c[label] if lab == label else 0 for lab in c],
    )


def odot_outcome(model, odot):
    """('ok', m) when every section endomorphism exists, with the table
    x * y = m x y; otherwise ('missing', first failing label)."""
    n = model.monoid.size
    c = model.gens
    labels = list(c)
    for s in labels:
        row = [c[odot[(s, t)]] for t in labels]
        col = [c[odot[(t, s)]] for t in labels]
        src = [c[t] for t in labels]
        if not (endo_exists(n, src, row) and endo_exists(n, src, col)):
            return "missing", s
    one = next(lab for lab in labels if c[lab] == 1)
    return "ok", c[odot[(one, one)]]


# ---------------------------------------------------------------- parsing


def _parse_tsv(stdout):
    lines = stdout.splitlines()
    if not lines:
        return None, None
    header = lines[0].split("\t")
    if header[0] != "":
        return None, None
    rows = [line.split("\t") for line in lines[1:]]
    return header[1:], rows


def parse_system_text(text):
    """(name, labels, base, {map label: {element: image}}) of an emitted
    system document, or None when it is malformed."""
    name = labels = base = None
    maps = {}
    for line in text.splitlines():
        tok = line.split()
        if not tok:
            continue
        if tok[0] == "system" and len(tok) == 2:
            name = tok[1]
        elif tok[0] == "elements":
            labels = tok[1:]
        elif tok[0] == "base" and len(tok) == 2:
            base = tok[1]
        elif tok[0] == "map" and len(tok) >= 3 and tok[2] == "=":
            if labels is None or len(tok) - 3 != len(labels):
                return None
            maps[tok[1]] = dict(zip(labels, tok[3:]))
        else:
            return None
    if None in (name, labels, base):
        return None
    return name, labels, base, maps


# --------------------------------------------------------------- checkers


def expect(code, *, stdout=None, stderr_prefix=None, check=None):
    """Build a checker: exit code, no traceback, then the output test."""

    def run(rc, out, err):
        if "Traceback" in err:
            return "traceback"
        if rc != code:
            return f"exit {rc}, expected {code}: {err.strip()[:200]}"
        if stdout is not None and out != stdout:
            return "stdout differs"
        if stderr_prefix is not None and not err.startswith(stderr_prefix):
            return f"stderr {err[:120]!r}"
        if check is not None:
            return check(out)
        return None

    return run


def table_check(labels, cell):
    """The TSV table has exactly `labels` on both axes (any order) and
    cell(row label, column label) in every cell."""
    want = set(labels)

    def check(out):
        header, rows = _parse_tsv(out)
        if header is None or set(header) != want or len(header) != len(want):
            return "table header differs"
        if len(rows) != len(header):
            return "table row count differs"
        for row in rows:
            if len(row) != len(header) + 1 or row[0] not in want:
                return "table row malformed"
            a = row[0]
            for b, got in zip(header, row[1:]):
                if got != cell(a, b):
                    return f"cell ({a}, {b}) = {got}, expected {cell(a, b)}"
        return None

    return check


def add_table(model):
    m = model
    return table_check(
        m.labels,
        lambda a, b: m.label_of[m.add(m.value_of[a], m.value_of[b])],
    )


def mul_table(model, factor=1):
    m = model
    return table_check(
        m.labels,
        lambda a, b: m.label_of[
            m.monoid.reduce(factor * m.value_of[a] * m.value_of[b])
        ],
    )


def json_check(payload):
    """payload: the expected object, or a function that builds a large one
    only when the output is checked."""

    def check(out):
        try:
            got = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        want = payload() if callable(payload) else payload
        return None if got == want else "JSON payload differs"

    return check


def system_check(name, labels, base, maps):
    """The emitted document is this system up to the order of elements."""

    def check(out):
        want_maps = {
            lab: {labels[i]: labels[j] for i, j in enumerate(table)}
            for lab, table in maps
        }
        doc = parse_system_text(out)
        if doc is None:
            return "system document malformed"
        got_name, got_labels, got_base, got_maps = doc
        if got_name != name:
            return f"name {got_name!r}, expected {name!r}"
        if sorted(got_labels) != sorted(labels):
            return "element labels differ"
        if got_base != labels[base]:
            return "base differs"
        if list(got_maps) != [lab for lab, _ in maps] or got_maps != want_maps:
            return "maps differ"
        return None

    return check


def free_report_payload(model):
    n = model.monoid.size
    rho = model.monoid.tail > 0
    cyclic = []
    for lab, c in model.gens.items():
        cyclic.append({
            "label": lab,
            "generator": model.index_of[c],
            "submonoid_size": n if rho else n // math.gcd(c, n),
            "free": False,
            "injective": not rho,
            "zero_in_image": not rho,
        })
    direct = all(projection_exists(model, lab) for lab in model.gens)
    return {"free": False, "direct_sum": direct, "cyclic": cyclic}


def initial_payload(model):
    n = model.monoid.size
    rho = model.monoid.tail > 0
    conditions = []
    for lab, c in model.gens.items():
        conditions.append({
            "label": lab,
            "morphism_to_padded": projection_exists(model, lab),
            "core_size": n if rho else n // math.gcd(c, n),
            "core_injective": not rho,
            "base_in_core_image": not rho,
            "core_dedekind": False,
        })
    return {"initial": False, "conditions": conditions}


def analyze_text(name, minimal, core_size, flags):
    """flags: [(label, bijective)]; on a finite carrier injective, surjective
    and bijective coincide for a self-map."""
    lines = [f"name: {name}", f"minimal: {minimal}", f"core_size: {core_size}"]
    if len(flags) == 1:
        lines.append("dedekind: False")
    lines.append("initial: False")
    for lab, ok in flags:
        lines.append(
            f"map {lab}: injective={ok} surjective={ok} bijective={ok}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- closure


class ExponentClosure:
    """Closure of maps acting on disjoint components: element (i, j, ...) is
    f^i g^j ...; each map's powers collapse at its own tail and period."""

    def __init__(self, labels, monoids):
        self.labels = labels
        self.monoids = monoids

    @property
    def size(self):
        return math.prod(m.size for m in self.monoids)

    def order(self):
        """Breadth-first discovery order from the identity, generators in
        label order: by total degree, then the first exponent descending."""
        sizes = [m.size for m in self.monoids]
        if len(sizes) == 1:
            return [(i,) for i in range(sizes[0])]
        a, b = sizes
        out = []
        for d in range(a + b - 1):
            for i in range(min(d, a - 1), max(0, d - b + 1) - 1, -1):
                out.append((i, d - i))
        return out

    def words(self, order):
        return [
            [lab for lab, e in zip(self.labels, exps) for _ in range(e)]
            for exps in order
        ]

    def comp(self, order):
        index = {e: k for k, e in enumerate(order)}
        return [
            [
                index[tuple(m.reduce(x + y) for m, x, y in zip(self.monoids, u, v))]
                for v in order
            ]
            for u in order
        ]

    def text(self):
        lines = [f"size: {self.size}"]
        lines += [f"generator {lab}: {k + 1}" for k, lab in enumerate(self.labels)]
        return "\n".join(lines) + "\n"

    def payload(self, full):
        order = self.order()
        out = {
            "size": self.size,
            "generators": {lab: k + 1 for k, lab in enumerate(self.labels)},
            "words": self.words(order),
        }
        if full:
            out["comp"] = self.comp(order)
        return out
