"""Homomorphism extension, biadditive extension and derived multiplication.

A homomorphism out of a finitely generated table is fixed by its values on
the generators: extension walks it along one generation search, then
checks each generator edge (_extend).  A multiplication walks each row, a
homomorphism, along the tree of its sections, checking none again (_rows);
biadditive_extend checks given sections first.  The proofs give every law
of the tables, and none is checked.  A table `t` passed with a system
`sys` must be derive_addition(sys), whose row x_s = f_s(base) is f_s by its
key lemma: adding x_s is applying f_s.  So require_minimal(sys) is
require_generates' search of t at the x_s, and sections, projections and
orbits are read off the system (_extend).  `dsl` defines the odot record.
`mul` raises a missing section as a NegativeVerdict, which exits 1.
"""

from . import laws
from .core import (
    _Value, _intertwined, _orbit, _walk, require_minimal, require_single_map,
)
from .derive import derive_addition, require_generates
from .dsl import OdotTable, _emit, _load, _read, _tsv_table, parse_odot
from .errors import (
    CompatibilityViolated,
    CountingSystemError,
    IndexSetMismatch,
    InternalInvariantViolation,
    NegativeVerdict,
    TargetCountMismatch,
)


class HomTable(_Value):
    """MonoidTable src -> dst; `map` holds the per-element image index."""

    __slots__ = ("src", "dst", "map")

    def __call__(self, a):
        return self.map[a]


class ExtensionConflict(_Value):
    """Where a homomorphism extension breaks down: the element whose image
    is forced two different ways, with the walked image and the other."""

    __slots__ = ("element", "expected", "got")

    def describe(self):
        return (
            f"element {self.element} forced to both "
            f"{self.expected} and {self.got}"
        )


def is_hom(src, dst, mapping):
    if mapping[src.zero] != dst.zero:
        return False
    return laws.homomorphism(src.op, dst.op, mapping) is None


def make_hom(src, dst, mapping):
    mapping = tuple(mapping)
    if not is_hom(src, dst, mapping):
        raise InternalInvariantViolation("map is not a homomorphism")
    return HomTable(src, dst, mapping)


def identity_hom(t):
    return HomTable(t, t, tuple(range(t.size)))


def _extend(tree, zero, tables):
    """The extension along `tree`, require_generates' search, of values b_s
    at the generators, given by their rows `tables` in a table with unit
    `zero`, as hom_extend_report proves it: the walk as a list and None, or
    None and the ExtensionConflict at the first edge x -> g_s + x the walk
    breaks, x in tree order, s in order.  On require_minimal(sys), x_k's row
    in t = derive_addition(sys) is tree.steps[k] and zero's is range(n): the
    search, walk and witness are those on t's own (module docstring)."""
    h = _walk(tree, zero, tables)
    if _intertwined(h, tree, tables):
        return h, None
    y, x, table = next((s[x], x, t) for x in tree.order for s, t
                       in zip(tree.steps, tables) if h[s[x]] != t[h[x]])
    return None, ExtensionConflict(y, h[y], table[h[x]])


def hom_extend_report(src, dst, gens, targets):
    """Try to extend generator assignments g_s -> b_s to a homomorphism.

    Returns (hom, conflict): the unique extension when it exists, otherwise
    None and the first element forced to two images.  Gens must generate
    src (GensDoNotGenerate), one target each (TargetCountMismatch).

    For commutative src and dst (derive_addition's tables) the extensions
    are the maps h with h(zero) = zero and h(g_s + x) = b_s + h(x) for all
    x and s: so h(g_s) = b_s, and h(x + g_s) = h(x) + h(g_s) at gens, which
    generate.  So the extension is core._walk along require_generates'
    tree, checked at each generator (_extend).
    """
    gens, targets = tuple(gens), tuple(targets)
    if len(gens) != len(targets):
        raise TargetCountMismatch(len(gens), len(targets))
    h, conflict = _extend(require_generates(src, gens), dst.zero,
                          [dst.op[b] for b in targets])
    return (None if h is None else HomTable(src, dst, tuple(h))), conflict


def hom_extend(src, dst, gens, targets):
    return hom_extend_report(src, dst, gens, targets)[0]


class BiadditiveTable(_Value):
    """MonoidTables src x src -> dst; `op` is the |src| x |src| table of dst
    indices."""

    __slots__ = ("src", "dst", "op")

    def __call__(self, a, b):
        return self.op[a][b]


def is_biadditive(M, N, op):
    """Every row section and every column section is a homomorphism M -> N."""
    return laws.biadditive(M.op, N.op, op, M.zero, N.zero) is None


def _rows(tree, M, N, column_sections):
    """The biadditive table M x M -> N with column section lambda'_k (a
    list) at g_k, each row walked along `tree`, require_generates' search of
    M at the gens: row a (0) = 0, row a (g_k + p) = lambda'_k(a) + row a (p).
    Premise (M, N commutative, gens generating M): the lambda'_t, and row
    sections lambda_s with lambda_s(g_t) = lambda'_t(g_s), which are not
    read, are homomorphisms.  Proof: let S have row zero zero and row
    c = lambda_k + row p on each edge c = g_k + p; then
    - row a of S, a sum of lambdas along its tree path, is a homomorphism;
    - row a of S (g_t) = lambda'_t(a), by induction along the tree from
      row zero (g_t) = zero = lambda'_t(zero): row a (g_t) is
      lambda_k(g_t) + row p (g_t) = lambda'_t(g_k) + lambda'_t(p);
    - so row (a + b) and row a + row b are homomorphisms agreeing on the
      generators, which generate M: they are equal.  Every column is
      additive and row zero is zero, so S is biadditive;
    - row g_s (g_t) = lambda'_t(g_s) = lambda_s(g_t), so row g_s = lambda_s;
    - the walk gives S, as a homomorphism h is fixed by its values on gens:
      h(g_k + p) = h(g_k) + h(p), and row a of S has h(g_k) = lambda'_k(a).
    Biadditive tables agreeing on generator pairs are equal: the rows at
    each g_s agree, and then every column does.  Likewise maps additive in
    each of three arguments are fixed by their values on generator triples.
    Callers here meet the premise unchecked: the indexed sections have
    lambda_s(x_t) = x_{s odot t} = lambda'_t(x_s), and each passed
    _extend's _intertwined on `tree` with the tables of its values b_k,
    biadditive_extend's check (h(zero) = zero starts the walk, and
    h(g_k) = b_k is h(g_k + x) = b_k + h(x) at x = zero).
    """
    rows = []
    for a in range(M.size):
        u = [N.op[lamp[a]] for lamp in column_sections]
        rows.append(tuple(_walk(tree, N.zero, u)))
    return BiadditiveTable(M, N, tuple(rows))


def biadditive_extend(M, N, gens, lambdas, lambda_primes):
    """Extend compatible section homomorphisms to the unique biadditive table.

    lambdas[i] prescribes the row section at generator gens[i], lambda_primes
    the column section.  Compatibility lambda_s(g_t) = lambda'_t(g_s) is
    checked, and so is each section h, on require_generates' tree:
    h(zero) = zero and h(g + a) = h(g) + h(a) for every generator g and
    every a, which _intertwined compares a generator's edges at a time.
    That makes h a homomorphism: the b with h(a + b) = h(a) + h(b) for
    every a hold zero, every generator (M is commutative) and, with b and
    c, b + c, as h(a + b + c) = h(a + b) + h(c) = h(a) + h(b) + h(c) =
    h(a) + h(b + c); so they hold the submonoid gens generate, all of M.
    A section that is not one raises InternalInvariantViolation, naming
    the first failing row section, or else column section.  Then _rows
    walks the table on the same tree, unchecked, as the multiplications do.
    """
    gens = tuple(gens)
    tree = require_generates(M, gens)
    for i, (g_s, lam_s) in enumerate(zip(gens, lambdas)):
        for j, (g_t, lamp_t) in enumerate(zip(gens, lambda_primes)):
            if lam_s(g_t) != lamp_t(g_s):
                raise CompatibilityViolated(i, j, lam_s(g_t), lamp_t(g_s))
    for side, sections in (("row", lambdas), ("column", lambda_primes)):
        for i, h in enumerate(lam.map for lam in sections):
            u = [N.op[h[g]] for g in gens]
            if h[M.zero] != N.zero or not _intertwined(h, tree, u):
                raise InternalInvariantViolation(
                    f"{side} section {i} is no homomorphism")
    return _rows(tree, M, N, [lamp.map for lamp in lambda_primes])


class IndexedMultiplication(_Value):
    """Result of the index-table-driven extension: either a table, or the
    first label whose required endomorphism does not exist, with a witness.
    `table` is a BiadditiveTable, or None; `conflict` an ExtensionConflict,
    or None."""

    __slots__ = ("table", "failing_label", "conflict")
    _defaults = {"failing_label": None, "conflict": None}

    @property
    def ok(self):
        return self.table is not None


def derive_multiplication_indexed(sys, t, odot):
    """Multiplication prescribed on generators by an index-set operation.

    For each label s the two required endomorphisms (x_t -> x_{s odot t} and
    x_t -> x_{t odot s}) are extended (_extend) along require_minimal(sys),
    before t is read; a missing one is reported as a structured absence,
    never a partial table.  t None is derive_addition(sys) on that search.

    With t = derive_addition(sys), the sections are homomorphisms
    (hom_extend_report's proof), so mu, walked by _rows on the same tree,
    is biadditive with row x_s = lambda_s by _rows' proof, and
    lambda_s(x_t) = x_{s odot t}; none of the laws of mu is checked, and
    those of odot carry over:
    if it is commutative, mu and (a, b) -> mu[b][a] agree on generator
    pairs; if associative, both bracketings agree on generator triples; a
    left unit u makes lambda_u, so row x_u, the identity.
    """
    odot.validate()
    if tuple(odot.index_set) != tuple(sys.index_set):
        raise IndexSetMismatch(odot.index_set, sys.index_set)
    labels = sys.index_set
    tree = require_minimal(sys)
    row = dict(zip(labels, tree.steps))  # adding x_s is applying f_s
    columns = []  # lambda'_s; each lambda_s need only exist (_rows)
    for s in labels:
        for pairs in (((s, u) for u in labels), ((u, s) for u in labels)):
            h, conflict = _extend(tree, sys.base,
                                  [row[odot.op[p]] for p in pairs])
            if h is None:
                return IndexedMultiplication(None, s, conflict)
        columns.append(h)  # h is lambda'_s
    if t is None:
        t = derive_addition(sys, tree)
    return IndexedMultiplication(_rows(tree, t, t, columns))


def _single_odot(sys):
    """The odot s odot s = s of a single-map system.  Its one section is
    the identity, which always extends, and s is its unit."""
    require_single_map(sys)
    (s,) = sys.index_set
    return OdotTable((s,), {(s, s): s}, s)


def derive_multiplication_single(sys, t):
    """Multiplication for a minimal single-map system: the unique biadditive
    table whose row at a0 = f(base) is the identity, which is
    derive_multiplication_indexed's for _single_odot.  Its laws are that
    odot's; the successor law f(x1) * x2 = x2 + x1 * x2 holds as
    f(x1) = a0 + x1 and column x2 is additive."""
    return derive_multiplication_indexed(sys, t, _single_odot(sys)).table


def _projections(tree):
    """One idempotent-on-its-generator, zero-elsewhere endomorphism per
    generator of the search `tree`, each extended (_extend) along it, as
    lists; or None, the first generator without one, and the conflict."""
    zero, n, k = tree.order[0], len(tree.order), len(tree.steps)
    out = []
    for i, step in enumerate(tree.steps):  # range(n) is zero's row
        h, conflict = _extend(tree, zero, [step if j == i else range(n)
                                           for j in range(k)])
        if h is None:
            return None, i, conflict
        out.append(h)
    return out, None, None


def projections(t, gens):
    """_projections along require_generates(t, gens), as HomTables."""
    deltas, failing, conflict = _projections(require_generates(t, gens))
    if deltas is not None:
        deltas = [HomTable(t, t, tuple(h)) for h in deltas]
    return deltas, failing, conflict


class DirectSumReport(_Value):
    """`conflict` is an ExtensionConflict, or None."""

    __slots__ = ("ok", "failing_gen", "conflict")
    _defaults = {"failing_gen": None, "conflict": None}


def direct_sum_report(t, gens):
    """Decide whether the table splits as the internal direct sum of the
    cyclic submonoids of its generators: it does iff the projections exist.

    The projections decide it alone.  Once they exist, so does the diagonal
    table (a, b) -> sum n_i delta_i(b) for a = sum n_i g_i: if
    sum n_i g_i = sum m_i g_i, applying delta_j to both sides gives
    n_j g_j = m_j g_j, so the two section sums agree on every generator and
    are equal.  Its value at (g_s, g_t) is delta_s(g_t), and its glueing
    homomorphism a_s -> a_s is the identity.
    """
    return _direct_sum(require_generates(t, gens))


def _direct_sum(tree):
    deltas, failing, conflict = _projections(tree)
    return DirectSumReport(deltas is not None, failing, conflict)


def direct_sum_check(t, gens):
    return direct_sum_report(t, gens).ok


class CyclicFreeness(_Value):
    """`submonoid` holds sorted element indices."""

    __slots__ = ("label_index", "generator", "submonoid", "injective",
                 "zero_in_image")

    @property
    def free(self):
        # the submonoid is the orbit of zero under +g, so it is minimal; both
        # flags are "its tail is 0" (_free_report), so this is never true
        return self.injective and not self.zero_in_image


class FreeReport(_Value):
    """A DirectSumReport and a CyclicFreeness per generator."""

    __slots__ = ("direct_sum", "cyclic")

    @property
    def free(self):
        return self.direct_sum.ok and all(c.free for c in self.cyclic)


def _free_report(tree):
    """Freeness of the table `tree` searched, with respect to its generators,
    decided on finite data: the direct-sum condition plus, per generator
    g, the Peano conditions for its cyclic submonoid (which always fail on
    a finite carrier), the orbit of zero under +g, whose row is a step of
    `tree`: +g is injective on it iff zero is in its image iff its tail is
    0 (_orbit).  On require_minimal(sys), the table is never built."""
    zero, cyclic = tree.order[0], []
    for i, step in enumerate(tree.steps):
        points, tail = _orbit(step, zero)
        cyclic.append(CyclicFreeness(i, step[zero], tuple(sorted(points)),
                                     tail == 0, tail == 0))
    return FreeReport(_direct_sum(tree), cyclic)


def is_free_report(t, gens):
    return _free_report(require_generates(t, gens))


def _cmd_mul(args):
    sys_ = _load(args.file, args.auto_core).system
    if args.odot:  # read, so valid, on the system's labels before a search
        odot = parse_odot(_read(args.odot), index_set=sys_.index_set)
    elif len(sys_.index_set) != 1:
        require_minimal(sys_)  # a system that is not is reported first
        raise CountingSystemError("multi-map system needs --odot")
    else:
        odot = _single_odot(sys_)
    res = derive_multiplication_indexed(sys_, None, odot)
    if not res.ok:
        raise NegativeVerdict(
            "no multiplication: required endomorphism missing at label "
            f"{res.failing_label!r} ({res.conflict.describe()})")
    yield from _tsv_table(sys_.carrier.labels, res.table.op)


def _cmd_free_report(args):
    sys_ = _load(args.file, args.auto_core).system
    rep = _free_report(require_minimal(sys_))
    cyclic = [{"label": sys_.index_set[c.label_index],
               "generator": c.generator, "submonoid_size": len(c.submonoid),
               "free": c.free, "injective": c.injective,
               "zero_in_image": c.zero_in_image} for c in rep.cyclic]
    payload = {"free": rep.free, "direct_sum": rep.direct_sum.ok,
               "cyclic": cyclic}
    yield from _emit(payload, args.json, "label",
                     {c["label"]: c for c in cyclic},
                     ("free", "submonoid_size", "injective", "zero_in_image"))
