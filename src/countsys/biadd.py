"""Homomorphism extension, biadditive extension and derived multiplication.

A homomorphism out of a finitely generated table is fixed by its values on
the generators: core's kernel `_extend` walks it along one generation
search and checks each generator edge.  A multiplication walks each row, a
homomorphism, along the tree of its sections, checking none again (_rows);
biadditive_extend accepts a given section iff the kernel returns it.  The
proofs give every law of the tables, and none is checked.  A table `t`
passed with a system `sys` must be derive_addition(sys), whose row
x_s = f_s(base) is f_s by its key lemma: adding x_s is applying f_s.  So
require_minimal(sys) is require_generates' search of t at the x_s, and
sections, projections and orbits (core._label_pass) are read off the
system.  `dsl` defines the odot record.  `mul` raises a missing section as
an ExtensionVerdict with its conflict, which exits 1.
"""

from . import laws
from .core import (
    _Value, _extend, _label_pass, _walk, require_minimal, require_single_map,
)
from .derive import derive_addition, require_generates
from .dsl import OdotTable, _emit, _load, _read, _tsv_table, parse_odot
from .errors import (
    CompatibilityViolated,
    CountingSystemError,
    ExtensionVerdict,
    IndexSetMismatch,
    InternalInvariantViolation,
    TargetCountMismatch,
)


class HomTable(_Value):
    """MonoidTable src -> dst; `map` holds the per-element image index."""

    __slots__ = ("src", "dst", "map")

    def __call__(self, a):
        return self.map[a]


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


def hom_extend_report(src, dst, gens, targets):
    """Try to extend generator assignments g_s -> b_s to a homomorphism.

    Returns (hom, conflict): the unique extension when it exists, otherwise
    None and the first element forced to two images.  Gens must generate
    src (GensDoNotGenerate), one target each (TargetCountMismatch).

    For commutative src and dst (derive_addition's tables) the extensions
    are the maps h with h(zero) = zero and h(g_s + x) = b_s + h(x) for all
    x and s: so h(g_s) = b_s, and h(x + g_s) = h(x) + h(g_s) at gens, which
    generate.  So the extension is core._extend from zero along
    require_generates' tree, with the rows of the b_s.
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
    lambda_s(x_t) = x_{s odot t} = lambda'_t(x_s), and each is one that
    core._extend returned on `tree`, biadditive_extend's check.
    """
    rows = []
    for a in range(M.size):
        u = [N.op[lamp[a]] for lamp in column_sections]
        rows.append(tuple(_walk(tree, N.zero, u)))
    return BiadditiveTable(M, N, tuple(rows))


def biadditive_extend(M, N, gens, lambdas, lambda_primes):
    """Extend compatible section homomorphisms to the unique biadditive table.

    lambdas[i] prescribes the row section at generator gens[i], lambda_primes
    the column section, one per generator each (TargetCountMismatch, before
    any other check).  Compatibility lambda_s(g_t) = lambda'_t(g_s) is
    checked, then a section h passes iff core._extend, from zero along
    require_generates' tree with the rows of the h(g), returns h.  Proof:
    it does iff h(zero) = zero and h(g + a) = h(g) + h(a) for all gens g
    and all a, which a homomorphism has, and which give h(a + b) =
    h(a) + h(b) by induction on b along the gens (M is commutative).
    A section that is not one raises InternalInvariantViolation, naming
    the first failing row section, or else column section.  Then _rows
    walks the table on the same tree, unchecked, as the multiplications do.
    """
    gens = tuple(gens)
    for sections in (lambdas, lambda_primes):
        if len(sections) != len(gens):
            raise TargetCountMismatch(len(gens), len(sections))
    tree = require_generates(M, gens)
    for i, (g_s, lam_s) in enumerate(zip(gens, lambdas)):
        for j, (g_t, lamp_t) in enumerate(zip(gens, lambda_primes)):
            if lam_s(g_t) != lamp_t(g_s):
                raise CompatibilityViolated(i, j, lam_s(g_t), lamp_t(g_s))
    for side, sections in (("row", lambdas), ("column", lambda_primes)):
        for i, h in enumerate(lam.map for lam in sections):
            u = [N.op[h[g]] for g in gens]
            if _extend(tree, N.zero, u)[0] != list(h):
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
    x_t -> x_{t odot s}) are extended (core._extend) along
    require_minimal(sys), before t is read; a missing one is reported as a
    structured absence, never a partial table.  t None is
    derive_addition(sys) on that search.

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


def projections(t, gens):
    """Each generator's idempotent-on-it, zero-elsewhere endomorphism, the
    padded walks of core._label_pass(require_generates(t, gens)), as
    HomTables; or None, the first generator without one, and its conflict."""
    passes = _label_pass(require_generates(t, gens))
    ds = _direct_sum(passes)
    deltas = [HomTable(t, t, tuple(h)) for h, *_ in passes] if ds.ok else None
    return deltas, ds.failing_gen, ds.conflict


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
    return _direct_sum(_label_pass(require_generates(t, gens)))


def _direct_sum(passes):
    """The first projection of core._label_pass's that fails, if any."""
    for i, (h, conflict, _points, _tail) in enumerate(passes):
        if h is None:
            return DirectSumReport(False, i, conflict)
    return DirectSumReport(True)


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
    decided on finite data by one core._label_pass: the direct-sum
    condition plus, per generator g, the Peano conditions for its cyclic
    submonoid (which always fail on a finite carrier), the orbit of zero
    under +g, whose row is a step of `tree`: +g is injective on it iff zero
    is in its image iff its tail is 0.  No table is built."""
    zero, passes = tree.order[0], _label_pass(tree)
    cyclic = [CyclicFreeness(i, step[zero], tuple(sorted(points)),
                             tail == 0, tail == 0)
              for i, (step, (_h, _conflict, points, tail))
              in enumerate(zip(tree.steps, passes))]
    return FreeReport(_direct_sum(passes), cyclic)


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
        raise ExtensionVerdict(
            "no multiplication: required endomorphism missing at label "
            f"{res.failing_label!r} ({res.conflict.describe()})", res.conflict)
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
