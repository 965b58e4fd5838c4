"""Homomorphism extension, biadditive extension and derived multiplication.

A homomorphism out of a finitely generated table is determined by its values
on the generators; extension proceeds by forced propagation along generator
words, and a run without conflict is the extension.  The biadditive
extension builds its rows along the generation tree and certifies them at
the generators; that certificate implies every law of the multiplications
built on it, which are not checked again.
A table `t` passed with a system `sys` must be derive_addition(sys).
"""

from . import laws
from .core import _Value, _gather, propagate, require_single_map
from .derive import derive_addition, require_generates, submonoid_closure
from .dsl import (
    EXIT_ERROR, EXIT_NEGATIVE, EXIT_OK, _emit, _load, _read, _tsv_table,
    parse_odot,
)
from .errors import (
    CompatibilityViolated,
    IndexSetMismatch,
    InternalInvariantViolation,
    OdotNotTotal,
    TargetCountMismatch,
)


class HomTable(_Value):
    """MonoidTable src -> dst; `map` holds the per-element image index."""

    __slots__ = ("src", "dst", "map")

    def __call__(self, a):
        return self.map[a]


class ExtensionConflict(_Value):
    """Where forced propagation broke down: the element whose image was forced
    two different ways, with both candidate images."""

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


def zero_hom(src, dst):
    return HomTable(src, dst, (dst.zero,) * src.size)


def hom_add(a, b):
    """Pointwise sum of two homomorphisms into the same commutative table."""
    dst = a.dst
    return HomTable(
        a.src, dst, tuple(dst.op[x][y] for x, y in zip(a.map, b.map))
    )


def hom_extend_report(src, dst, gens, targets):
    """Try to extend generator assignments g_s -> b_s to a homomorphism.

    Returns (hom, conflict): the unique extension when it exists, otherwise
    None together with the element where propagation forced two images.
    A conflict-free propagation is the extension, for commutative src and
    dst (derive_addition's tables): it sets h(zero) = zero and reaches and
    expands every x (gens generate src), forcing h(g_s + x) = b_s + h(x).
    So h(g_s) = b_s + zero = b_s, and h(x + g_s) = h(x) + h(g_s) by
    commutativity, which is the homomorphism law at right = gens.

    The same pass is the generation check.  Without a conflict it expands
    every element it reaches along every g_s, so it reaches exactly the
    elements that gens generate from zero, as require_generates does: all
    n iff gens generate src.  A run that falls short, or that stops on a
    conflict and so decides nothing, runs require_generates, which raises
    GensDoNotGenerate with the same missing elements whether or not the
    assignment conflicts.  Unequal numbers of gens and targets are a
    TargetCountMismatch.
    """
    gens = tuple(gens)
    targets = tuple(targets)
    if len(gens) != len(targets):
        raise TargetCountMismatch(len(gens), len(targets))
    prop = propagate(src.zero, dst.zero, [
        (src.op[g].__getitem__, dst.op[b].__getitem__)
        for g, b in zip(gens, targets)
    ])
    if prop.conflict is not None or len(prop.order) != src.size:
        require_generates(src, gens)
    if prop.conflict is not None:
        return None, ExtensionConflict(*prop.conflict)
    return HomTable(src, dst, _gather(prop.value, range(src.size))), None


def hom_extend(src, dst, gens, targets):
    hom, _ = hom_extend_report(src, dst, gens, targets)
    return hom


class BiadditiveTable(_Value):
    """MonoidTables src x src -> dst; `op` is the |src| x |src| table of dst
    indices."""

    __slots__ = ("src", "dst", "op")

    def __call__(self, a, b):
        return self.op[a][b]


def is_biadditive(M, N, op):
    """Every row section and every column section is a homomorphism M -> N."""
    return laws.biadditive(M.op, N.op, op, M.zero, N.zero) is None


def biadditive_extend(M, N, gens, lambdas, lambda_primes):
    """Extend compatible section homomorphisms to the unique biadditive table.

    lambdas[i] prescribes the row section at generator gens[i], lambda_primes
    the column section.  Compatibility lambda_s(a_t) = lambda'_t(a_s) is
    checked up front; a failed certificate afterwards is impossible on valid
    input and raises InternalInvariantViolation.

    Row zero is zero and row a is lambda_k + row p along the edge
    a = g_k + p of require_generates' tree.  Certificate (M, N commutative
    monoids, gens generating M): each lambda_s is a homomorphism, row g_s
    is lambda_s, and each column sends zero to zero and is additive at the
    g_s, so is a homomorphism (laws.homomorphism).  Then row a + b is the
    sum of rows a and b, off the tree too, so each row is a sum of rows
    g_s: a homomorphism, as sums of homomorphisms into a commutative table
    are.  So the table is biadditive, and column g_t is lambda'_t on the
    generators.  Biadditive tables agreeing on generator pairs are equal:
    homomorphisms agreeing on the generators agree on all they generate, so
    the rows at each g_s agree, and then every column does.  Likewise maps
    additive in each of three arguments are fixed by their values on
    generator triples.
    """
    gens = tuple(gens)
    tree = require_generates(M, gens)
    for i, (g_s, lam_s) in enumerate(zip(gens, lambdas)):
        for j, (g_t, lamp_t) in enumerate(zip(gens, lambda_primes)):
            if lam_s(g_t) != lamp_t(g_s):
                raise CompatibilityViolated(i, j, lam_s(g_t), lamp_t(g_s))
    maps = [lam.map for lam in lambdas]
    if laws.homomorphisms(M.op, N.op, maps, M.zero, N.zero, gens) is not None:
        raise InternalInvariantViolation("a row section is no homomorphism")

    rows = [zero_hom(M, N)] * M.size
    for a in tree.order[1:]:
        p, k = tree.parent[a]
        rows[a] = hom_add(lambdas[k], rows[p])
    op = tuple(r.map for r in rows)
    if [op[g] for g in gens] != maps or laws.homomorphisms(
        M.op, N.op, zip(*op), M.zero, N.zero, gens
    ) is not None:
        raise InternalInvariantViolation("extension is not biadditive")
    return BiadditiveTable(M, N, op)


def derive_multiplication_single(sys, t):
    """Multiplication for a minimal single-map system: the unique biadditive
    table whose row at a0 = f(base) is the identity.

    With t = derive_addition(sys), biadditive_extend certifies that the
    table is biadditive with row a0 the identity, which gives every law:
    zero absorption (sections fix zero); distributivity (rows are
    additive); the successor law f(x1) * x2 = x2 + x1 * x2 (f(x1) = a0 + x1,
    column x2 is additive, row a0 is the identity); a0 a unit; and, as
    (a, b) -> b * a and both bracketings of a * b * c are additive in each
    argument and agree at a0, commutativity and associativity.
    """
    require_single_map(sys)
    a0, ident = sys.maps[0](sys.base), identity_hom(t)
    return biadditive_extend(t, t, (a0,), (ident,), (ident,))


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
    x_t -> x_{t odot s}) are searched by homomorphism extension; a missing one
    is reported as a structured absence, never a partial table.

    With t = derive_addition(sys), mu is biadditive with row x_s = lambda_s
    (biadditive_extend's certificate), and lambda_s(x_t) = x_{s odot t}
    (hom_extend_report), so the laws of odot carry over:
    if it is commutative, mu and (a, b) -> mu[b][a] agree on generator
    pairs; if associative, both bracketings agree on generator triples; a
    left unit u makes lambda_u, so row x_u, the identity.
    """
    odot.validate()
    if tuple(odot.index_set) != tuple(sys.index_set):
        raise IndexSetMismatch(odot.index_set, sys.index_set)
    labels = sys.index_set
    x = {s: sys.map_for(s)(sys.base) for s in labels}
    gens = tuple(x[s] for s in labels)
    lambdas = []
    lambda_primes = []
    for s in labels:
        lam, conflict = hom_extend_report(
            t, t, gens, tuple(x[odot.op[(s, u)]] for u in labels)
        )
        if lam is None:
            return IndexedMultiplication(None, s, conflict)
        lamp, conflict = hom_extend_report(
            t, t, gens, tuple(x[odot.op[(u, s)]] for u in labels)
        )
        if lamp is None:
            return IndexedMultiplication(None, s, conflict)
        lambdas.append(lam)
        lambda_primes.append(lamp)
    return IndexedMultiplication(
        biadditive_extend(t, t, gens, lambdas, lambda_primes)
    )


def projections(t, gens):
    """One idempotent-on-its-generator, zero-elsewhere endomorphism per
    generator, when they all exist."""
    gens = tuple(gens)
    require_generates(t, gens)
    out = []
    for i, g in enumerate(gens):
        targets = tuple(g if j == i else t.zero for j in range(len(gens)))
        hom, conflict = hom_extend_report(t, t, gens, targets)
        if hom is None:
            return None, i, conflict
        out.append(hom)
    return out, None, None


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
    deltas, failing, conflict = projections(t, gens)
    return DirectSumReport(deltas is not None, failing, conflict)


def direct_sum_check(t, gens):
    return direct_sum_report(t, gens).ok


class CyclicFreeness(_Value):
    """`submonoid` holds sorted element indices."""

    __slots__ = ("label_index", "generator", "submonoid", "injective",
                 "zero_in_image")

    @property
    def free(self):
        # the submonoid is the orbit of zero under +g, so it is minimal
        return self.injective and not self.zero_in_image


class FreeReport(_Value):
    """A DirectSumReport and a CyclicFreeness per generator."""

    __slots__ = ("direct_sum", "cyclic")

    @property
    def free(self):
        return self.direct_sum.ok and all(c.free for c in self.cyclic)


def is_free_report(t, gens):
    """Freeness of the table with respect to its generators, decided on finite
    data: the direct-sum condition plus, per generator, the Peano conditions
    for its cyclic submonoid (which always fail on a finite carrier)."""
    gens = tuple(gens)
    ds = direct_sum_report(t, gens)  # raises unless gens generate t
    cyclic = []
    for i, g in enumerate(gens):
        sub = sorted(submonoid_closure(t, (g,)))
        pos = {a: k for k, a in enumerate(sub)}
        tau = _gather(pos, _gather(t.op[g], sub))
        injective = len(set(tau)) == len(tau)
        zero_in_image = pos[t.zero] in set(tau)
        cyclic.append(
            CyclicFreeness(i, g, tuple(sub), injective, zero_in_image)
        )
    return FreeReport(ds, cyclic)


def _cmd_mul(args, out, err):
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


def _cmd_free_report(args, out, err):
    doc = _load(args.file, args.auto_core)
    sys_ = doc.system
    t = derive_addition(sys_)
    gens = tuple(f(sys_.base) for f in sys_.maps)
    rep = is_free_report(t, gens)
    cyclic = [{"label": sys_.index_set[c.label_index],
               "generator": c.generator, "submonoid_size": len(c.submonoid),
               "free": c.free, "injective": c.injective,
               "zero_in_image": c.zero_in_image} for c in rep.cyclic]
    payload = {"free": rep.free, "direct_sum": rep.direct_sum.ok,
               "cyclic": cyclic}
    _emit(payload, args.json, out, "label", {c["label"]: c for c in cyclic},
          ("free", "submonoid_size", "injective", "zero_in_image"))
    return EXIT_OK
