"""Homomorphism extension, biadditive extension and derived multiplication.

A homomorphism out of a finitely generated table is determined by its values
on the generators; extension proceeds by forced propagation along generator
words, and a run without conflict is the extension.  The biadditive
extension builds one section homomorphism per element and glues them into a
two-argument table; its certificate implies every law of the
multiplications built on it, which are not checked again.
A table `t` passed with a system `sys` must be derive_addition(sys).
"""

from . import laws
from .core import _Value, propagate, require_single_map
from .derive import require_generates, submonoid_closure
from .errors import (
    CompatibilityViolated,
    IndexSetMismatch,
    InternalInvariantViolation,
    OdotNotTotal,
)


class HomTable(_Value):
    __slots__ = ("src", "dst", "map")

    def __init__(self, src, dst, map):
        self.src = src  # MonoidTable
        self.dst = dst  # MonoidTable
        self.map = map  # per-element image index

    def __call__(self, a):
        return self.map[a]


class ExtensionConflict(_Value):
    """Where forced propagation broke down: the element whose image was forced
    two different ways, with both candidate images."""

    __slots__ = ("element", "expected", "got")

    def __init__(self, element, expected, got):
        self.element = element
        self.expected = expected
        self.got = got

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
    """
    gens = tuple(gens)
    targets = tuple(targets)
    require_generates(src, gens)
    prop = propagate(src.zero, dst.zero, [
        (src.op[g].__getitem__, dst.op[b].__getitem__)
        for g, b in zip(gens, targets)
    ])
    if prop.conflict is not None:
        return None, ExtensionConflict(*prop.conflict)
    img = prop.value
    return HomTable(src, dst, tuple(img[a] for a in range(src.size))), None


def hom_extend(src, dst, gens, targets):
    hom, _ = hom_extend_report(src, dst, gens, targets)
    return hom


class BiadditiveTable(_Value):
    __slots__ = ("src", "dst", "op")

    def __init__(self, src, dst, op):
        self.src = src  # MonoidTable
        self.dst = dst  # MonoidTable
        self.op = op  # |src| x |src| table of dst indices

    def __call__(self, a, b):
        return self.op[a][b]


def is_biadditive(M, N, op, gens=None):
    """Every row section and every column section is a homomorphism M -> N.

    With `gens`, which the caller has checked generate M, each section is
    checked on the generators only (see laws.homomorphism)."""
    return laws.biadditive(M.op, N.op, op, M.zero, N.zero, right=gens) is None


def biadditive_extend(M, N, gens, lambdas, lambda_primes):
    """Extend compatible section homomorphisms to the unique biadditive table.

    lambdas[i] prescribes the row section at generator gens[i], lambda_primes
    the column section.  Compatibility lambda_s(a_t) = lambda'_t(a_s) is
    checked up front; a propagation conflict afterwards is impossible on valid
    input and raises InternalInvariantViolation.

    The certificate (M, N monoids, gens generating M): propagation sets the
    section at g_s + a to lambda_s + (section at a), and every row and column
    section sends zero to zero and is additive at each generator, so is a
    homomorphism (laws.homomorphism).  Hence row g_s is lambda_s.  And
    biadditive tables agreeing on generator pairs are equal: homomorphisms
    agreeing on the generators agree on all they generate, so the rows at
    each g_s agree, and then every column does.  Likewise maps additive in
    each of three arguments are fixed by their values on generator triples.
    """
    gens = tuple(gens)
    require_generates(M, gens)
    for i, (g_s, lam_s) in enumerate(zip(gens, lambdas)):
        for j, (g_t, lamp_t) in enumerate(zip(gens, lambda_primes)):
            if lam_s(g_t) != lamp_t(g_s):
                raise CompatibilityViolated(i, j, lam_s(g_t), lamp_t(g_s))

    prop = propagate(M.zero, zero_hom(M, N), [
        (M.op[g].__getitem__, lambda sec, lam=lam: hom_add(lam, sec))
        for g, lam in zip(gens, lambdas)
    ])
    if prop.conflict is not None:
        raise InternalInvariantViolation(
            f"section conflict at element {prop.conflict[0]}"
        )
    sections = prop.value
    op = tuple(sections[a].map for a in range(M.size))
    # gens=gens: they generate M (above), M and N are MonoidTables
    if not is_biadditive(M, N, op, gens=gens):
        raise InternalInvariantViolation("extension is not biadditive")
    return BiadditiveTable(M, N, op)


def derive_multiplication_single(sys, t):
    """Multiplication for a minimal single-map system: the unique biadditive
    table whose row at a0 = f(base) is the identity.

    With t = derive_addition(sys), biadditive_extend's certificate gives
    every law: zero absorption (sections fix zero); distributivity (rows are
    additive); the successor law f(x1) * x2 = x2 + x1 * x2 (f(x1) = a0 + x1,
    column x2 is additive, row a0 is the identity); a0 a unit; and, as
    (a, b) -> b * a and both bracketings of a * b * c are additive in each
    argument and agree at a0, commutativity and associativity.
    """
    require_single_map(sys)
    a0 = sys.maps[0](sys.base)
    return biadditive_extend(
        t, t, (a0,), (identity_hom(t),), (identity_hom(t),)
    )


class OdotTable(_Value):
    """A total binary operation on the index-set labels, with optional unit."""

    __slots__ = ("index_set", "op", "unit")

    def __init__(self, index_set, op, unit=None):
        self.index_set = index_set
        self.op = op  # (s, t) -> label
        self.unit = unit

    def validate(self):
        for s in self.index_set:
            for t in self.index_set:
                if (s, t) not in self.op:
                    raise OdotNotTotal(s, t)
                if self.op[(s, t)] not in self.index_set:
                    raise OdotNotTotal(s, t)
        if self.unit is not None and self.unit not in self.index_set:
            raise OdotNotTotal(self.unit, self.unit)


class IndexedMultiplication(_Value):
    """Result of the index-table-driven extension: either a table, or the
    first label whose required endomorphism does not exist, with a witness."""

    __slots__ = ("table", "failing_label", "conflict")

    def __init__(self, table, failing_label=None, conflict=None):
        self.table = table  # BiadditiveTable, or None
        self.failing_label = failing_label
        self.conflict = conflict  # ExtensionConflict, or None

    @property
    def ok(self):
        return self.table is not None


def derive_multiplication_indexed(sys, t, odot):
    """Multiplication prescribed on generators by an index-set operation.

    For each label s the two required endomorphisms (x_t -> x_{s odot t} and
    x_t -> x_{t odot s}) are searched by homomorphism extension; a missing one
    is reported as a structured absence, never a partial table.

    With t = derive_addition(sys), mu[x_s][x_t] = lambda_s(x_t) = x_{s odot t}
    (biadditive_extend, hom_extend_report), so the laws of odot carry over:
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
    __slots__ = ("ok", "failing_gen", "conflict")

    def __init__(self, ok, failing_gen=None, conflict=None):
        self.ok = ok
        self.failing_gen = failing_gen
        self.conflict = conflict  # ExtensionConflict, or None


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
    __slots__ = ("label_index", "generator", "submonoid", "injective",
                 "zero_in_image")

    def __init__(self, label_index, generator, submonoid, injective,
                 zero_in_image):
        self.label_index = label_index
        self.generator = generator
        self.submonoid = submonoid  # sorted element indices
        self.injective = injective
        self.zero_in_image = zero_in_image

    @property
    def free(self):
        # the submonoid is the orbit of zero under +g, so it is minimal
        return self.injective and not self.zero_in_image


class FreeReport(_Value):
    __slots__ = ("direct_sum", "cyclic")

    def __init__(self, direct_sum, cyclic):
        self.direct_sum = direct_sum  # DirectSumReport
        self.cyclic = cyclic  # CyclicFreeness per generator

    @property
    def free(self):
        return self.direct_sum.ok and all(c.free for c in self.cyclic)


def is_free_report(t, gens):
    """Freeness of the table with respect to its generators, decided on finite
    data: the direct-sum condition plus, per generator, the Peano conditions
    for its cyclic submonoid (which always fail on a finite carrier)."""
    gens = tuple(gens)
    require_generates(t, gens)
    ds = direct_sum_report(t, gens)
    cyclic = []
    for i, g in enumerate(gens):
        sub = sorted(submonoid_closure(t, (g,)))
        pos = {a: k for k, a in enumerate(sub)}
        tau = [pos[t.op[g][a]] for a in sub]
        injective = len(set(tau)) == len(tau)
        zero_in_image = pos[t.zero] in set(tau)
        cyclic.append(
            CyclicFreeness(i, g, tuple(sub), injective, zero_in_image)
        )
    return FreeReport(ds, cyclic)
