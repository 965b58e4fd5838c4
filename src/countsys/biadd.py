"""Homomorphism extension, biadditive extension and derived multiplication.

A homomorphism out of a finitely generated table is determined by its values
on the generators; extension proceeds by forced propagation along generator
words, with conflict detection, followed by a full verification pass.  The
biadditive extension builds one section homomorphism per element and glues
them into a two-argument table.
"""

from dataclasses import dataclass

from . import laws
from .core import propagate, require_single_map
from .derive import MonoidTable, require_generates, submonoid_closure
from .errors import (
    CompatibilityViolated,
    IndexSetMismatch,
    InternalInvariantViolation,
    OdotNotTotal,
)


@dataclass
class HomTable:
    src: MonoidTable
    dst: MonoidTable
    map: tuple  # per-element image index

    def __call__(self, a):
        return self.map[a]


@dataclass
class ExtensionConflict:
    """Where forced propagation broke down: the element whose image was forced
    two different ways, with both candidate images."""

    element: int
    expected: int
    got: int

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
    """Try to extend generator assignments a_s -> b_s to a homomorphism.

    Returns (hom, conflict): the unique extension when it exists, otherwise
    None together with a conflict witness where propagation or the final
    verification failed.
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
    mapping = tuple(img[a] for a in range(src.size))
    # propagation sent zero to zero, so only additivity can fail
    # right=gens: gens generate src (above), src and dst are MonoidTables
    w = laws.homomorphism(src.op, dst.op, mapping, right=gens)
    if w is not None:
        a, b = w
        ab = src.op[a][b]
        return None, ExtensionConflict(
            ab, mapping[ab], dst.op[mapping[a]][mapping[b]]
        )
    for g, b in zip(gens, targets):
        if mapping[g] != b:
            return None, ExtensionConflict(g, b, mapping[g])
    return HomTable(src, dst, mapping), None


def hom_extend(src, dst, gens, targets):
    hom, _ = hom_extend_report(src, dst, gens, targets)
    return hom


@dataclass
class BiadditiveTable:
    src: MonoidTable
    dst: MonoidTable
    op: tuple  # |src| x |src| table of dst indices

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
    for g_s, lam_s in zip(gens, lambdas):
        for g_t in gens:
            if op[g_s][g_t] != lam_s(g_t):
                raise InternalInvariantViolation(
                    "extension disagrees with sections on generators"
                )
    return BiadditiveTable(M, N, op)


def _verify_mult_laws(sys, t, mult):
    """Check the multiplication laws; the caller has checked with
    require_generates that the generators x_s generate t."""
    n = sys.size
    mu = mult.op
    x0 = sys.base
    gens = tuple(f(x0) for f in sys.maps)
    if laws.translation(mu, x0, (x0,) * n) is not None:
        raise InternalInvariantViolation("zero absorption fails")
    for f in sys.maps:
        w = laws.shift(mu, f.table, t.op)
        if w is not None:
            raise InternalInvariantViolation(
                f"successor law fails at ({w[0]}, {w[1]})"
            )
    if laws.commutative(mu) is not None:
        raise InternalInvariantViolation("multiplication not commutative")
    # distributivity: x1*(x2+x3) = (x1*x2) + (x1*x3)
    # right=gens: gens generate t; absorption, commutativity fix zero per row
    if laws.sections(t.op, t.op, mu, right=gens) is not None:
        raise InternalInvariantViolation("distributivity fails")
    # generator triples: distributivity and commutativity make it tri-additive
    if laws.associative(mu, gens, gens, gens) is not None:
        raise InternalInvariantViolation("multiplication not associative")
    one = sys.maps[0](sys.base) if len(sys.maps) == 1 else None
    if one is not None and laws.translation(mu, one, range(n)) is not None:
        raise InternalInvariantViolation("successor of zero is not a unit")


def derive_multiplication_single(sys, t):
    """Multiplication for a minimal single-map system: the unique biadditive
    table fixing the successor of the base, verified against all six laws."""
    require_single_map(sys)
    a0 = sys.maps[0](sys.base)
    mult = biadditive_extend(t, t, (a0,), (identity_hom(t),), (identity_hom(t),))
    _verify_mult_laws(sys, t, mult)
    return mult


@dataclass
class OdotTable:
    """A total binary operation on the index-set labels, with optional unit."""

    index_set: tuple
    op: dict  # (s, t) -> label
    unit: str | None = None

    def validate(self):
        for s in self.index_set:
            for t in self.index_set:
                if (s, t) not in self.op:
                    raise OdotNotTotal(s, t)
                if self.op[(s, t)] not in self.index_set:
                    raise OdotNotTotal(s, t)
        if self.unit is not None and self.unit not in self.index_set:
            raise OdotNotTotal(self.unit, self.unit)

    def _grid(self):
        """The operation as a table of index-set positions."""
        pos = {s: i for i, s in enumerate(self.index_set)}
        return [[pos[self.op[(s, t)]] for t in self.index_set]
                for s in self.index_set]

    def is_associative(self):
        return laws.associative(self._grid()) is None

    def is_commutative(self):
        return laws.commutative(self._grid()) is None

    def left_unit(self):
        grid = self._grid()
        for i, u in enumerate(self.index_set):
            if laws.translation(grid, i, range(len(grid))) is None:
                return u
        return None


@dataclass
class IndexedMultiplication:
    """Result of the index-table-driven extension: either a table, or the
    first label whose required endomorphism does not exist, with a witness."""

    table: BiadditiveTable | None
    failing_label: str | None = None
    conflict: ExtensionConflict | None = None

    @property
    def ok(self):
        return self.table is not None


def derive_multiplication_indexed(sys, t, odot):
    """Multiplication prescribed on generators by an index-set operation.

    For each label s the two required endomorphisms (x_t -> x_{s odot t} and
    x_t -> x_{t odot s}) are searched by homomorphism extension; a missing one
    is reported as a structured absence, never a partial table.
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
    mult = biadditive_extend(t, t, gens, lambdas, lambda_primes)
    mu = mult.op
    if odot.is_associative():
        # generator triples: biadditive_extend checked biadditivity above
        if laws.associative(mu, gens, gens, gens) is not None:
            raise InternalInvariantViolation(
                "index operation associative but product table is not"
            )
    if odot.is_commutative():
        if laws.commutative(mu) is not None:
            raise InternalInvariantViolation(
                "index operation commutative but product table is not"
            )
    u = odot.left_unit()
    if u is not None and laws.translation(mu, x[u], range(t.size)) is not None:
        raise InternalInvariantViolation(
            "index operation has a unit but the product table does not"
        )
    return IndexedMultiplication(mult)


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


@dataclass
class DirectSumReport:
    ok: bool
    failing_gen: int | None = None
    conflict: ExtensionConflict | None = None


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


@dataclass
class CyclicFreeness:
    label_index: int
    generator: int
    submonoid: tuple  # sorted element indices
    injective: bool
    zero_in_image: bool

    @property
    def free(self):
        # the submonoid is the orbit of zero under +g, so it is minimal
        return self.injective and not self.zero_in_image


@dataclass
class FreeReport:
    direct_sum: DirectSumReport
    cyclic: list  # CyclicFreeness per generator

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
