"""Seeded job lists for the three benchmark workloads.

A workload is a list of blocks of 16 jobs.  Within a block every size stratum
(and, where the labels vary, every label-count stratum) occurs once, in a
fixed order, each with its own job kind.  Every block therefore costs about
the same and has the same mix of job costs, whatever the seed.  The seed
picks the size inside each stratum, the shift constants, the tail and cycle
splits, the odot tables, the component layouts and the element order in the
files.

The generator keeps inside the envelope the seed program finishes in seconds
and within memory; `NOT_COVERED` lists what it leaves out.
"""

import math
import os
import random
from dataclasses import dataclass

from oracles import (
    Cyclic,
    ExponentClosure,
    Monoid,
    add_table,
    analyze_text,
    expect,
    free_report_payload,
    initial_payload,
    json_check,
    mul_table,
    odot_outcome,
    system_check,
)

BLOCK = 16
# Size strata by position in a block, from the middle outwards: a block cut
# off by the end of a run has run jobs of about median cost, and the largest
# job of each block runs last.
SIZE_ORDER = (7, 8, 6, 9, 5, 10, 4, 11, 3, 12, 2, 13, 1, 14, 0, 15)
# Label-count stratum for each size stratum: the smallest carrier gets 16
# labels, the largest a middling count, and in between large carriers get
# few labels and small ones many, so no single job dominates a block.
LABEL_OF_SIZE = (15, 14, 13, 12, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 11)

NOT_COVERED = [
    "add, mul, free-report, initial and analyze on minimal carriers above 256 "
    "elements (the n^3 checks need about 2.2 GB at 512 and 8.6 GB per array "
    "at 1024)",
    "analyze on minimal carriers of 1024..4096 elements (did not finish in "
    "10 minutes at 4096)",
    "closure on closures above about 560 elements or carriers above 32 "
    "elements; the declared limit of 65536 closure elements",
    "closure --full above 200 closure elements",
    "omega on 4096-element carriers (the result exceeds the carrier limit)",
]


@dataclass
class System:
    name: str
    labels: list
    base: int
    maps: list  # [(label, image index list)]

    def text(self):
        lab = self.labels
        lines = [f"system {self.name}", "elements " + " ".join(lab),
                 f"base {lab[self.base]}"]
        for s, table in self.maps:
            lines.append(f"map {s} = " + " ".join(lab[j] for j in table))
        return "\n".join(lines) + "\n"


@dataclass
class Job:
    kind: str  # command and flags, without file arguments
    argv: list
    check: object  # (exit code, stdout, stderr) -> None or reason


# ---------------------------------------------------------------- systems


def shift_labels(k):
    return [f"s{i}" for i in range(k)]


def zn(name, n, gens, prefix="e"):
    """Z_n with x -> x + c for each (label, c); minimal when some c is 1."""
    labels = [f"{prefix}{i}" for i in range(n)]
    maps = [(s, [(i + c) % n for i in range(n)]) for s, c in gens]
    model = Cyclic(labels, Monoid(n), list(range(n)), dict(gens))
    return System(name, labels, 0, maps), model


def rho(name, t, ell, prefix="e"):
    n = t + ell
    labels = [f"{prefix}{i}" for i in range(n)]
    table = [i + 1 if i < n - 1 else t for i in range(n)]
    model = Cyclic(labels, Monoid(n, t), list(range(n)), {"s": 1})
    return System(name, labels, 0, [("s", table)]), model


def coprime_product(name, p, q):
    """cyc(p) x cyc(q) written out; the CRT identifies it with Z_pq."""
    labels = [f"a{i}b{j}" for i in range(p) for j in range(q)]
    table = [((i + 1) % p) * q + (j + 1) % q for i in range(p) for j in range(q)]
    n = p * q
    crt = [next(k for k in range(i, n, p) if k % q == j)
           for i in range(p) for j in range(q)]
    model = Cyclic(labels, Monoid(n), crt, {"s": 1})
    return System(name, labels, 0, [("s", table)]), model


def shift_gens(rng, n, k):
    return [("s0", 1)] + [(s, rng.randrange(n)) for s in shift_labels(k)[1:]]


def union(name, parts, rng):
    """Disjoint union of systems over one index set, elements shuffled; the
    base is the base of the first part."""
    labels, tables = [], {s: [] for s, _ in parts[0].maps}
    for sys_ in parts:
        off = len(labels)
        labels += sys_.labels
        for s, table in sys_.maps:
            tables[s] += [off + j for j in table]
    perm = list(range(len(labels)))
    rng.shuffle(perm)
    pos = {old: new for new, old in enumerate(perm)}
    maps = [(s, [pos[t[old]] for old in perm]) for s, t in tables.items()]
    return System(name, [labels[old] for old in perm], pos[parts[0].base], maps)


def pick_shift_or_small(rng, name, n, k):
    """A minimal system on about n elements with k labels: rho or a cycle
    when k == 1, zpair or a shift system when k == 2, a shift system else."""
    if k == 1:
        if rng.random() < 0.5:
            return zn(name, n, [("s", 1)])
        t = rng.randrange(1, n)
        return rho(name, t, n - t)
    if k == 2 and rng.random() < 0.5:
        return zn(name, n, [("+", 1), ("-", n - 1)])
    return zn(name, n, shift_gens(rng, n, k))


def non_minimal(rng, name, n, k, core_share):
    """A minimal core on about core_share * n elements plus an unreachable
    component; returns the system, the core model and whether every map is
    a bijection."""
    nc = max(3, round(n * core_share))
    nj = n - nc
    core, model = pick_shift_or_small(rng, "c", nc, k)
    if k == 1 and rng.random() < 0.5:
        t = rng.randrange(1, nj)
        junk, _ = rho("j", t, nj - t, "j")
        junk_bijective = False
    else:
        junk, _ = zn("j", nj, [(s, rng.randrange(nj)) for s, _ in core.maps], "j")
        junk_bijective = True
    sys_ = union(name, [core, junk], rng)
    return sys_, model, junk_bijective and model.monoid.tail == 0


# ------------------------------------------------------------------ blocks


class Files:
    """Writes job inputs into one directory."""

    def __init__(self, root):
        self.root = root
        self.count = 0

    def write(self, text, ext="txt"):
        self.count += 1
        path = os.path.join(self.root, f"in{self.count:04d}.{ext}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def log_size(lo, hi, u):
    return round(lo * (hi / lo) ** u)


def quantile(rng, stratum):
    """A point inside the stratum; the top stratum is pinned to the top, so
    the largest job of a block, and with it peak memory, repeats."""
    if stratum == BLOCK - 1:
        return 1.0
    return (stratum + 0.35 + 0.3 * rng.random()) / BLOCK


def build(workload, seed, blocks, root):
    rng = random.Random(f"{workload}:{seed}")
    kinds = KINDS[workload]
    files = Files(root)
    jobs = []
    for _ in range(blocks):
        for p in range(BLOCK):
            u = quantile(rng, SIZE_ORDER[p])
            v = quantile(rng, LABEL_OF_SIZE[SIZE_ORDER[p]])
            make = kinds[SIZE_ORDER[p]]
            jobs.append(make(rng, files, u, v, f"w{len(jobs)}"))
    return jobs


# ------------------------------------------------------------ derive-mixed


def _minimal(rng, name, n, v, family):
    if family == "cyc":
        return zn(name, n, [("s", 1)])
    if family == "rho":
        t = rng.randrange(1, n - 1)
        return rho(name, t, n - t)
    if family == "zpair":
        return zn(name, n, [("+", 1), ("-", n - 1)])
    if family == "product":
        p = rng.choice([2, 3, 4, 5, 7])
        q = max(2, round(n / p))
        while math.gcd(p, q) != 1:
            q += 1
        return coprime_product(name, p, q)
    k = max(2, round(16 ** v))
    return zn(name, n, shift_gens(rng, n, k))


def _derive_size(u):
    return log_size(16, 256, u)


def _dm(command, family, json=False):
    def make(rng, files, u, v, name):
        sys_, model = _minimal(rng, name, _derive_size(u), v, family)
        path = files.write(sys_.text())
        if command == "add":
            check = expect(0, check=add_table(model))
        elif command == "mul":
            check = expect(0, check=mul_table(model))
        elif command == "free-report":
            check = expect(0, check=json_check(free_report_payload(model)))
        elif command == "initial":
            check = expect(0, check=json_check(initial_payload(model)))
        else:
            flags = [(s, model.monoid.tail == 0) for s, _ in sys_.maps]
            out = analyze_text(name, True, len(sys_.labels), flags)
            check = expect(0, stdout=out)
        argv = [command, path] + (["--json"] if json else [])
        return Job(" ".join([command] + argv[2:]), argv, check)

    return make


def _unit_orbit(rng, n):
    """A unit g of Z_n with multiplicative order d in 2..16, or n - 1."""
    for _ in range(40):
        g = rng.randrange(2, n)
        if math.gcd(g, n) != 1:
            continue
        powers = [1]
        while len(powers) <= 16:
            nxt = powers[-1] * g % n
            if nxt == 1:
                break
            powers.append(nxt)
        if 2 <= len(powers) <= 16 and powers[-1] * g % n == 1:
            return powers
    return [1, n - 1]


def _mul_odot(corrupt):
    """mul --odot on a system whose generators form a cyclic subgroup of the
    units (plus zero, sometimes), with the odot table of that subgroup; a
    corrupted entry usually removes a required endomorphism (exit 1)."""

    def make(rng, files, u, v, name):
        n = _derive_size(u)
        powers = _unit_orbit(rng, n)
        d = len(powers)
        labels = shift_labels(d)
        op = {(labels[i], labels[j]): labels[(i + j) % d]
              for i in range(d) for j in range(d)}
        gens = list(zip(labels, powers))
        if d < 16 and rng.random() < 0.5:
            z = f"s{d}"
            gens.append((z, 0))
            for s in labels + [z]:
                op[(s, z)] = op[(z, s)] = z
        sys_, model = zn(name, n, gens)
        index = [s for s, _ in gens]
        if corrupt:
            key = (rng.choice(index), rng.choice(index))
            op[key] = rng.choice([s for s in index if s != op[key]])
        lines = ["odot"] + [f"{s} {t} = {op[(s, t)]}" for s in index for t in index]
        if not corrupt:
            lines.append("unit s0")
        odot_path = files.write("\n".join(lines) + "\n", "odot")
        status, arg = odot_outcome(model, op)
        if status == "ok":
            check = expect(0, check=mul_table(model, arg))
        else:
            check = expect(1, stderr_prefix="no multiplication: required "
                           f"endomorphism missing at label {arg!r}")
        path = files.write(sys_.text())
        return Job("mul --odot", ["mul", path, "--odot", odot_path], check)

    return make


def _auto_core_add(rng, files, u, v, name):
    n = _derive_size(u)
    k = max(1, round(16 ** v))
    sys_, model, _ = non_minimal(rng, name, n, k, rng.uniform(0.1, 0.3))
    path = files.write(sys_.text())
    return Job("--auto-core add", ["--auto-core", "add", path],
               expect(0, check=add_table(model)))


# ------------------------------------------------------------ closure-wide


def _rho_parts(rng, target, max_n):
    """Tail-and-cycle components whose single map generates about `target`
    maps: m = max tail + lcm(cycle lengths), on about max_n / 2 elements
    (closure cost grows with m^2 n, so both are held near their targets)."""
    best = None
    for _ in range(300):
        parts = [(rng.choice((0, 0, 1, 2, 3)), rng.randrange(2, 14))
                 for _ in range(rng.randrange(2, 6))]
        n = sum(t + ell for t, ell in parts)
        if n > max_n:
            continue
        m = max(t for t, _ in parts) + math.lcm(*(ell for _, ell in parts))
        score = abs(math.log(m / target)) + 0.5 * abs(math.log(n / (0.5 * max_n)))
        if best is None or score < best[0]:
            best = (score, parts, m)
    _, parts, m = best
    return parts, Monoid(m, max(t for t, _ in parts))


def _rho_union(parts, labels, active, prefix):
    """Components under the map at index `active`; every other map is the
    identity on them."""
    out = []
    for c, (t, ell) in enumerate(parts):
        sys_, _ = rho("p", t, ell, f"{prefix}{c}_")
        table = sys_.maps[0][1]
        ident = list(range(t + ell))
        sys_.maps = [(lab, table if i == active else ident)
                     for i, lab in enumerate(labels)]
        out.append(sys_)
    return out


def _closure_system(rng, name, target, two):
    if not two:
        parts, mon = _rho_parts(rng, target, 32)
        comps = _rho_union(parts, ["s"], 0, "c")
        closure = ExponentClosure(["s"], [mon])
    else:
        share = rng.uniform(0.35, 0.65)
        pf, mf = _rho_parts(rng, target ** share, 16)
        pg, mg = _rho_parts(rng, target / mf.size, 16)
        comps = _rho_union(pf, ["f", "g"], 0, "a") + _rho_union(pg, ["f", "g"], 1, "b")
        closure = ExponentClosure(["f", "g"], [mf, mg])
    sys_ = union(name, comps, rng)
    reach = set(comps[0].labels)
    unreachable = [i for i, lab in enumerate(sys_.labels) if lab not in reach]
    return sys_, closure, unreachable


def _cw(command, two, full=False):
    def make(rng, files, u, v, name):
        target = log_size(40, 200, u) if full else log_size(80, 560, u)
        sys_, closure, unreachable = _closure_system(rng, name, target, two)
        path = files.write(sys_.text())
        if command == "add":
            check = expect(2, stdout="", stderr_prefix=(
                "error: system is not minimal; unreachable elements: "
                + ", ".join(map(str, unreachable)) + "\n"))
            return Job("add", ["add", path], check)
        if full:
            argv = ["closure", path, "--full", "--json"]
            check = expect(0, check=json_check(lambda: closure.payload(True)))
        elif command == "closure --json":
            argv = ["closure", path, "--json"]
            check = expect(0, check=json_check(lambda: closure.payload(False)))
        else:
            argv = ["closure", path]
            check = expect(0, stdout=closure.text())
        return Job(" ".join([argv[0]] + argv[2:]), argv, check)

    return make


# -------------------------------------------------------- structural-large


def _large(u):
    return log_size(1024, 4096, u)


def _labels(v):
    return max(1, round(16 ** v))


def _sl_validate(minimal):
    def make(rng, files, u, v, name):
        n, k = _large(u), _labels(v)
        if minimal:
            sys_, _ = pick_shift_or_small(rng, name, n, k)
        else:
            sys_, _, _ = non_minimal(rng, name, n, k, rng.uniform(0.3, 0.9))
        path = files.write(sys_.text())
        out = f"ok: {name} ({len(sys_.labels)} elements, {len(sys_.maps)} maps)\n"
        return Job("validate", ["validate", path], expect(0, stdout=out))

    return make


def _sl_core(rng, files, u, v, name):
    n, k = _large(u), _labels(v)
    sys_, model, _ = non_minimal(rng, name, n, k, rng.uniform(0.3, 0.9))
    path = files.write(sys_.text())
    keep = set(model.labels)
    idx = {lab: i for i, lab in enumerate(sys_.labels)}
    sub = [lab for lab in sys_.labels if lab in keep]
    pos = {lab: i for i, lab in enumerate(sub)}
    maps = [(s, [pos[sys_.labels[t[idx[lab]]]] for lab in sub])
            for s, t in sys_.maps]
    check = system_check(name + "_core", sub, pos[sys_.labels[sys_.base]], maps)
    return Job("core", ["core", path], expect(0, check=check))


def _sl_omega(minimal):
    def make(rng, files, u, v, name):
        n = min(_large(u), 4095)
        if minimal:
            sys_, _ = pick_shift_or_small(rng, name, n, 1)
        else:
            sys_, _, _ = non_minimal(rng, name, n, 1, rng.uniform(0.3, 0.9))
        path = files.write(sys_.text())
        labels = sys_.labels + ["omega"]
        table = sys_.maps[0][1] + [sys_.base]
        check = system_check(name + "_omega", labels, n,
                             [(sys_.maps[0][0], table)])
        return Job("omega", ["omega", path], expect(0, check=check))

    return make


def _sl_product(nb):
    """A x B with |B| = nb; nb = 1 makes A a factor of up to 4096 elements."""

    def make(rng, files, u, v, name):
        total, k = _large(u), _labels(v)
        na = total // nb
        kb = 2 if nb > 2 and k <= 8 and rng.random() < 0.5 else 1
        a, _ = pick_shift_or_small(rng, "A", na, max(1, min(k, 16 // kb)))
        if nb == 1:
            b = System("B", ["p0"], 0, [("t", [0])])
        else:
            b, _ = zn("B", nb, [("t", 1), ("u", nb - 1)][:kb], "q")
        pa, pb = files.write(a.text()), files.write(b.text())
        labels = [f"({x},{y})" for x in a.labels for y in b.labels]
        maps = [
            (f"({s},{t})",
             [fs[i] * nb + gt[j] for i in range(na) for j in range(nb)])
            for s, fs in a.maps for t, gt in b.maps
        ]
        check = system_check("A_x_B", labels, a.base * nb + b.base, maps)
        return Job("product", ["product", pa, pb], expect(0, check=check))

    return make


def _sl_morphism(family, divides):
    def make(rng, files, u, v, name):
        a = _large(u)
        fam = family or rng.choice(["cyc", "zpair"])
        d = rng.choice([2, 3, 4])
        if divides:
            a -= a % 12
            b = a // d
        else:
            b = a // d + 1
            while a % b == 0:
                b += 1
        gens = {"cyc": lambda n: [("s", 1)],
                "zpair": lambda n: [("+", 1), ("-", n - 1)]}[fam]
        src, _ = zn("src", a, gens(a))
        dst, _ = zn("dst", b, gens(b), "f")
        ps, pd = files.write(src.text()), files.write(dst.text())
        if a % b == 0:
            out = "".join(f"e{i}\tf{i % b}\n" for i in range(a))
            check = expect(0, stdout=out)
        else:
            check = expect(1, stdout="", stderr_prefix=(
                "no morphism: image propagation conflicts\n"))
        return Job("morphism", ["morphism", ps, pd], check)

    return make


def _sl_free_eval(minimal):
    def make(rng, files, u, v, name):
        n, k = _large(u), _labels(v)
        if minimal:
            sys_, model = pick_shift_or_small(rng, name, n, k)
        else:
            sys_, model, _ = non_minimal(rng, name, n, k, rng.uniform(0.3, 0.9))
        path = files.write(sys_.text())
        picked = rng.sample(list(model.gens), rng.randrange(1, len(model.gens) + 1))
        counts = {s: rng.randrange(1, 1000) for s in picked}
        total = model.monoid.reduce(
            sum(c * model.gens[s] for s, c in counts.items()))
        multiset = ",".join(f"{s}:{c}" for s, c in counts.items())
        out = model.label_of[total] + "\n"
        return Job("free-eval", ["free-eval", path, f"--multiset={multiset}"],
                   expect(0, stdout=out))

    return make


def _sl_analyze(rng, files, u, v, name):
    n, k = _large(u), _labels(v)
    sys_, model, bijective = non_minimal(rng, name, n, k, rng.uniform(0.3, 0.9))
    path = files.write(sys_.text())
    out = analyze_text(name, False, len(model.labels),
                       [(s, bijective) for s, _ in sys_.maps])
    return Job("analyze", ["analyze", path], expect(0, stdout=out))


# One job kind per size stratum, smallest first.  The assignment is the same
# in every block, so every block has the same mix of job costs.
KINDS = {
    "derive-mixed": [
        _auto_core_add, _mul_odot(True), _dm("add", "rho"), _mul_odot(True),
        _dm("add", "product"), _dm("mul", "rho"),
        _dm("free-report", "zpair", json=True), _dm("add", "zpair"),
        _dm("mul", "cyc"), _dm("add", "shift"), _mul_odot(False),
        _dm("initial", "shift", json=True), _dm("analyze", "rho"),
        _dm("free-report", "shift", json=True), _dm("mul", "product"),
        _dm("add", "cyc"),
    ],
    "closure-wide": [
        _cw("closure", False, full=True), _cw("add", True), _cw("closure", True),
        _cw("closure --json", True), _cw("closure", True, full=True),
        _cw("add", False), _cw("closure", False), _cw("closure --json", False),
        _cw("closure", False, full=True), _cw("add", True),
        _cw("closure --json", True), _cw("closure", False), _cw("add", False),
        _cw("closure --json", False), _cw("closure", True),
        _cw("closure", False),
    ],
    "structural-large": [
        _sl_validate(True), _sl_analyze, _sl_free_eval(True), _sl_core,
        _sl_product(4), _sl_morphism("cyc", True), _sl_analyze,
        _sl_omega(True), _sl_free_eval(False), _sl_morphism("zpair", True),
        _sl_core, _sl_validate(False), _sl_omega(False), _sl_analyze,
        _sl_morphism(None, False), _sl_product(1),
    ],
}

WORKLOADS = list(KINDS)
