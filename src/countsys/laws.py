"""The laws of finite operation tables, in plain Python.

This is the one module that evaluates a table law.  A table is an n x n grid
of element indices (a sequence of rows), a map a length-n sequence of them.
Every predicate returns None when its law holds, and otherwise the first
failing index in row-major order, so that a caller reports the witness a
cell-by-cell loop would find.  Each law compares whole rows or columns,
gathered as tuples by `core._gather` and C-level `map` calls; no temporary
is larger than an n x n transpose.

Every law is exhaustive.  The derive path checks none: its tables' laws
follow from derive.derive_addition's and biadd._rows' proofs.
"""

from itertools import repeat
from operator import contains, itemgetter, or_

from .core import _gather


def _first(x, y):
    """First index where the sequences x and y differ, or None."""
    x, y = tuple(x), tuple(y)
    if x == y:
        return None
    return next(i for i, (p, q) in enumerate(zip(x, y)) if p != q)


def _column(t, j):
    return tuple(map(itemgetter(j), t))


def translation(op, a, f):
    """First x with op[a][x] != f[x]: adding a on the left is the map f."""
    return _first(op[a], f)


def unit(op, e):
    """First x with op[e][x] != x or op[x][e] != x."""
    every = range(len(op))
    bad = [x for x in (_first(op[e], every), _first(_column(op, e), every))
           if x is not None]
    return min(bad, default=None)


def associative(op):
    """First (a, b, c) with op[op[a][b]][c] != op[a][op[b][c]]."""
    for a, row in enumerate(op):
        for b in range(len(op)):
            c = _first(op[row[b]], _gather(row, op[b]))
            if c is not None:
                return a, b, c
    return None


def _additive(src_col, dst_col, h):
    """First (a, b) with h[src[a][b]] != dst[h[a]][h[b]], where src_col(b)
    and dst_col(b) are the columns b of src and dst.  Evaluated a column at
    a time: the row-major first is the first column's failure with the
    least a."""
    best = None
    for b in range(len(h)):
        a = _first(_gather(h, src_col(b)), _gather(dst_col(h[b]), h))
        if a is not None and (best is None or a < best[0]):
            best = a, b
    return best


def homomorphism(src, dst, h):
    """First (a, b) with h[src[a][b]] != dst[h[a]][h[b]]."""
    return _additive(lambda b: _column(src, b), lambda b: _column(dst, b), h)


def homomorphisms(src, dst, maps, zero, dst_zero):
    """First i such that maps[i] is not a homomorphism src -> dst sending
    `zero` to `dst_zero`.  src and dst must be commutative: their rows are
    read as their columns.  `maps` may be an iterator, such as zip(*mu) over
    the columns of mu."""
    src_col, dst_col = src.__getitem__, dst.__getitem__
    return next((i for i, h in enumerate(maps) if h[zero] != dst_zero
                 or _additive(src_col, dst_col, h) is not None), None)


def biadditive(src, dst, mu, zero, dst_zero):
    """First section of mu that is not a homomorphism src -> dst sending
    `zero` to `dst_zero`: (0, a) for the row mu[a], else (1, a) for the
    column mu[.][a]."""
    src_t, dst_t = tuple(zip(*src)), tuple(zip(*dst))
    for side, m in enumerate((mu, zip(*mu))):
        a = homomorphisms(src_t, dst_t, m, zero, dst_zero)
        if a is not None:
            return side, a
    return None


def shift(op, f, g):
    """First (x1, x2) with op[f[x1]][x2] != g[op[x1][x2]].

    With g = f this is the shift axiom of an addition,
    f(x1) + x2 = f(x1 + x2)."""
    for x1, row in enumerate(op):
        x2 = _first(op[f[x1]], _gather(g, row))
        if x2 is not None:
            return x1, x2
    return None


def intertwines(h, f, g):
    """First x with h[f[x]] != g[h[x]]: h carries the map f onto g."""
    return _first(_gather(h, f), _gather(g, h))


def _not_permutation(rows):
    """First row that is not a permutation of the indices."""
    n = len(rows)
    return next((a for a, row in enumerate(rows) if len(set(row)) != n), None)


def group(op):
    """First a whose row is not a permutation.  None means every translation
    is a bijection, which for a finite monoid makes it a group."""
    return _not_permutation(op)


def cancellative(op):
    """First a whose row or column is not a permutation."""
    bad = [a for a in (_not_permutation(op), _not_permutation(tuple(zip(*op))))
           if a is not None]
    return min(bad, default=None)


def trichotomy(op):
    """First (x1, x2) where neither is a sum with the other: x1 is not
    y + x2 and x2 is not y + x1 for any y."""
    sums = [set(col) for col in zip(*op)]  # sums[c]: every y + c
    every = range(len(op))
    for x1, col in enumerate(sums):
        x2 = _first(map(or_, map(contains, sums, repeat(x1)),
                        map(col.__contains__, every)), repeat(True, len(op)))
        if x2 is not None:
            return x1, x2
    return None


def zero_sum_free(op, zero):
    """First (x1, x2) with x1 + x2 = zero but x2 != zero."""
    for x1, row in enumerate(op):
        row = list(row)
        row[zero] = None  # x2 = zero is allowed
        if zero in row:
            return x1, row.index(zero)
    return None
