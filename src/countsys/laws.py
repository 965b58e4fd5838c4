"""The laws of finite operation tables, checked exhaustively.

This is the one module that evaluates a table law.  A table is an n x n grid
of element indices (tuple-of-tuples or array), a map a length-n sequence of
them.  Every predicate returns None when its law holds, and otherwise the
first failing index in row-major order, so that a caller reports the witness
a cell-by-cell loop would find.  Laws over triples are evaluated one row at a
time: no temporary has more than n^2 entries.

Commutativity and the map law `intertwines` are plain Python: system
validation and the closure check use no other law, and comparing tuples
costs less than converting them.  numpy is loaded on the first use of any
other law, so commands that evaluate none (validate, closure, product,
morphism, ...) start without it.
"""

import importlib.util
import sys


def _lazy(name):
    """The module `name`, executed on its first attribute access."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")


def table(x):
    """x as an intp array; no copy when it already is one."""
    return np.asarray(x, dtype=np.intp)


def _first(bad):
    """Index of the first True in `bad`: an int for a vector, else a tuple."""
    if not bad.any():
        return None
    i = int(bad.argmax())
    if bad.ndim == 1:
        return i
    return tuple(int(k) for k in np.unravel_index(i, bad.shape))


def _by_row(rows, law):
    """First (a, *w) where law(rows[a]) returns the witness w."""
    for a, row in enumerate(rows):
        w = law(row)
        if w is not None:
            return (a, *w)
    return None


def translation(op, a, f):
    """First x with op[a, x] != f[x]: adding a on the left is the map f."""
    return _first(table(op)[a] != table(f))


def unit(op, e):
    """First x with op[e, x] != x or op[x, e] != x."""
    op = table(op)
    ident = np.arange(len(op))
    return _first((op[e] != ident) | (op[:, e] != ident))


def associative(op):
    """First (a, b, c) with op[op[a, b], c] != op[a, op[b, c]]."""
    op = table(op)
    return _by_row(op, lambda row: _first(op[row] != row[op]))


def commutative(op):
    """First (a, b) with op[a, b] != op[b, a]; then a < b."""
    for a, (row, col) in enumerate(zip(op, zip(*op))):
        row = tuple(row)
        if row != col:
            return a, next(b for b, (x, y) in enumerate(zip(row, col)) if x != y)
    return None


def homomorphism(src, dst, h):
    """First (a, b) with h[src[a, b]] != dst[h[a], h[b]]."""
    dst, h = table(dst), table(h)
    return _first(h[table(src)] != dst[h[:, None], h[None, :]])


def sections(src, dst, mu):
    """First (a, b, c) where the row section mu[a] is not additive:
    mu[a, src[b, c]] != dst[mu[a, b], mu[a, c]].  For a multiplication mu
    over the addition src = dst, this is distributivity."""
    src, dst = table(src), table(dst)
    return _by_row(table(mu), lambda row: homomorphism(src, dst, row))


def biadditive(src, dst, mu, zero, dst_zero):
    """First section of mu that is not a homomorphism src -> dst sending
    `zero` to `dst_zero`: (0, a) for the row mu[a, :], else (1, a) for the
    column mu[:, a]."""
    src, dst, mu = table(src), table(dst), table(mu)
    for side, m in enumerate((mu, mu.T)):
        for a, row in enumerate(m):
            w = homomorphism(src, dst, row)
            if row[zero] != dst_zero or w is not None:
                return (side, a)
    return None


def shift(op, f, g):
    """First (x1, x2) with op[f[x1], x2] != g[x2][op[x1, x2]].

    `g` is a map applied in every column, or a table whose row x2 is applied
    in column x2.  With g = f this is the shift axiom of an addition,
    f(x1) + x2 = f(x1 + x2); with op a multiplication and g the addition it is
    the successor law, f(x1) * x2 = x2 + x1 * x2."""
    op = table(op)
    g = np.broadcast_to(table(g), op.shape)
    return _first(op[table(f)] != g[np.arange(len(op))[None, :], op])


def intertwines(h, f, g):
    """First x with h[f[x]] != g[h[x]]: h carries the map f onto g."""
    hf, gh = list(map(h.__getitem__, f)), list(map(g.__getitem__, h))
    if hf == gh:
        return None
    return next(x for x, (a, b) in enumerate(zip(hf, gh)) if a != b)


def difference(x, y):
    """First index where two tables of the same shape differ."""
    return _first(table(x) != table(y))


def _not_permutation(op):
    return (np.sort(op, axis=1) != np.arange(len(op))).any(axis=1)


def group(op):
    """First a whose row is not a permutation.  None means every translation
    is a bijection, which for a finite monoid makes it a group."""
    return _first(_not_permutation(table(op)))


def cancellative(op):
    """First a whose row or column is not a permutation."""
    op = table(op)
    return _first(_not_permutation(op) | _not_permutation(op.T))


def trichotomy(op):
    """First (x1, x2) where neither is a sum with the other: x1 is not
    y + x2 and x2 is not y + x1 for any y."""
    op = table(op)
    in_column = np.zeros(op.shape, dtype=bool)  # [v, c]: v = y + c for some y
    in_column[op, np.arange(len(op))[None, :]] = True
    return _first(~(in_column | in_column.T))


def zero_sum_free(op, zero):
    """First (x1, x2) with x1 + x2 = zero but x2 != zero."""
    op = table(op)
    return _first((op == zero) & (np.arange(len(op)) != zero)[None, :])
