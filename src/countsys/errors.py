"""Exception hierarchy for counting-system construction and derivation."""


class CountingSystemError(Exception):
    """Base class for all structured errors raised by this package."""


class BadIndex(CountingSystemError):
    def __init__(self, value, size):
        super().__init__(f"index {value!r} out of range for carrier of size {size}")
        self.value = value
        self.size = size


class EmptyIndexSet(CountingSystemError):
    def __init__(self):
        super().__init__("index set must be non-empty")


class DuplicateLabel(CountingSystemError):
    def __init__(self, label):
        super().__init__(f"duplicate label {label!r}")
        self.label = label


class NonCommuting(CountingSystemError):
    """Two generator maps disagree on some element: f_s(f_t(x)) != f_t(f_s(x))."""

    def __init__(self, s, t, x):
        super().__init__(f"maps {s!r} and {t!r} do not commute at element {x}")
        self.s = s
        self.t = t
        self.x = x


class UnknownLabel(CountingSystemError):
    def __init__(self, label, known):
        super().__init__(f"unknown label {label!r} (known: {', '.join(known)})")
        self.label = label


class IndexSetMismatch(CountingSystemError):
    def __init__(self, src_labels, dst_labels):
        super().__init__(
            f"index sets differ: {list(src_labels)} vs {list(dst_labels)}"
        )
        self.src_labels = tuple(src_labels)
        self.dst_labels = tuple(dst_labels)


class SingleMapRequired(CountingSystemError):
    def __init__(self, count):
        super().__init__(
            f"a single-map system is required; this one has {count} maps"
        )
        self.count = count


class LimitExceeded(CountingSystemError):
    pass


class CarrierTooLarge(LimitExceeded):
    def __init__(self, size, limit):
        super().__init__(f"carrier would have {size} elements; limit is {limit}")
        self.size = size
        self.limit = limit


class IndexSetTooLarge(LimitExceeded):
    def __init__(self, size, limit):
        super().__init__(f"index set would have {size} labels; limit is {limit}")
        self.size = size
        self.limit = limit


class ClosureTooLarge(LimitExceeded):
    def __init__(self, limit):
        super().__init__(f"transformation-monoid closure exceeds {limit} elements")
        self.limit = limit


class CompositionTableTooLarge(LimitExceeded):
    def __init__(self, size, limit):
        super().__init__(
            f"composition table (closure --full) needs a closure of at most "
            f"{limit} elements; this one has {size}"
        )
        self.size = size
        self.limit = limit


class WordsTooLarge(LimitExceeded):
    def __init__(self, size, limit):
        super().__init__(
            f"closure words (closure --json) would hold {size} labels; "
            f"limit is {limit}"
        )
        self.size = size
        self.limit = limit


class MinimalityRequired(CountingSystemError):
    """A derivation step needs a minimal system; carries the unreachable set."""

    def __init__(self, unreachable):
        self.unreachable = tuple(sorted(unreachable))
        super().__init__(
            "system is not minimal; unreachable elements: "
            + ", ".join(str(i) for i in self.unreachable)
        )


class GensDoNotGenerate(CountingSystemError):
    def __init__(self, gens, missing):
        self.gens = tuple(gens)
        self.missing = tuple(sorted(missing))
        super().__init__(
            f"elements {list(self.gens)} do not generate; "
            f"missing {list(self.missing)}"
        )


class CompatibilityViolated(CountingSystemError):
    """lambda_s(a_t) != lambda'_t(a_s) for some pair (s, t) of positions in
    the generator tuple."""

    def __init__(self, s, t, left, right):
        super().__init__(
            f"incompatible section homomorphisms at generator positions "
            f"({s}, {t}): {left} != {right}"
        )
        self.s = s
        self.t = t


class OdotNotTotal(CountingSystemError):
    def __init__(self, s, t):
        super().__init__(f"index-set operation undefined at ({s!r}, {t!r})")
        self.s = s
        self.t = t


class InternalInvariantViolation(CountingSystemError):
    """A property that must hold on valid input failed; this is a bug, not data."""


class ParseError(CountingSystemError):
    def __init__(self, line, col, message):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.reason = message
