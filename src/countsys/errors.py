"""Exception hierarchy for counting-system construction and derivation.

An error class declares `fields`, its argument names in order, and a
`message` template over them; the base constructor formats the message and
stores each argument under its field name.  A class without a template
passes its arguments to Exception unchanged.  Every error keeps the
arguments it was constructed from, and pickle and copy rebuild it from them.

A NegativeVerdict is a well-formed "no", not a fault: `cli.run_cli`, which
alone maps outcomes to exit codes, prints it as it is with exit code 1.
"""


class CountingSystemError(Exception):
    """Base class for all structured errors raised by this package."""

    fields = ()
    message = None

    def __new__(cls, *args):
        self = super().__new__(cls, *args)
        self._arguments = args
        return self

    def __reduce__(self):
        return type(self), self._arguments

    def __init__(self, *args):
        if self.message is None:
            super().__init__(*args)
        elif len(args) != len(self.fields):
            raise TypeError(f"{type(self).__name__} takes the fields "
                            f"{', '.join(self.fields)}; got {len(args)}")
        else:
            self.__dict__.update(zip(self.fields, args))
            super().__init__(self.message.format_map(self.__dict__))


class BadIndex(CountingSystemError):
    fields = ("value", "size")
    message = "index {value!r} out of range for carrier of size {size}"


class EmptyIndexSet(CountingSystemError):
    message = "index set must be non-empty"


class DuplicateLabel(CountingSystemError):
    fields = ("label",)
    message = "duplicate label {label!r}"


class NonCommuting(CountingSystemError):
    """Two generator maps disagree on some element: f_s(f_t(x)) != f_t(f_s(x))."""

    fields = ("s", "t", "x")
    message = "maps {s!r} and {t!r} do not commute at element {x}"


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
    fields = ("count",)
    message = "a single-map system is required; this one has {count} maps"


class LimitExceeded(CountingSystemError):
    pass


class CarrierTooLarge(LimitExceeded):
    fields = ("size", "limit")
    message = "carrier would have {size} elements; limit is {limit}"


class IndexSetTooLarge(LimitExceeded):
    fields = ("size", "limit")
    message = "index set would have {size} labels; limit is {limit}"


class ClosureTooLarge(LimitExceeded):
    fields = ("limit",)
    message = "transformation-monoid closure exceeds {limit} elements"


class CompositionTableTooLarge(LimitExceeded):
    fields = ("size", "limit")
    message = ("composition table (closure --full) needs a closure of at most "
               "{limit} elements; this one has {size}")


class WordsTooLarge(LimitExceeded):
    fields = ("size", "limit")
    message = ("closure words (closure --json) would hold {size} labels; "
               "limit is {limit}")


class InputTooLarge(LimitExceeded):
    fields = ("path", "limit")
    message = "input {path!r} holds more than {limit} characters"


class MinimalityRequired(CountingSystemError):
    """A derivation step needs a minimal system; carries the unreachable set."""

    def __init__(self, unreachable):
        self.unreachable = tuple(sorted(unreachable))
        super().__init__("system is not minimal; unreachable elements: "
                         + ", ".join(str(i) for i in self.unreachable))


class GensDoNotGenerate(CountingSystemError):
    def __init__(self, gens, missing):
        self.gens = tuple(gens)
        self.missing = tuple(sorted(missing))
        super().__init__(f"elements {list(self.gens)} do not generate; "
                         f"missing {list(self.missing)}")


class TargetCountMismatch(CountingSystemError):
    fields = ("gens", "targets")
    message = "{gens} generators but {targets} targets"


class CompatibilityViolated(CountingSystemError):
    """lambda_s(a_t) != lambda'_t(a_s) for some pair (s, t) of positions in
    the generator tuple."""

    fields = ("s", "t", "left", "right")
    message = ("incompatible section homomorphisms at generator positions "
               "({s}, {t}): {left} != {right}")


class OdotNotTotal(CountingSystemError):
    fields = ("s", "t")
    message = "index-set operation undefined at ({s!r}, {t!r})"


class NegativeVerdict(CountingSystemError):
    """A well-formed negative verdict: printed as it is, with exit code 1."""


class ExtensionVerdict(NegativeVerdict):
    """No extension exists: `conflict`, a core.ExtensionConflict, shows it."""

    fields = ("verdict", "conflict")
    message = "{verdict}"


class InternalInvariantViolation(CountingSystemError):
    """A property that must hold on valid input failed; this is a bug, not data."""


class ParseError(CountingSystemError):
    fields = ("line", "col", "reason")
    message = "line {line}, col {col}: {reason}"
