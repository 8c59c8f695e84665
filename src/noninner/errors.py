"""Exception types shared across the package."""

from __future__ import annotations


class PresentationError(ValueError):
    """A presentation violates the structural rules for weighted
    power-commutator data (bad exponent range, non-ascending word,
    relation referring to a generator of too-low index, and so on).
    `PcPresentation` is the one place that raises it.

    `reason` names the broken rule, and `field`, `key` and `letter` say
    where: `field` is "prime" or "ngens" for a header value, else "pow"
    or "comm" with `key` the relation's key, i or (j, i), and `letter`
    the 0-based position of the offending letter in its word, or None
    when the key itself is at fault."""

    def __init__(self, reason: str, field: str, key=None, letter=None) -> None:
        where = f"{field} {key}" + ("" if letter is None else f", letter {letter + 1}")
        super().__init__(reason if key is None else f"{where}: {reason}")
        self.reason = reason
        self.field = field
        self.key = key
        self.letter = letter


class InconsistentPresentationError(ValueError):
    """The presentation is syntactically valid but does not define a
    group of order p**ngens.  Carries the overlap witness that failed."""

    def __init__(self, message: str, witness: "object" = None) -> None:
        super().__init__(message)
        self.witness = witness


class OrderBoundError(ValueError):
    """Enumeration of group elements exceeded the configured bound."""


class PcpSyntaxError(ValueError):
    """A .pcp file failed to parse.  Carries line/column of the offence."""

    def __init__(self, line: int, column: int, reason: str) -> None:
        super().__init__(f"line {line}, column {column}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason


class StructureError(RuntimeError):
    """A structural computation broke its own invariant: an upper or
    lower central series stopped short of its end.  The group of a
    consistent presentation is a p-group, hence nilpotent, so this
    indicates a bug rather than a property of the input."""


class SelectionError(RuntimeError):
    """An eligible group failed one of the guaranteed selection steps
    (no valid witness subgroup, no generator pair, ...).  Seeing this
    means either the eligibility gate or the selection logic is wrong."""


class CertificationError(RuntimeError):
    """A step of the certification of an eligible group failed its own
    check: a derivation is no cocycle, a lift is no automorphism of
    order p, or it is central or fixes the wrong subgroup.  Like
    SelectionError, this indicates a bug rather than a property of the
    input."""


class TheoremViolationError(RuntimeError):
    """Both lifted automorphisms of an eligible group turned out inner.
    The construction guarantees at least one is not, so this indicates
    a bug rather than a property of the input."""
