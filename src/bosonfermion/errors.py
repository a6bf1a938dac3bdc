"""Shared exception types."""


class DimensionCapExceeded(Exception):
    """A request or construction is above a cap: the command line's admission
    checks (``--max-degree``, the ``reg:n`` limit) and library guards such as
    ``symrep.REGULAR_DEGREE_CAP``.  The command line exits with code 3."""


class ChainComplexError(Exception):
    """A would-be complex fails d*d = 0 or equivariance; carries diagnostics."""


class IdempotentError(Exception):
    """A would-be idempotent fails e*e = e or projection∘inclusion = id."""


class RepresentationError(Exception):
    """A module breaks a Coxeter relation or a map fails to intertwine."""


class CharacterError(Exception):
    """A Frobenius character has a negative or non-integral multiplicity, a
    character table entry is not an integer, or a basis-change table mixes
    degrees."""
