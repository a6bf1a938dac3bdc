"""Shared exception types."""


class DimensionCapExceeded(Exception):
    """A construction would materialize a space above the caller's dimension cap."""


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
